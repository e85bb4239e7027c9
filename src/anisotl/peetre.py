"""The Peetre shell sweep: weighted suprema over torus offsets.

The supremum over offsets z is organized by quasi-norm shells: the weight
(1 + rho(A^m z))^-beta is constant on each shell, so the running maximum
over the nested balls ball_m = {0} u {z : shell(z) <= m} evaluates the
weighted supremum exactly on the grid, for several betas in one sweep.
offset_shells builds the balls of every scale matrix of a sweep together:
one shell_index call and one _ball_windows call per group of matrices,
each solving only the offsets that are not the exact negation of an
earlier one (shell_index is even), and stores each matrix's balls under
its own key as the power-of-two windows covering their row runs.
_ball_maxima wrap-pads the field once and reads every window from a
lazily built doubling table of running maxima over the last axis (van
Herk / Gil-Werman), so a sweep takes two views per run, gathers nothing
per offset and is bit-exact; norms.hl_maximal takes its suprema over
ball centers from the same tables.
Far shells beyond the search radius are dropped; a boundary dominance
flag marks points where the outermost shell still competes, making the
truncation auditable.

All transforms are pure and operate on immutable inputs; they can be
mapped over scales or fields in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, cached_batch, mirror_rows, offset_index_vectors
# the one store, under the name perfbench/tracer.py probes for shell hits
from .grids import _CACHE as _SHELL_CACHE
from .linalg_expansive import QuasiNormStructure

_BOUNDARY_FRACTION = 0.95
# offset_shells builds at most this many torus offsets (matrices times grid
# points, but at least one matrix) per shell_index call, so the scratch of
# one build stays bounded however many scales a sweep has
_GROUP_OFFSETS = 1 << 14

# Offset-table row p and FFT array position p describe the same node, so
# kernels built over the offset table line up with plain C-order raveling,
# and a mask over the offset table is a mask in raw 0..n-1 coordinates.


@dataclass(frozen=True)
class OffsetShells:
    """Nested balls of torus offsets, one per kept shell m of rho(M z),
    ascending: ball_m holds the origin and every offset of shell <= m."""

    grid: GridSpec
    shells: tuple[int, ...]
    groups: tuple[np.ndarray, ...]  # per ball, window rows (k, lead shifts..., start)
    truncated: bool                 # shells beyond the search radius exist


def offset_shells(
    grid: GridSpec,
    S: QuasiNormStructure,
    scale_matrices,
    search_shells: int,
) -> list[OffsetShells]:
    """Per scale matrix M, the balls of the torus offsets by the shell
    index of rho(M z), up to shell search_shells.

    ball_m holds the origin and the offsets of shell <= m, for each present
    shell m <= search_shells (shells lie in [-CL - 1, CL]).  Each result is
    stored under its own matrix's key, so sweeps over overlapping scales
    share it; the matrices not yet stored are built together, in groups of
    at most _GROUP_OFFSETS torus offsets.  A search radius below 1 raises
    ValueError.
    """
    if search_shells < 1:
        raise ValueError(f"search_shells = {search_shells} must be at least 1")
    matrices = [np.asarray(M, dtype=float) for M in scale_matrices]
    keys = [("shells", grid, S.value_key, M.tobytes(), search_shells) for M in matrices]
    by_key = dict(zip(keys, matrices))
    per_group = max(1, _GROUP_OFFSETS // grid.size)

    def build(missing):
        todo = [by_key[key] for key in missing]
        return [
            struct
            for i in range(0, len(todo), per_group)
            for struct in _build_shells(grid, S, todo[i : i + per_group], search_shells)
        ]

    return cached_batch(keys, build)


def _build_shells(
    grid: GridSpec, S: QuasiNormStructure, matrices: list, search_shells: int
) -> list[OffsetShells]:
    """The balls of several matrices from one shell_index call and one
    _ball_windows call.

    shell_index(-x) equals shell_index(x) bit for bit, as the quadratic
    form and member are even in x.  So a row whose point M z is the exact
    negation of an earlier row's point copies that row's shell, and only
    the others are solved: about half the table, with every row that has a
    -n/2 component (its negation is not a table offset).  The pairing is
    grids.mirror_rows, which ScaleGauge.t_grid shares.
    """
    offs = offset_index_vectors(grid)
    points = [(offs * grid.h) @ M.T for M in matrices]
    pairs = [mirror_rows(grid, pts) for pts in points]  # row 0 is never read
    solved, _ = S.shell_index(np.concatenate([p[~c] for p, (_, c) in zip(points, pairs)]))
    heads = np.cumsum([0] + [grid.size - np.count_nonzero(c) for _, c in pairs])
    kept, masks = [], []
    for (mirror, copy), a, b in zip(pairs, heads[:-1], heads[1:]):
        shell = np.empty(grid.size, dtype=solved.dtype)
        shell[~copy] = solved[a:b]
        shell[copy] = shell[mirror[copy]]
        shell = shell[1:]
        shells = np.unique(shell[shell <= search_shells])
        mask = np.ones((len(shells), grid.size), dtype=bool)  # the origin
        mask[:, 1:] = shell <= shells[:, None]
        masks.append(mask)
        kept.append((tuple(int(m) for m in shells), bool(shell.max() > search_shells)))
    tables = _ball_windows(np.concatenate(masks).reshape((-1,) + grid.shape))
    ends = np.cumsum([0] + [len(shells) for shells, _ in kept])
    return [
        OffsetShells(grid=grid, shells=shells, groups=tuple(tables[a:b]), truncated=truncated)
        for (shells, truncated), a, b in zip(kept, ends[:-1], ends[1:])
    ]


def _ball_windows(masks: np.ndarray) -> list[np.ndarray]:
    """Windows covering torus balls given as masks (balls, *grid shape) in
    raw coordinates.

    Each row of a mask splits into cyclic runs of consecutive last-axis
    members; a run of length L from start s is covered by the windows of
    length 2^k <= L < 2^(k+1) at s and s + L - 2^k (one if they coincide).
    Returns per ball the windows as int rows (k, lead shifts..., start).
    """
    shape = masks.shape[1:]
    n = shape[-1]
    rows = masks.reshape(-1, n)
    full = rows.all(axis=1)  # a full row is one run from 0 to n - 1
    starts = rows & ~np.concatenate([rows[:, -1:], rows[:, :-1]], axis=1)
    ends = rows & ~np.concatenate([rows[:, 1:], rows[:, :1]], axis=1)
    starts[full, 0] = ends[full, -1] = True
    r, start = np.nonzero(starts)
    end = np.nonzero(ends)[1]
    # a run ends at the row's next end; in a row whose run wraps past the
    # last column the first end belongs to the last start
    count = np.bincount(r, minlength=len(rows))
    first = (np.cumsum(count) - count)[r]
    wraps = (rows[:, 0] & rows[:, -1])[r]
    partner = first + (np.arange(r.size) - first + wraps) % count[r]
    length = (end[partner] - start) % n + 1
    k = np.frexp(length)[1] - 1  # 2^k <= length < 2^(k+1)
    ball, row = np.divmod(r, int(np.prod(shape[:-1])))
    lead = np.unravel_index(row, shape[:-1]) if len(shape) > 1 else ()
    windows = np.stack(
        [np.column_stack([k, *lead, s]) for s in (start, start + length - (1 << k))],
        axis=1,
    )
    keep = np.column_stack([np.ones_like(r, dtype=bool), length > (1 << k)])
    windows, ball = windows[keep], np.repeat(ball, keep.sum(axis=1))
    return np.split(windows, np.searchsorted(ball, np.arange(1, len(masks))))


def _ball_maxima(values: np.ndarray, tables):
    """Per window table, the max of values(x + z) over its ball, for every
    x on the torus, yielded table by table.

    The field is wrap-padded once; D_k, the max over 2^k consecutive
    last-axis entries, is built from D_(k-1) only up to the largest k a
    window needs, and each window is one view of it.
    """
    shape = values.shape
    pad = [(0, n) for n in shape[:-1]] + [(0, 2 * shape[-1])]
    levels = [np.pad(values, pad, mode="wrap")]
    for table in tables:
        out = None
        for k, *corner in table.tolist():
            while len(levels) <= k:
                w = 1 << (len(levels) - 1)
                levels.append(np.maximum(levels[-1][..., :-w], levels[-1][..., w:]))
            view = levels[k][tuple(slice(a, a + n) for a, n in zip(corner, shape))]
            if out is None:
                out = view.copy()
            else:
                np.maximum(out, view, out=out)
        yield out


def weighted_sup_multi(
    band_abs: np.ndarray,
    struct: OffsetShells,
    betas,
    absdet: float,
) -> dict[float, tuple[np.ndarray, bool]]:
    """sup_z |F(x+z)| (1 + rho(M z))^-beta for several betas in one sweep.

    Returns per beta the supremum field and the boundary-dominance flag
    (outermost kept shell within 5% of the maximum somewhere).  An
    all-zero band is its own supremum field and skips the sweep; where
    shells were dropped it flags, as every kept shell ties 0 >= 0.95 * 0.
    """
    values = np.asarray(band_abs, dtype=float).reshape(struct.grid.shape)
    betas = list(betas)
    results = {b: values.copy() for b in betas}  # z = 0 term, weight 1
    swept = bool(values.any())
    last_candidates: dict[float, np.ndarray] = {}
    maxima = _ball_maxima(values, struct.groups) if swept else ()
    for m, running in zip(struct.shells, maxima):
        shell_rho = absdet ** float(m)
        for b in betas:
            cand = running * (1.0 + shell_rho) ** (-b)
            np.maximum(results[b], cand, out=results[b])
            last_candidates[b] = cand
    out = {}
    for b in betas:
        res = results[b]
        flag = False
        if struct.shells and struct.truncated:
            flag = not swept or bool(np.any(last_candidates[b] >= _BOUNDARY_FRACTION * res))
        res.flags.writeable = False
        out[b] = (res, flag)
    return out
