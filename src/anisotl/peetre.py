"""Peetre-type maximal functions and the anisotropic Hardy-Littlewood
maximal operator.

The supremum over offsets z is organized by quasi-norm shells: the weight
(1 + rho(A^m z))^-beta is constant on each shell, so a running maximum
over shell-grouped torus offsets evaluates the weighted supremum exactly
on the grid, for several betas in one sweep.  The shell maxima come from
_shift_max: the field is wrap-padded once by the largest offset per axis
and each shell's offsets are read from a sliding-window view of it, so no
gather table is built and the result is bit-exact.  Far shells beyond the
search radius are dropped; a boundary dominance flag marks points where
the outermost shell still competes, making the truncation auditable.

All transforms are pure and operate on immutable inputs; they can be
mapped over scales or fields in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .field_engine import ScaleBand
from .grids import GridSpec, offset_index_vectors
from .linalg_expansive import QuasiNormStructure

_BOUNDARY_FRACTION = 0.95

# Offset-table row p and FFT array position p describe the same node, so
# kernels built over the offset table line up with plain C-order raveling.


@dataclass(frozen=True)
class OffsetShells:
    """Torus offsets grouped by the shell of rho(M z), ascending."""

    grid: GridSpec
    shells: tuple[int, ...]
    groups: tuple[np.ndarray, ...]  # offset index vectors per shell
    truncated: bool                 # shells beyond the search radius exist
    rho_values: np.ndarray          # rho(M z) for every flat offset index


_SHELL_CACHE: dict = {}
_SHELL_CACHE_CAP = 192


def offset_shells(
    grid: GridSpec,
    S: QuasiNormStructure,
    scale_matrix: np.ndarray,
    search_shells: int | None,
) -> OffsetShells:
    """Group all nonzero torus offsets by the shell index of rho(M z)."""
    matrix = np.asarray(scale_matrix, dtype=float)
    key = (grid, S.value_key, matrix.tobytes(), search_shells)
    if key in _SHELL_CACHE:
        return _SHELL_CACHE[key]
    offs = offset_index_vectors(grid)
    z = offs * grid.h
    u = z @ matrix.T
    shell, _ = S.shell_index(u)
    nonzero = np.any(offs != 0, axis=1)
    clipped = np.clip(shell, -S.shell_clamp, S.shell_clamp + 1)
    rho = S._pow_table[clipped + S.shell_clamp]
    rho = np.where(nonzero, rho, 0.0)
    shell = np.where(nonzero, shell, np.iinfo(np.int64).min)

    present = np.unique(shell[nonzero])
    if search_shells is None:
        kept = present
        truncated = False
    else:
        kept = present[present <= search_shells]
        truncated = bool(np.any(present > search_shells))
    groups = tuple(offs[shell == m] for m in kept)
    out = OffsetShells(
        grid=grid,
        shells=tuple(int(m) for m in kept),
        groups=groups,
        truncated=truncated,
        rho_values=rho,
    )
    if len(_SHELL_CACHE) >= _SHELL_CACHE_CAP:
        _SHELL_CACHE.pop(next(iter(_SHELL_CACHE)))
    _SHELL_CACHE[key] = out
    return out


def _shift_max(values: np.ndarray, groups) -> list[np.ndarray]:
    """Per group of offsets z, max over the group of values(x + z) on the
    torus, for every x; the field is padded once for all groups."""
    if not groups:
        return []
    r = np.abs(np.concatenate(groups)).max(axis=0)
    padded = np.pad(values, np.stack([r, r], axis=1), mode="wrap")
    windows = sliding_window_view(padded, tuple(2 * r + 1))
    return [windows[(Ellipsis,) + tuple((g + r).T)].max(axis=-1) for g in groups]


def weighted_sup_multi(
    band_abs: np.ndarray,
    struct: OffsetShells,
    betas,
    absdet: float,
) -> dict[float, tuple[np.ndarray, bool]]:
    """sup_z |F(x+z)| (1 + rho(M z))^-beta for several betas in one sweep.

    Returns per beta the supremum field and the boundary-dominance flag
    (outermost kept shell within 5% of the maximum somewhere).
    """
    values = np.asarray(band_abs, dtype=float).reshape(struct.grid.shape)
    betas = list(betas)
    results = {b: values.copy() for b in betas}  # z = 0 term, weight 1
    running = values.copy()
    last_candidates: dict[float, np.ndarray] = {}
    for m, group_max in zip(struct.shells, _shift_max(values, struct.groups)):
        np.maximum(running, group_max, out=running)
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
            flag = bool(np.any(last_candidates[b] >= _BOUNDARY_FRACTION * res))
        res.flags.writeable = False
        out[b] = (res, flag)
    return out


@dataclass(frozen=True)
class PeetreField:
    """Weighted maximal field of one scale band."""

    scale: float
    beta: float
    values: np.ndarray
    boundary_flag: bool


def peetre_maximal(
    band: ScaleBand,
    S: QuasiNormStructure,
    beta: float,
    search_radius_shells: int = 2,
    scale_matrix: np.ndarray | None = None,
) -> PeetreField:
    """sup_z |(f * phi_s)(x+z)| / (1 + rho(A^s z))^beta on the grid.

    scale_matrix overrides A^s (the group-side variant passes A^-s).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if search_radius_shells < 1:
        raise ValueError("searchRadiusShells must be >= 1")
    E = S.owner
    if scale_matrix is None:
        scale_matrix = E.power(band.scale)
    struct = offset_shells(band.grid, S, scale_matrix, search_radius_shells)
    res = weighted_sup_multi(band.abs_values, struct, [beta], E.absdet)
    values, flag = res[beta]
    return PeetreField(scale=band.scale, beta=beta, values=values, boundary_flag=flag)


def check_submeanvalue(
    band: ScaleBand,
    S: QuasiNormStructure,
    beta: float,
    q: float,
    search_radius_shells: int = 3,
) -> dict:
    """Compare the q-th power of the maximal field against the weighted
    band average dominating it; reports the worst ratio (finite and stable
    when the sub-mean-value inequality holds)."""
    E = S.owner
    Ms = E.power(band.scale)
    grid = band.grid
    pf = peetre_maximal(band, S, beta, search_radius_shells)
    struct = offset_shells(grid, S, Ms, None)
    kernel = (grid.cell_volume / (1.0 + struct.rho_values) ** (beta * q)).reshape(
        grid.shape
    )
    rhs = np.fft.ifftn(np.fft.fftn(band.abs_values**q) * np.fft.fftn(kernel)).real
    rhs *= E.absdet ** band.scale
    lhs = pf.values**q
    mask = rhs > 1e-300
    ratio = np.zeros_like(lhs)
    ratio[mask] = lhs[mask] / rhs[mask]
    return {
        "max_ratio": float(np.max(ratio)) if np.any(mask) else 0.0,
        "mean_ratio": float(np.mean(ratio[mask])) if np.any(mask) else 0.0,
        "boundary_flag": pf.boundary_flag,
    }


@dataclass(frozen=True)
class MaximalField:
    """Anisotropic Hardy-Littlewood maximal function over shell balls."""

    values: np.ndarray
    shell_range: tuple[int, int]


def hl_maximal(
    source: np.ndarray,
    S: QuasiNormStructure,
    shell_range: tuple[int, int],
    grid: GridSpec,
) -> MaximalField:
    """sup over balls B = A^l Omega + z containing x of the average of
    |source| over B, for l in shell_range; the degenerate single-cell
    ball is always included so the result dominates |source|."""
    lo, hi = shell_range
    absval = np.abs(np.asarray(source)).astype(float)
    offs = offset_index_vectors(grid)
    z = offs * grid.h
    result = absval.copy()  # single-cell ball
    for level in range(lo, hi + 1):
        M = np.linalg.inv(np.asarray(S.owner.power(level)))
        inside = S.contains(z @ M.T)
        count = int(np.count_nonzero(inside))
        if count == 0:
            continue
        kern = np.zeros(grid.size)
        kern[inside] = 1.0 / count
        avg = np.fft.ifftn(
            np.fft.fftn(absval) * np.fft.fftn(kern.reshape(grid.shape))
        ).real
        # sup over ball centers within x + A^l Omega
        np.maximum(result, _shift_max(avg, [offs[inside]])[0], out=result)
    result.flags.writeable = False
    return MaximalField(values=result, shell_range=(lo, hi))
