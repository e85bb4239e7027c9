"""Endpoint smoothness quasi-norms: localized window averages of scale
aggregates, their l-infinity variants, the sup-norm scale form, and the
Peetre-type characterizations; with them the anisotropic Hardy-Littlewood
maximal operator, whose ball averages are the ball windows', and the
sub-mean-value check of Peetre maximal fields.

Every norm here is a supremum of window averages over a truncated family
of windows (dilated cubes or quasi-norm balls), with the inner scale
aggregation coupled to the window level: only scales finer than the
window contribute.  The truncation ranges are explicit in NormParams and
the attaining window is reported with saturation flags, so every
approximated supremum is auditable.

Window enumeration and averaging are pure; evaluation parallelizes over
windows and scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import WindowOutOfDomain
from .field_engine import SampledField, ScaleBand, convolve_scale
from .grids import GridSpec, cached, offset_index_vectors, spatial_points
from .linalg_expansive import QuasiNormStructure
from .peetre import _ball_maxima, _ball_windows, offset_shells, weighted_sup_multi

_COUPLE_TOL = 1e-9
_TAIL_FRACTION = 1e-6


@dataclass(frozen=True)
class NormParams:
    """Truncation and window policy shared by all norm evaluators.

    q may be math.inf.  beta is only consulted by the Peetre-type
    characterizations, which require beta > 1/q (q < inf) or beta > 1
    (q = inf).  scale_max (J) truncates the fine-scale sum; window levels
    run over [ell_min, ell_max].  s_step is the continuous-scale
    quadrature step; below q = 1 it is tightened to at most 1/16.
    """

    alpha: float
    q: float
    beta: float = 1.0
    scale_max: int = 5
    ell_min: int = -3
    ell_max: int = 2
    window: str = "cube"
    s_step: float = 0.125
    search_shells: int = 2

    def __post_init__(self):
        if not self.q > 0:  # NaN too
            raise ValueError(f"q = {self.q} must lie in (0, inf]")
        for name in ("alpha", "beta", "s_step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)} must be finite")
        if self.window not in ("cube", "ball"):
            raise ValueError(f"unknown window kind {self.window!r}")

    @property
    def effective_s_step(self) -> float:
        if self.q < 1.0:
            return min(self.s_step, 1.0 / 16.0)
        return self.s_step

    @property
    def discrete_scales(self) -> list[int]:
        """The integer scales -ell_max, ..., scale_max of the discrete norms."""
        return list(range(-self.ell_max, self.scale_max + 1))

    @property
    def continuous_scales(self) -> np.ndarray:
        """The same range in steps of effective_s_step."""
        step = self.effective_s_step
        n = int(round((self.scale_max + self.ell_max) / step))
        return -self.ell_max + step * np.arange(n + 1)

    def require_characterization_beta(self) -> None:
        if math.isinf(self.q):
            if self.beta <= 1.0:
                raise ValueError("beta must exceed 1 for the q = inf characterization")
        elif self.beta <= 1.0 / self.q:
            raise ValueError("beta must exceed 1/q for the characterization")


@dataclass(frozen=True)
class NormReport:
    value: float
    arg_ell: int | None
    arg_window: tuple | None
    flags: dict

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "arg_ell": self.arg_ell,
            "arg_window": None if self.arg_window is None else list(self.arg_window),
            "flags": self.flags,
        }


# ---------------------------------------------------------------------------
# Window tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CubeWindows:
    labels: np.ndarray      # (W, d) integer window indices k
    inverse: np.ndarray     # per grid point, window row
    counts: np.ndarray
    admissible: np.ndarray  # bool per window: fully inside the box

    def means(self, values_flat: np.ndarray, grid: GridSpec) -> np.ndarray:
        sums = np.bincount(self.inverse, weights=values_flat, minlength=len(self.counts))
        return sums / self.counts

    def window_id(self, row: int, grid: GridSpec) -> tuple:
        return tuple(int(v) for v in self.labels[row])


_WINDOW_CACHE: dict = {}


def cube_windows(grid: GridSpec, S: QuasiNormStructure, ell: int) -> _CubeWindows:
    def build():
        E = S.owner
        pts = spatial_points(grid)
        inv_pow = np.linalg.inv(np.asarray(E.power(ell)))
        y = pts @ inv_pow.T
        k = np.floor(y).astype(np.int64)
        labels, inverse, counts = np.unique(
            k, axis=0, return_inverse=True, return_counts=True
        )
        corners = np.stack(
            np.meshgrid(*([np.array([0.0, 1.0])] * grid.d), indexing="ij"), axis=-1
        ).reshape(-1, grid.d)
        pow_mat = np.asarray(E.power(ell))
        admissible = np.ones(len(labels), dtype=bool)
        for c in corners:
            corner_pts = (labels + c) @ pow_mat.T
            admissible &= np.all(np.abs(corner_pts) <= grid.extent + 1e-12, axis=1)
        return _CubeWindows(
            labels=labels, inverse=inverse.ravel(), counts=counts, admissible=admissible
        )

    return cached(_WINDOW_CACHE, ("cube", grid, S.value_key, ell), build)


@dataclass(frozen=True)
class _BallWindows:
    kernel_fft: np.ndarray   # FFT of indicator / count
    admissible: np.ndarray   # bool per grid point (flat): usable center
    inside: np.ndarray       # bool per torus offset (flat): the ball A^ell Omega
    count: int

    def means(self, values_flat: np.ndarray, grid: GridSpec) -> np.ndarray:
        conv = np.fft.ifftn(np.fft.fftn(values_flat.reshape(grid.shape)) * self.kernel_fft)
        return conv.real.ravel()

    def window_id(self, row: int, grid: GridSpec) -> tuple:
        return tuple(float(v) for v in spatial_points(grid)[row])


def ball_windows(grid: GridSpec, S: QuasiNormStructure, ell: int) -> _BallWindows:
    def build():
        offs = offset_index_vectors(grid)
        z = offs * grid.h
        inv_pow = np.linalg.inv(np.asarray(S.owner.power(ell)))
        inside = S.contains(z @ inv_pow.T)
        count = int(np.count_nonzero(inside))
        if count == 0:
            return _BallWindows(
                kernel_fft=np.zeros(grid.shape, dtype=complex),
                admissible=np.zeros(grid.size, dtype=bool),
                inside=inside,
                count=0,
            )
        kern = np.zeros(grid.size)
        kern[inside] = 1.0 / count
        kernel_fft = np.fft.fftn(kern.reshape(grid.shape))
        ext = np.max(np.abs(z[inside]), axis=0)
        pts = spatial_points(grid)
        admissible = np.all(np.abs(pts) <= grid.extent - ext - grid.h, axis=1)
        return _BallWindows(
            kernel_fft=kernel_fft, admissible=admissible, inside=inside, count=count
        )

    return cached(_WINDOW_CACHE, ("ball", grid, S.value_key, ell), build)


def _windows(grid: GridSpec, S: QuasiNormStructure, ell: int, params: NormParams):
    """The window table of level ell for params.window."""
    if params.window == "cube":
        return cube_windows(grid, S, ell)
    return ball_windows(grid, S, ell)


# ---------------------------------------------------------------------------
# Aggregation engine
# ---------------------------------------------------------------------------


def sup_over_windows(
    grid: GridSpec,
    S: QuasiNormStructure,
    terms: list[tuple[float, float, np.ndarray]],
    params: NormParams,
    coupling: str = "fine",
) -> NormReport:
    """Supremum of window averages of coupled scale aggregates.

    terms: (scale, quadrature weight, nonnegative flat array); arrays are
    already alpha-weighted and q-powered for finite q.  coupling "fine"
    admits scale s into window level ell when s >= -ell; "group" when
    s <= ell.  For q = inf the weight entries are ignored and the sup
    over admitted scales of window means is taken instead.  A level whose
    table holds no admissible window is skipped and sets the
    window_level_missing flag; WindowOutOfDomain is raised when no level
    has one.  ell_saturated is set when the best level is the lowest or
    highest level that produced a windowed value.
    """
    q = params.q
    terms = sorted(terms, key=lambda it: it[0], reverse=(coupling == "fine"))
    # with this ordering, the admitted set only grows as ell increases
    best = -1.0
    best_ell = best_row = best_window = None
    searched: list[int] = []  # the levels that produced a windowed value
    level_missing = False
    tail_flag = False
    running: np.ndarray | None = None
    idx = 0
    finite_q = not math.isinf(q)

    for ell in range(params.ell_min, params.ell_max + 1):
        if coupling == "fine":
            def admitted(s):
                return s >= -ell - _COUPLE_TOL
        else:
            def admitted(s):
                return s <= ell + _COUPLE_TOL

        if finite_q:
            while idx < len(terms) and admitted(terms[idx][0]):
                s, w, arr = terms[idx]
                contrib = w * arr
                running = contrib.copy() if running is None else running + contrib
                idx += 1
            if running is None:
                continue
            stack = [running]
        else:
            stack = [arr for s, _, arr in terms if admitted(s)]
            if not stack:
                continue

        table = _windows(grid, S, ell, params)
        rows = np.flatnonzero(table.admissible)
        if not rows.size:
            level_missing = True
            continue
        searched.append(ell)
        means = None
        for arr in stack:
            m = table.means(arr, grid)
            means = m if means is None else np.maximum(means, m)
        row = rows[int(np.argmax(means[rows]))]
        val = float(means[row])

        if finite_q:
            val = val ** (1.0 / q) if val > 0 else 0.0
        if val > best:
            best, best_ell, best_row = val, ell, row
            best_window = table.window_id(row, grid)

    if not searched:
        raise WindowOutOfDomain(
            "no admissible window in the configured level range"
        )

    if best < 0:
        best = 0.0

    # tail audit: weight of the finest admitted scale at the optimum
    if finite_q and best > 0 and terms:
        fine_scale, w_f, arr_f = (
            max(terms, key=lambda it: it[0])
            if coupling == "fine"
            else min(terms, key=lambda it: it[0])
        )
        m = _windows(grid, S, best_ell, params).means(w_f * arr_f, grid)[best_row]
        tail_flag = bool(m > _TAIL_FRACTION * best**q)

    flags = {
        "ell_saturated": best_ell in (searched[0], searched[-1]),
        "scale_tail": tail_flag,
        "window_level_missing": level_missing,
    }
    return NormReport(value=best, arg_ell=best_ell, arg_window=best_window, flags=flags)


# ---------------------------------------------------------------------------
# Term builders
# ---------------------------------------------------------------------------


def band_arrays(f: SampledField, profile, scales) -> dict[float, np.ndarray]:
    """|f * phi_s| on the grid per scale."""
    return {
        float(s): convolve_scale(f, profile, float(s)).abs_values.ravel()
        for s in scales
    }


def peetre_arrays(
    grid: GridSpec,
    S: QuasiNormStructure,
    bands: dict[float, np.ndarray],
    betas,
    search_shells: int,
) -> dict[float, tuple[dict[float, np.ndarray], bool]]:
    """Peetre maximal fields of bands (scale s -> |f * phi_s| on grid, as
    band_arrays returns them; weight (1 + rho(A^s z))^-beta) for several
    betas from one sweep per scale; returns per beta the fields and the
    or-ed boundary flag."""
    betas = list(betas)
    arrays = {b: {} for b in betas}
    flagged = dict.fromkeys(betas, False)
    E = S.owner
    for s, band in bands.items():
        struct = offset_shells(grid, S, E.power(s), search_shells)
        res = weighted_sup_multi(band, struct, betas, E.absdet)
        for b, (vals, flag) in res.items():
            arrays[b][s] = vals.ravel()
            flagged[b] = flagged[b] or flag
    return {b: (arrays[b], flagged[b]) for b in betas}


def _weighted_terms(
    arrays: dict[float, np.ndarray],
    alpha: float,
    q: float,
    absdet: float,
    quad_weight,
) -> list[tuple[float, float, np.ndarray]]:
    terms = []
    for s, arr in arrays.items():
        try:
            weight = absdet ** (alpha * s)
        except OverflowError:
            weight = math.inf
        if math.isinf(weight):
            raise ValueError(f"|det A|^(alpha s) overflows at alpha = {alpha:g}, s = {s:g}")
        scaled = weight * arr
        if math.isinf(q):
            terms.append((s, 1.0, scaled))
        else:
            terms.append((s, quad_weight(s), scaled**q))
    return terms


# ---------------------------------------------------------------------------
# Norm operations
# ---------------------------------------------------------------------------
# Each norm aggregates the per-scale arrays it is handed (band_arrays,
# peetre_arrays) at the scales it reads, and ignores any others.  The
# arrays depend on neither q nor alpha, so a caller that evaluates several
# exponents builds them once, over the union of the scales its norms read.


def _pick_scales(arrays: dict, scales) -> dict[float, np.ndarray]:
    """The arrays at the norm's scales, in their order, looked up by exact
    key; ValueError names the scales that have none."""
    keys = [float(s) for s in scales]
    missing = [s for s in keys if s not in arrays]
    if missing:
        raise ValueError(f"no arrays at the norm's scales {missing}")
    return {s: arrays[s] for s in keys}


def windowed_norm(
    grid: GridSpec,
    S: QuasiNormStructure,
    arrays: dict,
    scales,
    params: NormParams,
    quad_weight,
    coupling: str = "fine",
) -> NormReport:
    """The body shared by tl_norm_q, tl_peetre_norm and pti_norm: the
    arrays at scales, looked up by exact key, weighted by
    |det A|^(alpha s) and, below q = inf, raised to the q-th power with
    quadrature weight quad_weight(s); then sup_over_windows with coupling.
    The Peetre-type callers add their sweep's peetre_boundary flag."""
    picked = _pick_scales(arrays, scales)
    terms = _weighted_terms(picked, params.alpha, params.q, S.owner.absdet, quad_weight)
    return sup_over_windows(grid, S, terms, params, coupling=coupling)


def tl_norm_q(
    grid: GridSpec, S: QuasiNormStructure, bands: dict, params: NormParams
) -> NormReport:
    """Localized small-scale norm with the l^q sum inside the window average
    (for q = inf, the sup over scales outside it), from the bands
    |f * phi_j| at params.discrete_scales."""
    return windowed_norm(grid, S, bands, params.discrete_scales, params, lambda s: 1.0)


def tl_norm_inf(
    grid: GridSpec, S: QuasiNormStructure, bands: dict, params: NormParams
) -> NormReport:
    """Variant with the sup over scales outside the window average."""
    return tl_norm_q(grid, S, bands, replace(params, q=math.inf))


def besov_norm(S: QuasiNormStructure, bands: dict, params: NormParams) -> NormReport:
    """sup_j |det A|^(alpha j) max_x |f * phi_j|, from the bands at
    params.discrete_scales."""
    bands = _pick_scales(bands, params.discrete_scales)
    absdet = S.owner.absdet
    best, arg = 0.0, None
    for s, arr in bands.items():
        v = absdet ** (params.alpha * s) * float(np.max(arr))
        if v > best:
            best, arg = v, int(s)
    return NormReport(
        value=best,
        arg_ell=arg,
        arg_window=None,
        flags={"scale_saturated": arg in (-params.ell_max, params.scale_max)},
    )


def tl_peetre_norm(
    grid: GridSpec,
    S: QuasiNormStructure,
    maximal: tuple[dict, bool],
    params: NormParams,
    discrete: bool = True,
) -> NormReport:
    """Maximal-function characterization value (discrete or continuous
    scales).  maximal is peetre_arrays' entry for params.beta: the Peetre
    fields at (at least) params.discrete_scales or params.continuous_scales,
    and the boundary flag of their sweep."""
    params.require_characterization_beta()
    arrays, flagged = maximal
    if discrete:
        scales, step = params.discrete_scales, 1.0
    else:
        scales, step = params.continuous_scales, params.effective_s_step
    rep = windowed_norm(grid, S, arrays, scales, params, lambda s: step)
    rep.flags["peetre_boundary"] = flagged
    return rep


def embedding_check(tl_q: NormReport, tl_inf: NormReport, besov: NormReport) -> dict:
    """Besov versus localized-norm ratios of one field's tl_norm_q,
    tl_norm_inf and besov_norm reports, or skipped when a localized norm
    is zero.  At q = inf tl_q is tl_inf, so inf_over_q is 1."""
    if not (tl_q.value > 0 and tl_inf.value > 0):
        return {"skipped": True}
    return {
        "skipped": False,
        "inf_over_q": tl_inf.value / tl_q.value,
        "besov_over_inf": besov.value / tl_inf.value,
    }


# ---------------------------------------------------------------------------
# Maximal inequalities
# ---------------------------------------------------------------------------


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
    sweep = peetre_arrays(grid, S, {band.scale: band.abs_values}, [beta], search_radius_shells)
    fields, flag = sweep[beta]
    rho = S.rho((offset_index_vectors(grid) * grid.h) @ Ms.T)
    kernel = (grid.cell_volume / (1.0 + rho) ** (beta * q)).reshape(grid.shape)
    rhs = np.fft.ifftn(np.fft.fftn(band.abs_values**q) * np.fft.fftn(kernel)).real
    rhs *= E.absdet ** band.scale
    lhs = fields[band.scale].reshape(grid.shape) ** q
    mask = rhs > 1e-300
    ratio = np.zeros_like(lhs)
    ratio[mask] = lhs[mask] / rhs[mask]
    return {
        "max_ratio": float(np.max(ratio)) if np.any(mask) else 0.0,
        "mean_ratio": float(np.mean(ratio[mask])) if np.any(mask) else 0.0,
        "boundary_flag": flag,
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
    ball is always included so the result dominates |source|.  The
    averages are the ball windows' means at level l."""
    lo, hi = shell_range
    absval = np.abs(np.asarray(source)).astype(float)
    result = absval.copy()  # single-cell ball
    for level in range(lo, hi + 1):
        table = ball_windows(grid, S, level)
        if table.count == 0:
            continue
        avg = table.means(absval.ravel(), grid).reshape(grid.shape)
        # sup over ball centers within x + A^l Omega
        (ball_max,) = _ball_maxima(avg, _ball_windows(table.inside.reshape((1,) + grid.shape)))
        np.maximum(result, ball_max, out=result)
    result.flags.writeable = False
    return MaximalField(values=result, shell_range=(lo, hi))
