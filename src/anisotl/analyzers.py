"""Fourier-domain analyzing vectors for the discrete and continuous
Calderon decompositions.

Every profile is a 1-D shape in the continuous scale coordinate t of the
transpose dilation, composed with that coordinate:  g_hat(xi) =
shape(t(xi)).  Dilating the frequency by (A^T)^j shifts t by exactly j,
so coverage, Calderon sums and admissibility integrals all reduce to 1-D
identities that hold to machine precision on any grid.

Profiles are immutable after construction; evaluations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.linalg import expm

from .errors import CoverageGap, DivisionUnderflow
from .grids import GridSpec
from .linalg_expansive import ExpansiveMatrix, ScaleGauge, transpose_gauge

_SUPPORT_TOL = 1e-12


def bump(u: np.ndarray) -> np.ndarray:
    """C-infinity bump on (-1, 1), normalized to peak value 1."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


@dataclass(frozen=True)
class SpectralProfile:
    """Band-limited frequency profile g_hat = shape(t(xi)).

    The support annulus is reported in gauge radii |det A|^t, bounded away
    from 0 and infinity.  shape_fn overrides the standard bump (used for
    derived shapes such as the Calderon partner); it must vanish outside
    [t_lo, t_hi].
    """

    matrix: ExpansiveMatrix
    gauge: ScaleGauge
    t_center: float
    t_halfwidth: float
    amplitude: float = 1.0
    shape_fn: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def t_support(self) -> tuple[float, float]:
        return (self.t_center - self.t_halfwidth, self.t_center + self.t_halfwidth)

    @property
    def annulus(self) -> tuple[float, float]:
        lo, hi = self.t_support
        b = self.matrix.absdet
        return (b**lo, b**hi)

    def shape(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.shape_fn is not None:
            return self.amplitude * self.shape_fn(t)
        return self.amplitude * bump((t - self.t_center) / self.t_halfwidth)

    def t_grid(self, grid: GridSpec) -> np.ndarray:
        return self.gauge.t_grid(grid)

    def multiplier(self, grid: GridSpec, s: float = 0.0) -> np.ndarray:
        """Samples of g_hat((A^T)^-s xi) = shape(t(xi) - s), FFT layout."""
        t = self.t_grid(grid)
        return self.shape(t - s).reshape(grid.shape)


def make_covering_profile(
    E: ExpansiveMatrix,
    grid: GridSpec,
    t_halfwidth: float = 1.0,
) -> SpectralProfile:
    """Smooth shell bump at t = 1 whose (A^T)^j dilates cover all grid frequencies.

    Requires the grid to resolve the base shell (gauge radius in
    [1, |det A|]) with at least 16 samples, and certifies max_j
    |g_hat((A^T)^j xi)| >= 0.1 for every grid xi != 0 (check_coverage).
    """
    gauge = transpose_gauge(E)
    profile = SpectralProfile(
        matrix=E, gauge=gauge, t_center=1.0, t_halfwidth=t_halfwidth
    )
    t = profile.t_grid(grid)
    finite = np.isfinite(t)
    base_shell = np.count_nonzero((t >= -1e-9) & (t < 1.0 - 1e-9))
    if base_shell < 16:
        raise ValueError(
            f"grid resolves the base shell with only {base_shell} samples (< 16)"
        )
    check_coverage(profile, t[finite])
    return profile


def check_coverage(profile: SpectralProfile, t_values: np.ndarray) -> None:
    """Raise CoverageGap unless max_k |shape(t + k)| >= 0.1 at every t."""
    if t_values.size == 0:
        return
    k_range = _overlap_range(t_values, *profile.t_support)
    best = _overlap_sum(lambda u: np.abs(profile.shape(u)), t_values, k_range, np.maximum)
    if np.min(best) < 0.1:
        worst = float(t_values[np.argmin(best)])
        raise CoverageGap(
            f"dilates reach only {np.min(best):.3g} < 0.1 at t = {worst:.3f}"
        )


def _overlap_range(t: np.ndarray, lo: float, hi: float) -> tuple[int, int]:
    """The k with t + k in [lo, hi] for some t in t; (0, 0) when t is empty."""
    if t.size == 0:
        return 0, 0
    return math.floor(lo - np.max(t)), math.ceil(hi - np.min(t))


def _overlap_sum(shape, t: np.ndarray, k_range: tuple[int, int], fold=np.add) -> np.ndarray:
    """fold(acc, shape(t + k)) from acc = 0 over the integers k in k_range."""
    acc = np.zeros_like(t)
    for k in range(k_range[0], k_range[1] + 1):
        acc = fold(acc, shape(t + k))
    return acc


def periodized_energy(profile: SpectralProfile, t: np.ndarray) -> np.ndarray:
    """D(t) = sum_k |shape(t + k)|^2 (1-periodic)."""
    t = np.asarray(t, dtype=float)
    k_range = _overlap_range(t, *profile.t_support)
    return _overlap_sum(lambda u: np.abs(profile.shape(u)) ** 2, t, k_range)


@dataclass(frozen=True)
class AnalyzingPair:
    """Profiles (phi, psi) satisfying the discrete Calderon identity.

    psi_hat = conj(phi_hat) / sum_k |phi_hat((A^T)^k .)|^2 pointwise, the
    overlap N = ceil(log_det(outer/inner)) bounds the scales with
    non-trivially intersecting supports, and the reproducing window
    aggregates the 2N+1 neighboring products.
    """

    phi: SpectralProfile
    psi: SpectralProfile
    overlap_n: int

    def _product(self, t: np.ndarray) -> np.ndarray:
        return self.phi.shape(t) * self.psi.shape(t)

    def window_shape(self, t: np.ndarray) -> np.ndarray:
        """Phi_hat window: sum_{|k| <= N} phi(t+k) psi(t+k); equals 1 on supp phi."""
        t = np.asarray(t, dtype=float)
        return _overlap_sum(self._product, t, (-self.overlap_n, self.overlap_n))

    def calderon_sum(self, t: np.ndarray, j_range: tuple[int, int] | None = None) -> np.ndarray:
        """sum_j phi_hat((A^T)^j xi) psi_hat((A^T)^j xi) evaluated in t."""
        t = np.asarray(t, dtype=float)
        if j_range is None:
            j_range = _overlap_range(t, *self.phi.t_support)
        return _overlap_sum(self._product, t, j_range)


def make_analyzing_pair(phi: SpectralProfile, check_grid: GridSpec | None = None) -> AnalyzingPair:
    """Calderon partner psi for a covering profile phi.

    Raises DivisionUnderflow when the periodized energy dips below 1e-12
    somewhere on the support of phi (checked on a fine 1-D scale grid,
    plus the frequency grid when one is supplied).
    """
    lo, hi = phi.t_support
    t_fine = np.linspace(lo, hi, 4097)
    denom = periodized_energy(phi, t_fine)
    on_support = np.abs(phi.shape(t_fine)) > _SUPPORT_TOL
    if np.any(denom[on_support] < 1e-12):
        raise DivisionUnderflow("Calderon denominator below 1e-12 on the support")
    if check_grid is not None:
        t_g = phi.t_grid(check_grid)
        finite = np.isfinite(t_g)
        d_g = periodized_energy(phi, t_g[finite])
        supp = np.abs(phi.shape(t_g[finite])) > _SUPPORT_TOL
        if np.any(d_g[supp] < 1e-12):
            raise DivisionUnderflow("Calderon denominator below 1e-12 on the grid")

    def psi_shape(t: np.ndarray) -> np.ndarray:
        base = phi.shape(t)
        out = np.zeros_like(base)
        nz = np.abs(base) > _SUPPORT_TOL
        if np.any(nz):
            d = periodized_energy(phi, np.asarray(t, dtype=float)[nz])
            out[nz] = np.conj(base[nz]) / d
        return out

    inner, outer = phi.annulus
    n = math.ceil(math.log(outer / inner) / math.log(phi.matrix.absdet) - 1e-12)
    psi = replace(phi, shape_fn=psi_shape, amplitude=1.0)
    return AnalyzingPair(phi=phi, psi=psi, overlap_n=n)


@dataclass(frozen=True)
class AdmissibleVector:
    """Wavelet psi with integral_R |psi_hat((A^T)^s xi)|^2 ds = 1.

    The normalization reduces to the 1-D energy of the shape in t,
    computed by composite quadrature with step s_step = 1/64.
    """

    psi: SpectralProfile
    s_step: float

    @property
    def matrix(self) -> ExpansiveMatrix:
        return self.psi.matrix


def shape_energy(profile: SpectralProfile, step: float) -> float:
    """integral |shape(t)|^2 dt by trapezoid on the support."""
    lo, hi = profile.t_support
    m = int(math.ceil((hi - lo) / step))
    t = np.linspace(lo, hi, m + 1)
    vals = np.abs(profile.shape(t)) ** 2
    return float(np.trapezoid(vals, t))


def make_admissible(g: SpectralProfile) -> AdmissibleVector:
    """Normalize a covering profile into an admissible vector."""
    s_step = 1.0 / 64.0
    energy = shape_energy(g, s_step)
    if energy <= 0.0:
        raise CoverageGap("profile carries no scale energy")
    psi = replace(g, amplitude=g.amplitude / math.sqrt(energy))
    return AdmissibleVector(psi=psi, s_step=s_step)


def admissibility_integral(
    vec: AdmissibleVector,
    xis: np.ndarray,
    s_step: float | None = None,
    independent: bool = True,
) -> np.ndarray:
    """integral |psi_hat((A^T)^s xi)|^2 ds per row of xis.

    With independent=True each node (A^T)^s xi is formed with an explicit
    matrix exponential and the scale coordinate re-solved from scratch (one
    stacked gauge solve over all nodes), so the result is a genuine
    quadrature oracle rather than a restatement of the construction.
    """
    psi = vec.psi
    step = vec.s_step if s_step is None else s_step
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    t0 = psi.gauge.t(xis)
    lo, hi = psi.t_support
    # s must sweep t0 + s across [lo, hi]; pad by one step
    s_lo = float(np.min(lo - t0)) - step
    s_hi = float(np.max(hi - t0)) + step
    m = int(math.ceil((s_hi - s_lo) / step))
    s_nodes = s_lo + (s_hi - s_lo) * np.arange(m + 1) / m
    ds = (s_hi - s_lo) / m
    if independent:
        B = psi.gauge.B
        t_nodes = psi.gauge.t(np.stack([xis @ expm(float(s) * B).T for s in s_nodes]))
    else:
        t_nodes = t0 + s_nodes[:, None]
    total = np.zeros(xis.shape[0])
    for idx, t_here in enumerate(t_nodes):
        w = 0.5 if idx in (0, m) else 1.0
        total += w * np.abs(psi.shape(t_here)) ** 2
    return total * ds
