"""Band-limited sampled fields and the filter bank f * phi_s.

Fields are stored as spectral coefficients c_k on the dual lattice of a
centered box, so f(x) = sum_k c_k exp(2 pi i xi_k . x) is a trigonometric
polynomial on the torus surrogate for R^d.  Convolution against a
band-limited analyzer is then an exact diagonal multiplication: the
dilation (A^T)^-s is applied analytically through the profile's scale
coordinate, never by spatial resampling.

SampledField and ScaleBand share LatticeSpectrum and are immutable; bank
computations are independent per scale and safe to run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import Aliasing
from .grids import GridSpec, flat_index, freq_points, offset_index_vectors, spectral_phase

_BAND_TOL = 1e-10


def spec_to_values(grid: GridSpec, spec: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(spec * spectral_phase(grid)) * grid.size


def values_to_spec(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    return np.fft.fftn(values) * np.conj(spectral_phase(grid)) / grid.size


@dataclass
class PhaseRows:
    """Phase rows that one evaluate_spectrum call hands to the next.

    rows maps the bytes of each probe point to its row of phase, whose
    columns are the frequencies union; exponentials counts the complex
    exponentials computed by the calls that carried it.
    """

    union: np.ndarray | None = None
    rows: dict[bytes, int] = field(default_factory=dict)
    phase: np.ndarray | None = None
    exponentials: int = 0


def evaluate_spectrum(
    grid: GridSpec, spec: np.ndarray, points: np.ndarray, carry: PhaseRows | None = None
) -> np.ndarray:
    """Evaluate trigonometric polynomials at arbitrary points (exact).

    spec is one spectrum, giving (P,) values, or a stack (m, *grid.shape),
    giving (m, P).  exp(2 pi i x . xi) is built once over the union of the
    active frequencies; each spectrum is one matvec over its own active
    columns, copied out with np.take so the sum rounds as for a lone
    spectrum.  In d = 1 the values are bit-identical to evaluating each
    spectrum alone; in d >= 2 the BLAS product points @ xi.T may round
    differently with the number of columns, so they can differ in the
    last ulp.

    carry, when given, holds the previous carried call's phase rows and
    receives this call's.  If the union is the same, the row of every
    point whose bytes match a carried point is copied and only the other
    rows are exponentiated; otherwise the carried rows are dropped first.
    In d = 1 each entry is exp(2 pi i fl(p xi)) from the same two floats
    in either call, so the values are bit-identical to an uncarried call;
    in d >= 2 the fresh rows are a smaller BLAS product and may differ in
    the last ulp.
    """
    points = np.atleast_2d(points)
    lead = spec.shape[: spec.ndim - grid.d]
    stack = spec.reshape(-1, grid.size)
    nonzero = np.abs(stack) > 0.0
    union = np.flatnonzero(np.any(nonzero, axis=0))
    if carry is None:
        phase = np.exp(2j * np.pi * (points @ freq_points(grid)[union].T))
    else:
        phase = _carried_phase(grid, points, union, carry)
    out = np.empty((len(stack), len(points)), dtype=complex)
    for row, mask, dest in zip(stack, nonzero, out):
        cols = np.flatnonzero(mask[union])
        dest[:] = np.take(phase, cols, axis=1) @ row[union[cols]]
    return out.reshape(lead + (len(points),))


def _carried_phase(
    grid: GridSpec, points: np.ndarray, union: np.ndarray, carry: PhaseRows
) -> np.ndarray:
    """exp(2 pi i points @ xi[union].T), copying the carried rows of equal
    points; carry then holds these rows."""
    keys = [p.tobytes() for p in points]
    rows = carry.rows if np.array_equal(carry.union, union) else {}
    src = np.array([rows.get(k, -1) for k in keys], dtype=np.int64)
    fresh = src < 0
    # copy the carried rows, then drop the old phase before exponentiating
    phase = None if fresh.all() else np.take(carry.phase, np.maximum(src, 0), axis=0)
    carry.union, carry.rows, carry.phase = union, {k: i for i, k in enumerate(keys)}, None
    new = 2j * np.pi * (points[fresh] @ freq_points(grid)[union].T)
    np.exp(new, out=new)
    if phase is None:
        phase = new
    else:
        phase[fresh] = new
    carry.phase = phase
    carry.exponentials += new.size
    return phase


@dataclass(frozen=True)
class LatticeSpectrum:
    """Trigonometric polynomial on a grid, stored as spectral coefficients."""

    grid: GridSpec
    spec: np.ndarray

    @cached_property
    def values(self) -> np.ndarray:
        v = spec_to_values(self.grid, self.spec)
        v.flags.writeable = False
        return v

    @cached_property
    def abs_values(self) -> np.ndarray:
        a = np.abs(self.values)
        a.flags.writeable = False
        return a

    def l2_norm(self) -> float:
        return float(np.sqrt(self.grid.box_volume * np.sum(np.abs(self.spec) ** 2)))


@dataclass(frozen=True)
class SampledField(LatticeSpectrum):
    """Band-limited function on a grid, represented spectrally.

    band_t is the scale-coordinate range of the spectral support measured
    against the analyzer gauge at construction; band_limit is the outer
    gauge radius.  spectrum_fn, when present, extends the field off the
    lattice (used by dilation and group-covariance checks): fn(xi, t) is
    the spectrum at the (P, d) frequencies xi, and the caller hands over
    their (P,) coordinates t under the field's gauge (t_grid on the
    lattice), so a closure solves no t of its own.
    """

    band_t: tuple[float, float]
    band_limit: float
    spectrum_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def scaled(self, c: complex) -> "SampledField":
        return SampledField(
            grid=self.grid,
            spec=c * self.spec,
            band_t=self.band_t,
            band_limit=self.band_limit,
            spectrum_fn=None
            if self.spectrum_fn is None
            else (lambda xi, t, f=self.spectrum_fn: c * f(xi, t)),
        )


def field_from_spec(
    grid: GridSpec,
    spec: np.ndarray,
    gauge,
    spectrum_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> SampledField:
    """Wrap spectral coefficients, measuring the band against a gauge.

    Verifies that the spectral energy beyond the declared band is below
    1e-10 of the total (trivially true here because the band is measured,
    recorded for imported fields whose header declares one).
    """
    spec = np.asarray(spec, dtype=complex)
    t = gauge.t_grid(grid).reshape(grid.shape)
    mag = np.abs(spec)
    total = float(np.sum(mag**2))
    if total == 0.0:
        band = (0.0, 0.0)
        limit = 0.0
    else:
        # per-entry energy threshold keeps the excluded total below _BAND_TOL
        active = mag**2 > _BAND_TOL * total / grid.size
        tvals = t[active]
        band = (float(np.min(tvals)), float(np.max(tvals)))
        limit = float(gauge.absdet ** band[1])
        outside = float(np.sum(mag[~active] ** 2))
        if outside > _BAND_TOL * total:
            raise ValueError("spectral energy outside the measured band")
    spec.flags.writeable = False
    return SampledField(
        grid=grid, spec=spec, band_t=band, band_limit=limit, spectrum_fn=spectrum_fn
    )


def field_from_closure(grid: GridSpec, gauge, spectrum_fn) -> SampledField:
    """The field whose lattice coefficients are spectrum_fn(xi, t) at the
    lattice frequencies xi and their cached gauge coordinates t."""
    t = gauge.t_grid(grid)
    spec = np.asarray(spectrum_fn(freq_points(grid), t), dtype=complex).reshape(grid.shape)
    return field_from_spec(grid, spec, gauge, spectrum_fn=spectrum_fn)


@dataclass(frozen=True)
class ScaleBand(LatticeSpectrum):
    """Samples of f * phi_s at one scale."""

    scale: float


def check_nyquist(gauge, t_top: float, grid: GridSpec, what: str) -> None:
    """Raise Aliasing when {t <= t_top} of gauge leaves the Nyquist box."""
    extent = gauge.region_extent(t_top)
    if extent > grid.nyquist * (1.0 - 1e-9):
        raise Aliasing(f"{what} reach |xi| = {extent:.4g}, Nyquist is {grid.nyquist:.4g}")


def check_aliasing(f: SampledField, profile, s: float) -> None:
    """The dilated profile support, cut to the field band, must fit inside
    the Nyquist box."""
    lo, hi = profile.t_support
    t_top = min(hi + s, f.band_t[1])
    if t_top <= max(lo + s, f.band_t[0]) and not _supports_touch(f, profile, s):
        return  # disjoint supports: nothing to alias
    check_nyquist(profile.gauge, t_top, f.grid, f"scale {s:g}: dilated supports")


def _supports_touch(f: SampledField, profile, s: float) -> bool:
    lo, hi = profile.t_support
    return not (hi + s <= f.band_t[0] or lo + s >= f.band_t[1])


def convolve_scale(f: SampledField, profile, s: float) -> ScaleBand:
    """f * phi_s via the spectral multiplier phi_hat((A^T)^-s xi)."""
    check_aliasing(f, profile, s)
    mult = profile.multiplier(f.grid, s)
    out = f.spec * mult
    out.flags.writeable = False
    return ScaleBand(grid=f.grid, spec=out, scale=float(s))


def reconstruct(f: SampledField, pair, j_range: tuple[int, int]) -> SampledField:
    """sum_j f * phi_j * psi_j over the given scales (Calderon synthesis)."""
    acc = np.zeros(f.grid.shape, dtype=complex)
    for j in range(j_range[0], j_range[1] + 1):
        acc += (
            f.spec
            * pair.phi.multiplier(f.grid, j)
            * pair.psi.multiplier(f.grid, j)
        )
    gauge = pair.phi.gauge
    return field_from_spec(f.grid, acc, gauge, spectrum_fn=None)


def dilate_field(f: SampledField, E, gauge) -> SampledField:
    """g = |det A| f(A .), exact on the lattice trigonometric polynomial.

    The coefficient at frequency (A^T) xi_k is |det A| f_hat(xi_k), which
    requires A to have integer entries so that A^T maps the frequency
    lattice into itself.
    """
    A = E.A
    if not np.allclose(A, np.round(A)):
        raise ValueError("exact lattice dilation needs an integer dilation matrix")
    grid = f.grid
    K = offset_index_vectors(grid)
    flat = f.spec.ravel()
    active = np.flatnonzero(np.abs(flat) > 0.0)
    target = flat_index(grid, K[active] @ np.round(A).astype(np.int64))
    out = np.zeros(grid.size, dtype=complex)
    out[target] = E.absdet * flat[active]
    return field_from_spec(grid, out.reshape(grid.shape), gauge)
