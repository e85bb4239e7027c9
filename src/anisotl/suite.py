"""Reproducible band-limited field suites for the experiments.

Fields are finite sums of scale-localized bumps with spatial centers in
the middle of the box, so they decay well before the torus seam; every
field carries its analytic spectral closure for off-lattice needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analyzers import bump
from .field_engine import SampledField, field_from_closure
from .grids import GridSpec


@dataclass(frozen=True)
class SuiteSpec:
    count: int
    seed: int
    t_range: tuple[float, float] = (1.8, 3.2)
    kind: str = "random"  # "random" | "mixed" (adds deterministic fixtures)


def _random_field(grid: GridSpec, gauge, rng, spec: SuiteSpec) -> SampledField:
    spec_lo, spec_hi = spec.t_range
    n_atoms = int(rng.integers(1, 4))  # 1 to 3 bumps
    params = []
    w_hi = min(0.6, 0.5 * (spec_hi - spec_lo) - 0.01)
    for _ in range(n_atoms):
        width = rng.uniform(min(0.25, 0.8 * w_hi), w_hi)
        t0 = rng.uniform(spec_lo + width, spec_hi - width)
        amp = rng.normal() + 1j * rng.normal()
        # centers within a tenth of the box
        center = rng.uniform(-1.0, 1.0, size=grid.d) * (0.1 * grid.extent)
        params.append((amp, t0, width, center))

    def spectrum(xi, params=tuple(params)):
        xi = np.atleast_2d(xi)
        t = gauge.t(xi)
        out = np.zeros(len(xi), dtype=complex)
        for amp, t0, width, center in params:
            out += amp * bump((t - t0) / width) * np.exp(-2j * np.pi * (xi @ center))
        return out

    return field_from_closure(grid, gauge, spectrum)


def single_band_field(grid: GridSpec, gauge, j0: int, profile) -> SampledField:
    """Deterministic fixture: a copy of the analyzer bump at shell j0."""

    def spectrum(xi):
        t = gauge.t(np.atleast_2d(xi))
        return profile.shape(t - float(j0)) + 0j

    return field_from_closure(grid, gauge, spectrum)


def translated_atom_field(grid: GridSpec, gauge, profile, center, t_shift: float) -> SampledField:
    def spectrum(xi):
        xi = np.atleast_2d(xi)
        t = gauge.t(xi)
        return profile.shape(t - t_shift) * np.exp(-2j * np.pi * (xi @ np.asarray(center)))

    return field_from_closure(grid, gauge, spectrum)


def suite_generate(spec: SuiteSpec, grid: GridSpec, gauge, profile=None) -> list[SampledField]:
    """Seeded suite; identical spec and seed give identical coefficients."""
    rng = np.random.default_rng(spec.seed)
    fields = [_random_field(grid, gauge, rng, spec) for _ in range(spec.count)]
    if spec.kind == "mixed" and profile is not None and spec.count >= 2:
        mid = int(round(0.5 * (spec.t_range[0] + spec.t_range[1])))
        fields[-2] = single_band_field(grid, gauge, mid, profile)
        fields[-1] = translated_atom_field(
            grid, gauge, profile, center=np.zeros(grid.d), t_shift=float(mid)
        )
    return fields
