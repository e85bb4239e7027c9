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


def suite_generate(spec: SuiteSpec, grid: GridSpec, gauge, profile=None) -> list[SampledField]:
    """Seeded suite; identical spec and seed give identical coefficients.
    profile is not read; it is accepted so that callers passing the
    analyzer (perfbench/child.py) keep working."""
    rng = np.random.default_rng(spec.seed)
    return [_random_field(grid, gauge, rng, spec) for _ in range(spec.count)]
