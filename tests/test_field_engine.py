import numpy as np
import pytest

from anisotl import experiments, field_engine
from anisotl.analyzers import SpectralProfile, bump, make_analyzing_pair, make_covering_profile
from anisotl.errors import Aliasing
from anisotl.field_engine import (
    convolve_scale,
    dilate_field,
    evaluate_spectrum,
    field_from_closure,
    field_from_spec,
    reconstruct,
    spec_to_values,
    values_to_spec,
)
from anisotl.grids import GridSpec, freq_points, spatial_points
from anisotl.linalg_expansive import validate_expansive
from anisotl.norms import band_arrays

E1 = validate_expansive([[2.0]])
GRID1 = GridSpec(d=1, extent=8.0, n=1024)


@pytest.fixture(scope="module")
def phi():
    return make_covering_profile(E1, GRID1)


@pytest.fixture(scope="module")
def pair(phi):
    return make_analyzing_pair(phi, check_grid=GRID1)


def band_field(gauge, t_lo=1.0, t_hi=4.0, center=0.5, seed=0):
    """Random band-limited field with an analytic spectral closure."""
    rng = np.random.default_rng(seed)
    t0 = rng.uniform(t_lo + 0.4, t_hi - 0.4)
    width = rng.uniform(0.3, 0.6)
    amp = rng.normal() + 1j * rng.normal()

    def spectrum(xi, t):
        phase = np.exp(-2j * np.pi * (np.atleast_2d(xi) @ np.array([center])))
        return amp * bump((t - t0) / width) * phase

    return spectrum


class TestSpectralTransforms:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        spec = rng.normal(size=GRID1.shape) + 1j * rng.normal(size=GRID1.shape)
        back = values_to_spec(GRID1, spec_to_values(GRID1, spec))
        assert np.allclose(back, spec, atol=1e-12)

    def test_point_evaluation_matches_grid(self, phi):
        f = field_from_closure(GRID1, phi.gauge, band_field(phi.gauge, seed=3))
        pts = np.array([[-8.0], [-3.5 + 1 / 64], [0.0], [5.25]])
        direct = evaluate_spectrum(GRID1, f.spec, pts)
        idx = np.round((pts[:, 0] + 8.0) * GRID1.n / 16.0).astype(int) % GRID1.n
        assert np.allclose(direct, f.values[idx], atol=1e-10)


class TestConvolveScale:
    def test_identity_filter(self, phi):
        f = field_from_closure(GRID1, phi.gauge, band_field(phi.gauge, seed=4))
        wide = SpectralProfile(
            matrix=E1,
            gauge=phi.gauge,
            t_center=2.5,
            t_halfwidth=3.0,
            shape_fn=lambda t: np.where(np.abs(np.asarray(t) - 2.5) < 3.0, 1.0, 0.0),
        )
        band = convolve_scale(f, wide, 0.0)
        assert np.max(np.abs(band.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_disjoint_supports_give_zero(self, phi):
        f = field_from_closure(GRID1, phi.gauge, band_field(phi.gauge, seed=5))
        band = convolve_scale(f, phi, f.band_t[1] + 3.0)
        assert np.max(np.abs(band.values)) <= 1e-12

    def test_disjoint_band_t_is_not_a_zero_band(self):
        """band_t is an energy-threshold support (_BAND_TOL), so supports
        disjoint by _supports_touch can still give a nonzero band: field 5
        of the default norm-equivalence suite at s = -0.25, one of 30 such
        bands in that run.  A band may skip its FFT only on an exact test."""
        cfg = experiments.merged_config("norm-equivalence", None)
        _, grid, phi = experiments._setup(cfg["matrix"], cfg["grid"])
        f = experiments._suite(cfg["suite"], grid, phi.gauge)[5]
        assert not field_engine._supports_touch(f, phi, -0.25)
        band = convolve_scale(f, phi, -0.25)
        assert np.max(np.abs(band.spec)) == pytest.approx(6.276245958134521e-16, rel=1e-6)
        assert 0.0 < np.max(band.abs_values) < 1e-15 * np.max(np.abs(f.values))

    def test_parseval(self, phi):
        f = field_from_closure(GRID1, phi.gauge, band_field(phi.gauge, seed=6))
        band = convolve_scale(f, phi, 2.0)
        direct = GRID1.box_volume * np.sum(
            np.abs(f.spec * phi.multiplier(GRID1, 2.0)) ** 2
        )
        assert band.l2_norm() ** 2 == pytest.approx(direct, rel=1e-12)

    def test_aliasing_guard(self, phi):
        f = field_from_closure(GRID1, phi.gauge, band_field(phi.gauge, seed=7))
        # widen the band limit artificially so the guard sees a wide field
        wide = field_from_spec(GRID1, f.spec, phi.gauge)
        object.__setattr__(wide, "band_t", (wide.band_t[0], 40.0))
        with pytest.raises(Aliasing):
            convolve_scale(wide, phi, 12.0)


class TestScaleBank:
    def test_empty(self, phi):
        f = field_from_closure(GRID1, phi.gauge, band_field(phi.gauge, seed=8))
        assert band_arrays(f, phi, []) == {}

    def test_single_shell_band_count(self, pair, phi):
        # field living inside one analyzer shell: at most 2N+1 bands survive
        f = field_from_closure(
            GRID1,
            phi.gauge,
            lambda xi, t: phi.shape(t - 2.0),
        )
        bank = [convolve_scale(f, phi, s) for s in range(-2, 7)]
        alive = [b for b in bank if np.max(b.abs_values) > 1e-12]
        assert 0 < len(alive) <= 2 * pair.overlap_n + 1

    def test_filtered_noise_energy_decay(self, pair, phi):
        rng = np.random.default_rng(11)
        noise = rng.normal(size=GRID1.shape) + 1j * rng.normal(size=GRID1.shape)
        spec = noise * phi.multiplier(GRID1, 2.0)
        f = field_from_spec(GRID1, spec, phi.gauge)
        bank = [convolve_scale(f, phi, s) for s in range(-1, 7)]
        for band in bank:
            if abs(band.scale - 2.0) > pair.overlap_n:
                assert band.l2_norm() <= 1e-12

    def test_linearity(self, phi):
        fa = field_from_closure(GRID1, phi.gauge, band_field(phi.gauge, seed=12))
        fb = field_from_closure(GRID1, phi.gauge, band_field(phi.gauge, seed=13))
        combo = field_from_spec(GRID1, (2.0 - 1j) * fa.spec + 0.25 * fb.spec, phi.gauge)
        for s in (0.0, 1.5, 3.0):
            lhs = convolve_scale(combo, phi, s).values
            rhs = (2.0 - 1j) * convolve_scale(fa, phi, s).values + 0.25 * convolve_scale(
                fb, phi, s
            ).values
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(np.abs(rhs)), 1.0)


class TestCalderonReconstruction:
    def test_reconstruction(self, pair, phi):
        f = field_from_closure(GRID1, phi.gauge, band_field(phi.gauge, seed=14))
        g = reconstruct(f, pair, (-4, 8))
        err = (
            np.sqrt(np.sum(np.abs(g.spec - f.spec) ** 2))
            / np.sqrt(np.sum(np.abs(f.spec) ** 2))
        )
        assert err <= 1e-8


class TestDilationCovariance:
    def test_covariance(self, phi):
        # (f_1 * phi_{s+1})(x) = |det A| (f * phi_s)(Ax) with f_1 = |det A| f(A.)
        f = field_from_closure(GRID1, phi.gauge, band_field(phi.gauge, seed=15))
        g = dilate_field(f, E1, phi.gauge)
        xs = np.linspace(-2.0, 2.0, 9)[:, None]
        for s in (1.0, 2.0, 2.5):
            lhs = E1.absdet * evaluate_spectrum(GRID1, convolve_scale(f, phi, s).spec, xs @ E1.A.T)
            rhs = evaluate_spectrum(GRID1, convolve_scale(g, phi, s + 1.0).spec, xs)
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(np.max(np.abs(lhs)), 1e-12)


def _evaluate_one(grid, spec, points):
    """Reference: one spectrum, its own phase matrix over its active set."""
    points = np.atleast_2d(points)
    flat = spec.ravel()
    active = np.flatnonzero(np.abs(flat) > 0.0)
    xi = freq_points(grid)[active]
    return np.exp(2j * np.pi * (points @ xi.T)) @ flat[active]


class TestStackedEvaluation:
    def _banded_stack(self, grid, rng, m):
        # random complex slices on overlapping random bands, one all zero
        stack = np.zeros((m, grid.size), dtype=complex)
        for k in range(m):
            lo = int(rng.integers(0, grid.size - 8))
            hi = int(rng.integers(lo + 1, min(grid.size, lo + grid.size // 3)))
            stack[k, lo:hi] = rng.normal(size=hi - lo) + 1j * rng.normal(size=hi - lo)
        stack[m // 2] = 0.0
        return stack.reshape((m,) + grid.shape)

    def test_line_stack_bit_identical_to_lone_slices(self):
        rng = np.random.default_rng(12)
        grid = GridSpec(d=1, extent=8.0, n=256)
        for _ in range(5):
            m = int(rng.integers(2, 9))
            stack = self._banded_stack(grid, rng, m)
            pts = rng.uniform(-8.0, 8.0, size=(int(rng.integers(1, 300)), 1))
            got = evaluate_spectrum(grid, stack, pts)
            assert got.shape == (m, len(pts))
            ref = np.stack([_evaluate_one(grid, sl, pts) for sl in stack])
            assert np.array_equal(got, ref)
            assert np.all(got[m // 2] == 0.0)

    def test_single_spectrum_keeps_point_shape(self, phi):
        f = field_from_closure(GRID1, phi.gauge, band_field(phi.gauge, seed=5))
        rng = np.random.default_rng(3)
        for count in rng.integers(1, 400, size=3):
            pts = rng.uniform(-8.0, 8.0, size=(int(count), 1))
            got = evaluate_spectrum(GRID1, f.spec, pts)
            assert got.shape == (count,)
            assert np.array_equal(got, _evaluate_one(GRID1, f.spec, pts))

    def test_plane_shear_stack(self):
        E = validate_expansive([[2.0, 1.0], [0.0, 2.0]])
        grid = GridSpec(d=2, extent=2.0, n=32)
        phi2 = make_covering_profile(E, grid)
        rng = np.random.default_rng(8)
        spec = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        f = field_from_spec(grid, spec, phi2.gauge)
        stack = np.stack([convolve_scale(f, phi2, s).spec for s in [-3, -2, -1, 0]])
        pts = spatial_points(grid)[::7] + rng.uniform(-0.05, 0.05, size=(1, 2))
        got = evaluate_spectrum(grid, stack, pts)
        ref = np.stack([_evaluate_one(grid, sl, pts) for sl in stack])
        assert got.shape == ref.shape == (4, len(pts))
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
