"""Spec-example coverage that cuts across modules: suite determinism,
deterministic fixtures, trivial edge cases, and coarse frame-bound scaling."""

import numpy as np
import pytest

from anisotl.analyzers import make_admissible, make_analyzing_pair, make_covering_profile
from anisotl.field_engine import convolve_scale, dilate_field, field_from_closure
from anisotl.frames import FrameSystem, IndexSet, dual_reconstruct, frame_bounds, sample_index_set
from anisotl.grids import GridSpec
from anisotl.group_analysis import ControlWeight, GroupField, GroupGrid, wavelet_transform, wiener_amalgam_norm
from anisotl.linalg_expansive import build_ellipsoid, validate_expansive
from anisotl.norms import NormParams, band_arrays, besov_norm, tl_norm_inf, tl_norm_q
from anisotl.suite import SuiteSpec, suite_generate

E1 = validate_expansive([[2.0]])
S1 = build_ellipsoid(E1)
GRID = GridSpec(d=1, extent=8.0, n=1024)


def single_band_field(grid, gauge, j0, profile):
    """Deterministic fixture: a copy of the analyzer bump at shell j0."""

    def spectrum(xi, t):
        return profile.shape(t - float(j0)) + 0j

    return field_from_closure(grid, gauge, spectrum)


@pytest.fixture(scope="module")
def phi():
    return make_covering_profile(E1, GRID)


@pytest.fixture(scope="module")
def pair(phi):
    return make_analyzing_pair(phi, check_grid=GRID)


class TestSuite:
    def test_same_seed_identical(self, phi):
        a = suite_generate(SuiteSpec(count=3, seed=42), GRID, phi.gauge)
        b = suite_generate(SuiteSpec(count=3, seed=42), GRID, phi.gauge)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.spec, fb.spec)

    def test_zero_count(self, phi):
        assert suite_generate(SuiteSpec(count=0, seed=1), GRID, phi.gauge) == []

    def test_interleaved_suites_match_solo_runs(self, phi):
        # suite b is generated while the first field of suite a is being
        # evaluated; each suite must read only its own spec
        a = SuiteSpec(count=3, seed=4, t_range=(1.8, 3.2))
        b = SuiteSpec(count=3, seed=4, t_range=(2.2, 3.6))

        class NestingGauge:
            def __init__(self, gauge):
                self.gauge, self.nested = gauge, None

            def __getattr__(self, name):
                return getattr(self.gauge, name)

            def t_grid(self, grid):
                if self.nested is None:
                    self.nested = suite_generate(b, GRID, self.gauge)
                return self.gauge.t_grid(grid)

        gauge = NestingGauge(phi.gauge)
        mixed_a = suite_generate(a, GRID, gauge)
        for mixed, spec in ((mixed_a, a), (gauge.nested, b)):
            solo = suite_generate(spec, GRID, phi.gauge)
            assert len(mixed) == len(solo) == 3
            for fm, fs in zip(mixed, solo):
                assert np.array_equal(fm.spec, fs.spec)

    def test_single_band_fixture_band_count(self, phi, pair):
        f = single_band_field(GRID, phi.gauge, j0=2, profile=phi)
        bank = [convolve_scale(f, phi, s) for s in range(-1, 6)]
        alive = [b for b in bank if np.max(b.abs_values) > 1e-12]
        assert 0 < len(alive) <= 2 * pair.overlap_n + 1


class TestNormExamples:
    def test_single_band_inf_equals_q1(self, phi, pair):
        # one active scale: the l^1 window sum and the scale sup coincide
        f = single_band_field(GRID, phi.gauge, j0=2, profile=phi)
        params = NormParams(alpha=0.0, q=1.0, scale_max=2, ell_min=-2, ell_max=2)
        bands = band_arrays(f, pair.phi, params.discrete_scales)
        v_q = tl_norm_q(GRID, S1, bands, params).value
        v_inf = tl_norm_inf(GRID, S1, bands, params).value
        assert v_inf == pytest.approx(v_q, rel=1e-12)

    def test_besov_dilation_shift(self, phi, pair):
        spec = SuiteSpec(count=1, seed=33, t_range=(1.6, 2.9))
        f = suite_generate(spec, GRID, phi.gauge)[0]
        g = dilate_field(f, E1, phi.gauge)
        alpha = 0.5
        params = NormParams(alpha=alpha, q=2.0, scale_max=5, ell_min=-2, ell_max=2)
        b_f = besov_norm(S1, band_arrays(f, pair.phi, params.discrete_scales), params)
        b_g = besov_norm(S1, band_arrays(g, pair.phi, params.discrete_scales), params)
        assert b_g.value == pytest.approx(
            E1.absdet ** (1.0 + alpha) * b_f.value, rel=1e-10
        )
        assert b_g.arg_ell == b_f.arg_ell + 1


class TestWienerIndicator:
    def test_compact_indicator_finite_and_weight_monotone(self):
        ggrid = GroupGrid(grid=GridSpec(d=1, extent=8.0, n=256), s_min=-1.0, s_max=1.0, ds=0.5)
        svals = ggrid.s_values
        vals = np.zeros((len(svals), 256))
        vals[len(svals) // 2, 120:136] = 1.0
        F = GroupField(ggrid=ggrid, vals=vals)
        w_small = ControlWeight(S1, alpha=0.0, beta=1.0, q=2.0)
        w_big = ControlWeight(S1, alpha=2.0, beta=2.0, q=2.0)
        n_small = wiener_amalgam_norm(F, w_small, r=1.0)
        n_big = wiener_amalgam_norm(F, w_big, r=1.0)
        assert 0 < n_small < np.inf
        assert n_big >= n_small


class TestFrameEdges:
    def test_empty_index_set(self, phi):
        vec = make_admissible(phi)
        empty = IndexSet(
            xs=np.zeros((0, 1)), ss=np.zeros(0), U=(0.25, 0.25), stats={}
        )
        system = FrameSystem.build(vec, empty, GRID)
        fields = suite_generate(SuiteSpec(count=1, seed=2), GRID, phi.gauge)
        a_lo, b_hi = frame_bounds(system, fields)
        assert a_lo == 0.0

    def test_zero_field_reconstructs_immediately(self, phi):
        vec = make_admissible(phi)
        ggrid = GroupGrid(grid=GRID, s_min=-3.0, s_max=0.5, ds=0.25)
        gamma = sample_index_set(ggrid, E1, U=(0.25, 0.25), kind="covering", density_factor=0.5)
        system = FrameSystem.build(vec, gamma, GRID)
        zero = field_from_closure(
            GRID, phi.gauge, lambda xi, t: np.zeros(len(t), complex)
        )
        rec, errors = dual_reconstruct(zero, system)
        assert errors == [0.0]
        assert rec.l2_norm() == 0.0

    def test_dense_bounds_match_covolume(self, phi):
        # Riemann regime: bounds approach 1 / (spatial step x scale step)
        vec = make_admissible(phi)
        ggrid = GroupGrid(grid=GRID, s_min=-3.0, s_max=0.5, ds=0.25)
        gamma = sample_index_set(ggrid, E1, U=(0.25, 0.25), kind="covering", density_factor=0.5)
        system = FrameSystem.build(vec, gamma, GRID)
        fields = suite_generate(
            SuiteSpec(count=3, seed=4, t_range=(1.8, 2.6)), GRID, phi.gauge
        )
        a_lo, b_hi = frame_bounds(system, fields)
        covolume = gamma.stats["a_step"] * gamma.stats["s_step"]
        assert a_lo == pytest.approx(1.0 / covolume, rel=0.05)
        assert b_hi <= 1.25 / covolume
