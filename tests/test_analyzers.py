import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from anisotl import analyzers
from anisotl.analyzers import (
    AdmissibleVector,
    SpectralProfile,
    admissibility_integral,
    check_coverage,
    make_admissible,
    make_analyzing_pair,
    make_covering_profile,
    periodized_energy,
    shape_energy,
)
from anisotl.errors import CoverageGap, DivisionUnderflow
from anisotl.grids import GridSpec, freq_points
from anisotl.linalg_expansive import transpose_gauge, validate_expansive

E1 = validate_expansive([[2.0]])
GRID1 = GridSpec(d=1, extent=8.0, n=1024)

E2 = validate_expansive(np.diag([2.0, 4.0]))
GRID2 = GridSpec(d=2, extent=2.0, n=64)


@pytest.fixture(scope="module")
def phi1():
    return make_covering_profile(E1, GRID1)


@pytest.fixture(scope="module")
def pair1(phi1):
    return make_analyzing_pair(phi1, check_grid=GRID1)


class TestCoveringProfile:
    def test_line_support_is_half_to_two(self, phi1):
        xs = np.array([[0.49], [0.51], [1.0], [1.99], [2.01], [-1.5], [5.0]])
        vals = phi1.shape(phi1.gauge.t(xs))
        inside = (np.abs(xs[:, 0]) > 0.5) & (np.abs(xs[:, 0]) < 2.0)
        assert np.all(vals[inside] > 0)
        assert np.all(vals[~inside] == 0)

    def test_coverage_brute_force(self, phi1):
        # fresh scale solves for every dilate, not the t-shift shortcut
        xi = freq_points(GRID1)
        xi = xi[np.any(xi != 0, axis=1)][::7]
        best = np.zeros(len(xi))
        for j in range(-20, 21):
            moved = xi * 2.0**j
            np.maximum(best, np.abs(phi1.shape(phi1.gauge.t(moved))), out=best)
        assert np.min(best) >= 0.1

    def test_zero_frequency_excluded(self, phi1):
        t = phi1.gauge.t(np.zeros((1, 1)))
        assert t[0] == -np.inf
        assert phi1.shape(t)[0] == 0.0

    def test_dilated_annulus_scales_by_det(self, phi1):
        shifted = replace(phi1, t_center=phi1.t_center + 1.0)
        assert shifted.annulus[0] == pytest.approx(phi1.annulus[0] * E1.absdet)
        assert shifted.annulus[1] == pytest.approx(phi1.annulus[1] * E1.absdet)

    def test_narrow_bump_raises_coverage_gap(self):
        with pytest.raises(CoverageGap):
            make_covering_profile(E1, GRID1, t_halfwidth=0.3)

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            make_covering_profile(E1, GridSpec(d=1, extent=1.0, n=256))

    def test_anisotropic_profile_vanishes_outside_annulus(self):
        phi = make_covering_profile(E2, GRID2)
        vals = np.abs(phi.multiplier(GRID2, 0.0)).ravel()
        radii = E2.absdet ** phi.t_grid(GRID2)
        inner, outer = phi.annulus
        outside = (radii < inner) | (radii > outer)
        assert np.all(vals[outside] < 1e-12)


class TestAnalyzingPair:
    def test_calderon_identity_on_grid(self, pair1):
        t = pair1.phi.t_grid(GRID1)
        t = t[np.isfinite(t)]
        assert np.max(np.abs(pair1.calderon_sum(t) - 1.0)) <= 1e-10

    def test_overlap_count(self, pair1):
        # ceil(log_2 of annulus ratio 4) for the half-to-two bump
        assert pair1.overlap_n == 2

    def test_reproducing_window(self, pair1):
        t = np.linspace(-1, 3, 2001)
        phi_vals = pair1.phi.shape(t)
        win = pair1.window_shape(t)
        assert np.max(np.abs(phi_vals * win - phi_vals)) <= 1e-10

    def test_truncated_partition(self, pair1):
        # truncated sum j in [-J, J] is exact once the annulus fits
        J, N = 6, pair1.overlap_n
        t = pair1.phi.t_grid(GRID1)
        t = t[np.isfinite(t) & (np.abs(t) <= J - N)]
        vals = pair1.calderon_sum(t, j_range=(-J, J))
        assert np.max(np.abs(vals - 1.0)) <= 1e-10

    def test_single_term_denominator(self):
        gauge = transpose_gauge(E1)

        def clipped(t):
            u = (np.asarray(t) - 1.0) / 0.45
            out = np.zeros_like(u)
            m = np.abs(u) < 1
            out[m] = np.exp(1.0 - 1.0 / (1.0 - u[m] ** 2))
            return np.where(out >= 1e-4, out, 0.0)

        narrow = SpectralProfile(
            matrix=E1, gauge=gauge, t_center=1.0, t_halfwidth=0.45,
            amplitude=0.7, shape_fn=clipped,
        )
        pair = make_analyzing_pair(narrow)
        t = np.linspace(0.62, 1.38, 101)
        expected = np.conj(narrow.shape(t)) / np.abs(narrow.shape(t)) ** 2
        assert np.allclose(pair.psi.shape(t), expected, rtol=1e-12)

    def test_support_invariance(self, pair1):
        t = np.linspace(-2, 4, 4001)
        psi_vals = np.abs(pair1.psi.shape(t))
        phi_vals = np.abs(pair1.phi.shape(t))
        assert np.all(psi_vals[phi_vals == 0.0] == 0.0)

    def test_underflow_detected(self):
        gauge = transpose_gauge(E1)

        def leaky(t):
            u = (np.asarray(t) - 1.0) / 0.45
            out = np.zeros_like(u)
            m = np.abs(u) < 1
            out[m] = np.exp(1.0 - 1.0 / (1.0 - u[m] ** 2))
            return out

        prof = SpectralProfile(
            matrix=E1, gauge=gauge, t_center=1.0, t_halfwidth=0.45, shape_fn=leaky
        )
        with pytest.raises(DivisionUnderflow):
            make_analyzing_pair(prof)

    def test_calderon_on_anisotropic_grid(self):
        phi = make_covering_profile(E2, GRID2)
        pair = make_analyzing_pair(phi, check_grid=GRID2)
        t = phi.t_grid(GRID2)
        t = t[np.isfinite(t)]
        assert np.max(np.abs(pair.calderon_sum(t) - 1.0)) <= 1e-10


def _plain_loop(term, t, lo, hi, fold=np.add):
    """Reference: fold term(t + k) over every k with overlap, written out."""
    acc = np.zeros_like(t)
    k_lo = math.floor(lo - np.max(t)) if t.size else 0
    k_hi = math.ceil(hi - np.min(t)) if t.size else 0
    for k in range(k_lo, k_hi + 1):
        acc = fold(acc, term(t + k))
    return acc


class TestOverlapLoop:
    """Every overlap sum goes through analyzers._overlap_sum; each must give
    the bits of a plain loop over its own range."""

    T_CASES = {
        "random": np.random.default_rng(3).uniform(-4.0, 6.0, 257),
        "integers": np.arange(-3.0, 4.0),
        "single": np.array([0.4375]),
        "empty": np.zeros(0),
    }

    @pytest.mark.parametrize("case", sorted(T_CASES))
    def test_calderon_window_and_energy_match_plain_loops(self, pair1, case):
        t = self.T_CASES[case]
        phi, psi = pair1.phi, pair1.psi
        lo, hi = phi.t_support
        prod = lambda u: phi.shape(u) * psi.shape(u)
        assert np.array_equal(pair1.calderon_sum(t), _plain_loop(prod, t, lo, hi))
        ref = np.zeros_like(t)
        for j in range(-2, 4):
            ref = ref + phi.shape(t + j) * psi.shape(t + j)
        assert np.array_equal(pair1.calderon_sum(t, j_range=(-2, 3)), ref)
        n = pair1.overlap_n
        ref = np.zeros_like(t)
        for k in range(-n, n + 1):
            ref = ref + phi.shape(t + k) * psi.shape(t + k)
        assert np.array_equal(pair1.window_shape(t), ref)
        energy = _plain_loop(lambda u: np.abs(phi.shape(u)) ** 2, t, lo, hi)
        assert np.array_equal(periodized_energy(phi, t), energy)

    @pytest.mark.parametrize(
        "halfwidth, case, gap",
        [
            (1.0, "random", False),
            (1.0, "integers", False),
            (1.0, "empty", False),
            (0.3, "random", True),
            (0.3, "integers", False),
            (0.3, "single", True),
            (0.3, "empty", False),
        ],
    )
    def test_coverage_maximum_matches_plain_loop(self, phi1, monkeypatch, halfwidth, case, gap):
        t = self.T_CASES[case]
        prof = replace(phi1, t_halfwidth=halfwidth)
        lo, hi = prof.t_support
        # the former loop: max over j of |shape(t - j)|
        best = np.zeros_like(t)
        j_lo = math.floor(np.min(t) - hi) if t.size else 0
        j_hi = math.ceil(np.max(t) - lo) if t.size else 0
        for j in range(j_lo, j_hi + 1):
            np.maximum(best, np.abs(prof.shape(t - j)), out=best)
        seen = []
        real = analyzers._overlap_sum

        def spy(*args):
            seen.append(real(*args))
            return seen[-1]

        monkeypatch.setattr(analyzers, "_overlap_sum", spy)
        if gap:
            with pytest.raises(CoverageGap):
                check_coverage(prof, t)
        else:
            check_coverage(prof, t)
        assert len(seen) == (1 if t.size else 0)
        assert all(np.array_equal(got, best) for got in seen)


class TestAdmissible:
    def test_normalization_integral(self, phi1):
        vec = make_admissible(phi1)
        rng = np.random.default_rng(6)
        xi = rng.uniform(-8, 8, size=(100, 1))
        xi = xi[np.abs(xi[:, 0]) > 1e-3]
        vals = admissibility_integral(vec, xi, independent=True)
        assert np.max(np.abs(vals - 1.0)) <= 1e-6

    def test_fixed_point(self, phi1):
        vec = make_admissible(phi1)
        again = make_admissible(vec.psi)
        assert shape_energy(again.psi, again.s_step) == pytest.approx(1.0, abs=1e-10)
        assert again.psi.amplitude == pytest.approx(vec.psi.amplitude, rel=1e-10)

    def test_quadrature_stability(self, phi1):
        vec = make_admissible(phi1)
        xi = np.array([[0.8], [-2.5], [5.0]])
        coarse = admissibility_integral(vec, xi, s_step=1.0 / 32.0, independent=True)
        fine = admissibility_integral(vec, xi, s_step=1.0 / 64.0, independent=True)
        assert np.max(np.abs(coarse - fine)) < 1e-8

    def test_anisotropic_admissibility(self):
        phi = make_covering_profile(E2, GRID2)
        vec = make_admissible(phi)
        rng = np.random.default_rng(9)
        xi = rng.normal(size=(40, 2)) * 3.0
        xi = xi[np.linalg.norm(xi, axis=1) > 0.1]
        vals = admissibility_integral(vec, xi, independent=True)
        assert np.max(np.abs(vals - 1.0)) <= 1e-6

    @pytest.mark.parametrize("case", ["line", "plane"])
    def test_stacked_nodes_match_per_node_solves(self, phi1, case):
        rng = np.random.default_rng(12)
        if case == "line":
            phi, xi = phi1, rng.uniform(-8, 8, size=(30, 1))
        else:
            phi, xi = make_covering_profile(E2, GRID2), rng.normal(size=(20, 2)) * 3.0
        vec = make_admissible(phi)
        psi, step = vec.psi, 1.0 / 32.0
        # the quadrature as one gauge solve per node
        t0 = psi.gauge.t(xi)
        lo, hi = psi.t_support
        s_lo = float(np.min(lo - t0)) - step
        s_hi = float(np.max(hi - t0)) + step
        m = int(math.ceil((s_hi - s_lo) / step))
        s_nodes = s_lo + (s_hi - s_lo) * np.arange(m + 1) / m
        total = np.zeros(len(xi))
        for idx, s in enumerate(s_nodes):
            t_here = psi.gauge.t(xi @ expm(float(s) * psi.gauge.B).T)
            w = 0.5 if idx in (0, m) else 1.0
            total += w * np.abs(psi.shape(t_here)) ** 2
        reference = total * ((s_hi - s_lo) / m)
        vals = admissibility_integral(vec, xi, s_step=step, independent=True)
        assert np.array_equal(vals, reference)
        flowed = admissibility_integral(vec, xi, s_step=step, independent=False)
        assert np.allclose(flowed, reference, rtol=0.0, atol=1e-9)

    def test_shape_energy_matches_closed_quadrature(self, phi1):
        vec = make_admissible(phi1)
        assert shape_energy(vec.psi, 1.0 / 64.0) == pytest.approx(1.0, abs=1e-10)
