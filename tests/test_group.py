import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from anisotl import group_analysis, peetre
from anisotl.analyzers import bump, make_admissible, make_covering_profile
from anisotl.field_engine import convolve_scale, evaluate_spectrum, field_from_closure
from anisotl.grids import GridSpec, spatial_points
from anisotl.group_analysis import (
    ControlWeight,
    EnvelopeSpec,
    GroupField,
    GroupGrid,
    envelope_compare,
    group_convolve,
    group_inv,
    group_mul,
    group_point,
    left_bound,
    left_translate,
    local_maximal,
    modular,
    psi_spatial_field,
    pti_arrays,
    pti_norm,
    quasi_regular,
    reproducing_check,
    reproducing_kernel,
    right_translate,
    sigma_kappa,
    translation_bound_check,
    translation_overlap_n,
    wavelet_transform,
    weight_v,
    weight_v_many,
    wiener_amalgam_norm,
)
from anisotl.linalg_expansive import build_ellipsoid, validate_expansive
from anisotl.norms import NormParams

E1 = validate_expansive([[2.0]])
S1 = build_ellipsoid(E1)
GRID = GridSpec(d=1, extent=8.0, n=512)
GGRID = GroupGrid(grid=GRID, s_min=-5.0, s_max=1.5, ds=0.25)

PTI_PARAMS = NormParams(
    alpha=-1.0, q=2.0, beta=1.0, scale_max=0, ell_min=-2, ell_max=2, window="ball"
)


@pytest.fixture(scope="module")
def psi_vec():
    return make_admissible(make_covering_profile(E1, GRID))


@pytest.fixture(scope="module")
def suite_field(psi_vec):
    gauge = psi_vec.psi.gauge

    def spectrum(xi, t):
        ph = np.exp(-2j * np.pi * (np.atleast_2d(xi) @ np.array([0.3])))
        return (0.8 + 0.5j) * bump((t - 2.5) / 0.6) * ph

    return field_from_closure(GRID, gauge, spectrum)


class TestGroupLaw:
    def test_product_example(self):
        g = group_mul(E1, group_point([1.0], 1.0), group_point([1.0], 0.0))
        assert np.allclose(g.x, [3.0]) and g.s == 1.0

    def test_inverse_example(self):
        gi = group_inv(E1, group_point([1.0], 1.0))
        assert np.allclose(gi.x, [-0.5]) and gi.s == -1.0

    def test_modular_example(self):
        assert modular(E1, group_point([0.0], 1.0)) == pytest.approx(0.5)

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(st.floats(-5, 5), st.floats(-2, 2)),
        st.tuples(st.floats(-5, 5), st.floats(-2, 2)),
        st.tuples(st.floats(-5, 5), st.floats(-2, 2)),
    )
    def test_associativity_and_inverse(self, a, b, c):
        ga = group_point([a[0]], a[1])
        gb = group_point([b[0]], b[1])
        gc = group_point([c[0]], c[1])
        lhs = group_mul(E1, group_mul(E1, ga, gb), gc)
        rhs = group_mul(E1, ga, group_mul(E1, gb, gc))
        assert np.allclose(lhs.x, rhs.x, atol=1e-10) and lhs.s == pytest.approx(rhs.s)
        e = group_mul(E1, ga, group_inv(E1, ga))
        assert np.allclose(e.x, 0.0, atol=1e-10) and e.s == pytest.approx(0.0)


def test_lazy_values_are_computed_once_and_read_only(psi_vec, suite_field):
    band = convolve_scale(suite_field, psi_vec.psi, 0.0)
    W = wavelet_transform(suite_field, psi_vec, GGRID)
    lazy = [(suite_field, "values"), (band, "values"), (band, "abs_values"),
            (W, "values"), (W, "abs_values")]
    for obj, name in lazy:
        first = getattr(obj, name)
        assert getattr(obj, name) is first
        assert first.flags.writeable is False


def test_given_values_are_handed_out_read_only():
    vals = np.ones((len(GGRID.s_values),) + GRID.shape)
    F = GroupField(ggrid=GGRID, vals=vals)
    assert F.values.flags.writeable is False
    assert np.shares_memory(F.values, vals)
    with pytest.raises(ValueError):
        F.values[0, 0] = 5.0
    assert F.abs_values[0, 0] == 1.0


class TestWaveletTransform:
    def test_self_coefficient_at_identity(self, psi_vec):
        psi_f = psi_spatial_field(psi_vec, GRID)
        W = wavelet_transform(psi_f, psi_vec, GGRID)
        i0 = GGRID.steps(0.0 - GGRID.s_min)
        x0 = GRID.n // 2  # x = 0 sits mid-grid
        norm_sq = psi_f.l2_norm() ** 2
        assert W.values[i0, x0] == pytest.approx(norm_sq, rel=1e-9)

    def test_isometry(self, psi_vec, suite_field):
        W = wavelet_transform(suite_field, psi_vec, GGRID)
        assert W.l2_norm(E1.absdet) == pytest.approx(suite_field.l2_norm(), rel=0.01)

    def test_covariance(self, psi_vec, suite_field):
        g = group_point([0.5], -1.0)
        moved = quasi_regular(g, suite_field, E1, psi_vec.psi.gauge)
        W_moved = wavelet_transform(moved, psi_vec, GGRID)
        W = wavelet_transform(suite_field, psi_vec, GGRID)
        LW = left_translate(W, g, E1)
        scale = np.max(np.abs(W_moved.values))
        assert np.max(np.abs(W_moved.values - LW.values)) <= 1e-8 * scale

    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.5, 2.0, 7.0])
    def test_left_translate_matches_slice_loop(self, psi_vec, suite_field, s):
        # the stacked evaluation gives what one evaluation per kept slice gave
        W = wavelet_transform(suite_field, psi_vec, GGRID)
        g = group_point([0.5], s)
        shift = int(round(s / GGRID.ds))
        pts = (spatial_points(GRID) - np.asarray(g.x)) @ expm(-s * E1.log).T
        ref = np.zeros_like(W.spec)
        for i in range(len(GGRID.s_values)):
            if 0 <= i - shift < len(GGRID.s_values):
                ref[i] = evaluate_spectrum(GRID, W.spec[i - shift], pts).reshape(GRID.shape)
        assert np.array_equal(left_translate(W, g, E1).values, ref)

    def test_haar_invariance(self, psi_vec, suite_field):
        # grid-compatible g: spatial shift on the lattice, integer negative scale;
        # the field decays well inside the box, so the torus quadrature matches
        # the group integral to tail accuracy
        W = wavelet_transform(suite_field, psi_vec, GGRID)
        g = group_point([0.5], -1.0)
        LW = left_translate(W, g, E1)
        w = GGRID.haar_weights(E1.absdet)
        total = np.sum(w * np.sum(W.values, axis=1))
        total_l = np.sum(w * np.sum(LW.values, axis=1))
        scale = np.sum(w * np.sum(np.abs(W.values), axis=1))
        assert abs(total_l - total) <= 1e-8 * scale


@pytest.mark.parametrize("translate", [left_translate, right_translate])
def test_translations_check_the_field_and_the_shift_alike(psi_vec, suite_field, translate):
    values_only = GroupField(ggrid=GGRID, vals=np.ones((len(GGRID.s_values),) + GRID.shape))
    with pytest.raises(ValueError, match="slice evaluation needs spectral slices"):
        translate(values_only, group_point([0.5], -1.0), E1)
    W = wavelet_transform(suite_field, psi_vec, GGRID)
    with pytest.raises(ValueError, match="scale shift 0.1 is not on the ds = 0.25 grid"):
        translate(W, group_point([0.5], 0.1), E1)


def test_l2_norm_needs_spectral_slices():
    values_only = GroupField(ggrid=GGRID, vals=np.ones((len(GGRID.s_values),) + GRID.shape))
    with pytest.raises(ValueError, match="slice evaluation needs spectral slices"):
        values_only.l2_norm(E1.absdet)


def reproduce(f, vec, ggrid):
    """reproducing_check of f with one analyzer on both sides."""
    kernel = reproducing_kernel(vec, vec, ggrid)
    return reproducing_check(f, vec, wavelet_transform(f, vec, ggrid), kernel)


class TestReproducing:
    def test_self_reproducing(self, psi_vec):
        psi_f = psi_spatial_field(psi_vec, GRID)
        rep = reproduce(psi_f, psi_vec, GGRID)
        assert rep["rel_l2"] <= 0.05

    def test_zero_field(self, psi_vec):
        zero = field_from_closure(
            GRID, psi_vec.psi.gauge, lambda xi, t: np.zeros(len(t), complex)
        )
        W = wavelet_transform(zero, psi_vec, GGRID)
        psi_f = psi_spatial_field(psi_vec, GRID)
        G = wavelet_transform(psi_f, psi_vec, GGRID)
        conv = group_convolve(W, G, E1)
        assert np.max(np.abs(conv.values)) == 0.0

    def test_random_field_error_halves_under_refinement(self, psi_vec, suite_field):
        rep = reproduce(suite_field, psi_vec, GGRID)
        assert rep["rel_l2"] <= 0.05
        # the refined group grid: twice the box at the same step, half the ds
        fine = GroupGrid(GGRID.grid.widened(), GGRID.s_min, GGRID.s_max, GGRID.ds / 2.0)
        f2 = field_from_closure(fine.grid, psi_vec.psi.gauge, suite_field.spectrum_fn)
        rep2 = reproduce(f2, psi_vec, fine)
        assert rep2["rel_l2"] <= 0.6 * max(rep["rel_l2"], 1e-12)


def pti(F, params):
    """pti_norm of one group field."""
    return pti_norm(F.ggrid, S1, pti_arrays(F, S1, params.beta, params.search_shells), params)


class TestPtiNorm:
    def test_zero(self, psi_vec):
        W = GroupGridZero = wavelet_transform(
            field_from_closure(
                GRID, psi_vec.psi.gauge, lambda xi, t: np.zeros(len(t), complex)
            ),
            psi_vec,
            GGRID,
        )
        assert pti(W, PTI_PARAMS).value == 0.0

    def test_zero_slices_leave_the_boundary_flag_unset(self):
        ggrid = GroupGrid(grid=GRID, s_min=-5.0, s_max=-4.0, ds=0.25)
        F = GroupField(ggrid=ggrid, vals=np.zeros((len(ggrid.s_values),) + GRID.shape))
        beta = PTI_PARAMS.beta
        structs = peetre.offset_shells(
            GRID, S1, [E1.power(-s) for s in ggrid.s_values], PTI_PARAMS.search_shells
        )
        for struct, arr in zip(structs, F.abs_values, strict=True):
            assert struct.truncated
            # the sweep flags a zero slice: every shell ties the maximum 0
            assert peetre.weighted_sup_multi(arr, struct, [beta], E1.absdet)[beta][1]
        rep = pti(F, PTI_PARAMS)
        assert rep.value == 0.0
        assert rep.flags["peetre_boundary"] is False

    def test_left_translate_bound_example(self, psi_vec, suite_field):
        W = wavelet_transform(suite_field, psi_vec, GGRID)
        params = NormParams(
            alpha=0.0, q=2.0, beta=1.0, ell_min=-2, ell_max=2, window="ball"
        )
        base = pti(W, params)
        g = group_point([0.0], 1.0)
        shifted = pti(left_translate(W, g, E1), params)
        n = translation_overlap_n(S1)
        bound = left_bound(E1, n, 1.0, params.alpha, params.q)
        assert shifted.value <= bound * base.value * 1.01


class TestTranslationBounds:
    @pytest.mark.parametrize("t", [1.0, -1.0, 0.0])
    def test_bounds_hold(self, psi_vec, suite_field, t):
        W = wavelet_transform(suite_field, psi_vec, GGRID)
        params = NormParams(
            alpha=0.5, q=2.0, beta=1.0, ell_min=-2, ell_max=2, window="ball"
        )
        rep = translation_bound_check(W, group_point([0.75], t), S1, params)
        assert rep["left_ok"] and rep["right_ok"]

    def test_identity_translation(self, psi_vec, suite_field):
        W = wavelet_transform(suite_field, psi_vec, GGRID)
        params = NormParams(
            alpha=0.0, q=2.0, beta=1.0, ell_min=-2, ell_max=2, window="ball"
        )
        rep = translation_bound_check(W, group_point([0.0], 0.0), S1, params)
        assert rep["left_ratio"] == pytest.approx(1.0, rel=1e-9)
        assert rep["right_ratio"] == pytest.approx(1.0, rel=1e-9)
        assert rep["left_bound"] >= 1.0 and rep["right_bound"] >= 1.0


class TestWeightV:
    def test_identity(self):
        v, _ = weight_v(S1, [0.0], 0.0)
        assert v == pytest.approx(1.0)

    def test_at_least_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            y = rng.normal() * 3
            t = rng.uniform(-2, 2)
            v, _ = weight_v(S1, [y], t)
            assert v >= 1.0

    def test_submultiplicative_on_samples(self):
        rng = np.random.default_rng(6)
        ok = 0
        for _ in range(40):
            y1, y2 = rng.normal(size=2) * 2
            t1, t2 = rng.uniform(-1.5, 1.5, size=2)
            g = group_point([y1], t1)
            h = group_point([y2], t2)
            gh = group_mul(E1, g, h)
            v_g, _ = weight_v(S1, g.x, g.s)
            v_h, _ = weight_v(S1, h.x, h.s)
            v_gh, _ = weight_v(S1, gh.x, gh.s)
            if v_gh <= v_g * v_h * 1.05:
                ok += 1
        assert ok >= 38  # sampled sup may undershoot occasionally

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        ys = rng.normal(size=(10, 1)) * 2
        ts = np.round(rng.uniform(-2, 2, size=10) * 4) / 4
        many = weight_v_many(S1, ys, ts)
        for i in range(10):
            v, _ = weight_v(S1, ys[i], ts[i])
            assert many[i] == pytest.approx(v, rel=1e-12)


class TestControlWeight:
    def test_theta_cases(self):
        env = EnvelopeSpec(sigma=(2.0, 3.0), L=0.0)
        assert env.theta(np.array([1.0]))[0] == pytest.approx(2.0)
        assert env.theta(np.array([-1.0]))[0] == pytest.approx(1.0 / 3.0)

    def test_sigma_for_q_infinity(self):
        sigma, _, _ = sigma_kappa(alpha=0.7, beta=2.0, q=math.inf, absdet=2.0)
        assert sigma[0] == pytest.approx(2.0 ** (1 + 0.7))
        assert sigma[1] == pytest.approx(2.0 ** (-0.7))

    def test_symmetry_identity(self):
        w = ControlWeight(S1, alpha=0.3, beta=1.0, q=2.0)
        rng = np.random.default_rng(8)
        ys = rng.normal(size=(200, 1)) * 3
        ts = np.round(rng.uniform(-3, 3, size=200) * 8) / 8
        lhs = w(ys, ts)
        inv_y = np.stack(
            [-(ys[i] @ np.asarray(E1.power(-ts[i])).T) for i in range(len(ts))]
        )
        rhs = E1.absdet ** (ts / w.r) * w(inv_y, -ts)
        assert np.max(np.abs(lhs - rhs) / lhs) <= 1e-9

    def test_w_at_least_one(self):
        w = ControlWeight(S1, alpha=-0.5, beta=1.5, q=0.5)
        rng = np.random.default_rng(9)
        ys = rng.normal(size=(50, 1)) * 4
        ts = rng.uniform(-2, 2, size=50)
        assert np.all(w(ys, ts) >= 1.0)

    def test_envelope_comparison_bounded(self):
        for alpha in (0.5, -3.0):  # both kappa branches
            w = ControlWeight(S1, alpha=alpha, beta=1.0, q=2.0)
            rng = np.random.default_rng(10)
            ys = rng.normal(size=(200, 1)) * 3
            ts = rng.uniform(-3, 3, size=200)
            rep = envelope_compare(w, ys, ts, w(ys, ts))
            assert 0 < rep["min_ratio"] <= rep["max_ratio"] < np.inf

    def test_branches_differ(self):
        _, _, up = sigma_kappa(alpha=0.5, beta=1.0, q=2.0, absdet=2.0)
        _, _, dn = sigma_kappa(alpha=-3.0, beta=1.0, q=2.0, absdet=2.0)
        assert up and not dn


@pytest.mark.parametrize(
    "mat", [[[2.0]], [[2.0, 0.0], [0.0, 4.0]], [[2.0, 1.0], [0.0, 2.0]]], ids=["line", "diag24", "shear"]
)
def test_inversions_match_masked_products(mat, monkeypatch):
    E = validate_expansive(mat)
    S = build_ellipsoid(E)
    rng = np.random.default_rng(12)
    ys = rng.normal(size=(400, E.d)) * 3.0
    ts = np.round(rng.uniform(-3, 3, size=400) * 8) / 8
    inv_y = np.empty_like(ys)
    rho2 = np.empty(len(ts))
    for t in np.unique(ts):
        mask = ts == t
        moved = ys[mask] @ np.asarray(E.power(-float(t))).T
        inv_y[mask] = -moved
        rho2[mask] = S.rho(moved)

    env = EnvelopeSpec(sigma=(2.0, 3.0), L=1.5)
    expected = env.theta(ts) * (1.0 + np.minimum(S.rho(ys), rho2)) ** -1.5
    assert np.array_equal(env(S, ys, ts), expected)

    seen = []

    def recording(S_, ys_, ts_, *args, **kwargs):
        seen.append(ys_)
        return weight_v_many(S_, ys_, ts_, *args, **kwargs)

    monkeypatch.setattr(group_analysis, "weight_v_many", recording)
    ControlWeight(S, alpha=0.3, beta=1.0, q=2.0)(ys, ts)
    assert np.array_equal(seen[0], ys)
    assert np.array_equal(seen[1], inv_y)


@pytest.mark.parametrize(
    "mat", [[[2.0]], [[2.0, 0.0], [0.0, 4.0]], [[2.0, 1.0], [0.0, 2.0]]], ids=["line", "diag24", "shear"]
)
def test_control_weight_prefix_is_the_half_sample(mat):
    # run_control_weight reads its half-sample values off the full sample's
    E = validate_expansive(mat)
    w = ControlWeight(build_ellipsoid(E), alpha=0.5, beta=1.0, q=2.0)
    rng = np.random.default_rng(13)
    ys = rng.normal(size=(400, E.d)) * 3.0
    ts = np.round(rng.uniform(-3, 3, size=400) * 8) / 8
    assert np.array_equal(w(ys, ts)[:200], w(ys[:200], ts[:200]))



def _weight_v_many_every_pair(S, ys, ts):
    """weight_v_many with rho evaluated on every (sample, candidate) pair."""
    ys = np.atleast_2d(ys)
    ts = np.asarray(ts, dtype=float)
    out = np.empty(len(ts))
    cands = group_analysis._v_candidates(S)
    rho_c = S.rho(cands)
    E = S.owner
    for t in np.unique(ts):
        mask = ts == t
        yy = ys[mask]
        moved = cands @ np.asarray(E.power(float(t))).T
        num_sp = 1.0 + S.rho(yy @ np.asarray(E.power(-float(t))).T)
        diff = moved[None, :, :] - yy[:, None, :]
        den = 1.0 + S.rho(diff.reshape(-1, E.d)).reshape(len(yy), -1)
        ratios = (1.0 + rho_c)[None, :] / den
        out[mask] = np.maximum(np.maximum(np.max(ratios, axis=1), num_sp), 1.0)
    return out


def _bound_samples(S, seed):
    """Random samples at several radii, the origin, and points on and next
    to the candidate shells moved by A^t, with t on the 1/8 grid."""
    E = S.owner
    rng = np.random.default_rng(seed)
    cands = group_analysis._v_candidates(S)
    ys, ts = [], []
    for radius in (0.05, 1.0, 3.0, 40.0):
        ys.append(rng.normal(size=(150, E.d)) * radius)
        ts.append(np.round(rng.uniform(-3, 3, size=150) * 8) / 8)
    ys.append(np.zeros((3, E.d)))
    ts.append(np.array([0.0, -1.25, 2.5]))
    for t in (-2.375, -0.5, 0.0, 0.125, 1.75):
        picked = cands[rng.choice(len(cands), size=12, replace=False)]
        on_shell = picked @ np.asarray(E.power(t)).T
        for factor in (1.0, 1.0 - 1e-9, 1.0 + 1e-9, 0.999, 1.001):
            ys.append(factor * on_shell)
            ts.append(np.full(len(on_shell), t))
    return np.concatenate(ys), np.concatenate(ts)


@pytest.mark.parametrize(
    "ranges", [(group_analysis._V_SHELLS, group_analysis._V_DIRECTIONS)], ids=["default"]
)
@pytest.mark.parametrize(
    "mat", [[[2.0]], [[2.0, 0.0], [0.0, 4.0]], [[2.0, 1.0], [0.0, 2.0]]], ids=["line", "diag24", "shear"]
)
def test_weight_v_many_bound_is_exact(mat, ranges, monkeypatch):
    # pairs whose numerator cannot beat max(num_sp, 1) are skipped; the
    # values equal those with rho evaluated on every pair, also inside the
    # control weight
    S = build_ellipsoid(validate_expansive(mat))
    ys, ts = _bound_samples(S, seed=len(mat) + ranges[0])
    got = weight_v_many(S, ys, ts)
    assert np.array_equal(got, _weight_v_many_every_pair(S, ys, ts))

    w = ControlWeight(S, alpha=0.3, beta=1.0, q=2.0)
    actual = w(ys, ts)
    monkeypatch.setattr(group_analysis, "weight_v_many", _weight_v_many_every_pair)
    assert np.array_equal(actual, w(ys, ts))

class TestLocalMaximal:
    def test_degenerate_window(self, psi_vec, suite_field):
        W = wavelet_transform(suite_field, psi_vec, GGRID)
        m = local_maximal(W, E1, a=1e-9, b=1e-9, spatial_count=1)
        assert np.allclose(m.values, np.abs(W.values))

    def test_dominates(self, psi_vec, suite_field):
        W = wavelet_transform(suite_field, psi_vec, GGRID)
        m = local_maximal(W, E1, a=1.0, b=1.0, side="left")
        assert np.all(m.values >= np.abs(W.values) - 1e-12)

    def test_two_sided_dominates_left(self, psi_vec, suite_field):
        W = wavelet_transform(suite_field, psi_vec, GGRID)
        left = local_maximal(W, E1, a=0.5, b=0.5, side="left", spatial_count=2)
        two = local_maximal(W, E1, a=0.5, b=0.5, side="two", spatial_count=2)
        assert np.all(two.values >= left.values - 1e-12)

    def test_unknown_side_raises(self, psi_vec, suite_field):
        W = wavelet_transform(suite_field, psi_vec, GGRID)
        with pytest.raises(ValueError, match="unknown side 'right'"):
            local_maximal(W, E1, side="right")

    def test_left_equivariance_on_grid_translations(self, psi_vec, suite_field):
        # pure spatial shift: the snapped sampling commutes exactly
        W = wavelet_transform(suite_field, psi_vec, GGRID)
        g = group_point([0.5], 0.0)
        lhs = local_maximal(left_translate(W, g, E1), E1, a=0.5, b=0.5)
        rhs_field = local_maximal(W, E1, a=0.5, b=0.5)
        shift = int(round(0.5 / GRID.h))
        rhs = np.roll(rhs_field.values, shift, axis=1)
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-10 * max(np.max(rhs), 1.0)


def _former_snap_gather(grid, vals_flat, points):
    """The former per-axis loop of _snap_gather, kept as the reference."""
    idx = np.zeros(len(points), dtype=np.int64)
    for ax in range(grid.d):
        comp = np.round((points[:, ax] + grid.extent) / grid.h).astype(np.int64) % grid.n
        idx = idx * grid.n + comp
    return vals_flat[idx]


@pytest.mark.parametrize("grid", [GRID, GridSpec(d=2, extent=2.0, n=16)], ids=["d1", "d2"])
def test_snap_gather_matches_the_per_axis_loop(grid):
    rng = np.random.default_rng(11)
    vals = rng.random(grid.size)
    # up to two boxes either side, so node indices wrap below 0 and above n
    pts = rng.uniform(-5.0 * grid.extent, 5.0 * grid.extent, size=(600, grid.d))
    nodes = np.round((pts + grid.extent) / grid.h)
    assert np.any(nodes < 0) and np.any(nodes >= grid.n)
    got = group_analysis._snap_gather(grid, vals, pts)
    assert np.array_equal(got, _former_snap_gather(grid, vals, pts))


class TestWienerNorm:
    def test_zero(self, psi_vec):
        zero = field_from_closure(
            GRID, psi_vec.psi.gauge, lambda xi, t: np.zeros(len(t), complex)
        )
        W = wavelet_transform(zero, psi_vec, GGRID)
        w = ControlWeight(S1, alpha=0.0, beta=1.0, q=2.0)
        assert wiener_amalgam_norm(W, w, r=1.0) == 0.0

    def test_self_coefficients_finite(self, psi_vec):
        psi_f = psi_spatial_field(psi_vec, GRID)
        W = wavelet_transform(psi_f, psi_vec, GGRID)
        w = ControlWeight(S1, alpha=0.0, beta=1.0, q=2.0)
        val = wiener_amalgam_norm(W, w, r=1.0)
        assert 0 < val < np.inf
