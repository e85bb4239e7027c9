import math
from dataclasses import replace

import numpy as np
import pytest

from anisotl import grids, group_analysis, norms, peetre
from anisotl.analyzers import bump, make_analyzing_pair, make_covering_profile
from anisotl.errors import WindowOutOfDomain
from anisotl.field_engine import convolve_scale, field_from_closure, field_from_spec
from anisotl.grids import GridSpec, spatial_points
from anisotl.linalg_expansive import build_ellipsoid, validate_expansive
from anisotl.experiments import run_norm_equivalence
from anisotl.suite import SuiteSpec, suite_generate
from anisotl.norms import (
    NormParams,
    band_arrays,
    ball_windows,
    besov_norm,
    cube_windows,
    embedding_check,
    peetre_arrays,
    sup_over_windows,
    tl_norm_inf,
    tl_norm_q,
    tl_peetre_norm,
)

E1 = validate_expansive([[2.0]])
S1 = build_ellipsoid(E1)
GRID = GridSpec(d=1, extent=8.0, n=512)
PARAMS = NormParams(alpha=0.0, q=2.0, beta=1.5, scale_max=5, ell_min=-3, ell_max=2)


@pytest.fixture(scope="module")
def pair():
    return make_analyzing_pair(make_covering_profile(E1, GRID), check_grid=GRID)


def make_field(seed=0, t0=2.5, width=0.5, center=0.4, amp=None):
    phi_gauge = make_field.gauge
    rng = np.random.default_rng(seed)
    if amp is None:
        amp = rng.normal() + 1j * rng.normal()

    def spectrum(xi):
        t = phi_gauge.t(np.atleast_2d(xi))
        ph = np.exp(-2j * np.pi * (np.atleast_2d(xi) @ np.array([center])))
        return amp * bump((t - t0) / width) * ph

    return field_from_closure(GRID, phi_gauge, spectrum)


@pytest.fixture(scope="module", autouse=True)
def _attach_gauge(pair):
    make_field.gauge = pair.phi.gauge


def bands(f, pair, params):
    """f's bands at the scales of params' discrete norms."""
    return band_arrays(f, pair.phi, params.discrete_scales)


def maximal(f, pair, params, discrete):
    """f's Peetre fields at params.beta on the scales of the discrete or
    continuous norm, with their boundary flag."""
    scales = params.discrete_scales if discrete else params.continuous_scales
    swept = band_arrays(f, pair.phi, scales)
    return peetre_arrays(f.grid, S1, swept, [params.beta], params.search_shells)[params.beta]


def embedding(f, pair, params):
    """embedding_check of f's three reports at params, with the reports."""
    b = bands(f, pair, params)
    reps = {
        "tl_q": tl_norm_q(GRID, S1, b, params),
        "tl_inf": tl_norm_inf(GRID, S1, b, params),
        "besov": besov_norm(S1, b, params),
    }
    return {**embedding_check(*reps.values()), **reps}


def zero_field(pair):
    return field_from_closure(GRID, pair.phi.gauge, lambda xi: np.zeros(len(np.atleast_2d(xi)), dtype=complex))


class TestBasics:
    def test_zero_field(self, pair):
        z = zero_field(pair)
        assert tl_norm_q(GRID, S1, bands(z, pair, PARAMS), PARAMS).value == 0.0
        assert tl_norm_inf(GRID, S1, bands(z, pair, PARAMS), PARAMS).value == 0.0
        assert besov_norm(S1, bands(z, pair, PARAMS), PARAMS).value == 0.0

    def test_profile_argument_keeps_pair_values(self, pair):
        # the values tl_norm_q gave when it took the pair and read pair.phi
        f = suite_generate(SuiteSpec(count=1, seed=5), GRID, pair.phi.gauge, pair.phi)[0]
        p = NormParams(alpha=0.5, q=1.0, scale_max=4, ell_min=-2, ell_max=2)
        for params, value in ((PARAMS, 55.30772175771998), (p, 111.97521349243847)):
            rep = tl_norm_q(GRID, S1, bands(f, pair, params), params)
            assert rep.value == pytest.approx(value, rel=1e-12)

    def test_homogeneity(self, pair):
        f = make_field(seed=1)
        a = tl_norm_q(GRID, S1, bands(f, pair, PARAMS), PARAMS).value
        b = tl_norm_q(GRID, S1, bands(f.scaled(-3.5j), pair, PARAMS), PARAMS).value
        assert b == pytest.approx(3.5 * a, rel=1e-12)

    def test_alpha_reweighting_single_band(self, pair):
        # one active scale: shifting alpha rescales the value exactly
        f = make_field(seed=2, t0=3.0, width=0.35)
        bank = band_arrays(f, pair.phi, [2])
        for alpha in (0.0, 0.5):
            p = NormParams(alpha=alpha, q=1.0, scale_max=2, ell_min=-2, ell_max=2)
            terms = [(2.0, 1.0, E1.absdet ** (alpha * 2.0) * bank[2.0])]
            direct = sup_over_windows(GRID, S1, terms, p, "fine").value
            if alpha == 0.0:
                base = direct
        assert direct == pytest.approx(base * E1.absdet ** (0.5 * 2.0), rel=1e-12)

    def test_beta_guard(self, pair):
        f = make_field(seed=3)
        low = (NormParams(alpha=0.0, q=2.0, beta=0.4), NormParams(alpha=0.0, q=math.inf, beta=0.9))
        for p in low:
            with pytest.raises(ValueError, match="beta must exceed"):
                tl_peetre_norm(GRID, S1, maximal(f, pair, p, True), p, discrete=True)

    def test_arrays_must_sit_on_the_norms_scales(self, pair):
        # each norm picks its own scales, in its own order, from the arrays
        # it is handed: more scales in another order give the report of the
        # exact arrays, and a missing scale raises naming it
        f = make_field(seed=3)
        p = NormParams(alpha=0.0, q=2.0, beta=1.5, scale_max=4, ell_min=-2, ell_max=2, s_step=0.25)
        wide = replace(p, scale_max=5)
        disc, disc_flag = maximal(f, pair, p, True)
        cont, cont_flag = maximal(f, pair, p, False)
        rng = np.random.default_rng(3)
        ggrid = group_analysis.GroupGrid(grid=GRID, s_min=-2.0, s_max=1.0, ds=0.5)
        sups = {float(s): np.abs(rng.normal(size=GRID.size)) for s in (*ggrid.s_values, 1.5, 2.0)}
        cases = [  # (norm of a scale -> array dict, its exact arrays, extra arrays)
            (lambda a: tl_norm_q(GRID, S1, a, p), bands(f, pair, p), bands(f, pair, wide)),
            (lambda a: besov_norm(S1, a, p), bands(f, pair, p), bands(f, pair, wide)),
            (lambda a: tl_peetre_norm(GRID, S1, (a, disc_flag), p), disc, cont),
            (
                lambda a: tl_peetre_norm(GRID, S1, (a, cont_flag), p, discrete=False),
                cont,
                maximal(f, pair, wide, False)[0],
            ),
            (
                lambda a: group_analysis.pti_norm(ggrid, S1, (a, False), p),
                {float(s): sups[float(s)] for s in ggrid.s_values},
                sups,
            ),
        ]
        for norm, exact, extra in cases:
            rep = norm(exact)
            assert rep.value > 0
            assert norm({**extra, **dict(reversed(exact.items()))}) == rep
            gone = list(exact)[len(exact) // 2]
            with pytest.raises(ValueError, match=rf"no arrays at the norm's scales \[{gone}\]"):
                norm({s: arr for s, arr in exact.items() if s != gone})

    def test_window_out_of_domain(self, pair):
        f = make_field(seed=4)
        with pytest.raises(WindowOutOfDomain):
            p = NormParams(alpha=0.0, q=2.0, ell_min=8, ell_max=9)
            tl_norm_q(GRID, S1, bands(f, pair, p), p)


class TestSingleBandOracle:
    def test_brute_force_windows(self, pair):
        # single active band, q = 1, alpha = 0: independent window sweep
        f = make_field(seed=5, t0=2.8, width=0.3, center=0.3)
        j0 = 2
        band = np.abs(convolve_scale(f, pair.phi, j0).values)
        params = NormParams(alpha=0.0, q=1.0, scale_max=j0, ell_min=-2, ell_max=2)
        terms = [(float(j0), 1.0, band.ravel())]
        got = sup_over_windows(GRID, S1, terms, params, "fine")

        xs = spatial_points(GRID)[:, 0]
        best = 0.0
        for ell in range(-2, 3):
            if ell < -j0:
                continue
            width = 2.0**ell
            buckets: dict[int, list[float]] = {}
            for x, v in zip(xs, band):
                k = math.floor(x / width)
                if width * k >= -8.0 and width * (k + 1) <= 8.0:
                    buckets.setdefault(k, []).append(v)
            for vals in buckets.values():
                best = max(best, sum(vals) / len(vals))
        assert got.value == pytest.approx(best, rel=1e-12)

    def test_tail_flag_when_band_at_truncation(self, pair):
        f = make_field(seed=6, t0=4.6, width=0.3)
        p = NormParams(alpha=0.0, q=2.0, scale_max=4, ell_min=-2, ell_max=2)
        rep = tl_norm_q(GRID, S1, bands(f, pair, p), p)
        assert rep.flags["scale_tail"]


class TestStructuralInequalities:
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_r_quasi_norm(self, pair, q):
        f = make_field(seed=7)
        g = make_field(seed=8, t0=2.1, center=-0.6)
        p = NormParams(alpha=0.0, q=q, scale_max=5, ell_min=-2, ell_max=2)
        r = min(1.0, q)
        nf = tl_norm_q(GRID, S1, bands(f, pair, p), p).value
        ng = tl_norm_q(GRID, S1, bands(g, pair, p), p).value
        fg = field_from_spec(GRID, f.spec + g.spec, pair.phi.gauge)
        nfg = tl_norm_q(GRID, S1, bands(fg, pair, p), p).value
        assert nfg**r <= nf**r + ng**r + 1e-10

    def test_window_monotonicity(self, pair):
        f = make_field(seed=9)
        small = NormParams(alpha=0.0, q=2.0, scale_max=4, ell_min=-1, ell_max=1)
        big = NormParams(alpha=0.0, q=2.0, scale_max=5, ell_min=-3, ell_max=2)
        n_big = tl_norm_q(GRID, S1, bands(f, pair, big), big).value
        assert n_big >= tl_norm_q(GRID, S1, bands(f, pair, small), small).value - 1e-14

    def test_besov_dominates_tl_inf(self, pair):
        for seed in range(4):
            f = make_field(seed=20 + seed)
            n_inf = tl_norm_inf(GRID, S1, bands(f, pair, PARAMS), PARAMS).value
            n_b = besov_norm(S1, bands(f, pair, PARAMS), PARAMS).value
            assert n_inf <= n_b * (1 + 1e-12)

    def test_tl_inf_below_tl_q(self, pair):
        for q in (1.0, 2.0):
            p = NormParams(alpha=0.0, q=q, scale_max=5, ell_min=-2, ell_max=2)
            for seed in range(3):
                f = make_field(seed=30 + seed)
                b = bands(f, pair, p)
                n_inf = tl_norm_inf(GRID, S1, b, p).value
                assert n_inf <= tl_norm_q(GRID, S1, b, p).value * (1 + 1e-12)

    @pytest.mark.parametrize("discrete", [True, False])
    def test_peetre_dominates_plain(self, pair, discrete):
        # the continuous sum holds every integer scale with weight step, so it
        # dominates step^(1/q) times the plain norm (step 1 when discrete)
        f = make_field(seed=40)
        p = NormParams(alpha=0.0, q=2.0, beta=1.0, scale_max=4, ell_min=-2, ell_max=2, s_step=0.25)
        step = 1.0 if discrete else p.effective_s_step
        plain = tl_norm_q(GRID, S1, bands(f, pair, p), p).value
        charac = tl_peetre_norm(
            GRID, S1, maximal(f, pair, p, discrete), p, discrete=discrete
        ).value
        assert charac >= step ** (1 / p.q) * plain * (1 - 1e-12)


def window_equivalence(arr, params):
    """Cube-window and ball-window suprema of one array at scale 0, and
    their ratio."""
    terms = [(0.0, 1.0, np.asarray(arr, dtype=float).ravel())]
    cube = sup_over_windows(GRID, S1, terms, replace(params, window="cube"))
    ball = sup_over_windows(GRID, S1, terms, replace(params, window="ball"))
    return {"cube": cube, "ball": ball, "ratio": cube.value / ball.value}


class TestWindowEquivalence:
    def test_constant_field(self):
        ones = np.ones(GRID.size)
        p = NormParams(alpha=0.0, q=math.inf, ell_min=-2, ell_max=1)
        rep = window_equivalence(ones, p)
        assert rep["cube"].value == pytest.approx(1.0, abs=1e-12)
        assert rep["ball"].value == pytest.approx(1.0, abs=1e-9)

    def test_indicator_ratio_bounded(self):
        xs = spatial_points(GRID)[:, 0]
        ind = ((xs >= 0.0) & (xs < 1.0)).astype(float)
        p = NormParams(alpha=0.0, q=math.inf, ell_min=-2, ell_max=2)
        rep = window_equivalence(ind, p)
        assert 0.2 <= rep["ratio"] <= 5.0

    def test_random_suite_stable_under_wider_levels(self, pair):
        rng = np.random.default_rng(3)
        field = np.abs(rng.normal(size=GRID.size))
        narrow = NormParams(alpha=0.0, q=math.inf, ell_min=-2, ell_max=1)
        wide = NormParams(alpha=0.0, q=math.inf, ell_min=-3, ell_max=2)
        r1 = window_equivalence(field, narrow)["ratio"]
        r2 = window_equivalence(field, wide)["ratio"]
        assert abs(r2 - r1) <= 0.5 * r1


@pytest.mark.parametrize(
    "mat, grid, missing",
    [
        ([[2.0]], GRID, False),
        ([[2.0, 0.0], [0.0, 4.0]], GridSpec(d=2, extent=2.0, n=16), True),
    ],
    ids=["line", "diag24"],
)
def test_window_level_missing_flag(mat, grid, missing):
    # A^2 = diag(4, 16) makes every level-2 cube taller than the box, so that
    # level is dropped and flagged; on the line every level keeps windows
    S = build_ellipsoid(validate_expansive(mat))
    params = NormParams(alpha=0.0, q=math.inf, ell_min=0, ell_max=2)
    rep = sup_over_windows(grid, S, [(0.0, 1.0, np.ones(grid.size))], params)
    assert rep.flags["window_level_missing"] is missing
    assert (not cube_windows(grid, S, 2).admissible.any()) is missing
    assert rep.value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "mat, grid, saturated",
    [
        ([[2.0]], GRID, False),
        ([[2.0, 0.0], [0.0, 4.0]], GridSpec(d=2, extent=4.0, n=16), True),
    ],
    ids=["line", "diag24"],
)
def test_ell_saturated_at_the_levels_searched(mat, grid, saturated):
    # scale -1 enters from level 1 on and attains the supremum there; on
    # diag(2, 4) the level-2 cubes are 16 tall in a box 8 tall, so level 1
    # is the top level searched and the best level sits on that edge
    S = build_ellipsoid(validate_expansive(mat))
    params = NormParams(alpha=0.0, q=math.inf, ell_min=0, ell_max=2)
    terms = [(0.0, 1.0, np.full(grid.size, 0.5)), (-1.0, 1.0, np.ones(grid.size))]
    rep = sup_over_windows(grid, S, terms, params)
    assert (rep.arg_ell, rep.value) == (1, 1.0)
    assert rep.flags["window_level_missing"] is saturated
    assert rep.flags["ell_saturated"] is saturated


class TestEmbedding:
    def test_zero_skipped(self, pair):
        rep = embedding(zero_field(pair), pair, PARAMS)
        assert rep["skipped"]

    def test_zero_field_keeps_the_three_reports(self, pair):
        rep = embedding(zero_field(pair), pair, PARAMS)
        assert rep["skipped"] and "inf_over_q" not in rep
        assert [rep[k].value for k in ("tl_q", "tl_inf", "besov")] == [0.0, 0.0, 0.0]
        assert set(rep["tl_q"].flags) == set(rep["tl_inf"].flags) == {
            "ell_saturated", "scale_tail", "window_level_missing"
        }
        assert set(rep["besov"].flags) == {"scale_saturated"}

    def test_q_inf_gives_ratio_one(self, pair):
        f = make_field(seed=50, t0=3.2, width=0.4)
        p = replace(PARAMS, q=math.inf)
        rep = embedding(f, pair, p)
        assert not rep["skipped"]
        assert rep["inf_over_q"] == 1.0
        assert rep["tl_q"].value == rep["tl_inf"].value > 0

    def test_single_band_besov_ratio(self, pair):
        f = make_field(seed=50, t0=3.2, width=0.4)
        rep = embedding(f, pair, PARAMS)
        assert not rep["skipped"]
        assert rep["besov_over_inf"] >= 1.0 - 1e-12


class TestValueKeyedCaches:
    @pytest.fixture(autouse=True)
    def colliding_ids(self, monkeypatch):
        # every object reports the same id, so id-keyed caches would collide
        for module in (norms, group_analysis, peetre):
            monkeypatch.setattr(module, "id", lambda _o: 0, raising=False)
        monkeypatch.setattr(norms, "_WINDOW_CACHE", {})
        monkeypatch.setattr(group_analysis, "_V_CACHE", {})
        monkeypatch.setattr(peetre, "_SHELL_CACHE", {})

    def test_distinct_structures_get_their_own_tables(self):
        S3 = build_ellipsoid(validate_expansive([[3.0]]))
        M = np.array([[1.0]])
        cube_windows(GRID, S1, 1)
        ball_windows(GRID, S1, 1)
        group_analysis._v_candidates(S1)
        peetre.offset_shells(GRID, S1, M, 2)
        cube = cube_windows(GRID, S3, 1)
        ball = ball_windows(GRID, S3, 1)
        cand = group_analysis._v_candidates(S3)
        shells = peetre.offset_shells(GRID, S3, M, 2)
        for cache in (norms._WINDOW_CACHE, group_analysis._V_CACHE, peetre._SHELL_CACHE):
            cache.clear()
        assert np.array_equal(cube.labels, cube_windows(GRID, S3, 1).labels)
        assert ball.count == ball_windows(GRID, S3, 1).count
        assert np.array_equal(cand, group_analysis._v_candidates(S3))
        assert shells.shells == peetre.offset_shells(GRID, S3, M, 2).shells

    @pytest.mark.parametrize(
        "module, cache, build",
        [
            (norms, "_WINDOW_CACHE", lambda S: cube_windows(GRID, S, 0)),
            (norms, "_WINDOW_CACHE", lambda S: ball_windows(GRID, S, 0)),
            (peetre, "_SHELL_CACHE", lambda S: peetre.offset_shells(GRID, S, np.eye(1), 2)),
            (group_analysis, "_V_CACHE", lambda S: group_analysis._v_candidates(S)),
        ],
        ids=["cube_windows", "ball_windows", "offset_shells", "v_candidates"],
    )
    def test_equal_structures_share_one_entry(self, module, cache, build):
        Sa, Sb = build_ellipsoid(E1), build_ellipsoid(E1)
        assert Sa is not Sb
        assert build(Sa) is build(Sb)
        assert len(getattr(module, cache)) == 1

    def test_shell_tables_are_kept_past_many_scales(self):
        first = peetre.offset_shells(GRID, S1, np.eye(1), 2)
        for k in range(1, 201):
            peetre.offset_shells(GRID, S1, np.array([[1.0 + k / 256]]), 2)
        assert len(peetre._SHELL_CACHE) == 201
        assert peetre.offset_shells(GRID, S1, np.eye(1), 2) is first


def test_derived_tables_are_read_only(pair):
    tables = [
        grids.spatial_points(GRID),
        grids.freq_points(GRID),
        grids.spectral_phase(GRID),
        grids.offset_index_vectors(GRID),
        group_analysis._v_candidates(S1),
        pair.phi.gauge.t_grid(GRID),
        cube_windows(GRID, S1, 0).labels,
        ball_windows(GRID, S1, 0).kernel_fft,
        *peetre.offset_shells(GRID, S1, np.eye(1), 2).groups,
    ]
    assert [t.flags.writeable for t in tables] == [False] * len(tables)


def test_norm_equivalence_reports_peetre_boundary_count():
    result = run_norm_equivalence(
        {
            "grid": {"extent": 8.0, "n": 256},
            "suite": {"count": 1, "seed": 5, "t_range": [1.6, 3.4]},
            "qs": [1.0],
            "alphas": [0.0],
            "refine": False,
        }
    )
    assert result["manifest"]["flag_counts"]["peetre_boundary"] > 0
