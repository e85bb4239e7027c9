import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm, logm

import anisotl
from anisotl import cli, grids, linalg_expansive
from anisotl.errors import NotExpansive, NotExponential, Singular
from anisotl.grids import GridSpec, freq_points
from anisotl.linalg_expansive import (
    SHELL_CLAMP,
    _SAMPLE_SHELLS,
    ScaleGauge,
    _quadratic,
    _real_log,
    build_ellipsoid,
    fractional_power,
    matrix_from_json,
    measure_nu_constant,
    measure_quasi_triangle,
    per_value_product,
    real_matrix_log,
    sample_points,
    transpose_gauge,
    validate_expansive,
    unit_ball_volume,
    WeightNu,
)
from anisotl.suite import SuiteSpec, suite_generate

JORDAN = [[2.0, 1.0], [0.0, 2.0]]


def expm_oracle(M, order=30):
    """Independent scaling-and-squaring exponential used as a test oracle."""
    M = np.asarray(M, dtype=float)
    n_squarings = max(0, int(math.ceil(math.log2(max(np.linalg.norm(M), 1e-16)))) + 1)
    X = M / 2.0**n_squarings
    T = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, order):
        term = term @ X / k
        T = T + term
    for _ in range(n_squarings):
        T = T @ T
    return T


class TestValidate:
    def test_jordan_block_is_expansive(self):
        E = validate_expansive(JORDAN)
        assert E.absdet == pytest.approx(4.0)
        assert E.d == 2

    def test_unit_eigenvalue_rejected(self):
        with pytest.raises(NotExpansive):
            validate_expansive([[1.0, 0.0], [0.0, 2.0]])

    def test_singular_rejected(self):
        with pytest.raises(Singular):
            validate_expansive([[0.0, 0.0], [0.0, 2.0]])

    def test_json_round_trip(self):
        E = matrix_from_json({"dim": 2, "entries": [2, 1, 0, 2]})
        assert np.allclose(E.A, JORDAN)


class TestMatrixLog:
    def test_diagonal(self):
        E = validate_expansive(np.diag([2.0, 4.0]))
        B = real_matrix_log(E)
        assert np.allclose(B, np.diag([math.log(2.0), math.log(4.0)]), atol=1e-12)

    def test_scaled_identity(self):
        E = validate_expansive(2.0 * np.eye(2))
        assert np.allclose(real_matrix_log(E), math.log(2.0) * np.eye(2), atol=1e-12)

    def test_jordan_block_against_oracle(self):
        E = validate_expansive(JORDAN)
        B = real_matrix_log(E)
        assert np.max(np.abs(expm_oracle(B) - np.asarray(JORDAN))) < 1e-10

    def test_negative_axis_rejected(self):
        E = validate_expansive([[-2.0, 0.0], [0.0, 3.0]])
        assert E.log is None
        with pytest.raises(NotExponential):
            real_matrix_log(E)

    def test_rotation_dilation_has_real_log(self):
        # complex eigenvalue pair 2i, -2i: real log exists
        E = validate_expansive([[0.0, -2.0], [2.0, 0.0]])
        B = real_matrix_log(E)
        assert np.max(np.abs(expm_oracle(B) - E.A)) < 1e-9


@st.composite
def positive_triangular(draw):
    """Upper-triangular d <= 2 matrices with a positive diagonal, weighted
    towards each branch of the superdiagonal formula: equal diagonals, and
    |l2 - l1| just below and just above |l1 + l2| / 2 (l2 = 3 l1)."""
    l1 = draw(st.floats(0.1, 100.0))
    if draw(st.booleans()):
        return np.array([[l1]])
    gap = draw(st.sampled_from(["equal", "below", "above", "free"]))
    if gap == "equal":
        l2 = l1
    elif gap == "free":
        l2 = draw(st.floats(0.1, 100.0))
    else:
        eps = draw(st.floats(1e-15, 1e-3))
        l2 = 3.0 * l1 * (1.0 - eps if gap == "below" else 1.0 + eps)
    if draw(st.booleans()):
        l1, l2 = l2, l1
    t12 = draw(st.floats(-100.0, 100.0))
    return np.array([[l1, t12], [0.0, l2]])


class TestClosedFormLog:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(positive_triangular())
    @example(np.array([[2.0]]))
    @example(2.0 * np.eye(2))
    @example(np.diag([2.0, 4.0]))
    @example(np.array(JORDAN))
    @example(np.array([[2.0, 3.0], [0.0, 4.0]]))
    @example(np.array([[2.0, -1.0], [0.0, 6.0]]))
    def test_bit_equal_to_logm(self, A):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = np.real(logm(A))
        assert np.array_equal(_real_log(A), expected)

    def test_triangular_dilations_skip_logm_imports(self):
        # logm's lazy import loads scipy.special and scipy.sparse
        code = (
            "import sys, anisotl\n"
            "from anisotl.experiments import run_quasinorm_axioms\n"
            "from anisotl.linalg_expansive import matrix_from_json\n"
            "matrix_from_json({'dim': 2, 'entries': [2.0, 1.0, 0.0, 2.0]})\n"
            "assert run_quasinorm_axioms()['pass']\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[:2] in (['scipy', 'special'], ['scipy', 'sparse'])))\n"
        )
        src = str(Path(anisotl.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "[]"


class TestFractionalPower:
    def test_half_power_of_diag(self):
        E = validate_expansive(np.diag([4.0]))
        assert np.allclose(fractional_power(E, 0.5), [[2.0]], atol=1e-12)

    def test_zero_power(self):
        E = validate_expansive(JORDAN)
        assert np.allclose(fractional_power(E, 0.0), np.eye(2))

    def test_square_against_matrix_product(self):
        E = validate_expansive(JORDAN)
        A = np.asarray(JORDAN)
        assert np.allclose(fractional_power(E, 2.0), A @ A, atol=1e-10)

    @pytest.mark.parametrize("mat", [np.diag([2.0, 4.0]), JORDAN])
    def test_semigroup(self, mat):
        E = validate_expansive(mat)
        grid = np.linspace(-3, 3, 7)
        for s in grid:
            for t in grid:
                lhs = fractional_power(E, s) @ fractional_power(E, t)
                rhs = fractional_power(E, s + t)
                assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(np.linalg.norm(rhs), 1.0)


class TestEllipsoid:
    def test_dyadic_line(self):
        E = validate_expansive([[2.0]])
        S = build_ellipsoid(E)
        # geometric series 1 + 1/4 + ... = 4/3 and unit length interval
        assert S.Q[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert S.contains(np.array([[0.499]]))[0]
        assert not S.contains(np.array([[0.501]]))[0]

    def test_isotropic_disk(self):
        E = validate_expansive(2.0 * np.eye(2))
        S = build_ellipsoid(E)
        r_star = 1.0 / math.sqrt(math.pi)  # disk of area one
        assert S.contains(np.array([[r_star - 1e-6, 0.0]]))[0]
        assert not S.contains(np.array([[r_star + 1e-6, 0.0]]))[0]

    @pytest.mark.parametrize("mat", [[[2.0]], np.diag([2.0, 4.0]), JORDAN])
    def test_unit_measure_via_monte_carlo(self, mat):
        E = validate_expansive(mat)
        S = build_ellipsoid(E)
        # closed-form volume identity
        d = E.d
        vol = S.c ** (d / 2.0) * unit_ball_volume(d) / math.sqrt(np.linalg.det(S.Q))
        assert vol == pytest.approx(1.0, abs=1e-10)
        # independent Monte Carlo cross-check
        rng = np.random.default_rng(5)
        box = 2.0
        pts = rng.uniform(-box, box, size=(200_000, d))
        frac = np.mean(S.contains(pts))
        assert frac * (2 * box) ** d == pytest.approx(1.0, abs=0.05)

    def test_build_samples_nothing_and_diagnostics_measure(self, monkeypatch):
        # the quasi-triangle constant is measured where validate --diagnostics
        # prints it, not in every build
        calls = []
        real = linalg_expansive.sample_points

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(linalg_expansive, "sample_points", counting)
        matrix = {"dim": 2, "entries": [2.0, 1.0, 0.0, 2.0]}
        S = build_ellipsoid(matrix_from_json(matrix))
        assert calls == []
        record = cli._ellipsoid_record(matrix)
        c_emp = measure_quasi_triangle(S, n=4096, seed=7)
        assert record["output"]["quasi_triangle_c"] == c_emp

    @pytest.mark.parametrize("mat", [[[2.0]], np.diag([2.0, 4.0]), JORDAN])
    def test_expansion_gap(self, mat):
        E = validate_expansive(mat)
        S = build_ellipsoid(E)
        assert S.r > 1.0
        bnd = S.boundary_points(128)
        A_inv = np.linalg.inv(E.A)
        assert np.all(S.contains(S.r * bnd @ A_inv.T))
        assert np.all(S.contains(bnd / S.r))


class TestQuasiNorm:
    def setup_method(self):
        self.S1 = build_ellipsoid(validate_expansive([[2.0]]))

    def test_zero(self):
        assert self.S1.rho(np.array([0.0]))[0] == 0.0

    def test_first_shell(self):
        assert self.S1.rho(np.array([0.6]))[0] == 1.0

    def test_homogeneity_of_example(self):
        assert self.S1.rho(np.array([1.2]))[0] == 2.0

    @pytest.mark.parametrize("mat", [[[2.0]], np.diag([2.0, 4.0]), JORDAN])
    def test_exact_homogeneity_and_symmetry(self, mat):
        E = validate_expansive(mat)
        S = build_ellipsoid(E)
        pts = sample_points(S, 2000, seed=3)
        shell, sat = S.shell_index(pts)
        shell_a, sat_a = S.shell_index(pts @ E.A.T)
        ok = ~(sat | sat_a)
        assert np.mean(ok) > 0.99
        assert np.array_equal(shell_a[ok], shell[ok] + 1)
        # dyadic determinants make the float identity exact as well
        vals = S.rho(pts[ok])
        vals_a = S.rho(pts[ok] @ E.A.T)
        assert np.array_equal(vals_a, E.absdet * vals)
        assert np.array_equal(S.rho(-pts[ok]), vals)
        assert np.all(vals > 0)

    def test_quasi_triangle_stability(self):
        S = build_ellipsoid(validate_expansive(JORDAN))
        c1 = measure_quasi_triangle(S, n=4096, seed=13)
        c2 = measure_quasi_triangle(S, n=16384, seed=13)
        assert np.isfinite(c1) and c1 >= 0.5
        assert abs(c2 - c1) <= 0.1 * c1

    def test_nu_submultiplicative_stability(self):
        S = build_ellipsoid(validate_expansive(np.diag([2.0, 4.0])))
        w = WeightNu(S, beta=1.5)
        k1 = measure_nu_constant(w, n=4096, seed=1)
        k2 = measure_nu_constant(w, n=16384, seed=1)
        assert np.isfinite(k1)
        assert abs(k2 - k1) <= 0.25 * k1

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=2),
    )
    def test_symmetry_property(self, xs):
        x = np.array(xs)
        S = _JORDAN_STRUCTURE
        assert np.array_equal(S.rho(-x), S.rho(x))


_JORDAN_STRUCTURE = build_ellipsoid(validate_expansive(JORDAN))

SHELL_MATRICES = [[[2.0]], np.diag([2.0, 4.0]), JORDAN, [[1.0, -1.0], [1.0, 1.0]]]


@pytest.mark.parametrize("mat", SHELL_MATRICES, ids=["line", "diag24", "shear", "rotation"])
def test_shell_index_matches_full_range_bisection(mat):
    E = validate_expansive(mat)
    S = build_ellipsoid(E)
    rng = np.random.default_rng(17)
    dirs = rng.normal(size=(20_000, E.d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    scattered = dirs * np.exp(rng.uniform(-30.0, 30.0, size=(len(dirs), 1)))
    bnd = S.boundary_points(64, rng=rng)
    on_shells = [bnd @ np.linalg.matrix_power(E.A, j).T for j in range(-70, 71)]
    pts = np.concatenate([scattered, *on_shells, np.zeros((1, E.d))])

    # the search over the whole clamped range, as before the bracket
    lo = np.full(len(pts), -SHELL_CLAMP)
    hi = np.full(len(pts), SHELL_CLAMP + 1)
    while np.any(lo < hi):
        active = lo < hi
        mid = (lo + hi) // 2
        member = S.member(pts[active], mid[active])
        hi[active] = np.where(member, mid[active], hi[active])
        lo[active] = np.where(member, lo[active], mid[active] + 1)
    saturated = (lo == -SHELL_CLAMP) | (lo == SHELL_CLAMP + 1)

    shell, sat = S.shell_index(pts)
    assert np.array_equal(shell, lo - 1)
    assert np.array_equal(sat, saturated)


@pytest.mark.parametrize("shell_range", [_SAMPLE_SHELLS])
@pytest.mark.parametrize("mat", SHELL_MATRICES, ids=["line", "diag24", "shear", "rotation"])
def test_sample_points_match_per_value_exponentials(mat, shell_range):
    E = validate_expansive(mat)
    S = build_ellipsoid(E)
    rng = np.random.default_rng(4)
    dirs = S.boundary_points(3000, rng=rng)
    grid = (np.round(rng.uniform(*shell_range, size=3000) * 16) + 0.5) / 16
    expected = np.empty_like(dirs)
    for val in np.unique(grid):
        mask = grid == val
        expected[mask] = dirs[mask] @ expm(val * E.log).T
    assert np.array_equal(sample_points(S, 3000, seed=4), expected)


@pytest.mark.parametrize(
    "keys",
    [np.full(40, 3), np.arange(40)[::-1], np.random.default_rng(2).integers(-4, 5, size=40), np.arange(0)],
    ids=["single-key", "all-distinct", "unsorted", "empty"],
)
def test_per_value_product_matches_masked_products(keys):
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(len(keys), 2))
    mats = {k: rng.normal(size=(2, 2)) for k in np.unique(keys)}
    expected = np.empty_like(rows)
    for k in np.unique(keys):
        mask = keys == k
        expected[mask] = rows[mask] @ mats[k].T
    assert np.array_equal(per_value_product(keys, rows, mats.__getitem__), expected)


def test_sample_points_non_exponential_branch_matches_masked_powers():
    E = validate_expansive([[-2.0, 0.0], [0.0, 3.0]])
    assert E.log is None
    S = build_ellipsoid(E)
    n = 3000
    rng = np.random.default_rng(5)
    dirs = S.boundary_points(n, rng=rng)
    k = np.round(rng.uniform(-8, 8, size=n)).astype(int)
    jitter = rng.uniform(1.02, 1.35, size=(n, 1))
    expected = np.empty_like(dirs)
    for val in np.unique(k):
        mask = k == val
        expected[mask] = (jitter[mask] * dirs[mask]) @ np.linalg.matrix_power(E.A, int(val)).T
    assert np.array_equal(sample_points(S, n, seed=5), expected)


@pytest.mark.parametrize("mat", [[[2.0, 0.0], [0.0, 4.0]], [[-2.0, 0.0], [0.0, 3.0]]], ids=["exponential", "power"])
def test_sample_points_empty(mat):
    S = build_ellipsoid(validate_expansive(mat))
    assert sample_points(S, 0, seed=1).shape == (0, 2)


def _count_flows(g):
    """Replace g.flow by a wrapper; the returned list gets each step's set size."""
    flow, steps = g.flow, []

    def counted(s, pts, *args, **kwargs):
        steps.append(len(s))
        return flow(s, pts, *args, **kwargs)

    g.flow = counted
    return steps


class TestScaleGauge:
    def test_line_gauge_closed_form(self):
        E = validate_expansive([[2.0]])
        g = transpose_gauge(E)
        xs = np.array([[0.5], [1.0], [2.0], [-3.0], [0.1]])
        expected = np.log2(2.0 * np.abs(xs[:, 0]))
        assert np.allclose(g.t(xs), expected, atol=1e-10)

    @pytest.mark.parametrize("mat", [np.diag([2.0, 4.0]), JORDAN])
    def test_cocycle(self, mat):
        E = validate_expansive(mat)
        g = transpose_gauge(E)
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(200, 2)) * 10 ** rng.uniform(-2, 2, size=(200, 1))
        for u in (1.0, -2.0, 0.375):
            moved = pts @ expm(u * g.B).T
            assert np.allclose(g.t(moved), g.t(pts) + u, atol=1e-9)

    def test_transpose_gauge_matches_transposed_matrix(self):
        E = validate_expansive(JORDAN)
        g = transpose_gauge(E)
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(50, 2))
        moved = pts @ E.A  # (A^T) applied to points
        assert np.allclose(g.t(moved), g.t(pts) + 1.0, atol=1e-9)

    def test_level_sets(self):
        E = validate_expansive(np.diag([2.0, 4.0]))
        g = transpose_gauge(E)
        # sphere directions mapped onto the level set t = 0, {x^T P x = 1},
        # then flowed to t = 1.5
        u = np.random.default_rng(3).normal(size=(64, 2))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        base = u @ np.linalg.inv(np.linalg.cholesky(g.P).T).T
        pts = base @ expm(1.5 * g.B).T
        assert np.allclose(g.t(pts), 1.5, atol=1e-9)
        assert g.region_extent(2.0) > g.region_extent(0.0)

    @pytest.mark.parametrize("mat", [[[2.0]], np.diag([2.0, 4.0]), JORDAN])
    def test_stacked_solve_matches_separate_calls(self, mat):
        E = validate_expansive(mat)
        g = transpose_gauge(E)
        sizes = _count_flows(g)
        rng = np.random.default_rng(8)
        n = 16
        # far-out and near-origin sets take different numbers of steps
        sets = [rng.normal(size=(n, E.d)) * 10.0**e for e in (-8, 0, 3, 12)]
        sets.append(np.zeros((n, E.d)))
        with_origin = rng.normal(size=(n, E.d))
        with_origin[[0, 9]] = 0.0
        sets.append(with_origin)
        steps = []
        for pts in sets:
            sizes.clear()
            g.t(pts)
            steps.append(len(sizes))
        assert len(set(steps) - {0}) > 1
        sizes.clear()
        out = g.t(np.stack(sets))
        assert out.shape == (len(sets), n)
        assert len(sizes) == max(steps)
        assert sizes[0] > sizes[-1]  # finished sets were dropped
        for k, pts in enumerate(sets):
            alone = g.t(pts)
            assert alone.shape == (n,)
            assert np.array_equal(out[k], alone)
        assert np.all(out[4] == -np.inf)
        assert np.all(out[5, [0, 9]] == -np.inf)
        assert np.all(np.isfinite(np.delete(out[5], [0, 9])))

    def test_single_set_shape(self):
        g = transpose_gauge(validate_expansive(JORDAN))
        assert g.t(np.ones((5, 2))).shape == (5,)
        assert g.t(np.ones((1, 5, 2))).shape == (1, 5)
        assert g.t(np.zeros((3, 2))).shape == (3,)


class _EinsumGauge(ScaleGauge):
    """Reference Newton step: the einsum bodies that flow, g and the slope
    of log G had before they became column arithmetic, with no flow cache.
    The stored tables are indexed contracted-index first, hence the
    transposes."""

    def flow(self, s, pts, cache=None):
        s = np.asarray(s, dtype=float)
        idx = np.clip(np.rint(s / self._TABLE_STEP).astype(int), -self._n_tab, self._n_tab)
        u = s - idx * self._TABLE_STEP
        base = np.einsum("nij,nj->ni", self._table.T[idx + self._n_tab], pts)
        out = np.zeros_like(base)
        upow = np.ones_like(s)
        for k in range(self._TAYLOR_ORDER + 1):
            out += upow[:, None] * np.einsum("ij,nj->ni", self._taylor[k, :, :, 0].T, base)
            upow = upow * u
        return out

    def _log_g(self, s, x, cache=None):
        y = self.flow(s, x)
        g = np.einsum("ni,ij,nj->n", y, self.P, y)
        ynorm = np.einsum("ni,ni->n", y, y)
        return np.log(g), ynorm / g


def _reference_pair(mat):
    g = transpose_gauge(validate_expansive(mat))
    return g, _EinsumGauge(g.A, g.B)


def _gauge_points(rng, n, d):
    """Points over 24 decades, some with zero coordinates as on the lattice."""
    pts = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-12, 12, size=(n, 1))
    pts[rng.random(size=(n, d)) < 0.2] = 0.0
    return pts


NEWTON_MATRICES = SHELL_MATRICES + [[[2.0, 3.0], [0.0, 4.0]]]
NEWTON_IDS = ["line", "diag24", "shear", "rotation", "triu234"]


@pytest.mark.parametrize("mat", NEWTON_MATRICES, ids=NEWTON_IDS)
@pytest.mark.parametrize("n", [1, 2, 3, 1000])
def test_newton_step_bit_equal_to_einsum(mat, n):
    g, ref = _reference_pair(mat)
    rng = np.random.default_rng(n)
    for _ in range(5):
        pts = _gauge_points(rng, n, g.d)
        s = rng.uniform(-40.0, 40.0, size=n)
        y, y_ref = g.flow(s, pts), ref.flow(s, pts)
        assert np.array_equal(y, y_ref)
        assert np.array_equal(np.signbit(y), np.signbit(y_ref))
        assert np.array_equal(g.t(pts), ref.t(pts))
    stack = np.stack([_gauge_points(rng, n, g.d) for _ in range(3)])
    assert np.array_equal(g.t(stack), ref.t(stack))


@pytest.mark.parametrize("mat", NEWTON_MATRICES, ids=NEWTON_IDS)
def test_flow_cache_keeps_every_bit(mat):
    g = transpose_gauge(validate_expansive(mat))
    rng = np.random.default_rng(5)
    n = 500
    pts = _gauge_points(rng, n, g.d)
    s = rng.uniform(-40.0, 40.0, size=n)
    cache = {}
    for _ in range(8):
        y = g.flow(s, pts, cache)
        fresh = g.flow(s, pts)
        assert np.array_equal(y, fresh)
        assert np.array_equal(np.signbit(y), np.signbit(fresh))
        # about half the points keep their table index, the rest move
        small = rng.random(n) < 0.5
        s = s + np.where(small, rng.uniform(-0.05, 0.05, n), rng.uniform(-5.0, 5.0, n))


def _einsum_member(S, pts, level):
    """Reference: member with both products through einsum."""
    level = np.broadcast_to(level, pts.shape[:1])
    mats = S._neg_powers[np.clip(level, -SHELL_CLAMP, SHELL_CLAMP) + SHELL_CLAMP]
    y = np.einsum("nij,nj->ni", mats, pts)
    return np.einsum("ni,ij,nj->n", y, S.Q, y) < S.c


@pytest.mark.parametrize("mat", NEWTON_MATRICES, ids=NEWTON_IDS)
@pytest.mark.parametrize("n", [1, 2, 3, 10_000])
def test_quadratic_forms_bit_equal_to_einsum(mat, n):
    E = validate_expansive(mat)
    S = build_ellipsoid(E)
    rng = np.random.default_rng(n)
    pts = _gauge_points(rng, n, E.d)
    for Q in (S.Q, transpose_gauge(E).P):
        assert np.array_equal(_quadratic(pts, Q), np.einsum("ni,ij,nj->n", pts, Q, pts))
    assert np.array_equal(S.quadratic_form(pts), np.einsum("ni,ij,nj->n", pts, S.Q, pts))
    # points within a few ulps of the boundary of A^level Omega, where a
    # differently rounded form flips membership; many draws for small n
    for _ in range(300 if n < 3 else 1):
        level = rng.integers(-40, 41, size=n)
        bnd = S.boundary_points(n, rng)
        near = np.einsum("nij,nj->ni", S._neg_powers[SHELL_CLAMP - level], bnd)
        near *= 1.0 + rng.integers(-2, 3, size=(n, 1)) * np.finfo(float).eps
        for x in (pts, near):
            for lev in (level, level[0], level - 1):
                assert np.array_equal(S.member(x, lev), _einsum_member(S, x, lev))


def _lattice_pairs(grid):
    """Nonzero lattice points that have their negation on the lattice,
    counted once per pair: rows without a -n/2 component."""
    return ((grid.n - 1) ** grid.d - 1) // 2


@pytest.mark.parametrize("mat", NEWTON_MATRICES, ids=NEWTON_IDS)
@pytest.mark.parametrize("n", [2, 4, 8, 64])
def test_paired_lattice_solve_is_bit_equal_to_the_full_solve(mat, n, monkeypatch):
    monkeypatch.setattr(grids, "_CACHE", {})
    g, ref = _reference_pair(mat)
    grid = GridSpec(d=g.d, extent=2.0, n=n)
    sizes = _count_flows(g)
    t = g.t_grid(grid)
    assert np.array_equal(t, ref.t(freq_points(grid)))
    # one point of each pair is solved, unless fewer than 3 would be (1-D
    # n <= 4 keeps the full solve)
    halved = grid.size - 1 - _lattice_pairs(grid)
    assert sizes[0] == (halved if halved >= 3 else grid.size - 1)


def test_newton_step_in_3d_agrees_to_rounding():
    g, ref = _reference_pair([[2.0, 0.5, 0.3], [0.0, 3.0, 0.2], [0.0, 0.0, 2.5]])
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(500, 3)) * 10.0 ** rng.uniform(-6, 6, size=(500, 1))
    s = rng.uniform(-20.0, 20.0, size=500)
    assert np.allclose(g.flow(s, pts), ref.flow(s, pts), rtol=1e-13, atol=0.0)
    assert np.allclose(g.t(pts), ref.t(pts), rtol=1e-13, atol=0.0)


LATTICE_CASES = [([[2.0]], GridSpec(d=1, extent=8.0, n=256)),
                 (JORDAN, GridSpec(d=2, extent=2.0, n=16))]


@pytest.mark.parametrize("mat, grid", LATTICE_CASES, ids=["line", "shear"])
def test_lattice_is_solved_once_per_gauge(mat, grid, monkeypatch):
    monkeypatch.setattr(grids, "_CACHE", {})
    g = transpose_gauge(validate_expansive(mat))
    steps = _count_flows(g)
    t = g.t_grid(grid)
    assert steps and not t.flags.writeable
    steps.clear()
    assert g.t_grid(grid) is t
    assert steps == []
    fresh = g.t(freq_points(grid).copy())
    assert fresh is not t and fresh.flags.writeable
    assert np.array_equal(fresh, t)
    assert steps
    # an equal gauge shares the solve
    twin = transpose_gauge(validate_expansive(mat))
    twin_steps = _count_flows(twin)
    assert twin.t_grid(grid) is t
    assert twin_steps == []


@pytest.mark.parametrize("mat, grid", LATTICE_CASES, ids=["line", "shear"])
def test_suite_costs_one_lattice_solve(mat, grid, monkeypatch):
    E = validate_expansive(mat)
    spec = SuiteSpec(count=4, seed=7, t_range=(0.0, 1.5))
    monkeypatch.setattr(grids, "_CACHE", {})
    alone = transpose_gauge(E)
    lattice_steps = _count_flows(alone)
    alone.t_grid(grid)
    monkeypatch.setattr(grids, "_CACHE", {})
    g = transpose_gauge(E)
    suite_steps = _count_flows(g)
    fields = suite_generate(spec, grid, g)
    assert len(fields) == 4
    assert len(suite_steps) == len(lattice_steps) > 0
    # an equal second gauge finds the lattice solved
    twin = transpose_gauge(E)
    twin_steps = _count_flows(twin)
    assert len(suite_generate(spec, grid, twin)) == 4
    assert twin_steps == []
