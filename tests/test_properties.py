"""Property tests on random expansive 2x2 matrices A = expm(B).

The real parts of B's eigenvalues are drawn in [0.3, 1.5], so A is
expansive and has the real logarithm B.  Draws are derandomized, so every
run sees the same matrices.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from anisotl.analyzers import make_analyzing_pair, make_covering_profile
from anisotl.grids import GridSpec
from anisotl.group_analysis import group_inv, group_mul, group_point
from anisotl.linalg_expansive import build_ellipsoid, sample_points, validate_expansive

real_part = st.floats(0.3, 1.5)


@st.composite
def log_matrices(draw):
    """B = R [[a, c], [0, b]] R^T (real spectrum a, b) or R [[a, -w], [w, a]] R^T
    (spectrum a +- iw), with R a rotation."""
    a = draw(real_part)
    if draw(st.booleans()):
        core = [[a, draw(st.floats(-1.0, 1.0))], [0.0, draw(real_part)]]
    else:
        w = draw(st.floats(0.1, 1.5))
        core = [[a, -w], [w, a]]
    theta = draw(st.floats(0.0, np.pi))
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return R @ np.array(core) @ R.T


def _expansive(B):
    return validate_expansive(expm(B))


@settings(max_examples=10, derandomize=True, deadline=None)
@given(log_matrices())
def test_rho_homogeneity_and_symmetry(B):
    E = _expansive(B)
    S = build_ellipsoid(E)
    pts = sample_points(S, 2000, seed=1)
    _, sat = S.shell_index(pts)
    _, sat_a = S.shell_index(pts @ E.A.T)
    pts = pts[~(sat | sat_a)]
    vals = S.rho(pts)
    assert np.all(vals > 0)
    np.testing.assert_allclose(S.rho(pts @ E.A.T), E.absdet * vals, rtol=1e-12)
    assert np.array_equal(S.rho(-pts), vals)


points = st.tuples(
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-2.0, 2.0)
).map(lambda v: group_point(v[:2], v[2]))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(log_matrices(), points, points, points)
def test_group_law(B, g, h, k):
    E = _expansive(B)
    left = group_mul(E, group_mul(E, g, h), k)
    right = group_mul(E, g, group_mul(E, h, k))
    assert abs(left.s - right.s) <= 1e-12
    np.testing.assert_allclose(left.x, right.x, rtol=1e-9, atol=1e-9)
    for unit in (group_mul(E, g, group_inv(E, g)), group_mul(E, group_inv(E, g), g)):
        assert abs(unit.s) <= 1e-12
        np.testing.assert_allclose(unit.x, 0.0, atol=1e-9)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(log_matrices())
def test_calderon_sum_on_coarse_grid(B):
    E = _expansive(B)
    grid = GridSpec(d=2, extent=4.0, n=16)
    phi = make_covering_profile(E, grid)
    pair = make_analyzing_pair(phi, check_grid=grid)
    t = phi.t_grid(grid)
    t = t[np.isfinite(t)]
    assert np.max(np.abs(pair.calderon_sum(t) - 1.0)) <= 1e-10
