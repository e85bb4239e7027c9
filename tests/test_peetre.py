import numpy as np
import pytest

from anisotl.analyzers import bump, make_covering_profile
from anisotl.field_engine import ScaleBand, convolve_scale, field_from_closure, values_to_spec
from anisotl import grids, peetre
from anisotl.grids import GridSpec, offset_index_vectors, spatial_points
from anisotl.linalg_expansive import (
    WeightNu,
    build_ellipsoid,
    measure_nu_constant,
    validate_expansive,
)
from anisotl.norms import check_submeanvalue, hl_maximal, peetre_arrays
from anisotl.peetre import offset_shells, weighted_sup_multi

E1 = validate_expansive([[2.0]])
GRID1 = GridSpec(d=1, extent=8.0, n=512)
S1 = build_ellipsoid(E1)

E2 = validate_expansive([[2.0, 1.0], [0.0, 2.0]])
GRID2 = GridSpec(d=2, extent=2.0, n=32)
S2 = build_ellipsoid(E2)


@pytest.fixture(scope="module")
def phi():
    return make_covering_profile(E1, GRID1)


@pytest.fixture(scope="module")
def band(phi):
    gauge = phi.gauge

    def spectrum(xi, t):
        ph = np.exp(-2j * np.pi * (np.atleast_2d(xi) @ np.array([0.7])))
        return (1.3 - 0.4j) * bump((t - 2.3) / 0.5) * ph

    f = field_from_closure(GRID1, gauge, spectrum)
    return convolve_scale(f, phi, 1.5)


def _peetre(band, beta, shells=2):
    """band's Peetre maximal field at beta, on its grid."""
    sweep = peetre_arrays(band.grid, S1, {band.scale: band.abs_values}, [beta], shells)
    return sweep[beta][0][band.scale].reshape(band.grid.shape)


class TestPeetreMaximal:
    def test_dominates_band(self, band):
        pf = _peetre(band, beta=1.0)
        assert np.all(pf >= band.abs_values - 1e-15)

    def test_monotone_in_beta(self, band):
        lo = _peetre(band, beta=0.5)
        hi = _peetre(band, beta=2.0)
        assert np.all(lo >= hi - 1e-15)

    def test_large_beta_collapses_to_band(self, band):
        pf = _peetre(band, beta=64.0)
        scale = np.max(band.abs_values)
        assert np.max(np.abs(pf - band.abs_values)) <= 0.01 * scale

    def test_constant_band(self):
        spec = values_to_spec(GRID1, np.full(GRID1.shape, 2.5, dtype=complex))
        const = ScaleBand(scale=0.0, spec=spec, grid=GRID1)
        pf = _peetre(const, beta=1.5)
        assert np.allclose(pf, 2.5, atol=1e-12)

    def test_brute_force_oracle(self, band):
        # direct double loop on a decimated grid
        pf = _peetre(band, beta=1.0, shells=2)
        vals = band.abs_values
        n = GRID1.n
        offsets = np.arange(n)
        offsets = np.where(offsets >= n // 2, offsets - n, offsets)
        z = offsets * GRID1.h
        rho = S1.rho((2.0**1.5 * z)[:, None])
        keep = rho <= E1.absdet**2
        weights = (1.0 + rho[keep]) ** -1.0
        kept_offsets = offsets[keep]
        for x_idx in range(0, n, 37):
            cand = vals[(x_idx + kept_offsets) % n] * weights
            assert pf[x_idx] == pytest.approx(np.max(cand), rel=1e-12)

    def test_quasi_translation_bound(self, band):
        # full-search maximal field transported between base points
        pf = _peetre(band, beta=1.0, shells=10**6)
        nu = WeightNu(S1, beta=1.0)
        K = measure_nu_constant(nu, n=8192, seed=2)
        Ms = E1.power(band.scale)
        xs = spatial_points(GRID1)
        rng = np.random.default_rng(3)
        for _ in range(32):
            i, j = rng.integers(0, GRID1.n, size=2)
            gap = nu((xs[i] - xs[j]) @ Ms.T)
            assert pf[i] <= 1.02 * K * gap[0] * pf[j]


def _torus_shells(grid, S, M):
    """Per flat torus offset, its vector and its shell from S.shell_index,
    the membership the balls under test are built from."""
    offs = offset_index_vectors(grid)
    shell, _ = S.shell_index((offs * grid.h) @ np.asarray(M).T)
    nonzero = np.any(offs != 0, axis=1)
    return offs, shell, nonzero


def _reference_sweep(values, grid, S, M, K, beta, absdet):
    """Per-offset np.roll loop: sup_z values(x + z) * shell weight(z) over
    the shells <= K, with the flags the sweep reports."""
    offs, shell, nonzero = _torus_shells(grid, S, M)
    present = np.unique(shell[nonzero])
    kept = present[present <= K]
    truncated = bool(np.any(present > K))
    axes = tuple(range(values.ndim))
    best = values.copy()       # z = 0, weight 1
    outer = values.copy()      # every kept offset, for the boundary flag
    weight = 1.0
    for m in kept:
        weight = (1.0 + absdet ** float(m)) ** (-beta)
        for z in offs[nonzero & (shell == m)]:
            shifted = np.roll(values, tuple(-z), axis=axes)
            np.maximum(best, shifted * weight, out=best)
            np.maximum(outer, shifted, out=outer)
    flag = bool(kept.size and truncated and np.any(outer * weight >= 0.95 * best))
    return best, flag, tuple(int(m) for m in kept), truncated


def _covered(table, shape):
    """The offsets (raw coordinates) that a window table covers."""
    mask = np.zeros(shape, dtype=bool)
    n = shape[-1]
    for k, *lead, start in table.tolist():
        mask[tuple(lead) + ((start + np.arange(1 << k)) % n,)] = True
    return mask


SHEAR = [[2.0, 1.0], [0.0, 2.0]]
DIAG24 = [[2.0, 0.0], [0.0, 4.0]]
SWEEP_CASES = [
    ([[2.0]], GridSpec(d=1, extent=8.0, n=256)),
    (SHEAR, GridSpec(d=2, extent=2.0, n=16)),
    (DIAG24, GridSpec(d=2, extent=2.0, n=16)),
    # at s = -1 the kept balls reach the torus edge on both axes and wrap
    (SHEAR, GridSpec(d=2, extent=2.0, n=32)),
    (DIAG24, GridSpec(d=2, extent=2.0, n=32)),
]


@pytest.mark.parametrize("search_shells", [1, 40])
@pytest.mark.parametrize("matrix,grid", SWEEP_CASES)
def test_sweep_matches_roll_reference(matrix, grid, search_shells, monkeypatch):
    E = validate_expansive(matrix)
    S = build_ellipsoid(E)
    rng = np.random.default_rng(17)
    random_band = np.abs(rng.normal(size=grid.shape))
    # an all-zero band skips the ball maxima but keeps the reference's
    # values and flag: truncated balls tie 0 >= 0.95 * 0 everywhere
    views = []
    real_maxima = peetre._ball_maxima
    monkeypatch.setattr(peetre, "_ball_maxima", lambda v, t: views.append(1) or real_maxima(v, t))
    betas = [0.6, 1.5, 2.0]
    for values in (random_band, np.zeros(grid.shape)):
        scales = (-1.0, 0.5, 4.0)  # at s = 4 the plane cases keep no shell
        structs = offset_shells(grid, S, [E.power(s) for s in scales], search_shells)
        for s, struct in zip(scales, structs, strict=True):
            views.clear()
            res = weighted_sup_multi(values, struct, betas, E.absdet)
            assert bool(views) == bool(values.any())
            assert sorted(res) == betas
            if search_shells == 40:  # above every present shell
                assert struct.truncated is False
            for beta in betas:
                ref, ref_flag, kept, truncated = _reference_sweep(
                    values, grid, S, E.power(s), search_shells, beta, E.absdet
                )
                field, flag = res[beta]
                assert (struct.shells, struct.truncated) == (kept, truncated)
                assert np.array_equal(field, ref)
                assert flag == ref_flag
                assert not field.flags.writeable


@pytest.mark.parametrize("matrix", [[[2.0]], SHEAR, DIAG24])
def test_balls_are_the_shell_sets(matrix):
    """Ball by ball, the windows cover exactly {0} u {z : shell(M z) <= m},
    and the kept shells and truncation flag are those of the bisection; a
    search radius below 1 is refused."""
    E = validate_expansive(matrix)
    S = build_ellipsoid(E)
    grid = GridSpec(d=E.d, extent=8.0 if E.d == 1 else 2.0, n=256 if E.d == 1 else 16)
    wrapped = False
    for s in (-2.0, -1.0, 0.0, 0.5, 1.5):
        M = E.power(s)
        offs, shell, nonzero = _torus_shells(grid, S, M)
        present = np.unique(shell[nonzero])
        with pytest.raises(ValueError, match="search_shells = 0 must be at least 1"):
            offset_shells(grid, S, [M], 0)
        for K in (1, 2, 9):
            (struct,) = offset_shells(grid, S, [M], K)
            assert struct.shells == tuple(int(m) for m in present[present <= K])
            assert struct.truncated == bool(np.any(present > K))
            assert len(struct.groups) == len(struct.shells)
            for m, table in zip(struct.shells, struct.groups):
                want = (~nonzero | (shell <= m)).reshape(grid.shape)
                assert np.array_equal(_covered(table, grid.shape), want)
                # a row through the origin runs past the last column
                wrapped = wrapped or bool(np.any(table[:, -1] + (1 << table[:, 0]) > grid.n))
    assert wrapped


@pytest.mark.parametrize("matrix", [[[2.0]], SHEAR, DIAG24])
def test_search_radius_beyond_every_shell_matches_the_clamp(matrix):
    """A search radius past SHELL_CLAMP builds the same balls as one just
    above every present shell."""
    E = validate_expansive(matrix)
    S = build_ellipsoid(E)
    grid = GridSpec(d=E.d, extent=8.0 if E.d == 1 else 2.0, n=256 if E.d == 1 else 32)
    for s in (-1.0, 0.0, 2.0):
        far, near = (offset_shells(grid, S, [E.power(s)], K)[0] for K in (10**6, 40))
        assert far is not near
        assert (far.shells, far.truncated) == (near.shells, near.truncated)
        assert len(far.groups) == len(near.groups)
        assert all(np.array_equal(a, b) for a, b in zip(far.groups, near.groups))


ROTATION = [[0.0, -2.0], [2.0, 0.0]]
JORDAN = [[2.0, 3.0], [0.0, 4.0]]


@pytest.mark.parametrize("matrix", [[[2.0]], SHEAR, DIAG24, ROTATION, JORDAN])
def test_shell_index_is_even(matrix):
    """shell_index(-x) equals shell_index(x), index and saturated flag, bit
    for bit from 1e-13 to 1e13: offset_shells copies a negated offset's
    shell instead of solving it."""
    E = validate_expansive(matrix)
    S = build_ellipsoid(E)
    rng = np.random.default_rng(31)
    x = rng.normal(size=(20_000, E.d)) * 10.0 ** rng.uniform(-13, 13, size=(20_000, 1))
    shell, saturated = S.shell_index(x)
    neg_shell, neg_saturated = S.shell_index(-x)
    assert np.array_equal(shell, neg_shell)
    assert np.array_equal(saturated, neg_saturated)


def _same_shells(a, b):
    return (
        a.shells == b.shells
        and a.truncated == b.truncated
        and len(a.groups) == len(b.groups)
        and all(np.array_equal(p, q) for p, q in zip(a.groups, b.groups))
    )


@pytest.mark.parametrize(
    "matrix,grid",
    [([[2.0]], GridSpec(d=1, extent=8.0, n=16)), (SHEAR, GridSpec(d=2, extent=2.0, n=8)),
     (DIAG24, GridSpec(d=2, extent=2.0, n=8))],
)
@pytest.mark.parametrize("group_offsets", [1 << 14, 3 * 64])
def test_batched_shells_equal_single_builds(matrix, grid, group_offsets, monkeypatch):
    """One offset_shells call over a sweep's matrices (fractional scales,
    grids with -n/2 offsets, one or several build groups) gives each matrix
    the balls of a build on its own, and the balls of the full-table
    shell_index; a repeated matrix and one already in the store come back
    as the stored table."""
    E = validate_expansive(matrix)
    S = build_ellipsoid(E)
    monkeypatch.setattr(peetre, "_GROUP_OFFSETS", group_offsets)
    mats = [E.power(s) for s in np.arange(-3.0, 3.01, 0.375)]
    single = []
    for M in mats:
        monkeypatch.setattr(grids, "_CACHE", {})
        single += offset_shells(grid, S, [M], 2)
    monkeypatch.setattr(grids, "_CACHE", {})
    (stored,) = offset_shells(grid, S, [mats[4]], 2)
    batch = offset_shells(grid, S, mats + [mats[4], mats[0]], 2)
    assert batch[4] is stored and batch[-2] is stored and batch[-1] is batch[0]
    assert len(grids._CACHE) == len(mats) + 2  # the offset table and its mirror rows
    for M, one, many in zip(mats, single, batch):
        assert _same_shells(one, many)
        offs, shell, nonzero = _torus_shells(grid, S, M)
        present = np.unique(shell[nonzero])
        assert many.shells == tuple(int(m) for m in present[present <= 2])
        for m, table in zip(many.shells, many.groups):
            want = (~nonzero | (shell <= m)).reshape(grid.shape)
            assert np.array_equal(_covered(table, grid.shape), want)


def test_windows_of_rows_with_several_runs():
    """Rows with two separate runs, a run across the last column, a full
    row and an empty row are covered exactly, and the sweep over them is
    the per-offset roll maximum."""
    n = 16
    mask = np.zeros((4, n), dtype=bool)
    mask[0, [0, 1, 2, 14, 15]] = True          # one run across the edge
    mask[1, [3, 4, 5, 9, 10, 11, 12]] = True   # two runs in one row
    mask[2, :] = True                          # full row
    mask[3, [0, 7, 15]] = True                 # two runs, one across the edge
    mask = np.vstack([mask, np.zeros((n - 4, n), dtype=bool)])  # empty rows
    (table,) = peetre._ball_windows(mask[None])
    assert np.array_equal(_covered(table, mask.shape), mask)
    values = np.random.default_rng(5).normal(size=mask.shape)
    (got,) = peetre._ball_maxima(values, [table])
    ref = np.full(mask.shape, -np.inf)
    for z in np.argwhere(mask):
        np.maximum(ref, np.roll(values, tuple(-z), axis=(0, 1)), out=ref)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("matrix", [SHEAR, DIAG24])
def test_hl_maximal_matches_roll_reference(matrix):
    E = validate_expansive(matrix)
    S = build_ellipsoid(E)
    grid = GridSpec(d=2, extent=2.0, n=16)
    src = np.abs(np.random.default_rng(23).normal(size=grid.shape))
    offs = offset_index_vectors(grid)
    ref = src.copy()
    for level in range(-2, 2):
        inside = S.contains((offs * grid.h) @ np.linalg.inv(E.power(level)).T)
        kern = np.zeros(grid.size)
        kern[inside] = 1.0 / np.count_nonzero(inside)
        avg = np.fft.ifftn(np.fft.fftn(src) * np.fft.fftn(kern.reshape(grid.shape))).real
        for z in offs[inside]:
            np.maximum(ref, np.roll(avg, tuple(-z), axis=(0, 1)), out=ref)
    assert np.array_equal(hl_maximal(src, S, (-2, 1), grid).values, ref)


class TestSubMeanValue:
    def test_zero_band(self):
        zero = ScaleBand(scale=0.0, spec=np.zeros(GRID1.shape, dtype=complex), grid=GRID1)
        rep = check_submeanvalue(zero, S1, beta=1.0, q=2.0)
        assert rep["max_ratio"] == 0.0

    @pytest.mark.parametrize("q,beta", [(2.0, 1.0), (1.0, 1.0), (0.5, 1.0)])
    def test_single_bump_ratio_finite(self, band, q, beta):
        rep = check_submeanvalue(band, S1, beta=beta, q=q)
        assert 0 < rep["max_ratio"] < 50.0

    def test_ratio_stable_under_refinement(self, phi):
        gauge = phi.gauge

        def spectrum(xi, t):
            return bump((t - 2.0) / 0.6)

        reports = []
        for n in (512, 1024):
            g = GridSpec(d=1, extent=8.0, n=n)
            f = field_from_closure(g, gauge, spectrum)
            b = convolve_scale(f, phi, 2.0)
            reports.append(check_submeanvalue(b, S1, beta=1.0, q=2.0))
        r0, r1 = (r["max_ratio"] for r in reports)
        assert abs(r1 - r0) <= 0.25 * r0


class TestHardyLittlewood:
    def test_constant_source(self):
        src = np.full(GRID2.shape, 3.0)
        mf = hl_maximal(src, S2, (-3, 1), GRID2)
        assert np.allclose(mf.values, 3.0, atol=1e-10)

    def test_indicator_of_omega(self):
        pts = spatial_points(GRID2)
        ind = S2.contains(pts).astype(float).reshape(GRID2.shape)
        mf = hl_maximal(ind, S2, (0, 0), GRID2)
        inside = ind.astype(bool)
        assert np.all(mf.values[inside] >= 1.0 - 1e-10)

    def test_dominates_source(self):
        rng = np.random.default_rng(8)
        src = np.abs(rng.normal(size=GRID2.shape))
        mf = hl_maximal(src, S2, (-2, 1), GRID2)
        assert np.all(mf.values >= src - 1e-12)

    def test_monotone_in_source(self):
        rng = np.random.default_rng(9)
        a = np.abs(rng.normal(size=GRID2.shape))
        b = a + np.abs(rng.normal(size=GRID2.shape))
        ma = hl_maximal(a, S2, (-2, 1), GRID2)
        mb = hl_maximal(b, S2, (-2, 1), GRID2)
        assert np.all(mb.values >= ma.values - 1e-12)

    def test_l2_bound_stable(self, phi):
        gauge = phi.gauge
        ratios = []
        for n in (256, 512):
            g = GridSpec(d=1, extent=8.0, n=n)
            rng = np.random.default_rng(11)
            spec = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
            spec *= phi.multiplier(g, 1.0)
            f = field_from_closure(g, gauge, None) if False else None
            vals = np.abs(np.fft.ifftn(spec)) * g.size
            mf = hl_maximal(vals, S1, (-4, 2), g)
            ratios.append(
                np.sqrt(np.sum(mf.values**2)) / np.sqrt(np.sum(np.abs(vals) ** 2))
            )
        assert ratios[0] < 10.0
        assert abs(ratios[1] - ratios[0]) <= 0.3 * ratios[0]
