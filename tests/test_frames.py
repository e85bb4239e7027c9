import numpy as np
import pytest

from anisotl.analyzers import bump, make_admissible, make_covering_profile
from anisotl.errors import VerificationFailed
from anisotl.field_engine import PhaseRows, evaluate_spectrum, field_from_closure, field_from_spec
from anisotl.frames import (
    FrameSystem,
    IndexSet,
    MolecularSystem,
    _STRIDE,
    atom_field,
    centered_coefficients,
    dual_envelope,
    dual_reconstruct,
    frame_bounds,
    member_coefficients,
    molecule_check,
    moment_problem,
    sample_index_set,
    sequence_norm,
    synthesis,
)
from anisotl.grids import GridSpec, spatial_points
from anisotl.group_analysis import GroupGrid, group_point, psi_spatial_field, wavelet_transform
from anisotl.linalg_expansive import build_ellipsoid, validate_expansive
from anisotl.norms import NormParams

E1 = validate_expansive([[2.0]])
S1 = build_ellipsoid(E1)
GRID = GridSpec(d=1, extent=8.0, n=1024)
GGRID = GroupGrid(grid=GRID, s_min=-3.0, s_max=0.5, ds=0.25)


@pytest.fixture(scope="module")
def vec():
    return make_admissible(make_covering_profile(E1, GRID))


@pytest.fixture(scope="module")
def suite(vec):
    # bands sit where the lattice scale range fully covers them
    gauge = vec.psi.gauge
    fields = []
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        t0 = rng.uniform(1.8, 2.6)
        width = rng.uniform(0.3, 0.5)
        amp = rng.normal() + 1j * rng.normal()
        center = rng.uniform(-0.8, 0.8)

        def spectrum(xi, t, t0=t0, width=width, amp=amp, center=center):
            ph = np.exp(-2j * np.pi * (np.atleast_2d(xi) @ np.array([center])))
            return amp * bump((t - t0) / width) * ph

        fields.append(field_from_closure(GRID, gauge, spectrum))
    return fields


@pytest.fixture(scope="module")
def covering_gamma(vec):
    return sample_index_set(GGRID, E1, U=(0.25, 0.25), kind="covering", density_factor=0.5)


@pytest.fixture(scope="module")
def covering_system(vec, covering_gamma):
    return FrameSystem.build(vec, covering_gamma, GRID)


@pytest.fixture(scope="module")
def separated_gamma(vec):
    # core keeps atoms off the box edge where torus wraps pollute tails
    return sample_index_set(
        GGRID, E1, U=(0.25, 0.125), kind="separated", density_factor=4.0,
        core_fraction=0.75,
    )


class TestIndexSets:
    def test_covering_passes_at_fine_density(self, covering_gamma):
        assert covering_gamma.stats["coverage_fraction"] == 1.0
        assert covering_gamma.stats["max_multiplicity"] >= 1

    def test_covering_fails_at_coarse_density(self):
        with pytest.raises(VerificationFailed):
            sample_index_set(GGRID, E1, U=(0.25, 0.25), kind="covering", density_factor=3.0)

    def test_separated_passes_at_coarse_density(self, separated_gamma):
        assert separated_gamma.stats["separation_margin"] >= 0.0

    def test_separated_fails_when_cells_overlap(self):
        with pytest.raises(VerificationFailed):
            sample_index_set(GGRID, E1, U=(0.5, 0.5), kind="separated", density_factor=0.5)

    def test_multiplicity_bounded(self, covering_gamma):
        # product lattice at density 1/2: 2 cells per axis and per scale,
        # plus half-open boundary ties under rounding
        assert covering_gamma.stats["max_multiplicity"] <= 2 ** (GRID.d + 1) + 2


class TestAnalysisSynthesis:
    def test_kept_conjugate_rounds_as_a_fresh_one(self, vec, covering_system, suite):
        # analysis conjugates the coefficients and the product, not the
        # atoms; array_equal treats -0.0 and 0.0 as equal
        atoms, vol = covering_system.atoms, GRID.box_volume
        zero = field_from_closure(
            GRID, vec.psi.gauge, lambda xi, t: np.zeros(len(t), complex)
        )
        rng = np.random.default_rng(5)
        n = len(covering_system.active)
        spec = np.zeros(GRID.size, dtype=complex)
        spec[covering_system.active] = rng.normal(size=n) + 1j * rng.normal(size=n)
        noise = field_from_spec(GRID, spec.reshape(GRID.shape), vec.psi.gauge)
        for f in suite + [zero, noise]:
            coef = f.spec.ravel()[covering_system.active]
            assert np.array_equal(covering_system.analysis(f), vol * (np.conj(atoms) @ coef))
        assert np.array_equal(
            covering_system.frame_operator_matrix(), vol * (atoms.T @ atoms.conj())
        )
        assert np.array_equal(covering_system.gramian(), vol * (np.conj(atoms) @ atoms.T))

    def test_atom_self_coefficient(self, vec, covering_gamma, covering_system):
        idx = len(covering_gamma) // 2
        gamma = group_point(covering_gamma.xs[idx], covering_gamma.ss[idx])
        f = atom_field(vec, gamma, GRID)
        c = covering_system.analysis(f)
        norm_sq = f.l2_norm() ** 2
        assert c[idx] == pytest.approx(norm_sq, rel=1e-9)
        # cross coefficient against an independent continuum quadrature of
        # <psi, pi(gamma^-1 gamma') psi>
        other = idx - 1
        h_x = np.asarray(E1.power(-gamma.s)) @ (covering_gamma.xs[other] - gamma.x)
        h_s = covering_gamma.ss[other] - gamma.s
        psi = vec.psi
        xi = np.linspace(-40.0, 40.0, 400001)[:, None]
        vals = psi.shape(psi.gauge.t(xi))
        vals_dil = psi.shape(psi.gauge.t(xi) + h_s)
        integrand = (
            E1.absdet ** (h_s / 2.0)
            * vals
            * np.conj(vals_dil)
            * np.exp(2j * np.pi * xi[:, 0] * h_x[0])
        )
        oracle = np.trapezoid(integrand, xi[:, 0])
        assert c[other] == pytest.approx(oracle, rel=1e-5)
        # covariance route through the self-transform grid (coarser shells,
        # so only periodization-tail accuracy)
        W = wavelet_transform(psi_spatial_field(vec, GRID), vec, GGRID)
        expected = evaluate_spectrum(GRID, W.spec[GGRID.steps(h_s - GGRID.s_min)], h_x[None, :])[0]
        assert c[other] == pytest.approx(np.conj(expected), rel=2e-3)

    def test_zero_field(self, vec, covering_system):
        zero = field_from_closure(
            GRID, vec.psi.gauge, lambda xi, t: np.zeros(len(t), complex)
        )
        assert np.all(covering_system.analysis(zero) == 0.0)

    def test_linearity(self, vec, covering_system, suite):
        f, g = suite[0], suite[1]
        cf = covering_system.analysis(f)
        cg = covering_system.analysis(g)
        combo = covering_system.analysis(
            field_from_spec(f.grid, 2.0 * f.spec - 0.5j * g.spec, vec.psi.gauge)
        )
        assert np.allclose(combo, 2.0 * cf - 0.5j * cg, atol=1e-10)

    def test_synthesis_unit_vector(self, vec, covering_gamma, covering_system):
        e = np.zeros(len(covering_gamma))
        e[3] = 1.0
        out = covering_system.synthesis(e)
        gamma = group_point(covering_gamma.xs[3], covering_gamma.ss[3])
        direct = atom_field(vec, gamma, GRID)
        assert np.max(np.abs(out.spec - direct.spec)) <= 1e-12

    def test_free_synthesis_matches(self, vec, covering_gamma, covering_system):
        rng = np.random.default_rng(3)
        c = rng.normal(size=len(covering_gamma)) + 1j * rng.normal(size=len(covering_gamma))
        atoms = [
            atom_field(vec, group_point(covering_gamma.xs[i], covering_gamma.ss[i]), GRID)
            for i in range(len(covering_gamma))
        ]
        a = covering_system.synthesis(c)
        b = synthesis(c, atoms, vec.psi.gauge)
        assert np.max(np.abs(a.spec - b.spec)) <= 1e-10


class TestFrameBounds:
    def test_bounds_positive_and_ordered(self, covering_system, suite):
        a_lo, b_hi = frame_bounds(covering_system, suite)
        assert 0 < a_lo <= b_hi

    def test_refining_raises_lower_bound(self, vec, suite):
        coarse = sample_index_set(GGRID, E1, U=(0.25, 0.25), kind="covering", density_factor=0.5)
        fine = sample_index_set(GGRID, E1, U=(0.25, 0.25), kind="covering", density_factor=0.25)
        a_c, _ = frame_bounds(FrameSystem.build(vec, coarse, GRID), suite)
        a_f, _ = frame_bounds(FrameSystem.build(vec, fine, GRID), suite)
        assert a_f >= a_c * (1 - 1e-9)

    def test_sandwich_on_held_out_field(self, vec, covering_system, suite):
        # suite-derived bounds hold on held-out fields with 1% slack
        a_lo, b_hi = frame_bounds(covering_system, suite[:3])
        f = suite[3]
        energy = float(np.sum(np.abs(covering_system.analysis(f)) ** 2))
        nrm = f.l2_norm() ** 2
        assert a_lo * nrm * 0.99 <= energy <= b_hi * nrm * 1.01


class TestReconstruction:
    def test_reconstruct_suite(self, covering_system, suite):
        a_lo, b_hi = frame_bounds(covering_system, suite)
        for f in suite:
            rec, errors = dual_reconstruct(
                f, covering_system, iterations=50, bounds=(a_lo, b_hi)
            )
            assert errors[-1] <= 1e-3
            # geometric-mean decay at the contraction rate until the floor
            rate = (b_hi - a_lo) / (b_hi + a_lo) + 0.05
            floor = max(100.0 * errors[-1], 1e-9)
            seg = [e for e in errors if e > floor]
            if len(seg) >= 2:
                mean_ratio = (seg[-1] / seg[0]) ** (1.0 / (len(seg) - 1))
                assert mean_ratio <= rate

    def test_zero_field_immediate(self, vec, covering_system):
        zero = field_from_closure(
            GRID, vec.psi.gauge, lambda xi, t: np.zeros(len(t), complex)
        )
        rec, errors = dual_reconstruct(zero, covering_system)
        assert errors == [0.0] and rec.l2_norm() == 0.0


class TestMomentProblem:
    def test_single_atom(self, vec):
        gamma = IndexSet(
            xs=np.array([[0.5]]),
            ss=np.array([-1.0]),
            U=(0.25, 0.125),
            stats={},
        )
        system = FrameSystem.build(vec, gamma, GRID)
        f, residuals, D = moment_problem(np.array([2.0]), system)
        atom = atom_field(vec, group_point([0.5], -1.0), GRID)
        expected = atom.scaled(2.0 / atom.l2_norm() ** 2)
        assert np.max(np.abs(f.spec - expected.spec)) <= 1e-10
        assert residuals[0] <= 1e-8

    def test_separated_residuals_small(self, vec, separated_gamma, suite):
        system = FrameSystem.build(vec, separated_gamma, GRID)
        c = system.analysis(suite[0])
        f, residuals, _ = moment_problem(c, system)
        assert np.max(residuals) <= 1e-6 * max(np.max(np.abs(c)), 1.0)

    def test_projection_property(self, vec, separated_gamma, suite):
        # moments of the solution match those of the source field
        system = FrameSystem.build(vec, separated_gamma, GRID)
        g = suite[1]
        c = system.analysis(g)
        f, residuals, _ = moment_problem(c, system)
        assert np.max(np.abs(system.analysis(f) - c)) <= 1e-6 * np.max(np.abs(c))


HGRID = GroupGrid(grid=GRID, s_min=-2.0, s_max=2.0, ds=0.25)


class TestMolecules:
    # the |W psi psi| envelope carries a 0.5% periodization allowance: the
    # centered coefficients and the self-transform approximate the same
    # continuum object through differently dilated quadratures

    def _atom_members(self, vec, gamma_set):
        return [
            atom_field(vec, group_point(gamma_set.xs[i], gamma_set.ss[i]), GRID)
            for i in range(len(gamma_set))
        ]

    def _self_envelope(self, vec, margin=5e-3):
        from anisotl.group_analysis import GroupField

        W = wavelet_transform(psi_spatial_field(vec, GRID), vec, HGRID)
        return GroupField(ggrid=HGRID, vals=(1.0 + margin) * np.abs(W.values))

    def _system(self, vec, gamma_set, members, envelope):
        coefs = member_coefficients(members, gamma_set, vec, HGRID)
        return MolecularSystem(envelope=envelope, coefficients=coefs)

    def test_atom_system_passes_with_self_envelope(self, vec, separated_gamma):
        members = self._atom_members(vec, separated_gamma)
        system = self._system(vec, separated_gamma, members, self._self_envelope(vec))
        rep = molecule_check(system)
        assert rep["violations"] == []

    def test_atom_covariance_route_consistency(self, vec, separated_gamma):
        # centered coefficients of one atom reproduce the self-transform
        i = len(separated_gamma) // 2
        gamma = group_point(separated_gamma.xs[i], separated_gamma.ss[i])
        member = atom_field(vec, gamma, GRID)
        vals = np.abs(centered_coefficients(member, gamma, vec, HGRID))
        W = wavelet_transform(psi_spatial_field(vec, GRID), vec, HGRID)
        ref = np.abs(W.values)[:, ::_STRIDE]
        assert np.max(np.abs(vals - ref)) <= 5e-3 * np.max(ref)

    def test_spiked_atom_reported(self, vec, separated_gamma):
        members = self._atom_members(vec, separated_gamma)
        members[2] = members[2].scaled(10.0)
        system = self._system(vec, separated_gamma, members, self._self_envelope(vec))
        rep = molecule_check(system)
        assert len(rep["violations"]) == 1 and rep["violations"][0][0] == 2

    def test_centered_coefficients_match_slice_loop(self, vec, separated_gamma):
        system = FrameSystem.build(vec, separated_gamma, GRID)
        _, _, D = moment_problem(np.zeros(len(separated_gamma)), system)
        for i in (0, len(separated_gamma) // 2):
            member = system.synthesis(D[:, i])
            gamma = group_point(separated_gamma.xs[i], separated_gamma.ss[i])
            got = centered_coefficients(member, gamma, vec, HGRID)
            # one single-slice evaluation per scale of the centered grid
            shifted = GroupGrid(GRID, HGRID.s_min + gamma.s, HGRID.s_max + gamma.s, HGRID.ds)
            W = wavelet_transform(member, vec, shifted)
            probe = gamma.x + spatial_points(GRID)[::_STRIDE] @ np.asarray(E1.power(gamma.s)).T
            ref = np.stack([evaluate_spectrum(GRID, sl, probe) for sl in W.spec])
            assert np.array_equal(got, ref)

    @pytest.fixture(scope="class")
    def duals(self, vec, separated_gamma):
        system = FrameSystem.build(vec, separated_gamma, GRID)
        _, _, D = moment_problem(np.zeros(len(separated_gamma)), system)
        return [system.synthesis(D[:, g]) for g in range(D.shape[1])]

    def test_member_coefficients_match_uncarried_calls(self, vec, separated_gamma, duals):
        assert len(np.unique(separated_gamma.ss)) >= 2
        got = member_coefficients(duals, separated_gamma, vec, HGRID)
        for member, gamma, vals in zip(duals, separated_gamma.points(), got):
            assert np.array_equal(vals, np.abs(centered_coefficients(member, gamma, vec, HGRID)))

    @staticmethod
    def _carried_pair(vec, pair):
        """Run two (member, point) pairs through one carry, check the second
        against an uncarried call, and return the first call's union, the
        carry and the phase rows the second call exponentiated."""
        carry = PhaseRows()
        centered_coefficients(*pair[0], vec, HGRID, carry)
        union, before = carry.union, carry.exponentials
        got = centered_coefficients(*pair[1], vec, HGRID, carry)
        assert np.array_equal(got, centered_coefficients(*pair[1], vec, HGRID))
        return union, carry, (carry.exponentials - before) // len(carry.union)

    def test_new_scale_or_union_reuses_no_rows(self, vec, separated_gamma, duals):
        points = separated_gamma.points()
        probes = len(spatial_points(GRID)[::_STRIDE])
        # consecutive members across a scale boundary
        i = int(np.flatnonzero(np.diff(separated_gamma.ss))[0])
        pair = [(duals[i], points[i]), (duals[i + 1], points[i + 1])]
        union, carry, fresh = self._carried_pair(vec, pair)
        assert not np.array_equal(union, carry.union) and fresh == probes
        # one point, so equal probes, but an atom's narrower union
        atom = atom_field(vec, points[i], GRID)
        union, carry, fresh = self._carried_pair(vec, [(atom, points[i]), (duals[i], points[i])])
        assert not np.array_equal(union, carry.union) and fresh == probes

    def test_same_scale_neighbour_reuses_rows(self, vec, separated_gamma, duals):
        points = separated_gamma.points()
        probes = len(spatial_points(GRID)[::_STRIDE])
        i = int(np.flatnonzero(np.diff(separated_gamma.ss) == 0)[0])
        pair = [(duals[i], points[i]), (duals[i + 1], points[i + 1])]
        union, carry, fresh = self._carried_pair(vec, pair)
        assert np.array_equal(union, carry.union) and fresh < probes

    def test_plane_shear_carry_matches_uncarried_calls(self):
        # fresh rows are a smaller BLAS product than the full phase, so in
        # d = 2 the values may differ in the last ulp
        E = validate_expansive([[2.0, 1.0], [0.0, 2.0]])
        grid = GridSpec(d=2, extent=2.0, n=32)
        vec2 = make_admissible(make_covering_profile(E, grid))
        hgrid = GroupGrid(grid=grid, s_min=0.0, s_max=0.5, ds=0.25)
        gamma_set = sample_index_set(
            GroupGrid(grid=grid, s_min=0.0, s_max=1.0, ds=0.25), E,
            U=(0.25, 0.125), kind="separated", density_factor=2.0,
        )
        points = gamma_set.points()
        members = [atom_field(vec2, g, grid) for g in points]
        carry, full, carried = PhaseRows(), 0, []
        for member, gamma in zip(members, points):
            carried.append(centered_coefficients(member, gamma, vec2, hgrid, carry))
            full += carry.phase.size
            ref = centered_coefficients(member, gamma, vec2, hgrid)
            assert np.allclose(carried[-1], ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
        assert carry.exponentials < full
        got = member_coefficients(members, gamma_set, vec2, hgrid)
        assert all(np.array_equal(a, np.abs(b)) for a, b in zip(got, carried))

    def test_dual_envelope_accepts_duals(self, vec, separated_gamma):
        system = FrameSystem.build(vec, separated_gamma, GRID)
        c = np.zeros(len(separated_gamma))
        _, _, D = moment_problem(c, system)
        rep = molecule_check(dual_envelope(system, D, HGRID))
        assert rep["violations"] == []

    @pytest.mark.parametrize("stride", [_STRIDE])
    def test_dual_envelope_matches_recomputing_loop(self, vec, separated_gamma, stride):
        # reference: every member's centered coefficients evaluated once
        # for the envelope and again for the check
        system = FrameSystem.build(vec, separated_gamma, GRID)
        _, _, D = moment_problem(np.zeros(len(separated_gamma)), system)
        mol = dual_envelope(system, D, HGRID)

        members, env = [], None
        for g in range(D.shape[1]):
            phi = system.synthesis(D[:, g])
            members.append(phi)
            gamma = group_point(separated_gamma.xs[g], separated_gamma.ss[g])
            vals = np.abs(centered_coefficients(phi, gamma, vec, HGRID))
            env = vals if env is None else np.maximum(env, vals)
        full = np.repeat(env, stride, axis=1)[:, : GRID.size].reshape(mol.envelope.vals.shape)
        assert np.array_equal(mol.envelope.vals, full)

        strided = np.abs(mol.envelope.values).reshape(len(HGRID.s_values), -1)[:, ::stride]
        floor = 1e-2 * float(np.max(strided))
        violations, worst = [], 0.0
        for g, member in enumerate(members):
            gamma = group_point(separated_gamma.xs[g], separated_gamma.ss[g])
            vals = np.abs(centered_coefficients(member, gamma, vec, HGRID))
            over = vals > strided * (1.0 + 1e-9) + floor
            worst = max(worst, float(np.max(vals - strided)))
            if np.any(over):
                violations.append((g, int(np.count_nonzero(over))))

        rep = molecule_check(mol)
        assert rep["violations"] == violations
        assert rep["floor"] == floor
        assert rep["worst_excess"] == worst
        assert rep["checked"] == len(members)


class TestSequenceNorm:
    def test_zero(self, separated_gamma):
        params = NormParams(alpha=0.0, q=2.0, beta=1.0, ell_min=-2, ell_max=1, window="ball")
        rep = sequence_norm(np.zeros(len(separated_gamma)), separated_gamma, GGRID, S1, params)
        assert rep.value == 0.0

    def test_solidity(self, separated_gamma):
        params = NormParams(alpha=0.0, q=2.0, beta=1.0, ell_min=-2, ell_max=1, window="ball")
        rng = np.random.default_rng(4)
        c_small = rng.uniform(0, 1, size=len(separated_gamma))
        c_big = c_small + rng.uniform(0, 1, size=len(separated_gamma))
        n_small = sequence_norm(c_small, separated_gamma, GGRID, S1, params)
        n_big = sequence_norm(c_big, separated_gamma, GGRID, S1, params)
        assert n_small.value <= n_big.value * (1 + 1e-12)

    def test_single_cell(self, separated_gamma):
        params = NormParams(alpha=0.0, q=2.0, beta=1.0, ell_min=-2, ell_max=1, window="ball")
        c = np.zeros(len(separated_gamma))
        c[0] = 1.0
        rep = sequence_norm(c, separated_gamma, GGRID, S1, params)
        assert rep.value > 0
