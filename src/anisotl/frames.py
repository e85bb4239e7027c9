"""Desk-scale frame decomposition experiments: sampling the group,
analysis/synthesis against coherent atoms, frame-operator iteration,
Gramian biorthogonalization for the moment problem, molecular envelope
verification, and coefficient sequence norms.

The sampling lattice (A^(s_k) a m, s_k) has constant Haar covolume
a^d b, so densifying it drives the frame operator toward a multiple of
the identity on the band-limited subspace; the iteration below is the
constructive surrogate for the dual-frame existence statements.

Gramian assembly and analysis vectorize over atoms; experiments are
independent and safe to run in parallel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import Diverged, IllConditioned, VerificationFailed
from .field_engine import PhaseRows, SampledField, check_nyquist, evaluate_spectrum, field_from_spec
from .grids import GridSpec, freq_points, spatial_points
from .group_analysis import (
    GroupField,
    GroupGrid,
    GroupPoint,
    group_point,
    pti_arrays,
    pti_norm,
    wavelet_transform,
)
from .linalg_expansive import QuasiNormStructure
from .norms import NormParams, NormReport

# Centered coefficients are probed at every _STRIDE-th grid point.
_STRIDE = 4


@dataclass(frozen=True)
class IndexSet:
    """Discrete sampling set in the group, lattice-shaped per scale slab."""

    xs: np.ndarray          # (n, d) spatial components
    ss: np.ndarray          # (n,)
    U: tuple[float, float]  # unit cell [-a, a)^d x [-b, b)
    stats: dict

    def __len__(self) -> int:
        return len(self.ss)

    def points(self) -> list[GroupPoint]:
        return [group_point(self.xs[i], self.ss[i]) for i in range(len(self.ss))]


def sample_index_set(
    ggrid: GroupGrid,
    E,
    U: tuple[float, float],
    kind: str,
    density_factor: float,
    core_fraction: float = 1.0,
) -> IndexSet:
    """Lattice Gamma = {(A^(s_k) a m, s_k)} with spacings scaled by
    density_factor; covering or separation is verified and measured.

    The spatial spacing is 2 a_U density and the scale spacing snaps to
    the ds grid; density <= 1 yields a covering of the truncated domain,
    density >= 1 a separated family (half-open cells tile at density 1).
    A spatial spacing that is not positive raises ValueError.
    """
    a_u, b_u = U
    grid = ggrid.grid
    ds = ggrid.ds
    a_step = 2.0 * a_u * density_factor
    if not a_step > 0:
        raise ValueError(f"{kind} lattice spacing 2 U[0] density = {a_step:g} must be positive")
    s_step = max(ds, round(2.0 * b_u * density_factor / ds) * ds)
    s_lo, s_hi = ggrid.s_min, ggrid.s_max
    n_slabs = int(math.floor((s_hi - s_lo) / s_step)) + 1
    core = core_fraction * grid.extent
    xs_list, ss_list = [], []
    for k in range(n_slabs):
        sk = s_lo + k * s_step
        M = np.asarray(E.power(float(sk)))
        # spatial positions A^s (a m) spanning the whole torus box
        m_max = int(math.ceil(np.linalg.norm(np.linalg.inv(M), 2) * grid.extent / a_step))
        rng_m = np.arange(-m_max - 1, m_max + 2)
        mesh = np.meshgrid(*([rng_m] * grid.d), indexing="ij")
        ms = np.stack([mm.ravel() for mm in mesh], axis=-1).astype(float)
        pos = (a_step * ms) @ M.T
        keep = np.all((pos >= -core) & (pos < core), axis=1)
        xs_list.append(pos[keep])
        ss_list.append(np.full(int(np.count_nonzero(keep)), sk))
    xs = np.concatenate(xs_list, axis=0)
    ss = np.concatenate(ss_list)

    stats: dict = {
        "count": int(len(ss)),
        "a_step": a_step,
        "s_step": s_step,
        "density_factor": density_factor,
    }
    if kind == "separated":
        if a_step < 2.0 * a_u - 1e-12 or s_step < 2.0 * b_u - 1e-12:
            raise VerificationFailed(
                f"lattice spacings ({a_step:.4g}, {s_step:.4g}) overlap the cell "
                f"({2 * a_u:.4g}, {2 * b_u:.4g})"
            )
        stats["separation_margin"] = min(a_step - 2 * a_u, s_step - 2 * b_u)
    elif kind == "covering":
        frac, mult = _covering_stats(ggrid, E, xs, ss, U, core)
        stats["coverage_fraction"] = frac
        stats["max_multiplicity"] = mult
        if frac < 1.0:
            raise VerificationFailed(
                f"covering fails: fraction {frac:.6f} of sampled nodes covered"
            )
    else:
        raise ValueError(f"unknown index set kind {kind!r}")
    return IndexSet(xs=xs, ss=ss, U=(a_u, b_u), stats=stats)


def _covering_stats(ggrid, E, xs, ss, U, core) -> tuple[float, int]:
    """Coverage fraction and max multiplicity measured on group-grid nodes;
    spatial differences are taken modulo the torus box."""
    a_u, b_u = U
    grid = ggrid.grid
    pts = spatial_points(grid)
    probe_x = pts[:: max(1, grid.size // 512)]
    svals = ggrid.s_values
    probe_s = svals[(svals >= ggrid.s_min + b_u) & (svals <= ggrid.s_max - b_u)][::2]
    box = 2.0 * grid.extent
    covered = 0
    total = 0
    max_mult = 0
    for s in probe_s:
        counts = np.zeros(len(probe_x), dtype=int)
        for gamma_s in np.unique(ss):
            if not (-b_u <= s - gamma_s < b_u):
                continue
            sl = ss == gamma_s
            Minv = np.asarray(E.power(-float(gamma_s)))
            diff = probe_x[:, None, :] - xs[sl][None, :, :]
            diff = (diff + grid.extent) % box - grid.extent  # torus min-image
            local = diff @ Minv.T
            hit = np.all((local >= -a_u) & (local < a_u), axis=2)
            counts += np.sum(hit, axis=1)
        covered += int(np.count_nonzero(counts > 0))
        total += len(probe_x)
        max_mult = max(max_mult, int(np.max(counts)) if len(counts) else 0)
    frac = covered / total if total else 0.0
    return frac, max_mult


# ---------------------------------------------------------------------------
# Atoms, analysis, synthesis
# ---------------------------------------------------------------------------


def check_atom_band(vec, s_min: float, grid: GridSpec) -> None:
    """Atoms at the deepest scale must still fit inside the Nyquist box.

    It depends only on the config, so run_frames calls it on the group
    grid's deepest scale before it builds and measures any lattice."""
    hi = vec.psi.t_support[1]
    check_nyquist(vec.psi.gauge, hi - s_min, grid, f"atoms at scale {s_min:g}")


def _atom_row(vec, grid: GridSpec, x0, s0: float, xi: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Lattice coefficients of the periodized atom pi(x0, s0) psi at the
    frequencies xi, whose scale coordinates are t."""
    psi = vec.psi
    return (
        (1.0 / grid.box_volume)
        * psi.matrix.absdet ** (s0 / 2.0)
        * np.exp(-2j * np.pi * (xi @ x0))
        * psi.shape(t + s0)
    )


def atom_spectra(vec, Gamma: IndexSet, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Lattice coefficients of the periodized atoms pi(gamma) psi.

    Returns (matrix (|Gamma|, K), active frequency flat indices).
    """
    psi = vec.psi
    if len(Gamma.ss) == 0:
        return np.zeros((0, 0), dtype=complex), np.zeros(0, dtype=np.int64)
    check_atom_band(vec, float(np.min(Gamma.ss)), grid)
    t = psi.t_grid(grid)
    lo, hi = psi.t_support
    smin, smax = float(np.min(Gamma.ss)), float(np.max(Gamma.ss))
    active = np.flatnonzero((t + smax >= lo) & (t + smin <= hi) & np.isfinite(t))
    xi = freq_points(grid)[active]
    t_act = t[active]
    out = np.empty((len(Gamma.ss), len(active)), dtype=complex)
    for i in range(len(Gamma.ss)):
        out[i] = _atom_row(vec, grid, Gamma.xs[i], float(Gamma.ss[i]), xi, t_act)
    return out, active


def atom_field(vec, gamma: GroupPoint, grid: GridSpec) -> SampledField:
    """Single periodized atom as a sampled field."""
    check_atom_band(vec, gamma.s, grid)
    t = vec.psi.t_grid(grid)
    spec = np.zeros(grid.size, dtype=complex)
    finite = np.isfinite(t)
    spec[finite] = _atom_row(
        vec, grid, gamma.x, gamma.s, freq_points(grid)[finite], t[finite]
    )
    return field_from_spec(grid, spec.reshape(grid.shape), vec.psi.gauge)


@dataclass(frozen=True)
class FrameSystem:
    """Atoms of one index set with cached spectral data."""

    vec: object
    Gamma: IndexSet
    grid: GridSpec
    atoms: np.ndarray     # (|Gamma|, K)
    active: np.ndarray    # flat frequency indices

    @classmethod
    def build(cls, vec, Gamma: IndexSet, grid: GridSpec) -> "FrameSystem":
        atoms, active = atom_spectra(vec, Gamma, grid)
        return cls(vec=vec, Gamma=Gamma, grid=grid, atoms=atoms, active=active)

    def analysis(self, f: SampledField) -> np.ndarray:
        """c_gamma = <f, pi(gamma) psi>, exact on the torus pairing; rounds
        as conj(atoms) @ coef without a conjugated copy of the atoms (an
        imaginary part that sums to exactly 0 comes back as -0.0)."""
        coef = f.spec.ravel()[self.active]
        return self.grid.box_volume * np.conj(self.atoms @ np.conj(coef))

    def synthesis(self, c: np.ndarray) -> SampledField:
        if len(c) != len(self.atoms):
            raise ValueError("coefficient count does not match the atom count")
        spec = np.zeros(self.grid.size, dtype=complex)
        spec[self.active] = self.atoms.T @ np.asarray(c, dtype=complex)
        return field_from_spec(
            self.grid, spec.reshape(self.grid.shape), self.vec.psi.gauge
        )

    def frame_operator_matrix(self) -> np.ndarray:
        """S on the active spectral coefficients (Hermitian PSD)."""
        return self.grid.box_volume * (self.atoms.T @ np.conj(self.atoms))

    def apply_frame_operator(self, f: SampledField) -> SampledField:
        return self.synthesis(self.analysis(f))

    def gramian(self) -> np.ndarray:
        """G[i, j] = <atom_j, atom_i>."""
        return self.grid.box_volume * (np.conj(self.atoms) @ self.atoms.T)


def synthesis(c, atoms: list[SampledField], gauge) -> SampledField:
    """Weighted superposition of explicit atom fields."""
    if len(c) != len(atoms):
        raise ValueError("coefficient count does not match the atom count")
    grid = atoms[0].grid
    spec = np.zeros(grid.shape, dtype=complex)
    for ci, a in zip(c, atoms):
        spec = spec + ci * a.spec
    return field_from_spec(grid, spec, gauge)


def frame_bounds(system: FrameSystem, suite: list[SampledField]) -> tuple[float, float]:
    """Rayleigh extremes over the suite plus 40 power iterations for the top."""
    if len(system.atoms) == 0:
        return 0.0, 0.0
    lows, highs = [], []
    for f in suite:
        c = system.analysis(f)
        energy = float(np.sum(np.abs(c) ** 2))
        nrm = f.l2_norm() ** 2
        if nrm > 0:
            lows.append(energy / nrm)
            highs.append(energy / nrm)
    if not lows:
        return 0.0, 0.0
    S = system.frame_operator_matrix()
    rng = np.random.default_rng(17)
    v = rng.normal(size=len(S)) + 1j * rng.normal(size=len(S))
    v /= np.linalg.norm(v)
    top = 0.0
    for _ in range(40):
        v = S @ v
        top = float(np.linalg.norm(v))
        if top == 0:
            break
        v /= top
    return float(min(lows)), float(max(max(highs), top))


def dual_reconstruct(
    f: SampledField,
    system: FrameSystem,
    iterations: int = 50,
    bounds: tuple[float, float] | None = None,
) -> tuple[SampledField, list[float]]:
    """Frame-algorithm iteration f_(k+1) = f_k + lam (S f - S f_k) with
    lam = 2 / (A + B) from the frame bounds.

    Returns the reconstruction and the per-iteration relative error curve;
    raises Diverged after three consecutive error increases.
    """
    if f.l2_norm() == 0.0:
        return f, [0.0]
    if bounds is None:
        a_lo, b_hi = frame_bounds(system, [f])
    else:
        a_lo, b_hi = bounds
    if a_lo <= 0:
        raise VerificationFailed("frame lower bound is not positive on this field")
    lam = 2.0 / (a_lo + b_hi)
    target = system.apply_frame_operator(f)
    norm_f = f.l2_norm()
    cur = target.scaled(lam)
    errors = [float(_rel_err(cur, f, norm_f))]
    bad = 0
    for _ in range(iterations):
        resid = target.spec - system.apply_frame_operator(cur).spec
        cur = field_from_spec(f.grid, cur.spec + lam * resid, system.vec.psi.gauge)
        err = float(_rel_err(cur, f, norm_f))
        if err > errors[-1] * (1 + 1e-12):
            bad += 1
            if bad >= 3:
                raise Diverged(f"reconstruction error increased at {err:.3e}")
        else:
            bad = 0
        errors.append(err)
    return cur, errors


def _rel_err(g: SampledField, f: SampledField, norm_f: float) -> float:
    diff = g.spec - f.spec
    return float(np.sqrt(np.sum(np.abs(diff) ** 2)) * np.sqrt(f.grid.box_volume) / norm_f)


# ---------------------------------------------------------------------------
# Moment problem and molecules
# ---------------------------------------------------------------------------


def moment_problem(
    c: np.ndarray, system: FrameSystem
) -> tuple[SampledField, np.ndarray, np.ndarray]:
    """Solve <f, pi(gamma) psi> = c_gamma inside span{pi(gamma) psi}.

    Gramian-based biorthogonalization: f = sum_j b_j atom_j with
    b = G^+ c (singular values below 1e-8 of the largest cut); returns
    (f, residuals, dual coefficient matrix D) where column gamma of D
    expresses the dual molecule phi_gamma.  Raises IllConditioned when
    the Gramian condition exceeds 1e10.
    """
    G = system.gramian()
    svals = np.linalg.svd(G, compute_uv=False)
    if svals[0] > 0 and svals[0] / max(svals[-1], 1e-300) > 1e10:
        raise IllConditioned(f"Gramian condition {svals[0] / svals[-1]:.3e} exceeds 1.0e+10")
    D = np.linalg.pinv(G, rcond=1e-8)
    b = D @ np.asarray(c, dtype=complex)
    f = system.synthesis(b)
    residuals = np.abs(system.analysis(f) - np.asarray(c, dtype=complex))
    return f, residuals, D


@dataclass
class MolecularSystem:
    """Members' centered coefficients with a common envelope on a check grid.

    coefficients[i] holds |W_psi phi_i (gamma_i h)| for the i-th member
    phi_i over the envelope's grid h, its spatial probes strided by
    _STRIDE, as member_coefficients computes them.
    """

    envelope: GroupField
    coefficients: list[np.ndarray]


def centered_coefficients(
    member: SampledField,
    gamma: GroupPoint,
    vec,
    hgrid: GroupGrid,
    carry: PhaseRows | None = None,
) -> np.ndarray:
    """W_psi(member) evaluated at gamma . h over the centered grid h.

    Exact spectral evaluation at the warped points, on every _STRIDE-th
    spatial probe.  carry hands phase rows from one call to the next, as
    in evaluate_spectrum.
    """
    W = wavelet_transform(member, vec, _shifted_ggrid(hgrid, gamma.s))
    grid = hgrid.grid
    pts = spatial_points(grid)[::_STRIDE]
    M = np.asarray(vec.matrix.power(gamma.s))
    probe = gamma.x + pts @ M.T
    return evaluate_spectrum(grid, W.spec, probe, carry=carry)


def _shifted_ggrid(hgrid: GroupGrid, s0: float) -> GroupGrid:
    return GroupGrid(
        grid=hgrid.grid,
        s_min=hgrid.s_min + s0,
        s_max=hgrid.s_max + s0,
        ds=hgrid.ds,
    )


def member_coefficients(
    members: list[SampledField], Gamma: IndexSet, vec, hgrid: GroupGrid
) -> list[np.ndarray]:
    """|centered_coefficients| of each member at its own point of Gamma.

    One carry runs through the calls: consecutive members on one scale
    share most probe points bit for bit, so each reuses the previous
    member's phase rows at those points.
    """
    carry = PhaseRows()
    return [
        np.abs(centered_coefficients(member, gamma, vec, hgrid, carry))
        for member, gamma in zip(members, Gamma.points())
    ]


def molecule_check(system: MolecularSystem) -> dict:
    """Verify |W_psi phi_gamma (gamma h)| <= envelope(h) (1 + 1e-9) on the
    centered grid from the members' carried coefficients; reports
    violations per member.

    Against an independent envelope this is a decay check.  Against the
    envelope of dual_envelope, the max of these same coefficients, it
    holds by construction and checks only the envelope's expansion to the
    full grid and back.

    Coefficients below 1% of the envelope peak sit where the torus wrap
    of far-edge atoms dominates the true decay; the check is audited down
    to that floor and the floor is reported.
    """
    env = np.abs(system.envelope.values)
    env = env.reshape(env.shape[0], -1)[:, ::_STRIDE]
    floor = 1e-2 * float(np.max(env))
    violations = []
    worst = 0.0
    for i, vals in enumerate(system.coefficients):
        over = vals > env * (1.0 + 1e-9) + floor
        worst = max(worst, float(np.max(vals - env)))
        if np.any(over):
            violations.append((i, int(np.count_nonzero(over))))
    return {
        "violations": violations,
        "worst_excess": worst,
        "checked": len(system.coefficients),
        "floor": floor,
    }


def dual_envelope(system: FrameSystem, D: np.ndarray, hgrid: GroupGrid) -> MolecularSystem:
    """Members phi_gamma = sum_j D[j, gamma] atom_j, their centered
    coefficients and the tight envelope max_gamma |W_psi phi_gamma (gamma .)|,
    expanded from the strided probes to the full grid by nearest fill."""
    members = [system.synthesis(D[:, g]) for g in range(D.shape[1])]
    coefs = member_coefficients(members, system.Gamma, system.vec, hgrid)
    env = functools.reduce(np.maximum, coefs)
    full_flat = np.repeat(env, _STRIDE, axis=1)[:, : hgrid.grid.size]
    full = full_flat.reshape((len(hgrid.s_values),) + hgrid.grid.shape)
    return MolecularSystem(
        envelope=GroupField(ggrid=hgrid, vals=full),
        coefficients=coefs,
    )


def sequence_norm(
    c: np.ndarray,
    Gamma: IndexSet,
    ggrid: GroupGrid,
    S: QuasiNormStructure,
    params: NormParams,
) -> NormReport:
    """Norm of sum_gamma |c_gamma| 1_(gamma U) through the coefficient-space
    norm of the step function on the group grid."""
    a_u, b_u = Gamma.U
    grid = ggrid.grid
    pts = spatial_points(grid)
    svals = ggrid.s_values
    E = S.owner
    vals = np.zeros((len(svals), grid.size))
    for i in range(len(Gamma.ss)):
        ci = abs(c[i])
        if ci == 0.0:
            continue
        s0 = float(Gamma.ss[i])
        slab = (svals >= s0 - b_u) & (svals < s0 + b_u)
        if not np.any(slab):
            continue
        local = (pts - Gamma.xs[i]) @ np.asarray(E.power(-s0)).T
        hit = np.all((local >= -a_u) & (local < a_u), axis=1)
        vals[np.ix_(slab, hit)] += ci
    F = GroupField(ggrid=ggrid, vals=vals.reshape((len(svals),) + grid.shape))
    return pti_norm(ggrid, S, pti_arrays(F, S, params.beta, params.search_shells), params)
