"""Wavelet analysis on the scaling group: group law, Haar measure,
wavelet transforms, coefficient-space norms, translation-operator bounds,
control weights, local maximal functions and Wiener amalgam norms.

The group is R^d x R with product (x,s)(y,t) = (x + A^s y, s + t); left
Haar measure |det A|^-s ds dx and modular function |det A|^-s.  Group
fields are stored as stacks of spatial slices over a uniform scale grid;
slices of wavelet transforms are band-limited trigonometric polynomials,
so spatial shifts by A^s y and evaluations at transformed points are
exact.

All transforms are pure; slice computations parallelize over scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .field_engine import (
    SampledField,
    check_aliasing,
    evaluate_spectrum,
    field_from_closure,
    field_from_spec,
    spec_to_values,
)
from .grids import (
    GridSpec,
    cached,
    flat_index,
    freq_points,
    mesh_points,
    offset_index_vectors,
    spatial_points,
)
from .linalg_expansive import ExpansiveMatrix, QuasiNormStructure, per_value_product
from .norms import NormParams, NormReport, peetre_arrays, windowed_norm

# weight_v's candidates sit on the shells A^m Omega, |m| <= _V_SHELLS, in
# _V_DIRECTIONS boundary directions.
_V_SHELLS = 12
_V_DIRECTIONS = 32


# ---------------------------------------------------------------------------
# Group law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupPoint:
    x: np.ndarray
    s: float


def group_point(x, s: float) -> GroupPoint:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    arr.flags.writeable = False
    return GroupPoint(x=arr, s=float(s))


def group_mul(E: ExpansiveMatrix, g: GroupPoint, h: GroupPoint) -> GroupPoint:
    return group_point(g.x + h.x @ np.asarray(E.power(g.s)).T, g.s + h.s)


def group_inv(E: ExpansiveMatrix, g: GroupPoint) -> GroupPoint:
    return group_point(-(g.x @ np.asarray(E.power(-g.s)).T), -g.s)


def modular(E: ExpansiveMatrix, g: GroupPoint) -> float:
    """Delta(x, s) = |det A|^-s."""
    return E.absdet ** (-g.s)


# ---------------------------------------------------------------------------
# Group grids and fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupGrid:
    """Spatial grid times a uniform scale grid; Haar weight per node is
    |det A|^-s h^d ds."""

    grid: GridSpec
    s_min: float
    s_max: float
    ds: float

    def __post_init__(self):
        if self.s_max < self.s_min:
            raise ValueError(f"s_max = {self.s_max:g} lies below s_min = {self.s_min:g}")

    @property
    def s_values(self) -> np.ndarray:
        m = int(round((self.s_max - self.s_min) / self.ds))
        return self.s_min + self.ds * np.arange(m + 1)

    def haar_weights(self, absdet: float) -> np.ndarray:
        return (
            absdet ** (-self.s_values) * self.grid.cell_volume * self.ds
        )

    def steps(self, t: float) -> int:
        """t in steps of ds; ValueError when t is off the ds grid."""
        idx = t / self.ds
        r = int(round(idx))
        if abs(idx - r) > 1e-9:
            raise ValueError(f"scale shift {t} is not on the ds = {self.ds} grid")
        return r


@dataclass
class GroupField:
    """Function on the group grid, stored per scale slice.

    spec holds spectral coefficients per slice when the slices are
    lattice polynomials (wavelet transforms, right translates); vals is
    always available through .values.
    """

    ggrid: GroupGrid
    spec: np.ndarray | None = None
    vals: np.ndarray | None = None

    @cached_property
    def values(self) -> np.ndarray:
        if self.vals is not None:
            view = self.vals.view()  # read-only, so abs_values cannot go stale
            view.flags.writeable = False
            return view
        g = self.ggrid.grid
        out = np.stack([spec_to_values(g, sl) for sl in self.spec])
        out.flags.writeable = False
        return out

    @cached_property
    def abs_values(self) -> np.ndarray:
        a = np.abs(self.values)
        a.flags.writeable = False
        return a

    def _spectral_slices(self) -> np.ndarray:
        if self.spec is None:
            raise ValueError("slice evaluation needs spectral slices")
        return self.spec

    def l2_norm(self, absdet: float) -> float:
        """Haar L2 norm from the spectral slices (Parseval per slice)."""
        svals = self.ggrid.s_values
        spec = self._spectral_slices().reshape(len(svals), -1)
        per = np.sum(np.abs(spec) ** 2, axis=1) * self.ggrid.grid.box_volume
        return float(np.sqrt(np.sum(self.ggrid.ds * absdet ** (-svals) * per)))


# ---------------------------------------------------------------------------
# Wavelet transform
# ---------------------------------------------------------------------------


def wavelet_transform(f: SampledField, vec, ggrid: GroupGrid) -> GroupField:
    """W f(x, s) = |det A|^(s/2) (f * psi~_-s)(x) with psi~ the reflected
    conjugate analyzer, computed spectrally slice by slice."""
    psi = vec.psi
    E = psi.matrix
    grid = ggrid.grid
    t = psi.t_grid(grid)
    svals = ggrid.s_values
    for s in (svals[0], svals[-1]):
        check_aliasing(f, psi, -float(s))
    shape_vals = psi.shape(t[None, :] + svals[:, None])
    coef = (
        (E.absdet ** (svals / 2.0))[:, None]
        * f.spec.ravel()[None, :]
        * np.conj(shape_vals)
    )
    spec = coef.reshape((len(svals),) + grid.shape)
    return GroupField(ggrid=ggrid, spec=spec)


def psi_spatial_field(vec, grid: GridSpec) -> SampledField:
    """The analyzer as a sampled field: the periodization of the continuum
    wavelet, whose lattice coefficients are its transform values divided
    by the box volume (Poisson summation)."""
    psi = vec.psi
    scale = 1.0 / grid.box_volume
    return field_from_closure(
        grid,
        psi.gauge,
        lambda xi, t: scale * psi.shape(t) + 0j,
    )


def quasi_regular(g: GroupPoint, f: SampledField, E: ExpansiveMatrix, gauge) -> SampledField:
    """pi(x0, s0) f = |det A|^(-s0/2) f(A^-s0 (. - x0)).

    When A^-s0 maps the frequency lattice into itself the coefficients are
    remapped exactly (the periodic field is transformed as a trigonometric
    polynomial); otherwise the spectral closure of f is resampled, which
    is the periodization-consistent continuum action.  gauge is the gauge
    of f's closure and of the result.
    """
    x0 = np.asarray(g.x, dtype=float)
    s0 = float(g.s)
    grid = f.grid
    R = np.asarray(E.power(-s0)) if float(s0).is_integer() else None
    if R is not None and np.allclose(R, np.round(R), atol=1e-9):
        R = np.round(R).astype(np.int64)
        K = offset_index_vectors(grid)
        flat = f.spec.ravel()
        active = np.flatnonzero(np.abs(flat) > 0.0)
        k_new = K[active] @ R
        eta = k_new / (2.0 * grid.extent)
        phase = np.exp(-2j * np.pi * (eta @ x0))
        target = flat_index(grid, k_new)
        out = np.zeros(grid.size, dtype=complex)
        out[target] = E.absdet ** (-s0 / 2.0) * phase * flat[active]
        return field_from_spec(grid, out.reshape(grid.shape), gauge)
    if f.spectrum_fn is None:
        raise ValueError(
            "quasi_regular needs a lattice-compatible scale or a spectral closure"
        )
    M = np.asarray(E.power(s0))
    det_pow = E.absdet ** (s0 / 2.0)
    fn = f.spectrum_fn

    def spectrum(xi, t):
        # fn reads the moved frequencies, whose coordinate is not t
        xi = np.atleast_2d(xi)
        phase = np.exp(-2j * np.pi * (xi @ x0))
        moved = xi @ M
        return det_pow * phase * fn(moved, gauge.t(moved))

    return field_from_closure(grid, gauge, spectrum)


# ---------------------------------------------------------------------------
# Group convolution and the reproducing identity
# ---------------------------------------------------------------------------


def group_convolve(F: GroupField, G: GroupField, E: ExpansiveMatrix) -> GroupField:
    """(F * G)(x, s) = int F(h) G(h^-1 (x, s)) dmu(h) by grid quadrature.

    Substituting w = A^-u (x - y) turns the inner integral into
    int F(x - A^u w, u) G(w, s - u) dw, which cancels the Haar factor and
    keeps the decaying right factor evaluated inside its own box.  The F
    slices are lattice polynomials, so each u contributes a diagonal
    multiplier on F's frequencies: the nonuniform quadrature transform of
    the G slices at the warped frequencies (A^T)^u xi_k.
    """
    if F.ggrid.grid != G.ggrid.grid or abs(F.ggrid.ds - G.ggrid.ds) > 1e-12:
        raise ValueError("group convolution needs matching grids")
    if F.spec is None:
        raise ValueError("the left factor needs spectral slices")
    grid = F.ggrid.grid
    ds = F.ggrid.ds
    su = F.ggrid.s_values
    sv = G.ggrid.s_values
    pts = spatial_points(grid)

    f_flat = F.spec.reshape(len(su), -1)
    act_k = np.flatnonzero(np.max(np.abs(f_flat), axis=0) > 0)
    if len(act_k) == 0:
        return GroupField(ggrid=F.ggrid, spec=np.zeros_like(F.spec))
    xi_act = freq_points(grid)[act_k]
    g_vals = G.values.reshape(len(sv), -1)
    g_active = np.max(np.abs(g_vals), axis=1) > 0
    f_active = np.max(np.abs(f_flat), axis=1) > 0

    out = np.zeros((len(su), grid.size), dtype=complex)
    for iu, u in enumerate(su):
        if not f_active[iu]:
            continue
        eta = xi_act @ np.asarray(E.power(float(u)))  # (A^T)^u xi, row form
        emat = np.exp(-2j * np.pi * (pts @ eta.T))      # (N_w, K)
        gq = (g_vals @ emat) * grid.cell_volume        # (V, K) quadrature
        for iv in np.flatnonzero(g_active):
            io = int(round((su[iu] + sv[iv] - F.ggrid.s_min) / ds))
            if io < 0 or io >= len(su):
                continue
            out[io, act_k] += ds * f_flat[iu, act_k] * gq[iv]
    return GroupField(ggrid=F.ggrid, spec=out.reshape(F.spec.shape))


def reproducing_kernel(phi_vec, psi_vec, ggrid: GroupGrid) -> GroupField:
    """The kernel W_phi psi on ggrid's spatial grid and scale step, over its
    own scale range (covering its full support), so it depends on ggrid
    only through those two and one kernel serves every field on them."""
    lo_f, hi_f = phi_vec.psi.t_support
    lo_p, hi_p = psi_vec.psi.t_support
    ds = ggrid.ds
    v_lo = math.floor((lo_f - hi_p) / ds) * ds - ds
    v_hi = math.ceil((hi_f - lo_p) / ds) * ds + ds
    kernel_grid = GroupGrid(grid=ggrid.grid, s_min=v_lo, s_max=v_hi, ds=ds)
    return wavelet_transform(psi_spatial_field(psi_vec, ggrid.grid), phi_vec, kernel_grid)


def reproducing_check(f: SampledField, phi_vec, F: GroupField, kernel: GroupField) -> dict:
    """Compare W_phi f against F * kernel on F's group grid, where F is
    W_psi f and kernel is reproducing_kernel(phi_vec, psi_vec, F.ggrid)."""
    E = phi_vec.matrix
    ggrid = F.ggrid
    target = wavelet_transform(f, phi_vec, ggrid)
    conv = group_convolve(F, kernel, E)
    w = ggrid.haar_weights(E.absdet)
    diff = conv.values - target.values
    num = np.sum(w * np.sum(np.abs(diff) ** 2, axis=tuple(range(1, diff.ndim))))
    den = np.sum(
        w * np.sum(np.abs(target.values) ** 2, axis=tuple(range(1, diff.ndim)))
    )
    return {"rel_l2": float(np.sqrt(num / den)) if den > 0 else 0.0}


# ---------------------------------------------------------------------------
# Peetre-type coefficient norm
# ---------------------------------------------------------------------------


def pti_arrays(
    F: GroupField,
    S: QuasiNormStructure,
    beta: float,
    search_shells: int,
) -> tuple[dict[float, np.ndarray], bool]:
    """Per scale s of F's grid, the spatial supremum of |F(., s)| weighted by
    (1 + rho(A^-s z))^-beta, and the or-ed boundary flag of the sweeps.
    Slice s is swept as the band at scale -s; a zero slice is its own
    maximal field and cannot reach the boundary, so it is not swept."""
    slices = {float(s): arr.ravel() for s, arr in zip(F.ggrid.s_values, F.abs_values)}
    nonzero = {-s: arr for s, arr in slices.items() if np.max(arr) != 0.0}
    swept, flagged = peetre_arrays(F.ggrid.grid, S, nonzero, [beta], search_shells)[beta]
    return {s: swept.get(-s, arr) for s, arr in slices.items()}, flagged


def pti_norm(
    ggrid: GroupGrid,
    S: QuasiNormStructure,
    maximal: tuple[dict[float, np.ndarray], bool],
    params: NormParams,
) -> NormReport:
    """Coefficient-space norm: window averages of the scale integral over
    s <= level of the weighted spatial supremum, against the Haar measure.

    maximal is pti_arrays of a field on ggrid at params.beta and
    params.search_shells; the measure contributes |det A|^-s ds inside
    the q-th power sum.
    """
    params.require_characterization_beta()
    absdet, ds = S.owner.absdet, ggrid.ds
    sups, flagged = maximal
    rep = windowed_norm(
        ggrid.grid, S, sups, ggrid.s_values, params,
        lambda s: ds * absdet ** (-s), coupling="group",
    )
    rep.flags["peetre_boundary"] = flagged
    return rep


# ---------------------------------------------------------------------------
# Translations and operator-norm bounds
# ---------------------------------------------------------------------------


def left_translate(F: GroupField, g: GroupPoint, E: ExpansiveMatrix) -> GroupField:
    """L_g F (x, s) = F(A^-t (x - y), s - t); t must sit on the scale grid.

    Slices are re-evaluated spectrally at the transformed points, so the
    output carries values only.
    """
    ggrid = F.ggrid
    shift = ggrid.steps(g.s)
    spec = F._spectral_slices()
    grid = ggrid.grid
    pts = (spatial_points(grid) - np.asarray(g.x)) @ np.asarray(E.power(-g.s)).T
    n_s = len(ggrid.s_values)
    out = np.zeros((n_s,) + grid.shape, dtype=complex)
    lo, hi = max(0, -shift), min(n_s, n_s - shift)  # source slices kept
    if lo < hi:
        vals = evaluate_spectrum(grid, spec[lo:hi], pts)
        out[lo + shift : hi + shift] = vals.reshape((hi - lo,) + grid.shape)
    return GroupField(ggrid=ggrid, vals=out)


def right_translate(F: GroupField, g: GroupPoint, E: ExpansiveMatrix) -> GroupField:
    """R_g F (x, s) = F(x + A^s y, s + t), exact via spectral phase ramps."""
    ggrid = F.ggrid
    shift = ggrid.steps(g.s)
    spec = F._spectral_slices()
    grid = ggrid.grid
    xi = freq_points(grid)
    svals = ggrid.s_values
    out = np.zeros((len(svals),) + grid.shape, dtype=complex)
    for i, s in enumerate(svals):
        src = i + shift
        if 0 <= src < len(svals):
            offset = np.asarray(g.x) @ np.asarray(E.power(float(s))).T
            ramp = np.exp(2j * np.pi * (xi @ offset)).reshape(grid.shape)
            out[i] = spec[src] * ramp
    return GroupField(ggrid=ggrid, spec=out)


def translation_overlap_n(S: QuasiNormStructure) -> int:
    """Smallest N with A^-t Omega inside A^N Omega for all t in [0, 1),
    checked at 33 values of t and 64 boundary points (once per structure
    value)."""

    def build():
        E = S.owner
        bnd = S.boundary_points(64)
        ts = np.linspace(0.0, 1.0, 33, endpoint=False)
        for n in range(0, 16):
            if all(np.all(S.contains(bnd @ np.asarray(E.power(-n - t)).T)) for t in ts):
                return n
        raise RuntimeError("no overlap exponent below 16; dilation too extreme")

    return cached(("overlap", S.value_key), build)


def left_bound(E: ExpansiveMatrix, n_overlap: int, t: float, alpha: float, q: float) -> float:
    if math.isinf(q):
        return E.absdet ** (t * alpha + n_overlap + 1)
    return E.absdet ** (t * (alpha - 1.0 / q) + (n_overlap + 1.0) / q)


def right_bound(
    E: ExpansiveMatrix, v_val: float, t: float, alpha: float, q: float, beta: float
) -> float:
    if math.isinf(q):
        if t > 0:
            base = E.absdet ** (-t * (alpha - 1.0) + 1.0)
        else:
            base = E.absdet ** (-t * alpha)
    else:
        if t > 0:
            base = E.absdet ** (-t * (alpha - 2.0 / q) + 1.0 / q)
        else:
            base = E.absdet ** (-t * (alpha - 1.0 / q))
    return base * v_val**beta


def translation_bound_check(
    F: GroupField,
    g: GroupPoint,
    S: QuasiNormStructure,
    params: NormParams,
    slack: float = 0.01,
) -> dict:
    """Measured operator ratios for L_g and R_g against the stated bounds.

    "flags" holds the flags of the three coefficient-space norms (F, L_g F,
    R_g F) in that order."""
    E = S.owner

    def norm(G: GroupField) -> NormReport:
        maximal = pti_arrays(G, S, params.beta, params.search_shells)
        return pti_norm(G.ggrid, S, maximal, params)

    base = norm(F)
    lt = norm(left_translate(F, g, E))
    rt = norm(right_translate(F, g, E))
    n_overlap = translation_overlap_n(S)
    v_val, v_sat = weight_v(S, g.x, g.s)
    lb = left_bound(E, n_overlap, g.s, params.alpha, params.q)
    rb = right_bound(E, v_val, g.s, params.alpha, params.q, params.beta)
    left_ratio = lt.value / base.value if base.value > 0 else 0.0
    right_ratio = rt.value / base.value if base.value > 0 else 0.0
    return {
        "left_ratio": left_ratio,
        "left_bound": lb,
        "left_ok": left_ratio <= lb * (1 + slack),
        "right_ratio": right_ratio,
        "right_bound": rb,
        "right_ok": right_ratio <= rb * (1 + slack),
        "v": v_val,
        "v_saturated": v_sat,
        "flags": [base.flags, lt.flags, rt.flags],
    }


# ---------------------------------------------------------------------------
# Weights and envelopes
# ---------------------------------------------------------------------------


def _v_candidates(S: QuasiNormStructure) -> np.ndarray:
    def build():
        E = S.owner
        dirs = np.unique(np.round(S.boundary_points(_V_DIRECTIONS), 12), axis=0)
        etas = np.array([1.05, 1.4])
        pts = [np.zeros((1, E.d))]
        for m in range(-_V_SHELLS, _V_SHELLS + 1):
            M = np.asarray(E.power(m)).T
            for eta in etas:
                pts.append((eta * dirs) @ M)
        return np.concatenate(pts, axis=0)

    return cached(("vcand", S.value_key), build)


def weight_v(S: QuasiNormStructure, y, t: float) -> tuple[float, bool]:
    """v(y, t) = sup_z (1 + rho(z)) / (1 + rho(A^t z - y)).

    The supremum over the full group orbit collapses to a d-dimensional
    one because powers of A commute; it is approximated on log-shell
    candidates plus the analytic near-maximizer A^-t y, with a saturation
    flag when the outermost shell attains the maximum.
    """
    E = S.owner
    y = np.atleast_1d(np.asarray(y, dtype=float))
    cands = _v_candidates(S)
    special = (y @ np.asarray(E.power(-float(t))).T)[None, :]
    zs = np.concatenate([cands, special], axis=0)
    num = 1.0 + S.rho(zs)
    den = 1.0 + S.rho(zs @ np.asarray(E.power(float(t))).T - y)
    ratios = num / den
    best = int(np.argmax(ratios))
    val = float(ratios[best])
    # saturation: best candidate sits on the outermost sampled shell
    sat = bool(num[best] >= 1.0 + E.absdet ** (_V_SHELLS - 1))
    return max(val, 1.0), sat


def weight_v_many(S: QuasiNormStructure, ys: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Vectorized weight_v over samples grouped by the scale component.

    A denominator is at least 1, so a candidate's ratio is at most its
    numerator 1 + rho(z), also after rounding; a pair whose numerator is
    at most max(num_sp, 1) cannot raise the result, and rho is evaluated
    only on the other pairs.  rho is per point, so the values are the same
    as with every pair evaluated.
    """
    ys = np.atleast_2d(ys)
    ts = np.asarray(ts, dtype=float)
    out = np.empty(len(ts))
    cands = _v_candidates(S)
    num_c = 1.0 + S.rho(cands)
    E = S.owner
    for t in np.unique(ts):
        mask = ts == t
        yy = ys[mask]
        Mt = np.asarray(E.power(float(t)))
        moved = cands @ Mt.T  # (C, d)
        special = yy @ np.asarray(E.power(-float(t))).T
        num_sp = 1.0 + S.rho(special)
        keep = num_c[None, :] > np.maximum(num_sp, 1.0)[:, None]
        diff = moved[None, :, :] - yy[:, None, :]
        den = np.full(keep.shape, np.inf)  # pruned pairs get ratio 0
        den[keep] = 1.0 + S.rho(diff[keep])
        best = np.maximum(np.max(num_c[None, :] / den, axis=1), num_sp)
        out[mask] = np.maximum(best, 1.0)
    return out


@dataclass(frozen=True)
class EnvelopeSpec:
    """Xi_(sigma, L)(x, s) = theta_sigma(s) (1 + min(rho(x), rho(A^-s x)))^-L."""

    sigma: tuple[float, float]
    L: float

    def theta(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        s1, s2 = self.sigma
        return np.where(s >= 0, s1**s, s2**s)

    def __call__(self, S: QuasiNormStructure, ys: np.ndarray, ts: np.ndarray) -> np.ndarray:
        ys = np.atleast_2d(ys)
        ts = np.asarray(ts, dtype=float)
        E = S.owner
        rho1 = S.rho(ys)
        rho2 = S.rho(per_value_product(ts, ys, lambda t: E.power(-float(t))))
        eta = (1.0 + np.minimum(rho1, rho2)) ** (-self.L)
        return self.theta(ts) * eta


def sigma_kappa(alpha: float, beta: float, q: float, absdet: float) -> tuple[tuple[float, float], tuple[float, float], bool]:
    """Envelope exponents of the standard control weight, with the branch
    of the kappa case split."""
    r = min(1.0, q) if not math.isinf(q) else 1.0
    if math.isinf(q):
        sigma = (absdet ** (1.0 + abs(alpha)), absdet ** (-abs(alpha)))
        upper = alpha >= -beta / 2.0
        if upper:
            kappa = (absdet ** (1.0 + alpha + beta), absdet ** (-(alpha + beta)))
        else:
            kappa = (absdet ** (-(alpha - 1.0)), absdet**alpha)
        return sigma, kappa, upper
    sigma = (
        absdet ** (1.0 / r + abs(alpha - 1.0 / q)),
        absdet ** (-abs(alpha - 1.0 / q)),
    )
    upper = alpha >= -(1.0 / r + beta - 3.0 / q) / 2.0
    if upper:
        kappa = (
            absdet ** (1.0 / r + alpha + beta - 1.0 / q),
            absdet ** (-(alpha + beta - 1.0 / q)),
        )
    else:
        kappa = (
            absdet ** (-(alpha - 2.0 / q)),
            absdet ** (1.0 / r + alpha - 2.0 / q),
        )
    return sigma, kappa, upper


@dataclass(frozen=True)
class ControlWeight:
    """Submultiplicative weight dominating the translation operator norms.

    Built as the max of scale exponentials a_tau(x,s) = |det A|^(s tau)
    and v-weighted terms; satisfies w(g) = Delta^(1/r)(g^-1) w(g^-1)
    exactly because the term set is closed under that symmetry.
    """

    S: QuasiNormStructure
    alpha: float
    beta: float
    q: float

    @property
    def r(self) -> float:
        return 1.0 if math.isinf(self.q) else min(1.0, self.q)

    @property
    def exponents(self) -> tuple[float, float, float]:
        if math.isinf(self.q):
            return self.alpha, self.alpha - 1.0, self.alpha
        return (
            self.alpha - 1.0 / self.q,
            self.alpha - 2.0 / self.q,
            self.alpha - 1.0 / self.q,
        )

    def inverse(self, ys: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The group inverses (-A^-t y, -t) of the points (y, t)."""
        E = self.S.owner
        return -per_value_product(ts, ys, lambda t: E.power(-float(t))), -ts

    def from_v(self, ts: np.ndarray, v_fwd: np.ndarray, v_inv: np.ndarray) -> np.ndarray:
        """w at points with scale components ts, from weight_v_many at the
        points (v_fwd) and at their inverses (v_inv)."""
        E = self.S.owner
        gamma, delta, zeta = self.exponents
        r = self.r
        a = lambda tau: E.absdet ** (ts * tau)
        vb = v_fwd**self.beta
        vib = v_inv**self.beta
        pieces = [
            np.ones_like(ts),
            a(1.0 / r),
            a(gamma),
            a(-gamma),
            a(gamma + 1.0 / r),
            a(1.0 / r - gamma),
            a(delta + 1.0 / r) * vib,
            a(-delta) * vb,
            a(zeta + 1.0 / r) * vib,
            a(-zeta) * vb,
        ]
        return np.max(np.stack(pieces), axis=0)

    def __call__(self, ys: np.ndarray, ts: np.ndarray) -> np.ndarray:
        ys = np.atleast_2d(ys)
        ts = np.asarray(ts, dtype=float)
        inv_y, inv_t = self.inverse(ys, ts)
        return self.from_v(ts, weight_v_many(self.S, ys, ts), weight_v_many(self.S, inv_y, inv_t))

    def envelopes(self) -> tuple[EnvelopeSpec, EnvelopeSpec, bool]:
        sigma, kappa, upper = sigma_kappa(
            self.alpha, self.beta, self.q, self.S.owner.absdet
        )
        return EnvelopeSpec(sigma, 0.0), EnvelopeSpec(kappa, -self.beta), upper


def envelope_compare(
    w: ControlWeight, ys: np.ndarray, ts: np.ndarray, vals: np.ndarray
) -> dict:
    """Sampled two-sided comparison of the values vals = w(ys, ts) against
    Xi_(sigma,0) + Xi_(kappa,-beta)."""
    xi_s, xi_k, upper = w.envelopes()
    env = xi_s(w.S, ys, ts) + xi_k(w.S, ys, ts)
    ratios = vals / env
    return {
        "min_ratio": float(np.min(ratios)),
        "max_ratio": float(np.max(ratios)),
        "upper_branch": upper,
    }


# ---------------------------------------------------------------------------
# Local maximal functions and Wiener amalgam norms
# ---------------------------------------------------------------------------


def _unit_neighborhood_samples(
    ggrid: GroupGrid, a: float, b: float, spatial_count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic sample of Q = [-a, a)^d x [-b, b): spatial corners plus
    center, and at most 3 scale shifts aligned to the ds grid plus 0."""
    d = ggrid.grid.d
    ax = np.unique(np.concatenate([np.linspace(-a, a, spatial_count, endpoint=False), [0.0]]))
    xs = mesh_points(ax, d)
    n_steps = max(1, int(math.floor(b / ggrid.ds)))
    steps = np.arange(-n_steps, n_steps) * ggrid.ds
    ss = steps[np.abs(steps) < b]
    if len(ss) > 3:
        pick = np.unique(np.linspace(0, len(ss) - 1, 3).astype(int))
        ss = ss[pick]
    if 0.0 not in ss:
        ss = np.sort(np.concatenate([ss, [0.0]]))
    return xs, ss


def _snap_gather(grid: GridSpec, vals_flat: np.ndarray, points: np.ndarray) -> np.ndarray:
    """|F| sampled at the grid nodes nearest to the requested points
    (torus wrap); the snapped esssup surrogate used by local maxima."""
    k = np.round((points + grid.extent) / grid.h).astype(np.int64)
    return vals_flat[flat_index(grid, k)]


def local_maximal(
    F: GroupField,
    E: ExpansiveMatrix,
    a: float = 1.0,
    b: float = 1.0,
    side: str = "left",
    spatial_count: int = 3,
) -> GroupField:
    """Windowed supremum over the group-translated unit neighborhood
    Q = [-a, a)^d x [-b, b).

    side "left": sup_v |F(g v)|; side "two": sup_(u,v) |F(u g v)|; any
    other side raises ValueError.  Both run one loop over u-scale,
    v-scale, u-shift and v-shift; the left side is the two-sided loop
    whose only u-sample is the identity (0, 0).  The neighborhood is
    sampled deterministically and field values are read at the nearest
    grid node, a documented surrogate for the essential supremum; the
    identity sample (0, 0) is always included, so the result dominates
    |F|.
    """
    ggrid = F.ggrid
    grid = ggrid.grid
    pts = spatial_points(grid)
    svals = ggrid.s_values
    xs, ss = _unit_neighborhood_samples(ggrid, a, b, spatial_count)
    if side == "left":
        u_xs, u_ss = np.zeros((1, grid.d)), np.zeros(1)
    elif side == "two":
        u_xs, u_ss = xs, ss
    else:
        raise ValueError(f"unknown side {side!r}")
    abs_flat = F.abs_values.reshape(len(svals), -1)
    out = np.zeros((len(svals), grid.size))
    for i, s in enumerate(svals):
        acc = abs_flat[i].copy()
        for us in u_ss:
            Mu = np.asarray(E.power(float(us)))
            Muv = np.asarray(E.power(float(us + s)))
            base = pts @ Mu.T
            for vs in ss:
                src = i + int(round((us + vs) / ggrid.ds))
                if not 0 <= src < len(svals):
                    continue
                for ux in u_xs:
                    for vx in xs:
                        shifted = ux + base + vx @ Muv.T
                        np.maximum(acc, _snap_gather(grid, abs_flat[src], shifted), out=acc)
        out[i] = acc
    return GroupField(ggrid=ggrid, vals=out.reshape((len(svals),) + grid.shape))


def wiener_amalgam_norm(F: GroupField, w: ControlWeight, r: float) -> float:
    """||M_Q F||_(L^r_w) by Haar-weighted quadrature on the group grid, with
    the two-sided local maximal function over Q = [-1, 1)^d x [-1, 1)."""
    E = w.S.owner
    mq = local_maximal(F, E, side="two")
    grid = F.ggrid.grid
    svals = F.ggrid.s_values
    haar = F.ggrid.haar_weights(E.absdet)
    pts = spatial_points(grid)
    total = 0.0
    for i, s in enumerate(svals):
        weights = w(pts, np.full(len(pts), float(s)))
        vals = np.abs(mq.values[i]).ravel()
        total += haar[i] * np.sum((vals * weights) ** r)
    return float(total ** (1.0 / r))
