"""Expansive dilation matrices and their derived structures.

Covers spectral validation, real matrix logarithms, fractional powers
A^s = exp(s B), the Lyapunov ellipsoid with its step homogeneous
quasi-norm, and a continuous scale coordinate t with t(Ax) = t(x) + 1
used by the frequency-side filter constructions.

All types are immutable after construction and all operations are pure,
so shared concurrent reads and parallel maps over sample points are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm, logm, solve_continuous_lyapunov
from scipy.linalg import eigh as generalized_eigh

from .errors import NotExpansive, NotExponential, Singular
from .grids import GridSpec, cached, freq_points, mirror_rows

# Shell search range for the step quasi-norm; outside it the value
# saturates at the boundary shell and the caller is handed a flag.
SHELL_CLAMP = 64

_LOG_REL_TOL = 1e-10

# sample_points draws its radial exponents uniformly from these shells.
_SAMPLE_SHELLS = (-8, 8)


def unit_ball_volume(d: int) -> float:
    """Volume of the Euclidean unit ball in dimension d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ExpansiveMatrix:
    """An expansive dilation A with |det A| and its real logarithm.

    ``log`` is the real logarithm B with exp(B) = A and is None when A is
    not exponential.
    """

    d: int
    A: np.ndarray
    log: np.ndarray | None
    absdet: float

    def power(self, s: float) -> np.ndarray:
        """A^s = exp(s B) for real s; integer powers avoid the exponential."""
        if float(s).is_integer():
            return np.linalg.matrix_power(self.A, int(s))
        return fractional_power(self, s)

    def to_json(self) -> dict:
        return {"dim": self.d, "entries": [float(v) for v in self.A.ravel()]}


def _triu_log(A: np.ndarray) -> np.ndarray:
    """log A for an upper-triangular A with d <= 2 and a positive diagonal:
    log of the diagonal, and the superdiagonal entry of Higham (2008),
    eq. 11.28, with the far-apart test of scipy's ``_logm_superdiag_entry``
    (real branches only; the unwinding number of a positive pair is 0)."""
    B = np.zeros_like(A)
    B[np.diag_indices(len(A))] = np.log(np.diag(A))
    if len(A) == 2:
        l1, l2, t12 = A[0, 0], A[1, 1], A[0, 1]
        if l1 == l2:
            B[0, 1] = t12 / l1
        elif abs(l2 - l1) > abs(l1 + l2) / 2:
            B[0, 1] = t12 * (np.log(l2) - np.log(l1)) / (l2 - l1)
        else:
            z = (l2 - l1) / (l2 + l1)
            B[0, 1] = t12 * 2 * np.arctanh(z) / (l2 - l1)
    return B


def _real_log(A: np.ndarray) -> np.ndarray:
    """The real logarithm B of A, checked by exp(B) = A to _LOG_REL_TOL.

    For an upper-triangular A with d <= 2 and a positive diagonal, B is
    computed in closed form by ``_triu_log``.  scipy's ``logm`` takes such
    an input to its triangular branch (Al-Mohy & Higham, SISC 2012), runs
    the Pade step and then overwrites the diagonal with log(a_ii) and the
    first superdiagonal with Higham's eq. 11.28; for d <= 2 those are all
    the entries, so the closed form is bit-equal to ``logm`` and skips
    its Pade work and lazy import.  Every other input goes to ``logm``.
    """
    eig = np.linalg.eigvals(A)
    on_negative_axis = (np.abs(eig.imag) <= 1e-12 * np.abs(eig)) & (eig.real < 0)
    if np.any(on_negative_axis):
        raise NotExponential("eigenvalue on the closed negative real axis")
    closed_form = (
        len(A) <= 2 and np.array_equal(A, np.triu(A)) and np.all(np.diag(A) > 0)
    )
    B = _triu_log(A) if closed_form else logm(A)
    scale = max(np.max(np.abs(B)), 1.0)
    if np.max(np.abs(B.imag)) > 1e-9 * scale:
        raise NotExponential("matrix logarithm is not real")
    B = np.real(B)
    err = np.max(np.abs(expm(B) - A)) / max(np.max(np.abs(A)), 1.0)
    if err > _LOG_REL_TOL:
        raise NotExponential(f"exp(log A) reproduces A only to {err:.2e}")
    return B


def validate_expansive(A) -> ExpansiveMatrix:
    """Validate a candidate dilation and attach its logarithm.

    Raises Singular when det A = 0 and NotExpansive when some eigenvalue
    modulus is <= 1.  A missing real logarithm is not an error here; ops
    needing continuous powers raise NotExponential later.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    d = A.shape[0]
    det = np.linalg.det(A)
    if det == 0.0 or not np.isfinite(det):
        raise Singular("dilation matrix is singular")
    mods = np.abs(np.linalg.eigvals(A))
    if np.min(mods) <= 1.0:
        raise NotExpansive(
            f"eigenvalue modulus {np.min(mods):.6g} <= 1; not expansive"
        )
    try:
        B = _real_log(A)
    except NotExponential:
        B = None
    return ExpansiveMatrix(
        d=d,
        A=_freeze(A),
        log=None if B is None else _freeze(B),
        absdet=abs(float(det)),
    )


def real_matrix_log(E: ExpansiveMatrix) -> np.ndarray:
    """The real matrix B with exp(B) = A (entrywise relative tol 1e-10)."""
    if E.log is None:
        # recompute so the error message names the actual failure
        return _freeze(_real_log(E.A))
    return E.log


def fractional_power(E: ExpansiveMatrix, s: float) -> np.ndarray:
    """A^s = exp(s B).  Raises NotExponential when no real log exists."""
    B = real_matrix_log(E)
    if s == 0.0:
        return np.eye(E.d)
    return expm(float(s) * B)


def matrix_from_json(obj: dict) -> ExpansiveMatrix:
    """Parse {"dim": d, "entries": row-major list} and validate.  A value
    of the wrong type raises ValueError, like a wrong value."""
    try:
        d = int(obj["dim"])
        entries = np.asarray(obj["entries"], dtype=float).reshape(d, d)
    except TypeError as exc:
        raise ValueError(f"expected a matrix {{dim, entries}}, got {obj!r}: {exc}") from None
    return validate_expansive(entries)


def _dot(a, b):
    """sum_j a[j] * b[j] over the leading index, added in einsum's order:
    (a0*b0 + a1*b1) + a2*b2 + ...

    einsum starts each sum at 0.0, which differs only in turning a -0.0
    sum into +0.0.  flow accumulates into +0.0 zeros and ||y||^2 adds
    squares, so that sign reaches no result: with at most two terms the
    values are bit-equal to einsum's."""
    acc = a[0] * b[0]
    for aj, bj in zip(a[1:], b[1:]):
        acc += aj * bj
    return acc


def _columnar(pts: np.ndarray) -> bool:
    """Whether _quadratic takes the column route: d = 2 and >= 3 points."""
    return pts.shape[1] == 2 and len(pts) >= 3


def _quadratic(y: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """y_n^T Q y_n for every row of y, bit-equal to
    np.einsum("ni,ij,nj->n", y, Q, y).

    einsum sums the terms (y_i Q_ij) y_j flat for 3 or more rows, and for
    at most 2 in an order that also depends on the strides of y.  In d = 2
    with at least 3 rows this is column arithmetic in the flat order,
    ((y0 Q00) y0 + (y0 Q01) y1) + (y1 Q10) y0 + (y1 Q11) y1, whose leading
    term is never -0.0 for a positive definite Q, so einsum's 0.0 start
    changes no bit.  Other shapes keep einsum, on a C-ordered y so that
    the result does not depend on the caller's memory layout (in d = 1 it
    is also the faster of the two)."""
    if not _columnar(y):
        y = np.ascontiguousarray(y)
        return np.einsum("ni,ij,nj->n", y, Q, y)
    y0, y1 = y.T
    (q00, q01), (q10, q11) = Q.tolist()  # floats unpack faster than array rows
    return ((y0 * q00) * y0 + (y0 * q01) * y1) + (y1 * q10) * y0 + (y1 * q11) * y1


# ---------------------------------------------------------------------------
# Lyapunov ellipsoid and step homogeneous quasi-norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuasiNormStructure:
    """Ellipsoid Omega = {x : x^T Q x < c} with m(Omega) = 1, plus the
    expansion gap r > 1 with Omega subset r*Omega subset A*Omega.

    The quasi-norm takes the value |det A|^j on the shell
    A^(j+1)Omega \\ A^j Omega and 0 at the origin.
    """

    owner: ExpansiveMatrix
    Q: np.ndarray
    c: float
    r: float
    _neg_powers: np.ndarray = field(repr=False)  # [k] = A^{-(k - SHELL_CLAMP)}
    _pow_table: np.ndarray = field(repr=False)   # |det A|^j, j in [-CL, CL+1]
    _level_bounds: np.ndarray = field(repr=False)  # (2, 2CL+1), see _level_bounds

    @property
    def value_key(self) -> tuple:
        """Hashable value of (A, Q, c); tables derived from the structure are
        cached under it, so equal structures share them."""
        return (self.owner.A.tobytes(), self.Q.tobytes(), self.c)

    def quadratic_form(self, pts: np.ndarray) -> np.ndarray:
        return _quadratic(np.atleast_2d(pts), self.Q)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Membership of points in Omega."""
        return self.quadratic_form(pts) < self.c

    def member(self, pts: np.ndarray, level) -> np.ndarray:
        """Membership of points in A^level Omega, for a level per point or
        one for all; levels are clamped to [-CL, CL].  shell_index decides
        with it, so shell <= m <=> member at m + 1 holds bit for bit.

        Where _quadratic takes columns, y = A^-level x is _dot column
        arithmetic, which differs from np.einsum("nij,nj->ni", ...) at most
        in the sign of a zero, and that sign reaches no quadratic form."""
        level = np.broadcast_to(level, pts.shape[:1])
        mats = self._neg_powers[np.clip(level, -SHELL_CLAMP, SHELL_CLAMP) + SHELL_CLAMP]
        if _columnar(pts):
            y = _dot(mats.T, pts.T[:, None]).T
        else:
            y = np.einsum("nij,nj->ni", mats, pts)
        return _quadratic(y, self.Q) < self.c

    def boundary_points(self, n: int, rng=None) -> np.ndarray:
        """n points on the boundary of Omega (deterministic unless rng given)."""
        d = self.owner.d
        if rng is None:
            rng = np.random.default_rng(20240901)
        u = rng.normal(size=(n, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        L = np.linalg.cholesky(self.Q)
        half = np.linalg.solve(L.T, u.T).T  # points with x^T Q x = 1
        return half * math.sqrt(self.c)

    def shell_index(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Shell index j with x in A^(j+1)Omega \\ A^j Omega, vectorized.

        Membership in A^j Omega is monotone in j, so the smallest member
        level is found by binary search.  The search starts from a bracket
        read off log(x^T Q x / c) against the per-level eigenvalue bounds of
        _level_bounds: below it the point is surely outside, at its top
        surely inside, with a margin beyond the rounding of member.  So the
        same member tests decide every point near a shell boundary, and the
        index equals that of a search over the whole clamped range.  Points
        whose quadratic form is zero, subnormal or not finite search the
        whole range.  Returns (j, saturated); for x = 0 the index is
        meaningless and callers map it to rho = 0.  Saturated marks shells
        outside [-CL, CL].
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        q = self.quadratic_form(pts)
        normal = (q >= np.finfo(float).tiny) & (q < np.inf)
        log_q = np.log(np.where(normal, q, self.c) / self.c)
        surely_out, surely_in = self._level_bounds
        lo = np.where(normal, np.searchsorted(surely_out, log_q, "right") - SHELL_CLAMP, -SHELL_CLAMP)
        hi = np.where(  # SHELL_CLAMP + 1 is a virtual member level
            normal, np.searchsorted(surely_in, log_q, "right") - SHELL_CLAMP, SHELL_CLAMP + 1
        )
        while True:
            active = lo < hi
            if not np.any(active):
                break
            mid = (lo + hi) // 2
            member = self.member(pts[active], mid[active])
            hi_a = hi[active]
            lo_a = lo[active]
            hi[active] = np.where(member, mid[active], hi_a)
            lo[active] = np.where(member, lo_a, mid[active] + 1)
        j0 = lo
        saturated = (j0 == -SHELL_CLAMP) | (j0 == SHELL_CLAMP + 1)
        shell = j0 - 1
        return shell, saturated

    def shell_rho(self, shell: np.ndarray) -> np.ndarray:
        """|det A|^j for shell indices j from shell_index (clamped to the
        table); the value of rho away from the origin."""
        return self._pow_table[np.clip(shell, -SHELL_CLAMP, SHELL_CLAMP + 1) + SHELL_CLAMP]

    def rho(self, pts: np.ndarray) -> np.ndarray:
        """Step homogeneous quasi-norm rho_A, vectorized over points:
        |det A|^j on the shell A^(j+1)Omega \\ A^j Omega, 0 at 0."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        shell, _ = self.shell_index(pts)
        return np.where(np.all(pts == 0.0, axis=1), 0.0, self.shell_rho(shell))


def build_ellipsoid(E: ExpansiveMatrix) -> QuasiNormStructure:
    """Canonical ellipsoid for the step quasi-norm.

    Q is the Lyapunov series sum_{j>=0} (A^-j)^T A^-j truncated at term
    norm 1e-14, then c is set from the closed-form ellipsoid volume so
    that m(Omega) = 1.  The expansion gap r is the generalized-eigenvalue
    bound certified on 256*d boundary samples, with the gap above 1
    shrunk by 1%.  A Lyapunov ellipsoid with condition above 1e12 (a
    strongly anisotropic dilation) raises ValueError.
    """
    d = E.d
    A_inv = np.linalg.inv(E.A)
    Q = np.zeros((d, d))
    term = np.eye(d)
    for _ in range(10_000):
        Q += term.T @ term
        term = term @ A_inv
        if np.linalg.norm(term) ** 2 < 1e-14:
            break
    Q = 0.5 * (Q + Q.T)
    cond = np.linalg.cond(Q)
    if cond > 1e12:
        raise ValueError(f"Lyapunov ellipsoid condition {cond:.3e} exceeds 1.0e+12")
    # m({x^T Q x < c}) = c^(d/2) * V_d / sqrt(det Q) = 1
    detQ = np.linalg.det(Q)
    c = (math.sqrt(detQ) / unit_ball_volume(d)) ** (2.0 / d)

    # Largest r with r*Omega inside A*Omega comes from the generalized
    # eigenproblem for (A^-1)^T Q A^-1 against Q.
    M = A_inv.T @ Q @ A_inv
    lam_max = float(np.max(generalized_eigh(M, Q, eigvals_only=True)))
    r_exact = 1.0 / math.sqrt(lam_max)
    if r_exact <= 1.0:
        raise NotExpansive("expansion gap certificate failed: r <= 1")
    r = 1.0 + 0.99 * (r_exact - 1.0)

    neg_powers = _freeze(_power_table(A_inv, E.A, SHELL_CLAMP))
    structure = QuasiNormStructure(
        owner=E,
        Q=_freeze(Q),
        c=float(c),
        r=float(r),
        _neg_powers=neg_powers,
        _pow_table=_det_powers(E.absdet),
        _level_bounds=_level_bounds(Q, cond, neg_powers),
    )
    bnd = structure.boundary_points(256 * d)
    if not np.all(structure.contains(r * bnd @ A_inv.T)):
        raise NotExpansive("expansion gap certificate failed on boundary sample")
    if not np.all(structure.contains(bnd / r)):
        raise NotExpansive("Omega subset r*Omega failed on boundary sample")
    return structure


def _power_table(step: np.ndarray, back: np.ndarray, n: int) -> np.ndarray:
    """Stack [k] = step^(k - n) for k = 0 .. 2n, step^-1 being back: each
    entry is its neighbour towards [n] = I times step (above) or back
    (below), one product per entry, so the chain is reproducible bit for
    bit."""
    d = step.shape[0]
    out = np.empty((2 * n + 1, d, d))
    out[n] = np.eye(d)
    for k in range(1, n + 1):
        out[n + k] = out[n + k - 1] @ step
        out[n - k] = out[n - k + 1] @ back
    return out


def _level_bounds(Q: np.ndarray, cond: float, neg_powers: np.ndarray) -> np.ndarray:
    """Per level j in [-CL, CL], bounds on L = log(x^T Q x / c) that decide
    membership of x in A^j Omega without a test.

    With N = A^-j from the power table, x^T N^T Q N x lies between the
    smallest and largest generalized eigenvalue of N^T Q N against Q times
    x^T Q x; these are the squared singular values of K = R N R^-1 for
    Q = R^T R.  Row 0: L >= it means surely outside A^j Omega or some
    larger level's ball; row 1: L < it means surely inside A^j Omega or
    some smaller level's ball, so both rows are nondecreasing in j.  The
    margin, 2^20 unit roundoffs times d cond(Q) cond(K), lies far beyond
    the rounding of member, of the quadratic form and of the singular
    values, so member still decides every point near a boundary.
    """
    d = Q.shape[0]
    R = np.linalg.cholesky(Q).T
    sv = np.linalg.svd(R @ neg_powers @ np.linalg.inv(R), compute_uv=False)
    margin = 2.0**-32 * d * cond * sv[:, 0] / sv[:, -1]
    surely_out = np.minimum.accumulate((margin - 2.0 * np.log(sv[:, -1]))[::-1])[::-1]
    surely_in = np.maximum.accumulate(-margin - 2.0 * np.log(sv[:, 0]))
    return _freeze(np.stack([surely_out, surely_in]))


def _det_powers(absdet: float) -> np.ndarray:
    """|det A|^j for j in [-SHELL_CLAMP, SHELL_CLAMP + 1], built by repeated
    multiplication so that adjacent entries differ by an exact factor."""
    out = np.empty(2 * SHELL_CLAMP + 2)
    out[SHELL_CLAMP] = 1.0
    for k in range(SHELL_CLAMP + 1):
        out[SHELL_CLAMP + k + 1] = out[SHELL_CLAMP + k] * absdet
    for k in range(SHELL_CLAMP):
        out[SHELL_CLAMP - k - 1] = out[SHELL_CLAMP - k] / absdet
    out.flags.writeable = False
    return out


def per_value_product(keys: np.ndarray, rows: np.ndarray, matrix) -> np.ndarray:
    """rows[i] @ matrix(keys[i]).T for every i, with one product per distinct key.

    One stable sort groups the rows by key: each block holds the rows of
    rows[keys == k] in their order, so its product has the operands of the
    masked one and rounds as it does.  matrix must be square; empty keys
    give an empty result.
    """
    keys = np.asarray(keys)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    res = np.asarray(rows)[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(first)
    for a, b in zip(starts, np.append(starts[1:], len(keys))):
        res[a:b] = res[a:b] @ np.asarray(matrix(sorted_keys[a])).T
    out = np.empty_like(res)
    out[order] = res
    return out


def sample_points(S: QuasiNormStructure, n: int, seed: int) -> np.ndarray:
    """Random points with log-uniform quasi-norm magnitudes.

    Directions uniform on the Omega boundary; radial factor A^u with u
    uniform over _SAMPLE_SHELLS, so all shells are exercised evenly.  For
    an exponential A, u snaps to the half-step-shifted 1/16 grid and A^u
    is read from a table of expm(v log A) over its grid values, built once
    per log A; otherwise u rounds to an integer power.
    The points are grouped by their value with one stable sort
    (per_value_product), and each block is one product that equals the
    product over the points masked by that value.
    """
    rng = np.random.default_rng(seed)
    dirs = S.boundary_points(n, rng=rng)
    u = rng.uniform(_SAMPLE_SHELLS[0], _SAMPLE_SHELLS[1], size=n)
    E = S.owner
    if E.log is not None:
        # the half-step offset of the 1/16 grid keeps flowed boundary
        # directions off the exact shell boundaries
        idx = np.round(u * 16).astype(int) - 16 * _SAMPLE_SHELLS[0]
        steps = _flow_steps(E)
        return per_value_product(idx, dirs, lambda i: steps[i])
    k = np.round(u).astype(int)
    jitter = rng.uniform(1.02, 1.35, size=(n, 1))
    return per_value_product(k, jitter * dirs, lambda v: np.linalg.matrix_power(E.A, int(v)))


def _flow_steps(E: ExpansiveMatrix) -> np.ndarray:
    """expm(v B) for v = (k + 0.5) / 16, 16 lo <= k <= 16 hi with
    (lo, hi) = _SAMPLE_SHELLS (cached by the value of B)."""

    def build():
        ks = np.arange(16 * _SAMPLE_SHELLS[0], 16 * _SAMPLE_SHELLS[1] + 1.0)
        return np.stack([expm((k + 0.5) / 16 * E.log) for k in ks])

    return cached(("flow", E.log.tobytes()), build)


@dataclass(frozen=True)
class WeightNu:
    """nu_beta(x) = (1 + rho_A(x))^beta."""

    structure: QuasiNormStructure
    beta: float

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return (1.0 + self.structure.rho(pts)) ** self.beta


def sample_pair(S: QuasiNormStructure, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The sample pair (x, y) that measure_constants takes: sample_points
    at seed and at seed + 1."""
    return sample_points(S, n, seed), sample_points(S, n, seed + 1)


def measure_constants(nu: WeightNu, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Empirical quasi-triangle constant max rho(x+y)/(rho(x)+rho(y)) and
    K with nu(x+y) <= K nu(x) nu(y), over the sample pairs (x, y).

    Both come from one rho of x, of y and of x + y (by nu's structure)."""
    rho, b = nu.structure.rho, nu.beta
    rx, ry, rs = rho(x), rho(y), rho(x + y)
    c = float(np.max(rs / (rx + ry)))
    k = float(np.max((1.0 + rs) ** b / ((1.0 + rx) ** b * (1.0 + ry) ** b)))
    return c, k


# ---------------------------------------------------------------------------
# Continuous scale coordinate (dilation flow gauge)
# ---------------------------------------------------------------------------


class ScaleGauge:
    """Continuous anisotropic scale coordinate for an exponential dilation.

    t(x) is the unique real s with ||P^(1/2) exp(-sB) x|| = 1, where P
    solves B^T P + P B = I and is rescaled so the unit level set encloses
    measure 1.  Along the dilation flow t(A^u x) = t(x) + u holds exactly,
    which is what makes frequency-side filter dilations act as exact
    translations in t.

    t_grid(grid) is t on the grid's lattice frequencies, solved for one
    point of each +- pair and kept in the grids store under the values of
    A, B and the grid, so equal gauges share one read-only solve.
    Instances hold no state that changes after __init__; the flow cache
    of a solve lives in t.
    """

    _TABLE_STEP = 0.25
    _TABLE_RANGE = 96.0
    _TAYLOR_ORDER = 10

    def __init__(self, A: np.ndarray, B: np.ndarray):
        A = np.asarray(A, dtype=float)
        if B is None:
            raise NotExponential("scale gauge requires an exponential dilation")
        B = np.asarray(B, dtype=float)
        self.d = A.shape[0]
        self.A = _freeze(A)
        self.B = _freeze(B)
        self.absdet = abs(float(np.linalg.det(A)))
        P = solve_continuous_lyapunov(-B.T, -np.eye(self.d))
        P = 0.5 * (P + P.T)
        # normalize so m({x^T P x < 1}) = 1
        scale = (unit_ball_volume(self.d) ** 2 / np.linalg.det(P)) ** (1.0 / self.d)
        P = P * scale
        self.P = _freeze(P)
        evals = np.linalg.eigvalsh(P)
        self._lam_min = float(evals[0])
        self._lam_max = float(evals[-1])
        n_tab = int(self._TABLE_RANGE / self._TABLE_STEP)
        table = _power_table(expm(-self._TABLE_STEP * B), expm(self._TABLE_STEP * B), n_tab)
        # flow reads the contracted index first: _table[j, i, m] is entry
        # (i, j) of table step m, _taylor[k, j, i, 0] that of (-B)^k / k!
        self._table = np.ascontiguousarray(table.T)
        self._n_tab = n_tab
        powers = [np.eye(self.d)]
        for k in range(1, self._TAYLOR_ORDER + 1):
            powers.append(powers[-1] @ (-B) / k)
        self._taylor = np.ascontiguousarray(np.stack(powers).transpose(0, 2, 1)[..., None])
        self._key = (self.A.tobytes(), self.B.tobytes())

    def flow(self, s: np.ndarray, pts: np.ndarray, cache: dict | None = None) -> np.ndarray:
        """exp(-s_i B) @ pts_i for per-point scales s_i (table + Taylor).

        Each per-point contraction (the table product and the Taylor
        terms) is column arithmetic in einsum's own order, see _dot.  With
        at most two terms such a sum has one rounding, so in d <= 2 the
        result is bit-equal to np.einsum("nij,nj->ni", ...) and
        np.einsum("ij,nj->ni", ...); in d >= 3 einsum may pair the terms
        differently and the two agree to rounding.  One call is one Newton
        step of t.

        cache, an empty dict on the first call, carries each point's table
        index and table product _table[idx] . pts_i from one call to the
        next for the same pts: only the points whose index changed are
        multiplied again.  The product is elementwise, so a kept column has
        the bits of a fresh one.  t owns one cache per solve.
        """
        s = np.asarray(s, dtype=float)
        idx = np.clip(
            np.rint(s / self._TABLE_STEP).astype(int), -self._n_tab, self._n_tab
        )
        u = s - idx * self._TABLE_STEP
        cols = np.asarray(pts).T[:, None]
        if not cache:
            base = _dot(self._table[:, :, idx + self._n_tab], cols)
        else:
            base = cache["base"]
            stale = np.flatnonzero(idx != cache["idx"])
            if stale.size:
                base[:, stale] = _dot(self._table[:, :, idx[stale] + self._n_tab], cols[..., stale])
        if cache is not None:
            cache.update(idx=idx, base=base)
        out = np.zeros_like(base)
        upow = np.ones_like(s)
        for taylor in self._taylor:
            term = _dot(taylor, base)
            term *= upow
            out += term
            upow *= u
        return out.T.copy()

    def t(self, pts: np.ndarray) -> np.ndarray:
        """Solve the gauge equation per point; -inf at the origin.

        pts is one point set (n, d), giving (n,), or a stack of independent
        sets (k, n, d), giving (k, n).  Each set iterates until its own
        max |log G| < 1e-13 (at most 120 steps) and is then frozen; the other
        sets go on.  flow and ||y||^2 are elementwise, but y^T P y
        (_quadratic) is summed in an order that depends on how many live
        points share the call (nested for at most 2, flat for 3 or more), so
        a point's g can move by an ulp with the other points.  A stacked
        call is therefore bit-identical to k separate calls when every set
        has at least 3 nonzero points, and agrees to rounding otherwise (t
        up to a few 1e-15 apart for sets of 1 or 2 points).  Every call
        solves afresh (Newton steps, bisecting inside a bracket), with one
        flow cache for the solve that is compacted with the points when
        sets finish; t_grid is the cached lattice route.
        """
        pts = np.asarray(pts, dtype=float)
        stacked = pts.ndim == 3
        if not stacked:
            pts = np.atleast_2d(pts)[None]
        out = np.full(pts.shape[:2], -np.inf)
        nz = ~np.all(pts == 0.0, axis=2)
        if not np.any(nz):
            return out if stacked else out[0]
        flat = out.reshape(-1)
        live = np.flatnonzero(nz)  # flat indices of live points, set by set
        x = pts[nz]
        counts = np.count_nonzero(nz, axis=1)
        counts = counts[counts > 0]  # live points per unfinished set
        starts = np.cumsum(counts) - counts

        # initial guess from the P-quadratic form at s = 0
        g0 = _quadratic(x, self.P)
        lam_mid = 2.0 / (1.0 / self._lam_min + 1.0 / self._lam_max)
        s = np.log(np.maximum(g0, 1e-300)) * lam_mid
        lo = np.full(len(s), -np.inf)
        hi = np.full(len(s), np.inf)
        cache: dict = {}
        for _ in range(120):
            val, slope = self._log_g(s, x, cache)
            # logG is strictly decreasing: val > 0 means the root is above s
            lo = np.where(val > 0, np.maximum(lo, s), lo)
            hi = np.where(val < 0, np.minimum(hi, s), hi)
            done = np.maximum.reduceat(np.abs(val), starts) < 1e-13
            if np.count_nonzero(done):
                # freeze finished sets and drop them; compacting only here
                # keeps a lone set's step as cheap as before
                fin = np.repeat(done, counts)
                flat[live[fin]] = s[fin]
                keep = ~fin
                live, x, s, lo, hi, val, slope = (
                    a[keep] for a in (live, x, s, lo, hi, val, slope)
                )
                cache.update({k: v[..., keep] for k, v in cache.items()})
                counts = counts[~done]
                if not counts.size:
                    break
                starts = np.cumsum(counts) - counts
            step = val / np.maximum(slope, 1e-300)
            nxt = s + step
            # bisect when Newton leaves the bracket
            need_mid = (nxt <= lo) | (nxt >= hi)
            mid_ok = np.isfinite(lo) & np.isfinite(hi)
            nxt = np.where(need_mid & mid_ok, 0.5 * (lo + hi), nxt)
            nxt = np.where(
                need_mid & ~mid_ok, s + np.sign(step) * np.minimum(np.abs(step), 8.0), nxt
            )
            s = nxt
        flat[live] = s
        return out if stacked else out[0]

    def _log_g(self, s: np.ndarray, x: np.ndarray, cache: dict):
        """log G(s) = log(y^T P y) at y = exp(-sB) x, and its |slope| bound.

        g is _quadratic, bit-equal to the 3-operand einsum; ||y||^2 has two
        terms in d <= 2 and goes through _dot like flow.
        """
        y = self.flow(s, x, cache)
        g = _quadratic(y, self.P)
        return np.log(g), _dot(y.T, y.T) / g

    def t_grid(self, grid: GridSpec) -> np.ndarray:
        """t at every lattice frequency of grid, in FFT order, solved
        through t on first use only and then cached.

        Only one point of each +- pair is solved (grids.mirror_rows): flow
        is linear and y^T P y and ||y||^2 are even in y, so -x takes the
        Newton and bisection steps of x and reaches its t bit for bit, and
        a set stops at the same step.  If fewer than 3 points would be
        solved, the whole lattice is, since _quadratic sums 2 or fewer
        points in another order.
        """

        def build():
            pts = freq_points(grid)
            mirror, copy = mirror_rows(grid, pts)
            if np.count_nonzero(~copy) < 3:  # the origin is a copy
                return self.t(pts)
            out = np.full(grid.size, -np.inf)
            out[~copy] = self.t(pts[~copy])
            out[copy] = out[mirror[copy]]
            return out

        return cached(("t", *self._key, grid), build)

    def region_extent(self, tau: float) -> float:
        """Max coordinate magnitude over {t <= tau} = A^tau {x : x^T P x <= 1},
        closed form via the diagonal of the mapped inverse form."""
        M = expm(tau * self.B)
        inv_form = M @ np.linalg.inv(self.P) @ M.T
        return float(np.sqrt(np.max(np.diag(inv_form))))


def transpose_gauge(E: ExpansiveMatrix) -> ScaleGauge:
    """Scale gauge for A^T (the frequency-side dilation)."""
    B = real_matrix_log(E)
    return ScaleGauge(E.A.T, B.T)

