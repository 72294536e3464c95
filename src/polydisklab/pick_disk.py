"""One-variable Pick interpolation: solvability, minimal norms, Blaschke
construction, and the infinitesimal l1 extremality test at the origin.

Value data uses the classical Pick matrix
(1 - w_i conj(w_j)) / (1 - lambda_i conj(lambda_j)); first-derivative
constraints extend it with the mixed Wirtinger derivatives of the same
kernel.  The Pick matrix at level t is A0 - A1 / t^2, so minimal norms
come from one generalized eigenvalue of the pencil (A1, A0), Blaschke
interpolants from its eigenvectors (a Gram factor of the singular Pick
matrix, turned into a unitary colligation by the lurking isometry), and
the origin test from a dual barrier path that brackets the minimal l1
norm; its verdict uses the bracket's lower end.

Each DiskPickData builds its pencil once, lazily, and caches it with its
top eigenvalue and cond(A0), so minimal_norm, is_extremal,
schur_construct, solvable and pick_matrix on one data object share one
pencil, one eigenvalues-only solve and one condition number.  The pencil
is that of the targets and derivative values divided by a power of two
2^e (e = 0 unless they exceed 2^256), and levels are scaled back by 2^e:
the minimal norm is homogeneous in the targets, so every finite norm is
answered, not only those whose Pick matrix fits in a float.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math

import numpy as np
from scipy.linalg import eigh

from .disk_geometry import BlaschkeProduct, check_disk_point
from .errors import (
    ConditioningError,
    DegenerateDataError,
    DomainError,
    InfeasibleConstraintsError,
)

# Eigenvalues above this threshold count as nonnegative.
PSD_TOL = -1e-11

# Relative error of minimal_norm per unit of the condition number of the
# Szegő Gram matrix A0.  On 6000 random problems of known norm 0.5, 1 or 3
# (2 to 6 nodes, up to 3 derivatives, cond(A0) from 1.2 to 6e14) it stayed
# below 3.5e-16 * cond(A0).
NORM_RTOL = 1e-15

# is_extremal's window on |minimal_norm - 1|, per unit of cond(A0), wide
# enough that rounding cannot move extremal data out of it.
EXTREMAL_RTOL = 10.0 * NORM_RTOL

# Interpolation residual allowed for constructed Blaschke products.
INTERP_TOL = 1e-8

# Newton budget and closing relative bracket width of the origin test.
L1_NEWTON_BUDGET = 200
L1_BRACKET_RTOL = 1e-12


@dataclasses.dataclass(frozen=True)
class DiskPickData:
    """Interpolation data on the disk: nodes, targets, and optional
    first-derivative constraints given as (node index, value) pairs, at
    most one per node.

    The solvers read three lazy attributes, each computed at most once
    per object and then cached: pencil, the read-only (A0, A1, e) of
    _pencil; pencil_top, the largest eigenvalue of that pencil; and
    gram_condition, cond(A0).  They are not fields, so ==, hash and
    dataclasses.replace ignore them.
    """

    nodes: tuple
    targets: tuple
    derivative_constraints: tuple = ()

    def __post_init__(self):
        nodes = tuple(check_disk_point(z) for z in self.nodes)
        targets = tuple(complex(w) for w in self.targets)
        if not all(map(cmath.isfinite, targets)):
            raise DomainError("targets must be finite")
        if len(nodes) != len(targets):
            raise DomainError("need one target per node")
        if len(nodes) == 0:
            raise DegenerateDataError("empty interpolation data")
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                if nodes[i] == nodes[j]:
                    raise DegenerateDataError(f"coincident nodes at index {i}, {j}")
        derivs = tuple(
            (int(i), complex(v)) for i, v in self.derivative_constraints
        )
        seen = set()
        for i, v in derivs:
            if not 0 <= i < len(nodes):
                raise DomainError(f"derivative constraint at bad index {i}")
            if not cmath.isfinite(v):
                raise DomainError("derivative values must be finite")
            if i in seen:
                raise DegenerateDataError(
                    f"two derivative constraints at node index {i}; at most one per node"
                )
            seen.add(i)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "derivative_constraints", derivs)

    @property
    def n(self):
        return len(self.nodes)

    @functools.cached_property
    def pencil(self):
        return _pencil(self)

    @functools.cached_property
    def pencil_top(self):
        A0, A1, _ = self.pencil
        return float(_pencil_eigh(A0, A1, eigvals_only=True)[-1])

    @functools.cached_property
    def gram_condition(self):
        return np.linalg.cond(self.pencil[0])


def _pencil(data):
    """Szegő Gram matrix A0 and target part A1 of the extended Pick matrix
    of the data divided by 2^e, and e; both arrays are read-only.

    Rows are all value constraints in node order, then one row per
    derivative constraint.  Entries are the mixed Wirtinger derivatives
    of K(x, y) = (1 - f(x) conj(f(y))) k(x, y), k(x, y) = 1 / (1 - x conj(y)):
    A0 holds those of k, A1 those of f(x) conj(f(y)) k(x, y).  Scaling the
    targets by 1/t scales A1 by 1/t^2, so the Pick matrix at level t is
    A0 - A1 / t^2.  e is 0 unless a real or imaginary part of a target or
    derivative value exceeds 2^256; then dividing by 2^e, which is exact,
    brings them all below 1.  Either way every entry is finite, while the
    Pick matrix of the data itself overflows from targets near 1e154.
    """
    n = data.n
    idx = [i for i, _ in data.derivative_constraints]
    x = np.array(data.nodes + tuple(data.nodes[i] for i in idx), dtype=complex)
    # f at every row, then df: zero on value rows, the derivative values after
    fdf = np.array(data.targets + tuple(data.targets[i] for i in idx) + (0j,) * n
                   + tuple(v for _, v in data.derivative_constraints), dtype=complex)
    top = float(np.abs(fdf.view(float)).max())
    e = math.frexp(top)[1] if top > 2.0**256 else 0
    fdf = np.ldexp(fdf.view(float), -e).view(complex)
    f, df = fdf[:len(x)], fdf[len(x):]

    X, Y = x[:, None], np.conj(x)[None, :]
    u = 1.0 - X * Y
    k = 1.0 / u
    # derivative rows (from n on) hold d/dx k, derivative columns
    # d/dconj(y) k, and both at once d^2/dx dconj(y) k; only those blocks
    # are computed, so value data pays for no derivative kernel
    k_x = Y / u[n:]**2
    k_y = X / u[:, n:]**2
    A0, K_x, K_y = k.copy(), k.copy(), k.copy()
    A0[n:] = K_x[n:] = k_x
    A0[:, n:] = K_y[:, n:] = k_y
    A0[n:, n:] = (1.0 + X[n:] * Y[:, n:]) / u[n:, n:]**3
    # Leibniz rule: derivative rows also differentiate f(x), derivative
    # columns conj(f(y)); df is zero on value rows, so those terms drop.
    A1 = (np.outer(f, np.conj(f)) * A0
          + np.outer(df, np.conj(f)) * K_y
          + np.outer(f, np.conj(df)) * K_x
          + np.outer(df, np.conj(df)) * k)
    A1 = 0.5 * (A1 + np.conj(A1.T))
    A0 = 0.5 * (A0 + np.conj(A0.T))
    A0.setflags(write=False)
    A1.setflags(write=False)
    return A0, A1, e


def _unscaled(data, level):
    """A level of the pencil's scaled data, times 2^e: the level of the
    data itself.  DomainError when that overflows."""
    try:
        return math.ldexp(level, data.pencil[2])
    except OverflowError:
        raise DomainError(
            "the minimal norm overflows: targets or derivative values too large"
        ) from None


def _pick_at(data, t):
    """Pick matrix of the data scaled by 1/t, A0 - A1 / (t 2^-e)^2 from the
    cached pencil.  DomainError when an entry overflows, as it does at
    level 1 for targets past about 1e154.  (t 2^-e)^2 is squared as a
    numpy float, so a huge t gives A0, not a Python OverflowError."""
    A0, A1, e = data.pencil
    s = np.float64(math.ldexp(t, -e))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        P = A0 - A1 / s**2
    if not np.isfinite(P).all():
        raise DomainError(
            "the Pick matrix overflows: targets or derivative values too large"
        )
    return P


def pick_matrix(data):
    """Hermitian Pick matrix of the data at norm level 1; DomainError when
    an entry overflows."""
    return _pick_at(data, 1.0)


def solvable(data, t):
    """True iff the data scaled by 1/t admits a Schur-class interpolant."""
    if not t > 0:
        raise DomainError("norm level t must be positive")
    return float(np.linalg.eigvalsh(_pick_at(data, t)).min()) >= PSD_TOL


def _pencil_eigh(A0, A1, eigvals_only):
    """Ascending eigenvalues (and A0-orthonormal eigenvectors unless
    eigvals_only) of the pencil (A1, A0).  _pencil's entries are always
    finite, so scipy's own finiteness check is skipped."""
    try:
        return eigh(A1, A0, eigvals_only=eigvals_only, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            "generalized eigensolve failed; the Szegő Gram matrix of the "
            f"nodes is numerically singular or ill conditioned ({exc})"
        ) from exc


def minimal_norm(data):
    """Smallest t with solvable(data, t): the sup norm of the minimal-norm
    interpolant.

    The Pick matrix at level t is A0 - A1 / t^2 (see _pencil), so t is the
    square root of the largest eigenvalue of the pencil (A1, A0), found by
    one generalized Hermitian eigensolve, scaled back by the 2^e the
    pencil divided the targets by.  The data object caches the pencil and
    that eigenvalue for is_extremal and schur_construct.  The relative
    error is below NORM_RTOL * cond(A0) = 1e-15 * cond(A0), where A0 is
    the Szegő Gram matrix of the constraints: 1e-12 at cond(A0) = 1e3,
    4e-3 for two nodes 1e-6 apart (cond(A0) = 4e12; the error there is
    4e-5).  Raises ConditioningError when A0 is not numerically positive
    definite, and DomainError when the norm overflows a float.
    """
    # A0 - A1/t^2 is PSD iff t^2 >= every eigenvalue of the pencil (A1, A0).
    return _unscaled(data, float(np.sqrt(max(data.pencil_top, 0.0))))


def is_extremal(data):
    """True iff the Pick matrix at level 1 is PSD and singular, that is,
    iff the minimal norm is 1: decided as |minimal_norm - 1| within
    EXTREMAL_RTOL * cond(A0), both read from the data's cached pencil."""
    return abs(minimal_norm(data) - 1.0) <= EXTREMAL_RTOL * data.gram_condition


def schur_construct(data):
    """Blaschke-product interpolant at the minimal norm level, realized
    from the eigenvectors of the Pick pencil (the lurking isometry).

    With A1 X = A0 X diag(mu) and X* A0 X = I, the Pick matrix at the
    level t^2 = max(mu) is H H* for H = A0 X diag(sqrt(p)),
    p = 1 - mu / t^2.  Its rank r counts the p above
    EXTREMAL_RTOL * cond(A0), is_extremal's window, and only those
    columns of H are kept.  The Pick identity
    <h_i, h_j> + v_i conj(v_j) = 1 + lam_i conj(lam_j) <h_i, h_j>, for the
    rows h_i of H and the scaled targets v_i = w_i / t, says that
    V [1; lam_i h_i] = [v_i; h_i] defines a unitary V = [[a, B], [C, D]];
    it is the colligation of f(z) = a + z B (I - z D)^-1 C, a Blaschke
    product of degree r whose zeros are conj(eig(D)).  V comes from one
    least-squares solve over all nodes, the unimodular constant from a
    least-squares fit on the nodes, and _polish_blaschke refines both.
    The interpolation residual is verified to INTERP_TOL.  The pencil and
    cond(A0) are the data's cached ones; the eigenvectors come from a
    solve of its own.
    """
    if data.derivative_constraints:
        raise DomainError(
            "schur_construct supports value constraints only; derivative "
            "data is handled by the solvability tests"
        )
    A0, A1, _ = data.pencil
    mu, X = _pencil_eigh(A0, A1, eigvals_only=False)
    if not mu[-1] > 0.0:
        raise DegenerateDataError(
            "identically zero data has no Blaschke representation"
        )
    t = _unscaled(data, float(np.sqrt(mu[-1])))
    p = 1.0 - mu / mu[-1]
    keep = p > EXTREMAL_RTOL * data.gram_condition
    H = A0 @ X[:, keep] * np.sqrt(p[keep])
    lams = np.asarray(data.nodes, dtype=complex)
    targets = np.asarray(data.targets, dtype=complex)
    values = targets / t
    # rows [1, lam_i h_i] Vt = [v_i, h_i], so Vt is V transposed
    Vt, *_ = np.linalg.lstsq(np.hstack([np.ones((len(lams), 1)), lams[:, None] * H]),
                             np.hstack([values[:, None], H]), rcond=None)
    zeros = np.conj(np.linalg.eigvals(Vt[1:, 1:]))
    if np.any(np.abs(zeros) >= 1.0 - 1e-12):
        raise ConditioningError(
            "interpolant zero on or outside the unit circle; nodes are too "
            "close to the boundary for a stable construction"
        )
    b0 = np.prod((lams[:, None] - zeros) / (1.0 - np.conj(zeros) * lams[:, None]),
                 axis=1)
    c = np.vdot(b0, values) / np.vdot(b0, b0)
    zeros, c, s = _polish_blaschke(data.nodes, values, zeros, c)
    result = BlaschkeProduct(
        zeros=tuple(zeros), unimodular_constant=c, scale=t * s
    )
    resid = float(np.abs(result(lams) - targets).max())
    if resid > INTERP_TOL * max(1.0, t):
        raise ConditioningError(
            f"interpolation residual {resid:.3e} exceeds {INTERP_TOL:.0e}"
        )
    return result


def _polish_blaschke(nodes, values, zeros, c):
    """Gauss-Newton refinement of Blaschke zeros, phase, and scale.

    The realization in schur_construct seeds the zeros to a few units
    of rounding times the conditioning of the data; the level it is
    built at is itself rounded.  Refining zeros, the phase of c, and a
    free scale factor together restores machine precision at the nodes.
    Returns the seed unchanged when it already fits to 1e-13, and falls
    back to it on any failure.
    """
    lams = np.array(nodes, dtype=complex)
    vals = np.array(values, dtype=complex)
    a = np.array(zeros, dtype=complex)
    th = float(np.angle(c))
    ls = 0.0
    k = len(a)

    def model(a_, th_, ls_):
        out = np.exp(ls_ + 1j * th_) * np.ones_like(lams)
        for j in range(k):
            out = out * (lams - a_[j]) / (1.0 - np.conj(a_[j]) * lams)
        return out

    best = (a.copy(), th, ls)
    best_res = float(np.max(np.abs(model(a, th, ls) - vals)))
    if best_res < 1e-13 * max(1.0, float(np.max(np.abs(vals)))):
        return list(a), np.exp(1j * th), 1.0
    try:
        for _ in range(25):
            f = model(a, th, ls)
            r = f - vals
            res = float(np.max(np.abs(r)))
            if res < best_res:
                best = (a.copy(), th, ls)
                best_res = res
            if res < 1e-14:
                break
            # zero j's columns: the other factors times the derivative of
            # b_j = (lam - a_j) / (1 - conj(a_j) lam) in x_j and y_j
            # (a_j = x_j + i y_j), so they stay finite when a zero sits
            # on a node
            den = 1.0 - np.conj(a)[:, None] * lams[None, :]
            fac = (lams[None, :] - a[:, None]) / den
            ones = np.ones((1, len(lams)), dtype=complex)
            before = np.cumprod(np.vstack([ones, fac[:-1]]), axis=0)
            after = np.cumprod(np.vstack([ones, fac[:0:-1]]), axis=0)[::-1]
            rest = np.exp(ls + 1j * th) * before * after
            conj_part = fac * lams[None, :] / den
            cols = np.empty((2 * k + 2, len(lams)), dtype=complex)
            cols[0:2 * k:2] = rest * (-1.0 / den + conj_part)
            cols[1:2 * k:2] = rest * (-1j / den - 1j * conj_part)
            cols[-2] = 1j * f
            cols[-1] = f
            J = cols.T
            if not np.all(np.isfinite(J)):
                break
            Jr = np.vstack([J.real, J.imag])
            rr = np.concatenate([r.real, r.imag])
            step, *_ = np.linalg.lstsq(Jr, -rr, rcond=None)
            damp = 1.0
            for _ in range(8):
                a_new = a + damp * (step[0:2 * k:2] + 1j * step[1:2 * k:2])
                th_new = th + damp * step[-2]
                ls_new = ls + damp * step[-1]
                if np.all(np.abs(a_new) < 1.0 - 1e-12) and abs(ls_new) < 0.5:
                    r_new = float(np.max(np.abs(model(a_new, th_new, ls_new) - vals)))
                    if r_new < res:
                        a, th, ls = a_new, th_new, ls_new
                        break
                damp *= 0.5
            else:
                break
    except (np.linalg.LinAlgError, FloatingPointError, ZeroDivisionError):
        pass
    if float(np.max(np.abs(model(a, th, ls) - vals))) > best_res:
        a, th, ls = best
    return list(a), np.exp(1j * th), float(np.exp(ls))


@dataclasses.dataclass(frozen=True)
class CPDataOrigin:
    """Infinitesimal data at the origin: directions v^k with prescribed
    derivative values u^k for a map psi with psi(0) = 0."""

    vectors: tuple
    targets: tuple

    def __post_init__(self):
        vecs = tuple(tuple(complex(x) for x in v) for v in self.vectors)
        targs = tuple(complex(u) for u in self.targets)
        if len(vecs) != len(targs):
            raise DomainError("need one target per direction vector")
        if len(vecs) == 0:
            raise DegenerateDataError("empty infinitesimal data")
        dims = {len(v) for v in vecs}
        if len(dims) != 1:
            raise DomainError("direction vectors have mixed dimensions")
        if not all(map(cmath.isfinite, sum(vecs, targs))):
            raise DomainError("direction vectors and targets must be finite")
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "targets", targs)

    @property
    def d(self):
        return len(self.vectors[0])


def infinitesimal_extremal_origin(data):
    """Minimal l1 coefficient norm matching the origin derivative data.

    Returns (minimum, extremal, witness): a c with c . v^k = u^k, its
    ||c||_1, within L1_BRACKET_RTOL * max(1, ||c||_1) of the least such
    norm, and whether the bracket's lower end reaches 1 - 1e-9.  A self-map
    of the polydisk fixing 0 with these derivatives exists iff the least
    norm is at most 1.  The bracket comes from a barrier path on the dual,
    max Re<y, Q* u> subject to |(V* Q y)_r| < 1 with Q spanning the range
    of V: each strictly feasible y bounds the least norm from below, and
    each Newton step gives a c with V c = u (barrier gradient plus Hessian
    times step, over tau) bounding it from above.  Raises ConditioningError
    with the bracket when L1_NEWTON_BUDGET steps do not close it.
    """
    V = np.array(data.vectors, dtype=complex)
    u = np.array(data.targets, dtype=complex)
    c, *_ = np.linalg.lstsq(V, u, rcond=None)
    if np.linalg.norm(V @ c - u) > 1e-9 * max(1.0, np.linalg.norm(u)):
        raise InfeasibleConstraintsError("constraint system V c = u has no solution")
    Q, sv, _ = np.linalg.svd(V, full_matrices=False)
    Q = Q[:, sv > 1e-12 * sv[0]]
    Wh, ut = np.conj(V.T) @ Q, np.conj(Q.T) @ u
    # real form: x = [Re y; Im y] maps to a = [Re V*Qy; Im V*Qy] = A x
    A = np.block([[Wh.real, -Wh.imag], [Wh.imag, Wh.real]])
    b = np.concatenate([ut.real, ut.imag])
    same = np.tile(np.eye(V.shape[1]), (2, 2))
    x, tau = np.zeros(A.shape[1]), 1.0
    for _ in range(L1_NEWTON_BUDGET):
        a = A @ x
        s = np.tile(1.0 - np.sum(a.reshape(2, -1) ** 2, axis=0), 2)
        # gradient and Hessian of -sum_r log(1 - |a_r|^2) in a
        g = 2.0 * a / s
        H = np.diag(2.0 / s) + 4.0 * same * np.outer(a / s, a / s)
        rhs = tau * b - A.T @ g
        step = np.linalg.solve(A.T @ H @ A, rhs)
        cr = (g + H @ (A @ step)) / tau
        c = np.array([1.0, 1j]) @ cr.reshape(2, -1)
        lower, upper = float(b @ x), float(np.sum(np.abs(c)))
        if upper - lower <= L1_BRACKET_RTOL * max(1.0, upper):
            return upper, lower >= 1.0 - 1e-9, tuple(c)
        dec = float(step @ rhs)
        x = x + step / (1.0 + np.sqrt(dec))
        if dec < 0.25:
            tau *= 10.0
    raise ConditioningError(f"l1 bracket [{lower:.17g}, {upper:.17g}] did not close "
                            f"in {L1_NEWTON_BUDGET} Newton steps")
