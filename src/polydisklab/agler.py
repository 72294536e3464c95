"""Polydisk Pick interpolation by Agler decompositions.

The data {lambda_i -> w_i} has a decomposition at norm level t when
Hermitian PSD matrices Gamma^1..Gamma^d solve

    1 - (w_i / t) conj(w_j / t) = sum_r (1 - lambda_i^r conj(lambda_j^r)) Gamma^r_ij

entrywise.  With s = 1 / t^2 the equation reads sum_r M^r o Gamma^r + s w w* = J,
which is linear in (Gamma, s).  So one barrier maximization of s over Gamma^r > 0
answers every level at once: the minimal level is 1 / sqrt(s*).  The path starts
at Gamma^r = S^r / d, s = 0, with S^r the coordinate Szego kernel, and every Newton
step stays exactly on the equality constraints (Gamma^1 is eliminated; the reduced
Newton system is solved by QR of the Hessian's square root).  Along the
path each nearly centred iterate gives a strictly feasible s from below and, from
its Newton step, a dual Y with M^r-bar o Y >= 0 whose value s + gap bounds s* from
above (Boyd & Vandenberghe, Convex Optimization, sections 10-11).

Both sides of the alternative at a level t come from that path: once s >= 1/t^2 a
convex combination of the iterate and the start is an exact decomposition, and once
s + gap < 1/t^2 the dual Y is an infeasibility kernel: a positive definite
unit-diagonal K with every [(1 - lambda_i^r conj(lambda_j^r)) K_ij] PSD and
[(1 - (w_i/t) conj(w_j/t)) K_ij] clearly indefinite.  Both certificates are
re-verified independently of the solver; a level the path cannot separate from
the minimal one stays undecided.  The path runs on the targets divided by the
power of two 2^e that the disk Pick pencil would take for them, and reads each
level t as t / 2^e, so huge and tiny targets take the path of their scaled copy.

At these sizes (n <= 12 nodes) a Newton step does little arithmetic, so it is
written for few Python-level calls, with LAPACK called directly, as the numpy
and scipy wrappers call it: with one BLAS thread the path is bitwise the same
as through them (tests/test_barrier_path.py keeps the wrapper-based step).  The
dual Y is built only for an infeasibility certificate, and a Newton system that
stops being finite ends the path undecided.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math

import numpy as np
from scipy.linalg.lapack import dgeqrf, dorgqr, dtrtrs, ztrtrs

from .disk_geometry import check_poly_point
from .errors import DegenerateDataError, DomainError, UndecidedError
from .pick_disk import _binary_exponent, _scaled

# Certificate acceptance: PSD slack for decomposition factors, entrywise
# reconstruction residual, and the violation a dual kernel must exhibit.
GAMMA_PSD_TOL = -1e-9
RECON_TOL = 1e-7
VIOLATION_TOL = -1e-8

# Relative width of the [lower bound, returned value] bracket at which the
# norm is accepted.
NORM_RTOL = 1e-9

# Barrier path: Newton steps before giving up, the squared decrement below
# which an iterate counts as centred, the factor the barrier weight grows by
# then, and the decrement at which the dual bound is read off.
NEWTON_BUDGET = 300
CENTRED = 0.25
TAU_GROWTH = 20.0
DUAL_DECREMENT = 0.99

# Largest point count the solvers accept.  On d=2 retract data (nodes of
# modulus <= 0.75, pseudo-hyperbolic separation >= 0.2, exact norm 1) every
# draw tried closes the norm bracket to NORM_RTOL up to 12 nodes, in about
# half a second; from 13 nodes rounding leaves some brackets just above it.
MAX_NODES = 12

CAVEAT_D3 = "schur-agler-upper-bound"


@dataclasses.dataclass(frozen=True)
class PolyPickData:
    """Interpolation data on the d-dimensional polydisk."""

    d: int
    nodes: tuple
    targets: tuple

    def __post_init__(self):
        d = int(self.d)
        if d < 1:
            raise DomainError("need at least one coordinate")
        nodes = tuple(check_poly_point(p, d=d) for p in self.nodes)
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
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "targets", targets)

    @property
    def n(self):
        return len(self.nodes)


@dataclasses.dataclass(frozen=True)
class AglerDecomposition:
    """Feasibility certificate: PSD factors and the level they certify."""

    gammas: tuple
    t: float

    def min_eigenvalue(self):
        return min(float(np.linalg.eigvalsh(g).min()) for g in self.gammas)

    def reconstruction_residual(self, data):
        M0, b0 = _make_problem(data.nodes, data.targets, self.t)
        total = np.sum(np.array(self.gammas) * M0, axis=0)
        return float(np.abs(total - b0).max())


@dataclasses.dataclass(frozen=True)
class DualKernel:
    """Infeasibility certificate: PD unit-diagonal kernel and the
    negative eigenvalue it exposes."""

    K: np.ndarray
    violation: float

    def __post_init__(self):
        K = np.asarray(self.K, dtype=complex)
        if np.abs(np.diag(K) - 1.0).max() > 1e-12:
            raise DomainError("dual kernel must have unit diagonal")
        if float(np.linalg.eigvalsh(K).min()) <= 0.0:
            raise DomainError("dual kernel must be positive definite")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "violation", float(self.violation))


@dataclasses.dataclass(frozen=True)
class Feasible:
    decomposition: AglerDecomposition


@dataclasses.dataclass(frozen=True)
class Infeasible:
    kernel: DualKernel




def _herm(X):
    return 0.5 * (X + np.conj(np.swapaxes(X, -1, -2)))


def _coordinate_kernels(nodes):
    """M[r] = 1 - z^r (z^r)* for each coordinate r of the nodes."""
    nodes = np.asarray(nodes, dtype=complex)
    if nodes.ndim == 1:
        nodes = nodes[:, None]
    return 1.0 - nodes.T[:, :, None] * np.conj(nodes.T[:, None, :])


def _make_problem(nodes, targets, t):
    """Kernels M0 = _coordinate_kernels(nodes) and the target matrix
    b0 = 1 - wt wt* for wt = w / t.  DomainError when b0 overflows, as
    for targets past about 1e154 at a level near 1, before any
    certificate is checked against it."""
    wt = np.asarray(targets, dtype=complex) / t
    M0 = _coordinate_kernels(nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        b0 = 1.0 - np.outer(wt, np.conj(wt))
    if not np.isfinite(b0).all():
        raise DomainError("the target matrix overflows: targets too large for the level")
    return M0, b0


def _polish_dual(M0, b0, N):
    """Read a verified infeasibility kernel off a barrier-path dual point.

    The path's dual Y has conj(M^r) o Y PSD for every r, so conj(Y) is a
    PSD kernel whose cone matrices M^r o conj(Y) are PSD up to rounding.
    The Hermitized conj(N) is scaled to unit diagonal; a negative cone
    deficit is cleared by the smallest diagonal shift that covers it, and
    the result is rescaled and re-verified from scratch: positive
    definite, every M^r o K PSD to -1e-12, and a violation at or below
    VIOLATION_TOL.  Returns (K, violation), or None when a check fails.
    """
    d, n, _ = M0.shape
    min_mdiag = min(M0[r, i, i].real for r in range(d) for i in range(n))
    K0 = 0.5 * (np.conj(N) + N.T)
    dg = np.real(np.diag(K0))
    if np.any(dg <= 0):
        return None
    Dm = 1.0 / np.sqrt(dg)
    K0 = K0 * np.outer(Dm, Dm)
    cone0 = min(np.linalg.eigvalsh(_herm(M0[r] * K0)).min() for r in range(d))
    c_eye = (-cone0 + 1e-13) / min_mdiag if cone0 < 0 else 0.0
    K = K0 + c_eye * np.eye(n)
    Ds = 1.0 / np.sqrt(np.real(np.diag(K)))
    K = K * np.outer(Ds, Ds)
    if np.linalg.eigvalsh(K).min() <= 1e-12:
        return None
    cone = min(np.linalg.eigvalsh(_herm(M0[r] * K)).min() for r in range(d))
    if cone < -1e-12:
        return None
    viol = np.linalg.eigvalsh(_herm(b0 * K)).min()
    if viol > VIOLATION_TOL:
        return None
    return K, viol


def _hbasis(n):
    """Orthonormal basis of the n x n Hermitian matrices.

    Element a is coef[0, a] E[idx[0, a]] + coef[1, a] E[idx[1, a]] on
    row-major flat indices: the diagonal units, then (E_ij + E_ji)/sqrt 2
    and i (E_ij - E_ji)/sqrt 2 for i < j.
    """
    dg = np.arange(n) * (n + 1)
    iu, ju = np.triu_indices(n, 1)
    up, lo = iu * n + ju, ju * n + iu
    half, s2 = np.full(n, 0.5), np.full(len(iu), np.sqrt(0.5))
    idx = np.array([np.concatenate([dg, up, up]), np.concatenate([dg, lo, lo])])
    coef = np.array([np.concatenate([half, s2, 1j * s2]),
                     np.concatenate([half, s2, -1j * s2])])
    return idx, coef


def _hvec(X, basis):
    idx, coef = basis
    x = X.reshape(-1)
    return np.real(np.conj(coef[0]) * x[idx[0]] + np.conj(coef[1]) * x[idx[1]])


def _hmat(v, basis, n):
    idx, coef = basis
    x = np.zeros(n * n, dtype=complex)
    np.add.at(x, idx[0], coef[0] * v)
    np.add.at(x, idx[1], coef[1] * v)
    return x.reshape(n, n)


def _checked(x, info):
    """A LAPACK call's result, with its status checked; only a triangular
    solve returns info > 0, for a zero on the diagonal."""
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of a LAPACK call")
    return x


# Optimal dgeqrf and dorgqr workspaces by Newton matrix shape, filled on
# first use.  A smaller workspace makes LAPACK take its unblocked code at
# larger shapes, which rounds differently.
_QR_LWORK = {}


def _qr_lwork(m, k):
    if (m, k) not in _QR_LWORK:
        z = np.zeros((m, k))
        _QR_LWORK[m, k] = (int(dgeqrf(z, lwork=-1)[2][0]),
                           int(dorgqr(z, np.zeros(k), lwork=-1)[1][0]))
    return _QR_LWORK[m, k]


def _central_path(M, B, gammas, s):
    """Barrier path of  max s  s.t.  sum_r M^r o Gamma^r + s B = J,  Gamma^r > 0.

    Starts from the strictly feasible point (gammas, s).  Gamma^1 is
    eliminated as S^1 o (J - s B - sum_{r>1} M^r o Gamma^r), so every
    iterate satisfies the constraints to rounding; Newton steps run over
    (Gamma^2..Gamma^d, s).  The reduced Hessian is A^T A, with A stacking
    the maps dGamma^r -> inv(L^r) dGamma^r inv(L^r)*, and is factored by
    QR of A, which keeps the late, badly conditioned steps accurate.

    A step makes few Python-level calls: one batched Cholesky
    factorization of all blocks, one LAPACK triangular inverse per factor,
    one broadcast Kronecker product and two gathers for all of A, and
    LAPACK QR and triangular solves called directly, with the optimal
    workspace (_qr_lwork).  Each call is the one the numpy and scipy
    wrappers make, so every floating-point operation runs as it did
    through them.

    After each step computation it yields (s, gap, gammas, Y): when the
    Newton decrement is below 1, Y() builds the dual point from that step
    (<Y, B> = 1 and every conj(M^r) o Y PSD) and s <= s* <= s + gap;
    otherwise gap is inf and Y None.  Y is built only when called, since
    only an infeasibility certificate needs it.  Raises UndecidedError,
    with the last bracket, when the Newton budget runs out, a barrier
    block stops being positive definite, or the Newton system stops being
    finite; a non-finite step either fails the Cholesky factorization or
    makes the next Newton system non-finite.
    """
    d, n, _ = M.shape
    S0 = 1.0 / M[0]
    J = np.ones((n, n))
    P = S0[None] * M[1:]
    PB = S0 * B
    li, lc = basis = _hbasis(n)
    lc0, lc1 = np.conj(lc[0])[:, None], np.conj(lc[1])[:, None]
    nb, nf = n * n, (d - 1) * n * n
    # dGamma^1 = -sum_{r>1} P^r o dGamma^r - ds S^1 o B, with P^r = S^1 o M^r;
    # column a of block 1 is cc[0, a] E[ci[0, a]] + cc[1, a] E[ci[1, a]]
    ci = np.tile(li, (1, d - 1))
    cc = np.hstack([-lc * P[r].reshape(-1)[li] for r in range(d - 1)] or [np.zeros((2, 0))])
    ones = np.tile(_hvec(np.eye(n), basis), d)
    last = np.eye(nf + 1)[nf]
    eye = np.eye(n, dtype=complex)
    lwork = _qr_lwork(d * nb, nf + 1)
    nu = float(n * d)
    tau = nu * float(np.max(np.real(np.diag(B))))
    gam = [np.array(g, dtype=complex) for g in gammas]
    state = {"s": float(s), "gap": np.inf, "newton_steps": 0}

    def eliminate(gam, s):
        return S0 * (J - s * B - sum(M[r] * gam[r] for r in range(1, d)))

    def inverse_factors(gam):
        # trtrs on the transposed C-ordered factor, as solve_triangular calls it
        return [_checked(*ztrtrs(L.T, eye, lower=0, trans=1))
                for L in np.linalg.cholesky(np.array(gam))]

    def dual(Li0, dz, tau_d):
        W0 = np.conj(Li0.T) @ Li0
        dg0 = -sum(P[r - 1] * _hmat(dz[(r - 1) * nb:r * nb], basis, n)
                   for r in range(1, d)) - dz[nf] * PB
        Y = (W0 - W0 @ dg0 @ W0) / np.conj(M[0]) / tau_d
        return 0.5 * (Y + np.conj(Y.T))

    def undecided(message):
        return UndecidedError(message, residuals=dict(state))

    gam[0] = eliminate(gam, s)
    try:
        Li = inverse_factors(gam)
    except np.linalg.LinAlgError as exc:
        raise undecided(f"barrier path start is not positive definite: {exc}") from exc
    for step in range(NEWTON_BUDGET):
        state["newton_steps"] = step
        # K[r] = kron(inv(L^r), conj(inv(L^r))): the -log det Hessian's
        # real form on block r, gathered onto each block's columns and
        # then onto the Hermitian basis
        Ls = np.array(Li)
        K = (Ls[:, :, None, :, None] * np.conj(Ls)[:, None, :, None, :]).reshape(d, nb, nb)
        KF0 = K[0][:, ci[0]] * cc[0] + K[0][:, ci[1]] * cc[1]
        KF = K[1:, :, li[0]] * lc[0] + K[1:, :, li[1]] * lc[1]
        blocks = np.real(lc0 * KF[:, li[0]] + lc1 * KF[:, li[1]])
        A = np.zeros((d * nb, nf + 1))
        A[:nb, :nf] = np.real(lc0 * KF0[li[0]] + lc1 * KF0[li[1]])
        A[:nb, nf] = _hvec(Li[0] @ (-PB) @ np.conj(Li[0].T), basis)
        for r in range(1, d):
            A[r * nb:(r + 1) * nb, (r - 1) * nb:r * nb] = blocks[r - 1]
        gb = -A.T @ ones
        # a column sum of A is finite only when its column is
        if not np.isfinite(gb).all():
            raise undecided("barrier Newton system is not finite")
        try:
            qr, tr, _, info = dgeqrf(A, lwork=lwork[0])
            Q, _, info = dorgqr(qr, _checked(tr, info), lwork=lwork[1])
            # Q.T @ ones takes another BLAS kernel, which rounds
            # differently, when Q is F-ordered as LAPACK returns it
            Q = np.ascontiguousarray(_checked(Q, info))
            # R's transpose as the lower triangle, as solve_triangular
            # passes a C-ordered R
            Rt = np.ascontiguousarray(qr[:nf + 1, :nf + 1]).T
            a = -_checked(*dtrtrs(Rt, Q.T @ ones, lower=1, trans=1))
            c = _checked(*dtrtrs(Rt, last, lower=1, trans=1)) / qr[nf, nf]
        except np.linalg.LinAlgError as exc:
            raise undecided(f"singular barrier Newton system: {exc}") from exc
        g_a = float(np.dot(gb, a))

        def newton(tau):
            dz = tau * c - a
            return dz, max(g_a - 2.0 * tau * a[nf] + tau * tau * c[nf], 0.0)

        if step == 0 and a[nf] > 0.0:
            tau = a[nf] / c[nf]  # the weight at which the start is most central
        # the dual bound holds for any weight whose decrement is below 1;
        # the largest such weight gives the smallest gap
        disc = a[nf] * a[nf] - c[nf] * (g_a - DUAL_DECREMENT ** 2)
        if disc >= 0.0:
            tau_d = (a[nf] + np.sqrt(disc)) / c[nf]
            dz = tau_d * c - a
            gap = max((nu + float(np.dot(gb, dz))) / tau_d, 0.0)
            state["gap"] = gap
            yield s, gap, tuple(gam), functools.partial(dual, Li[0], dz, tau_d)
        else:
            yield s, np.inf, tuple(gam), None
        dz, lam2 = newton(tau)
        if lam2 < CENTRED:
            tau *= TAU_GROWTH
            dz, lam2 = newton(tau)
        lam = np.sqrt(lam2)
        alpha = 1.0 if lam < 0.25 else 1.0 / (1.0 + lam)
        dgam = [None] + [_hmat(dz[(r - 1) * nb:r * nb], basis, n) for r in range(1, d)]
        # the step stays inside the domain in exact arithmetic; rounding
        # near the boundary is met by shortening it
        for _ in range(40):
            trial = [None] + [gam[r] + alpha * dgam[r] for r in range(1, d)]
            trial_s = s + alpha * float(dz[nf])
            trial[0] = eliminate(trial, trial_s)
            try:
                Li = inverse_factors(trial)
                break
            except np.linalg.LinAlgError:
                alpha *= 0.5
        else:
            raise undecided("barrier step cannot stay positive definite")
        gam, s = trial, trial_s
        state["s"] = float(s)
    raise UndecidedError("barrier path exhausted its Newton budget",
                         iterations=NEWTON_BUDGET, residuals=dict(state))


def _start(M):
    """Strictly feasible Gamma with sum_r M^r o Gamma^r = J.

    The scaled Szego kernels S^r / d when every coordinate separates the
    nodes.  When two nodes share a coordinate S^r is singular; then the
    same path maximizes a common shift s with Gamma^r = G^r + s I from
    G^r = (S^r + I) / d, s = -1/d, and stops once s > 0.
    """
    d, n, _ = M.shape
    S = 1.0 / M
    # nodes sharing coordinate r give equal rows of M^r; rounding can let
    # a Cholesky factorization of the singular S^r succeed
    if all(len(np.unique(M[r], axis=0)) == n for r in range(d)):
        try:
            for r in range(d):
                np.linalg.cholesky(S[r])
            return S / d
        except np.linalg.LinAlgError:
            pass
    shift = np.diag(np.real(np.einsum("rii->i", M)))
    for s, gap, gam, _ in _central_path(M, shift, (S + np.eye(n)) / d, -1.0 / d):
        if s > 0.0:
            return np.array(gam) + s * np.eye(n)
        if s + gap <= 0.0:
            break
    raise UndecidedError("no strictly feasible decomposition to start the path from",
                         residuals={"shift": s, "gap": gap})


def _path_problem(data):
    """The coordinate kernels M of the nodes, the path's target part
    B = v v* for v = w / 2^e, its start, and e.

    e is the binary exponent of the largest real or imaginary part of
    the targets, as for the disk Pick pencil (pick_disk._binary_exponent),
    so v is exact and B is finite and free of underflow at any target
    scale.  The path of v reads a level t of the data as t / 2^e, and
    its norm times 2^e is the data's.  Certificates depend on w / t
    only, so they are those of the scaled data, bit for bit.
    """
    M = _coordinate_kernels(data.nodes)
    e = _binary_exponent(data.targets)
    v = _scaled(data.targets, e)
    return M, np.outer(v, np.conj(v)), _start(M), e


def agler_feasible(data, t, optimal_certificate=False):
    """Decide decomposition feasibility of the data at norm level t.

    Returns Feasible(AglerDecomposition) or Infeasible(DualKernel); both
    certificates are re-verified against their defining inequalities
    before being returned.  Runs the barrier path of schur_agler_norm and
    stops at the first iterate that separates s* from 1/t^2; a level the
    path cannot separate raises UndecidedError with the last bracket.

    With optimal_certificate=True an infeasibility certificate is taken
    only once the path has converged, which makes the dual kernel nearly
    optimal rather than merely valid (used by the operator-theory
    pipeline, where the kernel's quality determines the exhibited
    violation).
    """
    if data.n > MAX_NODES:
        raise DomainError(f"at most {MAX_NODES} nodes supported, got {data.n}")
    if not t > 0:
        raise DomainError("norm level t must be positive")
    M0, b0 = _make_problem(data.nodes, data.targets, t)

    wmax = max(abs(w) for w in data.targets)
    if wmax > t:
        # trivially infeasible when a diagonal entry is already negative
        diag_viol = 1.0 - (wmax / t) ** 2
        if diag_viol <= VIOLATION_TOL:
            n = data.n
            K = np.eye(n, dtype=complex)
            viol = float(np.linalg.eigvalsh(_herm(b0 * K)).min())
            return Infeasible(DualKernel(K=K, violation=viol))

    M, B, start, e = _path_problem(data)
    with np.errstate(over="ignore", divide="ignore"):
        level = np.ldexp(np.float64(t), -e)
        target = 1.0 / (level * level)
    dec = AglerDecomposition(gammas=tuple(start), t=float(t))
    try:
        for s, gap, gam, Y in _central_path(M, B, start, 0.0) if wmax > 0.0 else ():
            # theta = target / s > 1 extrapolates just past the iterate (for
            # levels at the norm itself); the PSD acceptance below decides
            if s > 0.0 and target <= s * (1.0 + 1e-6):
                th = target / s
                dec = AglerDecomposition(
                    gammas=tuple(_herm(th * g + (1.0 - th) * g0)
                                 for g, g0 in zip(gam, start)),
                    t=float(t))
                min_eig = dec.min_eigenvalue()
                if min_eig >= GAMMA_PSD_TOL:
                    break
            if s + gap < target and (not optimal_certificate
                                     or gap <= 2.0 * NORM_RTOL * s):
                pol = _polish_dual(M0, b0, Y())
                if pol is not None:
                    return Infeasible(DualKernel(K=pol[0], violation=pol[1]))
        else:
            # the path only ends by a break or a raise; zero targets take the start
            min_eig = dec.min_eigenvalue()
    except UndecidedError as exc:
        exc.t = t
        raise
    if min_eig < GAMMA_PSD_TOL:
        raise UndecidedError("decomposition failed independent PSD verification", t=t)
    if dec.reconstruction_residual(data) > RECON_TOL:
        raise UndecidedError(
            "decomposition failed independent reconstruction check", t=t
        )
    return Feasible(dec)


class SchurAglerNorm(float):
    """A float tagged with the d >= 3 caveat.  undecided_probes is kept for
    callers that read it and is always 0: the norm comes from one path."""

    undecided_probes = 0

    def __new__(cls, value, caveat_flag=None):
        obj = super().__new__(cls, value)
        obj.caveat_flag = caveat_flag
        return obj


def schur_agler_norm(data):
    """Smallest level t at which the data is decomposition-feasible.

    Follows the barrier path maximizing s = 1/t^2 and returns 1/sqrt(s)
    at a strictly feasible iterate, which is an upper bound on the
    minimal level.  It stops once that value is within a relative
    NORM_RTOL of the best lower bound so far, the path's duality-gap
    bound 1/sqrt(s + gap).  A bracket that cannot close raises
    UndecidedError carrying it, scaled back to the data's units (the
    path's own s and gap stay in its units).  The path runs on the
    targets divided by 2^e (_path_problem) and the norm is scaled back
    by 2^e, so the norm of 2^k times the data is 2^k times its norm, bit
    for bit, and DomainError says when it overflows a float.  For d <= 2
    this is the minimal extension norm; for d >= 3 it is an upper bound,
    and the result carries the caveat flag saying so.
    """
    if data.n > MAX_NODES:
        raise DomainError(f"at most {MAX_NODES} nodes supported, got {data.n}")
    caveat = CAVEAT_D3 if data.d >= 3 else None
    if max(abs(w) for w in data.targets) == 0.0:
        return SchurAglerNorm(0.0, caveat_flag=caveat)
    lo, hi = 0.0, np.inf
    M, B, start, e = _path_problem(data)
    try:
        for s, gap, _, _ in _central_path(M, B, start, 0.0):
            if s > 0.0:
                hi = 1.0 / np.sqrt(s)
                lo = max(lo, 1.0 / np.sqrt(s + gap))
                if hi <= lo * (1.0 + NORM_RTOL):
                    break  # the path only ends by this break or a raise
    except UndecidedError as exc:
        with np.errstate(over="ignore"):
            exc.residuals["bracket"] = tuple(float(np.ldexp(x, e)) for x in (lo, hi))
        raise
    try:
        return SchurAglerNorm(math.ldexp(hi, e), caveat_flag=caveat)
    except OverflowError:
        raise DomainError("the Schur-Agler norm overflows: targets too large") from None


def _random_blaschke_factor(rng):
    from .disk_geometry import BlaschkeProduct

    deg = int(rng.integers(0, 3))
    zeros = tuple(
        rng.uniform(0.0, 0.9) * np.exp(2j * np.pi * rng.uniform())
        for _ in range(deg)
    )
    const = np.exp(2j * np.pi * rng.uniform())
    return BlaschkeProduct(zeros=zeros, unimodular_constant=const, scale=1.0)


def _draw_colligation(rng, d, max_block):
    """The random draws of a unitary colligation of size q + 1.

    Coordinate r owns a block of blocks[r] = 1..max_block state
    dimensions, q = sum(blocks).  Returns (blocks, Z) with Z a complex
    Gaussian (q + 1) x (q + 1) matrix; _unitary_colligations turns it
    into the colligation.
    """
    blocks = tuple(int(rng.integers(1, max_block + 1)) for _ in range(d))
    q = sum(blocks)
    Z = rng.normal(size=(q + 1, q + 1)) + 1j * rng.normal(size=(q + 1, q + 1))
    return blocks, Z


def _unitary_colligations(Z):
    """The unitary colligations [[A, B], [C, D]] of a stack of drawn Z.

    Each is the Q factor of Z with its columns phased so that R has a
    positive diagonal; a stack of Z of one size takes one np.linalg.qr
    call, which factors each matrix as a call on it alone would.
    Returns (A, B, C, D) as views of the stacked Q.
    """
    Q, Rm = np.linalg.qr(Z)
    diag = np.diagonal(Rm, axis1=-2, axis2=-1)
    Q = Q * (diag / np.abs(diag))[..., None, :]
    return Q[..., 0, 0], Q[..., 0, 1:], Q[..., 1:, 0], Q[..., 1:, 1:]


def _random_transfer_function(rng, d):
    """Transfer-function realization from a random unitary colligation.

    phi(z) = A + B Delta(z) (I - D Delta(z))^{-1} C with Delta(z) the
    block-diagonal coordinate matrix; always in the Schur-Agler unit
    ball.
    """
    blocks, Z = _draw_colligation(rng, d, 3)
    A, Bv, Cv, Dm = _unitary_colligations(Z)
    reps = np.repeat(np.arange(d), blocks)
    q = len(reps)

    def phi(point):
        delta = np.array([point[r] for r in reps], dtype=complex)
        M = np.eye(q, dtype=complex) - Dm * delta[None, :]
        y = np.linalg.solve(M, Cv)
        return complex(A + np.dot(Bv * delta, y))

    return phi


def sample_schur_agler_function(rng, d):
    """One random member of the Schur-Agler unit ball.

    Draws are mixed across coordinate Blaschke products, their convex
    averages, and transfer-function realizations.
    """
    kind = int(rng.integers(0, 3))
    if kind == 0:
        factors = [_random_blaschke_factor(rng) for _ in range(d)]

        def phi(point):
            val = 1.0 + 0.0j
            for r in range(d):
                val *= factors[r](point[r])
            return val

        return phi
    if kind == 1:
        f1 = sample_schur_agler_function(rng, d)
        f2 = sample_schur_agler_function(rng, d)
        th = rng.uniform(0.0, 1.0)

        def phi(point):
            return th * f1(point) + (1.0 - th) * f2(point)

        return phi
    return _random_transfer_function(rng, d)
