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
the minimal one stays undecided.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.linalg import solve_triangular

from .disk_geometry import check_poly_point
from .errors import DegenerateDataError, DomainError, UndecidedError

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
        nodes = tuple(check_poly_point(p, d=d) for p in self.nodes)
        targets = tuple(complex(w) for w in self.targets)
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


def _make_problem(nodes, targets, t):
    nodes = np.asarray(nodes, dtype=complex)
    if nodes.ndim == 1:
        nodes = nodes[:, None]
    wt = np.asarray(targets, dtype=complex) / t
    M0 = 1.0 - nodes.T[:, :, None] * np.conj(nodes.T[:, None, :])
    b0 = 1.0 - np.outer(wt, np.conj(wt))
    return M0, b0


def _szego_product_kernel(M0):
    # entrywise product of the coordinate Szego kernels; PD on distinct
    # nodes, and M^r o G stays PSD for every r
    return np.prod(1.0 / M0, axis=0)


def _polish_dual(M0, b0, N):
    """Repair a dual-multiplier candidate into a verified certificate.

    Measures the cone and positivity deficits of the Hermitized
    candidate and clears them with the smallest diagonal and
    Szego-kernel additions that work, then re-verifies everything from
    scratch.  Returns (K, violation) or None when the candidate cannot
    be repaired without losing the violation.
    """
    d, n, _ = M0.shape
    G = _szego_product_kernel(M0)
    Gn = G / np.sqrt(np.outer(np.diag(G).real, np.diag(G).real))
    lam_g = np.linalg.eigvalsh(Gn).min()
    min_mdiag = min(M0[r, i, i].real for r in range(d) for i in range(n))
    for sign in (+1.0, -1.0):
        K0 = sign * 0.5 * (np.conj(N) + N.T)
        dg = np.real(np.diag(K0))
        if np.any(dg <= 0):
            continue
        Dm = 1.0 / np.sqrt(dg)
        K0 = K0 * np.outer(Dm, Dm)
        cone0 = min(
            np.linalg.eigvalsh(_herm(M0[r] * K0)).min() for r in range(d)
        )
        c_eye = max(0.0, (-cone0 + 1e-13) / min_mdiag) if cone0 < 0 else 0.0
        K1 = K0 + c_eye * np.eye(n)
        lam1 = np.linalg.eigvalsh(K1).min()
        c_g = max(0.0, (-lam1 + 1e-10) / lam_g) if lam1 <= 1e-12 else 0.0
        for boost in (1.0, 4.0, 32.0):
            K = K0 + boost * c_eye * np.eye(n) + boost * c_g * Gn
            dgK = np.real(np.diag(K))
            if np.any(dgK <= 0):
                continue
            Ds = 1.0 / np.sqrt(dgK)
            K = K * np.outer(Ds, Ds)
            if np.linalg.eigvalsh(K).min() <= 1e-12:
                continue
            cone = min(
                np.linalg.eigvalsh(_herm(M0[r] * K)).min() for r in range(d)
            )
            if cone < -1e-12:
                continue
            viol = np.linalg.eigvalsh(_herm(b0 * K)).min()
            if viol <= VIOLATION_TOL:
                return K, viol
    return None


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


def _scaled_form(Li, basis, cols):
    """Real matrix of X -> Li X Li* from the span of F into the Hermitian
    basis, for F whose column a is c[0, a] E[i[0, a]] + c[1, a] E[i[1, a]]
    with cols = (i, c).  With Li the inverse Cholesky factor of Gamma, its
    Gram matrix is the real form of the -log det Hessian, conj(W) kron W
    with W = inv(Gamma), restricted to F."""
    (li, lc), (ri, rc) = basis, cols
    K = np.kron(Li, np.conj(Li))
    KF = K[:, ri[0]] * rc[0] + K[:, ri[1]] * rc[1]
    return np.real(np.conj(lc[0])[:, None] * KF[li[0]] + np.conj(lc[1])[:, None] * KF[li[1]])


def _central_path(M, B, gammas, s):
    """Barrier path of  max s  s.t.  sum_r M^r o Gamma^r + s B = J,  Gamma^r > 0.

    Starts from the strictly feasible point (gammas, s).  Gamma^1 is
    eliminated as S^1 o (J - s B - sum_{r>1} M^r o Gamma^r), so every
    iterate satisfies the constraints to rounding; Newton steps run over
    (Gamma^2..Gamma^d, s).  The reduced Hessian is A^T A, with A stacking
    the maps dGamma^r -> inv(L^r) dGamma^r inv(L^r)*, and is factored by
    QR of A, which keeps the late, badly conditioned steps accurate.

    After each step computation it yields (s, gap, gammas, Y): when the
    Newton decrement is below 1, Y is the dual point from that step
    (<Y, B> = 1 and every conj(M^r) o Y PSD) and s <= s* <= s + gap;
    otherwise gap is inf and Y None.  Raises UndecidedError, with the
    last bracket, when the Newton budget runs out or a barrier block
    stops being positive definite.
    """
    d, n, _ = M.shape
    S0 = 1.0 / M[0]
    J = np.ones((n, n))
    P = S0[None] * M[1:]
    PB = S0 * B
    basis = _hbasis(n)
    nb, nf = n * n, (d - 1) * n * n
    # dGamma^1 = -sum_{r>1} P^r o dGamma^r - ds S^1 o B, with P^r = S^1 o M^r
    cross = (np.tile(basis[0], (1, d - 1)),
             np.hstack([-basis[1] * P[r].reshape(-1)[basis[0]]
                        for r in range(d - 1)] or [np.zeros((2, 0))]))
    ones = np.tile(_hvec(np.eye(n), basis), d)
    nu = float(n * d)
    tau = nu * float(np.max(np.real(np.diag(B))))
    gam = [np.array(g, dtype=complex) for g in gammas]
    state = {"s": float(s), "gap": np.inf, "newton_steps": 0}

    def eliminate(gam, s):
        return S0 * (J - s * B - sum(M[r] * gam[r] for r in range(1, d)))

    def inverse_factors(gam):
        return [solve_triangular(np.linalg.cholesky(g), np.eye(n), lower=True)
                for g in gam]

    gam[0] = eliminate(gam, s)
    try:
        Li = inverse_factors(gam)
    except np.linalg.LinAlgError as exc:
        raise UndecidedError(f"barrier path start is not positive definite: {exc}",
                             residuals=dict(state)) from exc
    for step in range(NEWTON_BUDGET):
        state["newton_steps"] = step
        A = np.zeros((d * nb, nf + 1))
        A[:nb, :nf] = _scaled_form(Li[0], basis, cross)
        A[:nb, nf] = _hvec(Li[0] @ (-PB) @ np.conj(Li[0].T), basis)
        for r in range(1, d):
            A[r * nb:(r + 1) * nb, (r - 1) * nb:r * nb] = _scaled_form(Li[r], basis, basis)
        gb = -A.T @ ones
        try:
            Q, R = np.linalg.qr(A)
            a = -solve_triangular(R, Q.T @ ones)
            c = solve_triangular(R, np.eye(nf + 1)[nf]) / R[nf, nf]
        except np.linalg.LinAlgError as exc:
            raise UndecidedError(f"singular barrier Newton system: {exc}",
                                 residuals=dict(state)) from exc
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
            W0 = np.conj(Li[0].T) @ Li[0]
            dg0 = -sum(P[r - 1] * _hmat(dz[(r - 1) * nb:r * nb], basis, n)
                       for r in range(1, d)) - dz[nf] * PB
            Y = (W0 - W0 @ dg0 @ W0) / np.conj(M[0]) / tau_d
            state["gap"] = gap
            yield s, gap, tuple(gam), 0.5 * (Y + np.conj(Y.T))
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
            raise UndecidedError("barrier step cannot stay positive definite",
                                 residuals=dict(state))
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
    M, _ = _make_problem(data.nodes, data.targets, 1.0)
    w = np.asarray(data.targets, dtype=complex)
    return M, np.outer(w, np.conj(w)), _start(M)


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

    M, B, start = _path_problem(data)
    target = 1.0 / (t * t)
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
                if dec.min_eigenvalue() >= GAMMA_PSD_TOL:
                    break
            if s + gap < target and (not optimal_certificate
                                     or gap <= 2.0 * NORM_RTOL * s):
                pol = _polish_dual(M0, b0, Y)
                if pol is not None:
                    return Infeasible(DualKernel(K=pol[0], violation=pol[1]))
    except UndecidedError as exc:
        exc.t = t
        raise
    if dec.min_eigenvalue() < GAMMA_PSD_TOL:
        raise UndecidedError("decomposition failed independent PSD verification", t=t)
    if dec.reconstruction_residual(data) > RECON_TOL:
        raise UndecidedError(
            "decomposition failed independent reconstruction check", t=t
        )
    return Feasible(dec)


class SchurAglerNorm(float):
    """A float tagged with the d >= 3 caveat.  undecided_probes is kept for
    callers that read it and is always 0: the norm comes from one path."""

    def __new__(cls, value, caveat_flag=None, undecided_probes=0):
        obj = super().__new__(cls, value)
        obj.caveat_flag = caveat_flag
        obj.undecided_probes = undecided_probes
        return obj


def _pairwise_lower_bound(nodes, targets):
    """Largest two-point minimal norm over node pairs.

    For each pair the one-variable two-point problem with the pair's
    Kobayashi distance gives a closed-form lower bound: the largest root
    in t^2 of  delta^2 t^4 - (2 delta^2 Re(conj(b) a) + |a - b|^2) t^2
    + delta^2 |a b|^2.
    """
    nodes = np.asarray(nodes, dtype=complex)
    if nodes.ndim == 1:
        nodes = nodes[:, None]
    targets = np.asarray(targets, dtype=complex)
    lo = float(np.max(np.abs(targets)))
    n = len(targets)
    for i in range(n):
        for j in range(i + 1, n):
            delta = np.max(
                np.abs(nodes[i] - nodes[j])
                / np.abs(1.0 - np.conj(nodes[j]) * nodes[i])
            )
            a, b = targets[i], targets[j]
            if abs(a - b) < 1e-15 or delta < 1e-15:
                continue
            d2 = delta * delta
            Bq = 2.0 * d2 * np.real(np.conj(b) * a) + abs(a - b) ** 2
            disc = max(Bq * Bq - 4.0 * d2 * d2 * abs(a * b) ** 2, 0.0)
            lo = max(lo, float(np.sqrt((Bq + np.sqrt(disc)) / (2.0 * d2))))
    return lo


def schur_agler_norm(data):
    """Smallest level t at which the data is decomposition-feasible.

    Follows the barrier path maximizing s = 1/t^2 and returns 1/sqrt(s)
    at a strictly feasible iterate, which is an upper bound on the
    minimal level.  It stops once that value is within a relative
    NORM_RTOL of the best lower bound: the larger of the path's
    duality-gap bound 1/sqrt(s + gap) and the closed-form pairwise
    bound.  A bracket that cannot close raises UndecidedError carrying
    it.  For d <= 2 this is the minimal extension norm; for d >= 3 it is
    an upper bound, and the result carries the caveat flag saying so.
    """
    if data.n > MAX_NODES:
        raise DomainError(f"at most {MAX_NODES} nodes supported, got {data.n}")
    caveat = CAVEAT_D3 if data.d >= 3 else None
    if max(abs(w) for w in data.targets) == 0.0:
        return SchurAglerNorm(0.0, caveat_flag=caveat)
    lo = _pairwise_lower_bound(data.nodes, data.targets)
    hi = np.inf
    M, B, start = _path_problem(data)
    try:
        for s, gap, _, _ in _central_path(M, B, start, 0.0):
            if s > 0.0:
                hi = 1.0 / np.sqrt(s)
                lo = max(lo, 1.0 / np.sqrt(s + gap))
                if hi <= lo * (1.0 + NORM_RTOL):
                    return SchurAglerNorm(hi, caveat_flag=caveat)
    except UndecidedError as exc:
        exc.residuals["bracket"] = (lo, hi)
        raise


def _random_blaschke_factor(rng, max_degree=2):
    from .disk_geometry import BlaschkeProduct

    deg = int(rng.integers(0, max_degree + 1))
    zeros = tuple(
        rng.uniform(0.0, 0.9) * np.exp(2j * np.pi * rng.uniform())
        for _ in range(deg)
    )
    const = np.exp(2j * np.pi * rng.uniform())
    return BlaschkeProduct(zeros=zeros, unimodular_constant=const, scale=1.0)


def _random_transfer_function(rng, d, max_block=3):
    """Transfer-function realization from a random unitary colligation.

    phi(z) = A + B Delta(z) (I - D Delta(z))^{-1} C with Delta(z) the
    block-diagonal coordinate matrix; always in the Schur-Agler unit
    ball.
    """
    blocks = [int(rng.integers(1, max_block + 1)) for _ in range(d)]
    q = sum(blocks)
    Z = rng.normal(size=(q + 1, q + 1)) + 1j * rng.normal(size=(q + 1, q + 1))
    Q, Rm = np.linalg.qr(Z)
    Q = Q * (np.diag(Rm) / np.abs(np.diag(Rm)))[None, :]
    A = Q[0, 0]
    Bv = Q[0, 1:]
    Cv = Q[1:, 0]
    Dm = Q[1:, 1:]
    reps = np.concatenate([[r] * blocks[r] for r in range(d)])

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


@dataclasses.dataclass(frozen=True)
class MembershipEvidence:
    """Sampled evidence that a kernel annihilates the Schur-Agler ball."""

    min_eigenvalue: float
    samples: int
    passed: bool
    worst_sample: int


def dual_kernel_membership_evidence(K, nodes, samples=1000, seed=0):
    """Test a dual kernel against random Schur-Agler-class functions.

    For each sampled phi the matrix [(1 - phi(l_i) conj(phi(l_j))) K_ij]
    must stay PSD; the report carries the most negative eigenvalue seen.
    This is sampled evidence over the Schur-Agler subclass, not a proof
    of cone membership.
    """
    if isinstance(K, DualKernel):
        K = K.K
    K = np.asarray(K, dtype=complex)
    if float(np.linalg.eigvalsh(K).min()) <= 0.0:
        raise DomainError("kernel must be positive definite")
    pts = [check_poly_point(p) for p in nodes]
    d = len(pts[0])
    rng = np.random.default_rng(seed)
    worst = np.inf
    worst_idx = -1
    for s in range(samples):
        phi = sample_schur_agler_function(rng, d)
        w = np.array([phi(p) for p in pts], dtype=complex)
        A = _herm((1.0 - np.outer(w, np.conj(w))) * K)
        me = float(np.linalg.eigvalsh(A).min())
        if me < worst:
            worst = me
            worst_idx = s
    return MembershipEvidence(
        min_eigenvalue=worst,
        samples=samples,
        passed=worst >= -1e-8,
        worst_sample=worst_idx,
    )
