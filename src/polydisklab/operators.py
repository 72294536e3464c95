"""Commuting contraction tuples built from dual kernels.

An infeasibility kernel K for interpolation data turns into a tuple of
commuting matrices with the nodes as joint eigenvalues: V is the upper
Cholesky transpose of conj(K), so the columns v_i have Gram matrix
conj(K), and T_j = V diag(lambda_i^j) V^{-1}.  When every
[(1 - lambda_i^j conj(lambda_k^j)) K_ik] is PSD the T_j are contractions,
and the function sending the nodes to the targets acts on the tuple with
norm exceeding 1: an operator-level witness that the data admits no
norm-1 extension.

von_neumann_check compares ||p(T)|| against the supremum of |p| on the
unit torus over random polynomial samples; for pairs of commuting
contractions the ratio never exceeds 1, so any excess beyond roundoff is
a genuine counterexample candidate.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .agler import DualKernel, Feasible, _random_colligation, agler_feasible
from .errors import (
    ConditioningError,
    DimensionMismatchError,
    DomainError,
    UndecidedError,
)
from .polynomials import (
    Polynomial,
    _coefficient_stack,
    _refine_shape,
    _torus_lower_bounds,
    _torus_suprema,
    effective_torus_grid,
    random_polynomial,
)

# Construction invariants (joint eigenvalues, commutation, Gram match)
# and the PD floor below which the Cholesky model is untrustworthy.
INVARIANT_TOL = 1e-10
KERNEL_RANK_TOL = 1e-10

VN_SAMPLES = 1000
VN_MAX_DEGREE = 6
# von_neumann_check skips the exact supremum of a sample whose ratio
# bound is below (1 - VN_PRUNE_RTOL) times the largest ratio found.
VN_PRUNE_RTOL = 1e-9


@dataclasses.dataclass(frozen=True)
class AndoTuple:
    """Commuting matrix tuple with prescribed joint eigenvalues.

    matrices[j] has the j-th node coordinates as eigenvalues, with the
    columns of gram_vectors as the common eigenvectors; their Gram
    matrix is conj(kernel).
    """

    d: int
    matrices: tuple
    gram_vectors: np.ndarray
    nodes: tuple
    kernel: np.ndarray

    def verify(self):
        """Residuals of the defining relations.

        Returns a dict with the largest eigenvalue-relation error,
        commutator norm, Gram-matrix mismatch, and the amount by which
        any matrix exceeds contraction norm 1.
        """
        V = self.gram_vectors
        n = V.shape[1]
        eig = 0.0
        for j, T in enumerate(self.matrices):
            for i in range(n):
                lam = self.nodes[i][j]
                eig = max(eig, float(np.linalg.norm(T @ V[:, i] - lam * V[:, i])))
        comm = 0.0
        for a in range(self.d):
            for b in range(a + 1, self.d):
                Ta, Tb = self.matrices[a], self.matrices[b]
                comm = max(comm, float(np.linalg.norm(Ta @ Tb - Tb @ Ta, 2)))
        gram = float(np.abs(V.conj().T @ V - np.conj(self.kernel)).max())
        excess = max(
            0.0,
            max(float(np.linalg.norm(T, 2)) for T in self.matrices) - 1.0,
        )
        return {
            "eigen_residual": eig,
            "commutation_residual": comm,
            "gram_residual": gram,
            "contraction_excess": excess,
        }


def build_tuple_from_kernel(K, nodes):
    """Construct the model tuple for a PD kernel on the given nodes."""
    if isinstance(K, DualKernel):
        K = K.K
    K = np.asarray(K, dtype=complex)
    n = K.shape[0]
    if K.shape != (n, n):
        raise DomainError("kernel must be square")
    if len(nodes) != n:
        raise DimensionMismatchError(
            f"kernel is {n} x {n} but {len(nodes)} nodes were given"
        )
    if np.abs(K - K.conj().T).max() > 1e-12:
        raise DomainError("kernel must be Hermitian")
    lam_min = float(np.linalg.eigvalsh(K).min())
    if lam_min < KERNEL_RANK_TOL:
        raise ConditioningError(
            f"kernel minimal eigenvalue {lam_min:.3e} is below the "
            f"{KERNEL_RANK_TOL} floor; eigenvector model is unreliable"
        )
    pts = tuple(tuple(complex(c) for c in p) for p in nodes)
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise DimensionMismatchError("nodes have mixed dimensions")
    L = np.linalg.cholesky(np.conj(K))
    V = L.conj().T
    Vinv = np.linalg.inv(V)
    mats = tuple(
        V @ np.diag([p[j] for p in pts]) @ Vinv for j in range(d)
    )
    tup = AndoTuple(d=d, matrices=mats, gram_vectors=V, nodes=pts, kernel=K)
    res = tup.verify()
    for name in ("eigen_residual", "commutation_residual", "gram_residual"):
        if res[name] > INVARIANT_TOL:
            raise ConditioningError(
                f"tuple construction violated {name} = {res[name]:.3e}"
            )
    return tup


def apply_node_values(tup, values):
    """The operator V diag(values) V^{-1}: the unique function of the
    tuple taking value values[i] at joint eigenvalue i."""
    values = np.asarray(values, dtype=complex)
    if values.shape != (len(tup.nodes),):
        raise DimensionMismatchError("need one value per node")
    V = tup.gram_vectors
    return V @ np.diag(values) @ np.linalg.inv(V)


def evaluate_function(tup, p):
    """p(T_1, ..., T_d): the one-polynomial case of _function_values."""
    if not isinstance(p, Polynomial):
        raise DomainError("expected a Polynomial")
    if p.d != tup.d:
        raise DimensionMismatchError(
            f"polynomial in {p.d} variables, tuple has {tup.d}"
        )
    return _function_values(tup, _coefficient_stack([p]))[0]


def _function_values(tup, C):
    """p(T_1, ..., T_d) for every p of the coefficient stack C (see
    _coefficient_stack; polynomials in tup.d variables), as an (m, n, n)
    array.

    The table of monomials T_1^a_1 ... T_d^a_d, a up to the largest
    degree of the batch in each variable, is built once and contracted
    with the stacked coefficient tensors in one matmul.
    """
    n = tup.gram_vectors.shape[0]
    table = np.eye(n, dtype=complex)[None]
    for T, width in zip(tup.matrices, C.shape[1:]):
        powers = [np.eye(n, dtype=complex)]
        for _ in range(width - 1):
            powers.append(powers[-1] @ T)
        table = (table[:, None] @ np.stack(powers)[None]).reshape(-1, n, n)
    values = C.reshape(len(C), -1) @ table.reshape(len(table), n * n)
    return values.reshape(-1, n, n)


def defect_identity_residual(tup, p, c):
    """Mismatch between the operator defect and its kernel expression.

    For v = sum c_i v_i the defect <(I - p(T)* p(T)) v, v> equals
    sum_ij c_i conj(c_j) (1 - p_i conj(p_j)) K_ij with p_i the value of
    p at node i; returns the absolute difference of the two sides.
    """
    c = np.asarray(c, dtype=complex)
    v = tup.gram_vectors @ c
    pT = evaluate_function(tup, p)
    lhs = float(np.vdot(v, v).real - np.vdot(pT @ v, pT @ v).real)
    pvals = np.array([p(np.array(pt)) for pt in tup.nodes], dtype=complex)
    rhs_mat = (1.0 - np.outer(pvals, np.conj(pvals))) * tup.kernel
    rhs = complex(np.sum(np.outer(c, np.conj(c)) * rhs_mat))
    return abs(lhs - rhs)


def _transfer_taylor(rng, d, degree):
    """Polynomial Taylor truncation of a random transfer function.

    Expands phi(z) = A + B Delta (I - D Delta)^{-1} C as a sum over
    coordinate words and keeps total degree <= degree.
    """
    A, Bv, Cv, Dm, reps = _random_colligation(rng, d, 2)
    masks = [reps == r for r in range(d)]

    coeffs = {(0,) * d: A}
    # state[expo] = accumulated row vector B E_{r1} D E_{r2} ... D E_{rm}
    state = {}
    for r in range(d):
        e = [0] * d
        e[r] = 1
        state[tuple(e)] = Bv * masks[r]
    for _level in range(degree):
        for e, u in state.items():
            coeffs[e] = coeffs.get(e, 0.0) + u @ Cv
        if _level == degree - 1:
            break
        nxt = {}
        for e, u in state.items():
            uD = u @ Dm
            for r in range(d):
                e2 = list(e)
                e2[r] += 1
                key = tuple(e2)
                add = uD * masks[r]
                if key in nxt:
                    nxt[key] = nxt[key] + add
                else:
                    nxt[key] = add
        state = nxt
    return Polynomial(d, coeffs)


def _sample_test_polynomial(rng, d, max_degree):
    """One sample of von_neumann_check: with probability 0.7 a dense
    Gaussian polynomial of degree uniform in 1..max_degree, else a Taylor
    truncation of a random transfer function."""
    if rng.uniform() < 0.7:
        return random_polynomial(rng, d, int(rng.integers(1, max_degree + 1)))
    return _transfer_taylor(rng, d, max_degree)


@dataclasses.dataclass(frozen=True)
class VNReport:
    """Outcome of a randomized von Neumann inequality check."""

    max_ratio: float
    worst_function: Polynomial
    samples: int
    grid: int


def von_neumann_check(tup, samples=VN_SAMPLES, seed=0):
    """Largest ||p(T)|| / sup_torus |p| over random polynomials.

    Samples mix dense Gaussian polynomials with Taylor truncations of
    random transfer functions; samples must be a nonnegative integer.
    Their ||p(T)|| come from one contraction of the monomial table
    (_function_values) and one batched SVD.  The zero polynomial is
    skipped; the worst function is the first sample of the largest
    ratio, and with no sample left the ratio is -inf and the worst
    function None.  The grid resolution of the suprema is recorded on
    the report.

    Only the samples that can still be the worst get an exact supremum.
    Each sample's supremum is bounded below by max |p| on a sub-lattice
    of the torus grid (_torus_lower_bounds, batched), so
    norm / bound bounds its ratio from above (infinite for a zero
    bound).  The samples are visited by decreasing bound, and each gets
    the supremum sup_on_torus would give it in the whole batch, until
    the bound falls below (1 - VN_PRUNE_RTOL) times the largest ratio
    found.  The computed supremum falls below the lower bound by
    rounding only, far less than VN_PRUNE_RTOL, so no sample left out
    can reach the largest ratio, and the report equals the exhaustive
    check's bit for bit.
    """
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise DomainError(f"samples must be an integer, got {samples!r}")
    if samples < 0:
        raise DomainError(f"samples must be nonnegative, got {samples}")
    rng = np.random.default_rng(seed)
    polys = [
        _sample_test_polynomial(rng, tup.d, VN_MAX_DEGREE)
        for _s in range(samples)
    ]
    kept = [p for p in polys if p.coeffs]
    worst = -np.inf
    worst_i = None
    if kept:
        C = _coefficient_stack(kept)
        norms = np.linalg.svd(_function_values(tup, C), compute_uv=False)[:, 0]
        low = _torus_lower_bounds(C)
        bounds = np.divide(norms, low, out=np.full(len(kept), np.inf), where=low > 0.0)
        shape = _refine_shape(kept)
        for i in np.argsort(-bounds, kind="stable"):
            if bounds[i] < worst * (1.0 - VN_PRUNE_RTOL):
                break
            ratio = norms[i] / _torus_suprema([kept[i]], shape)[0]
            if ratio > worst or (ratio == worst and i < worst_i):
                worst, worst_i = float(ratio), i
    return VNReport(
        max_ratio=worst,
        worst_function=None if worst_i is None else kept[worst_i],
        samples=samples,
        grid=effective_torus_grid(tup.d),
    )


@dataclasses.dataclass(frozen=True)
class ViolationWitness:
    """Operator-level witness that data exceeds norm level t.

    f_norm is ||f(T)|| for the function interpolating targets / t on the
    tuple built from the infeasibility kernel; tight_bound is the
    guaranteed lower bound sqrt(1 + beta / <K c, c>) from the witness
    vector, and printed_bound_holds records whether the cruder bound
    sqrt(1 + beta lambda_min(K)) also held on this run.
    """

    kernel: DualKernel
    ando: AndoTuple
    f_norm: float
    witness_vector: np.ndarray
    tight_bound: float
    printed_bound_holds: bool
    contraction_excess: float


def violation_witness(data, t=1.0):
    """Exhibit commuting contractions on which the data forces norm > t.

    Intended for data whose minimal extension norm exceeds t by a clear
    margin (at least ~1e-4); closer calls raise UndecidedError from the
    feasibility engine.  The infeasibility kernel is taken from the late
    barrier path so the exhibited violation is near the best possible
    for this construction.
    """
    res = agler_feasible(data, t, optimal_certificate=True)
    if isinstance(res, Feasible):
        raise DomainError(
            "data is decomposition-feasible at this level; nothing to witness"
        )
    dk = res.kernel
    tup = build_tuple_from_kernel(dk.K, data.nodes)
    excess = tup.verify()["contraction_excess"]
    fT = apply_node_values(tup, np.asarray(data.targets, dtype=complex) / t)
    f_norm = float(np.linalg.norm(fT, 2))
    if f_norm <= 1.0 + 1e-6:
        raise UndecidedError(
            "certificate kernel failed to exhibit an operator violation",
            t=t,
            residuals={"f_norm": f_norm, "violation": dk.violation},
        )
    b0 = 1.0 - np.outer(
        np.asarray(data.targets, complex) / t,
        np.conj(np.asarray(data.targets, complex) / t),
    )
    A = 0.5 * (b0 * dk.K + (b0 * dk.K).conj().T)
    evals, evecs = np.linalg.eigh(A)
    u = evecs[:, 0]
    beta = -float(evals[0])
    c = np.conj(u)
    denom = float(np.real(np.vdot(u, dk.K @ u)))
    tight = float(np.sqrt(1.0 + beta / denom))
    lam_min_K = float(np.linalg.eigvalsh(dk.K).min())
    printed_holds = f_norm ** 2 >= 1.0 + beta * lam_min_K - 1e-12
    return ViolationWitness(
        kernel=dk,
        ando=tup,
        f_norm=f_norm,
        witness_vector=c,
        tight_bound=tight,
        printed_bound_holds=printed_holds,
        contraction_excess=excess,
    )
