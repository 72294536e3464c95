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
a genuine counterexample candidate.  The samples are drawn straight
into one coefficient tensor (_draw_samples): the Taylor truncations of
random transfer functions take one QR per colligation size and one
recurrence on stacked state vectors, and a Polynomial is built only for
the few samples that get an exact supremum.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools

import numpy as np

from .agler import (
    DualKernel,
    Feasible,
    _draw_colligation,
    _unitary_colligations,
    agler_feasible,
)
from .errors import (
    ConditioningError,
    DimensionMismatchError,
    DomainError,
    UndecidedError,
)
from .polynomials import (
    _COEFF_CHOP,
    Polynomial,
    _coefficient_stack,
    _dense_exponents,
    _torus_lower_bounds,
    effective_torus_grid,
    sup_on_torus,
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
    if not np.isfinite(K).all():
        raise DomainError("kernel entries must be finite")
    pts = tuple(tuple(complex(c) for c in p) for p in nodes)
    if not all(cmath.isfinite(c) for p in pts for c in p):
        raise DomainError("node coordinates must be finite")
    if np.abs(K - K.conj().T).max() > 1e-12:
        raise DomainError("kernel must be Hermitian")
    lam_min = float(np.linalg.eigvalsh(K).min())
    if lam_min < KERNEL_RANK_TOL:
        raise ConditioningError(
            f"kernel minimal eigenvalue {lam_min:.3e} is below the "
            f"{KERNEL_RANK_TOL} floor; eigenvector model is unreliable"
        )
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
    if not np.isfinite(values).all():
        raise DomainError("node values must be finite")
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


def _draw_samples(rng, d, samples, max_degree):
    """The samples of von_neumann_check, as one coefficient tensor.

    Each sample is, with probability 0.7, a dense Gaussian polynomial of
    degree uniform in 1..max_degree, drawn as random_polynomial draws
    it, else the Taylor truncation to degree max_degree of a random
    transfer function (_taylor_stack).  The rng calls go sample by
    sample, so a batch of N uses the stream exactly as N batches of one.

    Returns the (samples, max_degree + 1, ..., max_degree + 1) tensor,
    whose entry [i, a] is the coefficient of z^a in sample i as
    Polynomial would hold it (0.0 added, and zero where its modulus is
    at most _COEFF_CHOP), and a flag per sample marking the truncations,
    which _sample_polynomial needs for the order of the terms.
    """
    widths = (max_degree + 1,) * d
    dense = {}
    colligations = []
    taylor = np.zeros(samples, dtype=bool)
    for i in range(samples):
        if rng.uniform() < 0.7:
            degree = int(rng.integers(1, max_degree + 1))
            rows, draws = dense.setdefault(degree, ([], []))
            rows.append(i)
            draws.append(rng.normal(size=2 * len(_dense_exponents(d, degree))))
        else:
            taylor[i] = True
            colligations.append(_draw_colligation(rng, d, 2))
    C = np.zeros((samples,) + widths, dtype=complex)
    flat = C.reshape(samples, (max_degree + 1) ** d)
    for degree, (rows, draws) in dense.items():
        draws = np.array(draws)
        at = np.ravel_multi_index(np.array(_dense_exponents(d, degree)).T, widths)
        flat[np.array(rows)[:, None], at] = draws[:, 0::2] + 1j * draws[:, 1::2]
    C[taylor] = _taylor_stack(colligations, d, max_degree)
    C += 0.0
    C[np.hypot(C.real, C.imag) <= _COEFF_CHOP] = 0.0
    return C, taylor


def _taylor_stack(colligations, d, degree):
    """Taylor truncations of the transfer functions of drawn colligations.

    Each (blocks, Z) of colligations (see agler._draw_colligation) gives
    phi(z) = A + B Delta (I - D Delta)^{-1} C, which expands as a sum
    over coordinate words: r_1 ... r_m adds B E_{r_1} D E_{r_2} ... D
    E_{r_m} C to the coefficient of z^a, a counting the letters of the
    word and E_r the projection on coordinate r's block.  The state of
    an exponent a is the sum of the row vectors B E_{r_1} ... D E_{r_m}
    over the words of a, so on block r it is the state of a - e_r times
    D (B for a = e_r), and zero when a has no letter r.  Returns the
    coefficients of total degree <= degree as a
    (len(colligations), degree + 1, ..., degree + 1) tensor.

    The colligations are grouped by block sizes.  A group takes one
    stacked QR, and then per level one matmul for its coefficients and
    one for the states of the next level, which are gathered blockwise.
    Each (sample, state) row is its own 1 x q matmul core, so it is
    rounded as the product of that row alone.  A sum over the words
    would add exact zeros only, since the blocks are disjoint, so the
    coefficients are those of that sum bit for bit.
    """
    C = np.zeros((len(colligations),) + (degree + 1,) * d, dtype=complex)
    flat = C.reshape(len(C), (degree + 1) ** d)
    levels, parents, _order = _taylor_words(d, degree)
    groups = {}
    for i, (blocks, _Z) in enumerate(colligations):
        groups.setdefault(blocks, []).append(i)
    for blocks, rows in groups.items():
        rows = np.array(rows)
        A, Bv, Cv, Dm = _unitary_colligations(np.stack([colligations[i][1] for i in rows]))
        reps = np.repeat(np.arange(d), blocks)
        flat[rows, 0] = A
        # the level below, each state times D; for level 1, B
        below = Bv[:, None, :]
        for level, at in enumerate(levels):
            below = np.concatenate([below, np.zeros_like(below[:, :1])], axis=1)
            # contiguous rows: a strided row takes another matmul kernel,
            # which rounds differently
            state = np.ascontiguousarray(below[:, parents[level][:, reps], np.arange(len(reps))])
            flat[rows[:, None], at] = (state[:, :, None, :] @ Cv[:, None, :, None])[..., 0, 0]
            if level < degree - 1:
                below = (state[:, :, None, :] @ Dm[:, None])[:, :, 0]
    return C


@functools.lru_cache(maxsize=None)
def _taylor_words(d, degree):
    """The bookkeeping of _taylor_stack, which depends on d and degree.

    Level m = 1..degree holds one state per exponent of total degree m,
    in the order the words reach them: level m the exponents a + e_r as
    they arise from the states a of level m - 1 in order, r = 0..d-1
    for each, level 0 holding the constant.  Returns
    (levels, parents, order): levels[m - 1] holds the positions of level
    m's exponents in a flattened (degree + 1,)*d tensor; parents[m - 1]
    [t, r] is the index of a - e_r at level m - 1 for the exponent a of
    state t, or the number of states of level m - 1 when a_r = 0; order
    holds every exponent in the order of the levels.
    """
    widths = (degree + 1,) * d
    state = [(0,) * d]
    order, levels, parents = list(state), [], []
    for _level in range(degree):
        index = {}
        for e in state:
            for r in range(d):
                index.setdefault(e[:r] + (e[r] + 1,) + e[r + 1:], len(index))
        previous = {e: i for i, e in enumerate(state)}
        state = list(index)
        parents.append(np.array([
            [previous.get(e[:r] + (e[r] - 1,) + e[r + 1:], len(previous)) for r in range(d)]
            for e in state
        ]))
        levels.append(np.ravel_multi_index(np.array(state).T, widths))
        order += state
    return tuple(levels), tuple(parents), tuple(order)


def _sample_polynomial(row, taylor):
    """The Polynomial of one sample of _draw_samples (or one row of
    _taylor_stack, taylor set), its terms inserted in the order of the
    per-sample draw: the lexicographic order of random_polynomial, or
    the order of _taylor_words."""
    d, degree = row.ndim, row.shape[0] - 1
    order = _taylor_words(d, degree)[2] if taylor else _dense_exponents(d, degree)
    return Polynomial(d, {e: row[e] for e in order})


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
    They are drawn as one coefficient tensor (_draw_samples), equal bit
    for bit to the coefficients of drawing one Polynomial at a time.
    Their ||p(T)|| come from one contraction of the monomial table
    (_function_values) and one batched SVD.  The zero polynomial is
    skipped; the worst function is the first sample of the largest
    ratio, and with no sample left the ratio is -inf and the worst
    function None.  The grid resolution of the suprema is recorded on
    the report; DomainError, before any sample is drawn, for a tuple of
    6 or more operators, whose grid would break the cap
    (effective_torus_grid).

    Only the samples that can still be the worst get an exact supremum.
    Each sample's supremum is bounded below by max |p| on a sub-lattice
    of the torus grid (_torus_lower_bounds, batched), so
    norm / bound bounds its ratio from above (infinite for a zero
    bound).  The samples are visited by decreasing bound, and each gets
    its stand-alone sup_on_torus, until the bound falls below
    (1 - VN_PRUNE_RTOL) times the largest ratio found; only these
    samples become Polynomials.  The computed supremum falls below the
    lower bound by rounding only, far less than VN_PRUNE_RTOL, so no
    sample left out can reach the largest ratio, and the report equals
    the exhaustive check's bit for bit.
    """
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise DomainError(f"samples must be an integer, got {samples!r}")
    if samples < 0:
        raise DomainError(f"samples must be nonnegative, got {samples}")
    grid = effective_torus_grid(tup.d)
    rng = np.random.default_rng(seed)
    stack, taylor = _draw_samples(rng, tup.d, samples, VN_MAX_DEGREE)
    nonzero = stack != 0.0
    terms = np.count_nonzero(nonzero, axis=tuple(range(1, stack.ndim)))
    kept = np.flatnonzero(terms)
    worst = -np.inf
    worst_i = worst_function = None
    if len(kept):
        # the kept samples, cut to the largest degree in each variable
        top = np.argwhere(nonzero)[:, 1:].max(axis=0)
        C = stack[(kept,) + tuple(slice(0, a + 1) for a in top)]
        norms = np.linalg.svd(_function_values(tup, C), compute_uv=False)[:, 0]
        low = _torus_lower_bounds(C)
        bounds = np.divide(norms, low, out=np.full(len(kept), np.inf), where=low > 0.0)
        for i in np.argsort(-bounds, kind="stable"):
            if bounds[i] < worst * (1.0 - VN_PRUNE_RTOL):
                break
            p = _sample_polynomial(stack[kept[i]], taylor[kept[i]])
            ratio = norms[i] / sup_on_torus(p)
            if ratio > worst or (ratio == worst and i < worst_i):
                worst, worst_i, worst_function = float(ratio), i, p
    return VNReport(
        max_ratio=worst,
        worst_function=worst_function,
        samples=samples,
        grid=grid,
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
