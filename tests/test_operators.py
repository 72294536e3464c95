"""Tests for Ando-tuple construction from dual kernels, polynomial
functional calculus, and the von Neumann inequality checks."""

from pathlib import Path

import numpy as np
import pytest

from polydisklab import (
    Polynomial,
    PolyPickData,
    agler_feasible,
    apply_node_values,
    build_tuple_from_kernel,
    defect_identity_residual,
    evaluate_function,
    random_polynomial,
    sample_schur_agler_function,
    sup_on_torus,
    violation_witness,
    von_neumann_check,
)
from polydisklab.errors import (
    ConditioningError,
    DimensionMismatchError,
    DomainError,
    UndecidedError,
)
from polydisklab import operators
from polydisklab._serialize import dumps_canonical
from polydisklab.polynomials import _coefficient_stack, effective_torus_grid

GOLDEN = Path(__file__).resolve().parent / "golden"

CANONICAL = PolyPickData(d=2, nodes=((0.0, 0.0), (0.5, 0.5)), targets=(0.0, 0.7))


@pytest.fixture(scope="module")
def optimal_kernel():
    out = agler_feasible(CANONICAL, t=1.0, optimal_certificate=True)
    return out.kernel


@pytest.fixture(scope="module")
def canonical_tuple(optimal_kernel):
    return build_tuple_from_kernel(optimal_kernel, CANONICAL.nodes)


def _random_tuple(rng, d):
    """The tuple of a random unit-diagonal PD kernel on 2-4 random nodes."""
    n = int(rng.integers(2, 5))
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    K = A @ A.conj().T + n * np.eye(n)
    dg = np.sqrt(np.diag(K).real)
    r = 0.8 * np.sqrt(rng.random((n, d)))
    th = 2 * np.pi * rng.random((n, d))
    nodes = tuple(tuple(r[i] * np.exp(1j * th[i])) for i in range(n))
    return build_tuple_from_kernel(K / np.outer(dg, dg), nodes)


class TestBuildTuple:
    def test_invariants_hold(self, canonical_tuple):
        res = canonical_tuple.verify()
        assert res["eigen_residual"] <= 1e-10
        assert res["commutation_residual"] <= 1e-10
        assert res["gram_residual"] <= 1e-10
        assert res["contraction_excess"] <= 1e-9

    def test_matrices_have_node_eigenvalues(self, canonical_tuple):
        for j, T in enumerate(canonical_tuple.matrices):
            eigs = np.sort_complex(np.linalg.eigvals(T))
            want = np.sort_complex(
                np.array([p[j] for p in canonical_tuple.nodes])
            )
            assert np.allclose(eigs, want, atol=1e-10)

    def test_random_pd_kernels(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            res = _random_tuple(rng, 2).verify()
            assert res["commutation_residual"] <= 1e-10
            assert res["gram_residual"] <= 1e-10

    def test_singular_kernel_rejected(self):
        with pytest.raises(ConditioningError):
            build_tuple_from_kernel(np.ones((2, 2)), ((0.0, 0.0), (0.5, 0.5)))

    def test_non_hermitian_rejected(self):
        K = np.array([[1.0, 0.5], [0.1, 1.0]], dtype=complex)
        with pytest.raises(DomainError):
            build_tuple_from_kernel(K, ((0.0, 0.0), (0.5, 0.5)))

    def test_node_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            build_tuple_from_kernel(np.eye(2), ((0.0, 0.0),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.2, np.nan)])
    def test_non_finite_input_rejected_before_factoring(self, bad, monkeypatch):
        # a NaN used to escape as LinAlgError("SVD did not converge")
        def refuse(*args, **kwargs):
            raise AssertionError("factorisation reached")

        for name in ("eigvalsh", "cholesky", "inv", "svd", "norm"):
            monkeypatch.setattr(np.linalg, name, refuse)
        K = np.array([[1.0, 0.2], [0.2, 1.0]], dtype=complex)
        nodes = ((0.1, 0.2), (0.3, 0.1))
        K_bad = K.copy()
        K_bad[0, 1] = bad
        with pytest.raises(DomainError, match="kernel entries"):
            build_tuple_from_kernel(K_bad, nodes)
        with pytest.raises(DomainError, match="node coordinates"):
            build_tuple_from_kernel(K, ((0.1, bad), (0.3, 0.1)))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(np.nan, 0.0)])
    def test_non_finite_node_values_rejected(self, canonical_tuple, bad, monkeypatch):
        monkeypatch.setattr(np.linalg, "inv", lambda *a: pytest.fail("inverted"))
        with pytest.raises(DomainError, match="node values"):
            apply_node_values(canonical_tuple, [0.5, bad])


class TestFunctionalCalculus:
    def test_polynomial_matches_node_values(self, canonical_tuple):
        p = Polynomial(2, {(1, 0): 0.3, (0, 1): 0.2, (1, 1): -0.4})
        vals = np.array([p(np.array(pt)) for pt in canonical_tuple.nodes])
        direct = evaluate_function(canonical_tuple, p)
        via_values = apply_node_values(canonical_tuple, vals)
        assert np.abs(direct - via_values).max() <= 1e-12

    def test_dimension_check(self, canonical_tuple):
        with pytest.raises(DimensionMismatchError):
            evaluate_function(canonical_tuple, Polynomial(3, {(1, 0, 0): 1.0}))
        with pytest.raises(DomainError):
            evaluate_function(canonical_tuple, "not a polynomial")
        with pytest.raises(DimensionMismatchError):
            apply_node_values(canonical_tuple, np.array([1.0, 2.0, 3.0]))

    def test_defect_identity_random_draws(self, canonical_tuple):
        rng = np.random.default_rng(55)
        n = len(canonical_tuple.nodes)
        for _ in range(50):
            p = random_polynomial(rng, 2, int(rng.integers(1, 5)))
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert defect_identity_residual(canonical_tuple, p, c) <= 1e-9


class TestVonNeumann:
    def test_ratio_stays_below_one(self, canonical_tuple):
        report = von_neumann_check(canonical_tuple, samples=100, seed=2)
        assert report.max_ratio <= 1.0 + 1e-6
        assert report.max_ratio > 0.0
        assert report.samples == 100
        assert report.grid == effective_torus_grid(2)
        assert isinstance(report.worst_function, Polynomial)

    def test_worst_function_ratio_reproduces(self, canonical_tuple):
        report = von_neumann_check(canonical_tuple, samples=50, seed=4)
        p = report.worst_function
        sup = sup_on_torus(p)
        norm = float(np.linalg.norm(evaluate_function(canonical_tuple, p), 2))
        assert norm / sup == pytest.approx(report.max_ratio, rel=1e-14)

    def test_no_samples(self, canonical_tuple):
        report = von_neumann_check(canonical_tuple, samples=0, seed=3)
        assert report.max_ratio == -np.inf
        assert report.worst_function is None
        assert report.samples == 0
        assert report.grid == effective_torus_grid(2)

    def test_one_sample(self, canonical_tuple):
        # the first draw of seed 3, a dense degree-2 polynomial, and the
        # ratio the per-sample loop gave for it
        report = von_neumann_check(canonical_tuple, samples=1, seed=3)
        assert report.max_ratio == pytest.approx(0.4418432433450217, rel=1e-14)
        assert report.worst_function.to_payload() == {"d": 2, "terms": [
            [0, 0, 0.41809884672577885, -0.5677696061279298],
            [0, 1, -0.45264929211044586, -0.2155971630897659],
            [0, 2, -2.019986129147251, -0.23193237764418947],
            [1, 0, -0.8652130762749417, 3.3229995166448827],
            [1, 1, 0.22578661322792176, -0.3526307943415954],
            [2, 0, -0.2812874181513504, -0.6680463461089501],
        ]}
        assert report.samples == 1

    def test_colligation_draws_are_unchanged(self, canonical_tuple):
        # the von Neumann samples and the Schur-Agler transfer functions
        # draw their random unitary colligations from one helper; the
        # recorded values (tests/golden/colligation_draws.json) pin those
        # draws exactly.  At this seed the worst function is a Taylor
        # truncation of a transfer function.
        report = von_neumann_check(canonical_tuple, samples=30, seed=2)
        values = [
            sample_schur_agler_function(np.random.default_rng(seed), 3)(
                (0.3 + 0.1j, -0.2j, 0.5)
            )
            for seed in range(8)
        ]
        got = dumps_canonical({
            "von_neumann_check": {
                "max_ratio": report.max_ratio,
                "worst_function": report.worst_function.to_payload(),
            },
            "sample_schur_agler_function": values,
        })
        assert got == (GOLDEN / "colligation_draws.json").read_text()


def _sample_suprema(d, samples, seed):
    """The samples of von_neumann_check and the supremum of each, from
    one sup_on_torus call on the whole batch."""
    rng = np.random.default_rng(seed)
    C, taylor = operators._draw_samples(rng, d, samples, operators.VN_MAX_DEGREE)
    polys = [operators._sample_polynomial(row, t) for row, t in zip(C, taylor)]
    return polys, sup_on_torus(polys)


def _exhaustive_check(tup, polys, sups):
    """von_neumann_check without pruning: every ratio from the exact
    suprema, then the first sample of the largest."""
    kept = np.flatnonzero(sups > 0.0)
    C = _coefficient_stack([polys[i] for i in kept])
    norms = np.linalg.svd(operators._function_values(tup, C), compute_uv=False)[:, 0]
    ratios = norms / sups[kept]
    i = int(np.argmax(ratios))
    return float(ratios[i]), polys[kept[i]]


class TestPrunedVonNeumann:
    """The pruned check against the exhaustive one, bit for bit."""

    def _assert_same(self, tup, samples, seed, oracle):
        report = von_neumann_check(tup, samples=samples, seed=seed)
        ratio, worst = _exhaustive_check(tup, *oracle)
        assert report.max_ratio.hex() == ratio.hex()
        assert report.worst_function.coeffs == worst.coeffs

    @pytest.mark.parametrize("d, tuples, seeds, samples", [
        (2, 8, 8, 60),
        (3, 4, 4, 12),
    ])
    def test_matches_the_exhaustive_check(self, canonical_tuple, d, tuples, seeds,
                                          samples):
        # the samples, and so the oracle's suprema, depend on the seed only
        rng = np.random.default_rng(100 + d)
        tups = [_random_tuple(rng, d) for _ in range(tuples)]
        if d == 2:
            tups[0] = canonical_tuple
        for seed in range(seeds):
            oracle = _sample_suprema(d, samples, seed)
            for tup in tups:
                self._assert_same(tup, samples, seed, oracle)

    def test_zero_and_one_term_samples(self, canonical_tuple, monkeypatch):
        # a quarter of the samples become the zero polynomial and another
        # quarter keep their largest term only (chosen from the same rng):
        # each sample is drawn as a batch of one, and its row of the stack
        # is changed in place
        draw = operators._draw_samples

        def mixed(rng, d, samples, max_degree):
            stacks, flags = [], []
            for _s in range(samples):
                C, taylor = draw(rng, d, 1, max_degree)
                k = rng.integers(12)
                if k % 4 == 0:
                    C[0] = 0.0
                elif k % 3 == 0:
                    p = operators._sample_polynomial(C[0], taylor[0])
                    e, c = max(p.coeffs.items(), key=lambda item: abs(item[1]))
                    C[0] = 0.0
                    C[(0,) + e] = c
                stacks.append(C)
                flags.append(taylor)
            return np.concatenate(stacks), np.concatenate(flags)

        monkeypatch.setattr(operators, "_draw_samples", mixed)
        rng = np.random.default_rng(7)
        tups = [canonical_tuple] + [_random_tuple(rng, 2) for _ in range(3)]
        for seed in range(4):
            oracle = _sample_suprema(2, 40, seed)
            assert any(len(p.coeffs) == 1 for p in oracle[0])
            assert any(not p.coeffs for p in oracle[0])
            for tup in tups:
                self._assert_same(tup, 40, seed, oracle)

    def test_few_samples_get_an_exact_supremum(self, canonical_tuple, monkeypatch):
        calls = []
        exact = operators._torus_suprema

        def counted(polys, shape):
            calls.append(len(polys))
            return exact(polys, shape)

        monkeypatch.setattr(operators, "_torus_suprema", counted)
        von_neumann_check(canonical_tuple, samples=1000, seed=105)
        assert 1 <= sum(calls) < 50

    @pytest.mark.parametrize("samples", [-3, 2.5, "10", True, None])
    def test_samples_must_be_a_nonnegative_integer(self, canonical_tuple, samples):
        with pytest.raises(DomainError):
            von_neumann_check(canonical_tuple, samples=samples)

    def test_numpy_integer_samples(self, canonical_tuple):
        report = von_neumann_check(canonical_tuple, samples=np.int64(1), seed=3)
        assert report.max_ratio == von_neumann_check(
            canonical_tuple, samples=1, seed=3).max_ratio


class TestViolationWitness:
    def test_canonical_violation(self):
        w = violation_witness(CANONICAL, t=1.0)
        assert w.f_norm >= 1.4 - 1e-3
        assert w.tight_bound <= w.f_norm + 1e-9
        assert w.tight_bound > 1.0
        assert w.printed_bound_holds
        assert w.contraction_excess <= 1e-9
        assert w.kernel.violation < 0

    def test_witness_vector_certifies(self):
        w = violation_witness(CANONICAL, t=1.0)
        # the witness vector realizes the negative defect eigenvalue
        targets = np.asarray(CANONICAL.targets, complex)
        b0 = 1.0 - np.outer(targets, np.conj(targets))
        A = b0 * w.kernel.K
        A = 0.5 * (A + A.conj().T)
        u = np.conj(w.witness_vector)
        quad = float(np.real(np.vdot(u, A @ u)))
        assert quad < 0.0

    def test_feasible_data_rejected(self):
        data = PolyPickData(d=2, nodes=((0.0, 0.0), (0.5, 0.5)),
                            targets=(0.0, 0.5))
        with pytest.raises(DomainError):
            violation_witness(data, t=1.0)

    def test_borderline_level_is_undecided_or_resolved(self):
        # within ~1e-6 of the critical level the engine may legitimately
        # stall; both a clean answer and UndecidedError are acceptable,
        # but a wrong certificate is not.
        t = 1.3999999
        try:
            w = violation_witness(CANONICAL, t=t)
            assert w.f_norm > 1.0
        except (UndecidedError, DomainError):
            pass
