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
from polydisklab._serialize import dumps_canonical
from polydisklab.polynomials import effective_torus_grid

GOLDEN = Path(__file__).resolve().parent / "golden"

CANONICAL = PolyPickData(d=2, nodes=((0.0, 0.0), (0.5, 0.5)), targets=(0.0, 0.7))


@pytest.fixture(scope="module")
def optimal_kernel():
    out = agler_feasible(CANONICAL, t=1.0, optimal_certificate=True)
    return out.kernel


@pytest.fixture(scope="module")
def canonical_tuple(optimal_kernel):
    return build_tuple_from_kernel(optimal_kernel, CANONICAL.nodes)


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
            n = int(rng.integers(2, 5))
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            K = A @ A.conj().T + n * np.eye(n)
            dg = np.sqrt(np.diag(K).real)
            K = K / np.outer(dg, dg)
            r = 0.8 * np.sqrt(rng.random((n, 2)))
            th = 2 * np.pi * rng.random((n, 2))
            nodes = tuple(tuple(r[i] * np.exp(1j * th[i])) for i in range(n))
            tup = build_tuple_from_kernel(K, nodes)
            res = tup.verify()
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
