"""Tests for Agler-decomposition feasibility, the barrier-path norm, and
dual-kernel certificates on the polydisk."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from polydisklab import (
    AglerDecomposition,
    DiskPickData,
    DualKernel,
    Feasible,
    Infeasible,
    PolyPickData,
    agler_feasible,
    dual_kernel_membership_evidence,
    minimal_norm,
    sample_schur_agler_function,
    schur_agler_norm,
)
from polydisklab import agler
from polydisklab.agler import CAVEAT_D3, MAX_NODES
from polydisklab.disk_geometry import pseudo_hyperbolic
from polydisklab.errors import (
    DegenerateDataError,
    DomainError,
    UndecidedError,
)

CANONICAL = PolyPickData(d=2, nodes=((0.0, 0.0), (0.5, 0.5)), targets=(0.0, 0.7))


def random_disk(rng, n, rmax=0.9):
    r = rmax * np.sqrt(rng.random(n))
    th = 2 * np.pi * rng.random(n)
    return r * np.exp(1j * th)


class TestPolyPickData:
    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            PolyPickData(d=2, nodes=((0.0, 0.0, 0.0),), targets=(0.1,))

    def test_coincident_nodes(self):
        with pytest.raises(DegenerateDataError):
            PolyPickData(d=2, nodes=((0.1, 0.2), (0.1, 0.2)),
                         targets=(0.1, 0.2))

    def test_empty(self):
        with pytest.raises(DegenerateDataError):
            PolyPickData(d=2, nodes=(), targets=())

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            PolyPickData(d=2, nodes=((0.0, 0.0),), targets=(0.1, 0.2))

    def test_node_outside_polydisk(self):
        with pytest.raises(DomainError):
            PolyPickData(d=2, nodes=((1.2, 0.0),), targets=(0.1,))


class TestAglerFeasible:
    def test_feasible_above_critical_level(self):
        out = agler_feasible(CANONICAL, t=1.5)
        assert isinstance(out, Feasible)
        dec = out.decomposition
        assert len(dec.gammas) == 2
        assert dec.gammas[0].shape == (2, 2)
        assert dec.min_eigenvalue() >= -1e-9
        assert dec.reconstruction_residual(CANONICAL) <= 1e-7

    def test_feasible_averaging_example(self):
        # phi(z) = (z1 + z2)/2 interpolates 0 -> 0, (0.5, 0.5) -> 0.5.  The
        # norm is exactly 1, so the barrier path reaches t = 1 only in the
        # limit and the decomposition is accepted within GAMMA_PSD_TOL.
        data = PolyPickData(d=2, nodes=((0.0, 0.0), (0.5, 0.5)),
                            targets=(0.0, 0.5))
        out = agler_feasible(data, t=1.0)
        assert isinstance(out, Feasible)
        assert out.decomposition.min_eigenvalue() >= -1e-9
        assert out.decomposition.reconstruction_residual(data) <= 1e-7

    def test_infeasible_below_critical_level(self):
        out = agler_feasible(CANONICAL, t=1.0)
        assert isinstance(out, Infeasible)
        K = out.kernel.K
        assert np.abs(np.diag(K) - 1.0).max() <= 1e-12
        assert float(np.linalg.eigvalsh(K).min()) > 0.0
        assert out.kernel.violation <= -1e-8
        w = np.array(CANONICAL.targets)
        tested = (1.0 - np.outer(w, np.conj(w))) * K
        tested = 0.5 * (tested + np.conj(tested.T))
        assert float(np.linalg.eigvalsh(tested).min()) <= -1e-8

    def test_single_node_feasible(self):
        data = PolyPickData(d=2, nodes=((0.2, -0.1),), targets=(0.3,))
        out = agler_feasible(data, t=1.0)
        assert isinstance(out, Feasible)
        assert out.decomposition.reconstruction_residual(data) <= 1e-7

    def test_trivially_infeasible_shortcut(self):
        data = PolyPickData(d=2, nodes=((0.0, 0.0), (0.5, 0.5)),
                            targets=(0.0, 0.9))
        out = agler_feasible(data, t=0.5)
        assert isinstance(out, Infeasible)
        assert out.kernel.violation <= -1e-8

    def test_invalid_level(self):
        with pytest.raises(DomainError):
            agler_feasible(CANONICAL, t=0.0)
        with pytest.raises(DomainError):
            agler_feasible(CANONICAL, t=-1.0)

    def test_node_cap(self):
        n = MAX_NODES + 1
        nodes = tuple((0.8 * k / n, 0.0) for k in range(n))
        data = PolyPickData(d=2, nodes=nodes, targets=(0.0,) * n)
        with pytest.raises(DomainError):
            agler_feasible(data, t=1.0)

    def test_budget_exhaustion_is_undecided(self, monkeypatch):
        # just inside the critical level, one Newton step cannot settle it
        monkeypatch.setattr(agler, "NEWTON_BUDGET", 1)
        t = 1.4 - 1e-7
        with pytest.raises(UndecidedError) as err:
            agler_feasible(CANONICAL, t=t)
        assert err.value.t == t
        assert err.value.iterations == 1

    def test_singular_core_is_undecided(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(agler, "solve_triangular", singular)
        with pytest.raises(UndecidedError) as err:
            agler_feasible(CANONICAL, t=1.2)
        assert err.value.t == 1.2
        assert "s" in err.value.residuals
        with pytest.raises(UndecidedError) as err:
            schur_agler_norm(CANONICAL)
        assert "bracket" in err.value.residuals

    def test_shared_coordinate_certificates(self):
        # nodes 0 and 1 share their first coordinate, so the Szego start is
        # singular there and the path starts from the shifted point
        data = PolyPickData(d=2, nodes=((0.3, 0.2), (0.3, -0.4), (-0.5, 0.1)),
                            targets=(0.1, 0.3, -0.2))
        norm = float(schur_agler_norm(data))
        assert isinstance(agler_feasible(data, t=norm * 1.001), Feasible)
        assert isinstance(agler_feasible(data, t=norm * 0.999), Infeasible)


class TestSchurAglerNorm:
    def test_canonical_diagonal_value(self):
        norm = schur_agler_norm(CANONICAL)
        assert norm == pytest.approx(1.4, abs=1e-4)
        assert norm.caveat_flag is None

    def test_d1_matches_pick(self):
        rng = np.random.default_rng(203)
        for _ in range(8):
            nodes = random_disk(rng, 3, rmax=0.7)
            while min(abs(nodes[i] - nodes[j]) for i in range(3)
                      for j in range(i + 1, 3)) < 0.1:
                nodes = random_disk(rng, 3, rmax=0.7)
            targets = random_disk(rng, 3, rmax=0.8)
            ref = minimal_norm(DiskPickData(nodes=tuple(nodes),
                                            targets=tuple(targets)))
            got = schur_agler_norm(
                PolyPickData(d=1, nodes=tuple((z,) for z in nodes),
                             targets=tuple(targets))
            )
            assert got == pytest.approx(ref, abs=1e-4)

    def test_scaling_invariance(self):
        base = schur_agler_norm(CANONICAL)
        half = schur_agler_norm(
            PolyPickData(d=2, nodes=CANONICAL.nodes,
                         targets=tuple(0.5 * w for w in CANONICAL.targets))
        )
        assert half == pytest.approx(0.5 * base, abs=5e-5)

    def test_zero_targets(self):
        data = PolyPickData(d=2, nodes=((0.0, 0.0), (0.3, -0.2)),
                            targets=(0.0, 0.0))
        assert schur_agler_norm(data) == 0.0

    def test_d3_carries_caveat(self):
        data = PolyPickData(d=3, nodes=((0.0, 0.0, 0.0), (0.3, 0.3, 0.3)),
                            targets=(0.0, 0.2))
        norm = schur_agler_norm(data)
        assert norm.caveat_flag == CAVEAT_D3
        assert norm > 0.0

    def test_first_coordinate_constant_gives_disk_norm(self):
        # every node shares the first coordinate (all its Szego kernel is
        # singular), so the problem is the disk problem of the second
        z2 = (0.2, -0.4, 0.5j)
        w = (0.1, 0.3, -0.2)
        data = PolyPickData(d=2, nodes=tuple((0.3 + 0.1j, z) for z in z2),
                            targets=w)
        ref = minimal_norm(DiskPickData(nodes=z2, targets=w))
        assert float(schur_agler_norm(data)) == pytest.approx(ref, rel=1e-7)

    def test_automorphic_second_coordinate(self):
        # the second coordinate is a disk automorphism of the first and the
        # targets an automorphism of it, so the norm is exactly 1; this data
        # once made the barrier refiner raise numpy's LinAlgError
        lam = np.array([0.3 + 0.2j, -0.4 + 0.1j, 0.1 - 0.5j])
        a, c = 0.2 - 0.3j, 0.4 + 0.1j
        z2 = np.exp(1j) * (lam - a) / (1 - np.conj(a) * lam)
        w = (lam - c) / (1 - np.conj(c) * lam)
        data = PolyPickData(d=2, nodes=tuple(zip(lam, z2)), targets=tuple(w))
        norm = float(schur_agler_norm(data))
        assert 1.0 - 1e-12 <= norm <= 1.0 + 1e-9

    def test_retract_data_norm_within_tolerance(self):
        # regression: the bisection once returned 1 + 2.6e-5 on such data;
        # the documented tolerance is NORM_RTOL = 1e-9.
        # Nodes on the retract l -> (l, 0.9 u m_a(l)) with targets a
        # degree-2 Blaschke product of l: the norm is exactly 1.
        rng = np.random.default_rng(8)
        for _ in range(3):
            lam = separated_disk(rng, 8, rmax=0.75, min_rho=0.2)
            a = 0.4 * np.exp(2j * np.pi * rng.random())
            z2 = 0.9 * np.exp(2j * np.pi * rng.random()) * mobius(a, lam)
            zeros = random_disk(rng, 2, rmax=0.8)
            w = np.exp(2j * np.pi * rng.random()) * mobius(zeros[0], lam) \
                * mobius(zeros[1], lam)
            data = PolyPickData(d=2, nodes=tuple(zip(lam, z2)), targets=tuple(w))
            norm = schur_agler_norm(data)
            assert 1.0 - 1e-12 <= float(norm) <= 1.0 + 1e-9
            assert norm.undecided_probes == 0


def mobius(a, z):
    return (z - a) / (1 - np.conj(a) * z)


def separated_disk(rng, n, rmax, min_rho):
    pts = []
    while len(pts) < n:
        z = random_disk(rng, 1, rmax)[0]
        if all(pseudo_hyperbolic(z, u) >= min_rho for u in pts):
            pts.append(z)
    return np.array(pts)


DISK = st.complex_numbers(max_magnitude=0.7, allow_nan=False, allow_infinity=False)


@st.composite
def poly_problems(draw):
    """Data with d <= 2 and n <= 4 whose coordinates are separated."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(2, 4))
    nodes = draw(st.lists(st.tuples(*[DISK] * d), min_size=n, max_size=n))
    for r in range(d):
        assume(min(pseudo_hyperbolic(p[r], q[r]) for i, p in enumerate(nodes)
                   for q in nodes[:i]) >= 0.15)
    targets = draw(st.lists(st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                                               allow_infinity=False),
                            min_size=n, max_size=n))
    assume(max(abs(w) for w in targets) >= 0.05)
    return PolyPickData(d=d, nodes=tuple(nodes), targets=tuple(targets))


METAMORPHIC = settings(max_examples=6, deadline=None, derandomize=True,
                       suppress_health_check=[HealthCheck.filter_too_much,
                                              HealthCheck.too_slow])


class TestSchurAglerNormMetamorphic:
    """Invariances of the norm, to 1e-7 relative."""

    @METAMORPHIC
    @given(poly_problems())
    def test_coordinate_permutation(self, data):
        flipped = PolyPickData(d=data.d, nodes=tuple(p[::-1] for p in data.nodes),
                               targets=data.targets)
        assert float(schur_agler_norm(flipped)) == pytest.approx(
            float(schur_agler_norm(data)), rel=1e-7)

    @METAMORPHIC
    @given(poly_problems(), st.floats(0.0, 2.0 * np.pi))
    def test_target_rotation(self, data, theta):
        turned = PolyPickData(d=data.d, nodes=data.nodes,
                              targets=tuple(np.exp(1j * theta) * w for w in data.targets))
        assert float(schur_agler_norm(turned)) == pytest.approx(
            float(schur_agler_norm(data)), rel=1e-7)

    @METAMORPHIC
    @given(poly_problems(), st.floats(0.05, 20.0))
    def test_target_scaling(self, data, c):
        scaled = PolyPickData(d=data.d, nodes=data.nodes,
                              targets=tuple(-c * w for w in data.targets))
        assert float(schur_agler_norm(scaled)) == pytest.approx(
            c * float(schur_agler_norm(data)), rel=1e-7)

    @METAMORPHIC
    @given(poly_problems(), DISK, st.floats(0.0, 2.0 * np.pi))
    def test_mobius_on_each_coordinate(self, data, a, theta):
        moved = PolyPickData(
            d=data.d,
            nodes=tuple(tuple(np.exp(1j * theta) * mobius(0.7 * a, z) for z in p)
                        for p in data.nodes),
            targets=data.targets)
        assert float(schur_agler_norm(moved)) == pytest.approx(
            float(schur_agler_norm(data)), rel=1e-7)


class TestDualKernelCertificates:
    def test_unit_diagonal_enforced(self):
        with pytest.raises(DomainError):
            DualKernel(K=np.array([[2.0, 0.0], [0.0, 1.0]]), violation=-0.1)

    def test_positive_definite_enforced(self):
        with pytest.raises(DomainError):
            DualKernel(K=np.ones((2, 2)), violation=-0.1)

    def test_optimal_certificate_kernel(self):
        out = agler_feasible(CANONICAL, t=1.0, optimal_certificate=True)
        assert isinstance(out, Infeasible)
        K = out.kernel.K
        # the extremal kernel for the diagonal two-point problem
        assert abs(K[0, 1] + np.sqrt(3.0) / 2.0) < 1e-3

    def test_membership_evidence_for_certificate(self):
        out = agler_feasible(CANONICAL, t=1.0, optimal_certificate=True)
        report = dual_kernel_membership_evidence(
            out.kernel, CANONICAL.nodes, samples=300, seed=3
        )
        assert report.passed
        assert report.min_eigenvalue >= -1e-8
        assert report.samples == 300

    def test_membership_rejects_non_pd(self):
        with pytest.raises(DomainError):
            dual_kernel_membership_evidence(
                np.ones((2, 2)), CANONICAL.nodes, samples=10
            )

    def test_single_node_membership_trivial(self):
        report = dual_kernel_membership_evidence(
            np.eye(1), ((0.4, 0.1),), samples=200, seed=1
        )
        assert report.passed
        assert report.min_eigenvalue >= -1e-12


class TestSchurAglerSampler:
    def test_samples_stay_in_unit_ball(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            phi = sample_schur_agler_function(rng, 2)
            pts = np.stack(
                [random_disk(rng, 20, rmax=0.95),
                 random_disk(rng, 20, rmax=0.95)], axis=-1
            )
            vals = np.array([phi(p) for p in pts])
            assert np.max(np.abs(vals)) <= 1.0 + 1e-9
