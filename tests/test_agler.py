"""Tests for Agler-decomposition feasibility, the barrier-path norm, and
dual-kernel certificates on the polydisk."""

import math

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

NODES_SHIFT = (
    ((0.2396008594414019-0.628812828082982j), (-0.654456248852449+0.2275257996369609j),
     (-0.5113595530148575+0.04321345376465045j)),
    ((-0.12009168013213062+0.5248319887823597j), (-0.09084373149764716-0.49919442582251145j),
     (-0.06399145516560574-0.3334949273007959j)),
    ((-0.1294613345259789+0.11651516189936105j), (-0.13414339030648165-0.1448799252332865j),
     (0.07133978032811852-0.048661941040487586j)),
    ((0.46007459443586657+0.13452711846844145j), (-0.5513897038000191-0.2745496469091622j),
     (0.04806434886779523+0.001209296612224145j)),
    ((0.16560639280859754-0.0008572893073697139j), (-0.38922879691052775-0.12766921557926778j),
     (-0.03904187588013526-0.025985377387792302j)),
    ((0.05886372644587686+0.6029035469933379j), (-0.23700416591447837-0.562148186013465j),
     (-0.2637923320463766-0.2558688204559511j)),
    ((0.4881374096306398-0.07987407242485757j), (-0.6096167000233716-0.1549166889661677j),
     (0.021144277995772634-0.15082338032445683j)),
    ((0.39656877354682946-0.5896412997820134j), (-0.7168934455384375+0.14425498060571307j),
     (-0.5112127758572775-0.1675158304094776j)),
)
TARGETS_SHIFT = (
    (-0.25494744910346917+0.11401149825816047j), (-0.48437728079900394+0.12178260729656784j),
    (-0.16389651881295042-0.018126696973809257j), (0.1105948098540343+0.2688594141963596j),
    (-0.033823172291192485+0.09651318407446625j), (-0.46561478302158354+0.3172416886260163j),
    (0.1700549961582054+0.07845825164256495j), (-0.2775321483358201-0.11577728450028442j),
)


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

    @staticmethod
    def singular_from(monkeypatch, name, call):
        """Make agler's LAPACK routine name report a zero on the diagonal
        (info > 0) from its call-th call on."""
        lapack_fn, calls = getattr(agler, name), []

        def fn(*args, **kwargs):
            calls.append(None)
            x, info = lapack_fn(*args, **kwargs)
            return (x, 1) if len(calls) >= call else (x, info)

        monkeypatch.setattr(agler, name, fn)

    def assert_undecided_both_ways(self, monkeypatch, name, call, message):
        with monkeypatch.context() as mp:
            self.singular_from(mp, name, call)
            with pytest.raises(UndecidedError, match=message) as err:
                agler_feasible(CANONICAL, t=1.2)
        assert err.value.t == 1.2
        assert "s" in err.value.residuals
        with monkeypatch.context() as mp:
            self.singular_from(mp, name, call)
            with pytest.raises(UndecidedError, match=message) as err:
                schur_agler_norm(CANONICAL)
        assert "bracket" in err.value.residuals

    def test_singular_core_is_undecided(self, monkeypatch):
        # the inverse of the first Cholesky factor fails
        self.assert_undecided_both_ways(monkeypatch, "ztrtrs", 1,
                                        "start is not positive definite: singular")

    def test_singular_factor_in_step_is_undecided(self, monkeypatch):
        # every factor inverse after the start's fails, so no step length
        # keeps the blocks invertible
        self.assert_undecided_both_ways(monkeypatch, "ztrtrs", 3,
                                        "cannot stay positive definite")

    def test_singular_newton_solve_is_undecided(self, monkeypatch):
        # the solve with the R factor of the Newton matrix fails
        self.assert_undecided_both_ways(monkeypatch, "dtrtrs", 1,
                                        "singular barrier Newton system")

    def test_non_finite_factor_is_undecided(self, monkeypatch):
        # a NaN in a Cholesky factor from the fifth factorization on: the
        # path stops at the next Newton system instead of spinning on NaN
        cholesky, calls = np.linalg.cholesky, []

        def poisoned(a, *args, **kwargs):
            calls.append(None)
            L = cholesky(a, *args, **kwargs)
            if len(calls) >= 5:
                L[..., 0, 0] = np.nan
            return L

        monkeypatch.setattr(np.linalg, "cholesky", poisoned)
        with pytest.raises(UndecidedError, match="not finite") as err:
            agler_feasible(CANONICAL, t=1.5)
        assert err.value.t == 1.5
        assert "s" in err.value.residuals
        calls.clear()
        with pytest.raises(UndecidedError, match="not finite") as err:
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

    def test_shared_coordinate_start_with_factorizable_kernel(self):
        # nodes 0 and 1 share their first coordinate, yet rounding lets the
        # Cholesky factorization of the singular Szego kernel succeed; the
        # path must still start from the shifted point
        nodes = (
            ((-0.8680158228097686+0.01742944883378556j), (-0.09981871665018867-0.4719494536326993j)),
            ((-0.8680158228097686+0.01742944883378556j), (0.7729724583450617-0.2805275129478421j)),
            ((0.42562195582608264+0.7810190609170449j), (-0.17903491465368374-0.3152088349776639j)),
        )
        targets = ((-0.02314777193928619-0.6335442969875954j), (0.300726681439661+0.5212334208098313j),
                   (0.22135087261381228-0.8506477999731527j))
        data = PolyPickData(d=2, nodes=nodes, targets=targets)
        norm = float(schur_agler_norm(data))
        # restricted to the slice z1 = nodes[0][0], an interpolant is a disk
        # Schur function through the first two nodes' second coordinates
        slice_norm = minimal_norm(DiskPickData(nodes=(nodes[0][1], nodes[1][1]),
                                               targets=targets[:2]))
        assert norm >= slice_norm * (1.0 - 1e-9)
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
        norm = schur_agler_norm(data)
        assert norm == 0.0
        assert norm.decomposition is None

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


    def test_decomposition_sits_at_the_norm(self):
        # retract data l -> (l, 0.9 u m_a(l), l m_b(l)) with Blaschke
        # targets, d = 1..3: the norm's own iterate certifies it
        rng = np.random.default_rng(7)
        for d in (1, 2, 3):
            for n in (2, 4, 6):
                lam = separated_disk(rng, n, rmax=0.75, min_rho=0.2)
                a, b = random_disk(rng, 2, rmax=0.5)
                coords = (lam, 0.9 * np.exp(2j * np.pi * rng.random()) * mobius(a, lam),
                          lam * mobius(b, lam))
                zeros = random_disk(rng, 2, rmax=0.8)
                w = np.exp(2j * np.pi * rng.random()) * mobius(zeros[0], lam) \
                    * mobius(zeros[1], lam)
                data = PolyPickData(d=d, nodes=tuple(zip(*coords[:d])), targets=tuple(w))
                norm = schur_agler_norm(data)
                dec = norm.decomposition
                assert dec.t == float(norm)
                assert len(dec.gammas) == d
                assert dec.min_eigenvalue() >= agler.GAMMA_PSD_TOL
                assert dec.reconstruction_residual(data) <= agler.RECON_TOL


def times_scale(data, c):
    """The data with its targets times c; exact for a power of two c."""
    return PolyPickData(d=data.d, nodes=data.nodes,
                        targets=tuple(c * w for w in data.targets))


def certificate_bytes(res):
    if isinstance(res, Feasible):
        return "feasible", [g.tobytes() for g in res.decomposition.gammas]
    return "infeasible", res.kernel.K.tobytes(), res.kernel.violation


# canonical data, data whose nodes share their first coordinate (the path
# also builds its start) and three nodes with complex targets
SCALE_CASES = {
    "canonical": CANONICAL,
    "shared-coordinate": PolyPickData(d=2, nodes=((0.3, 0.2), (0.3, -0.4), (-0.5, 0.1)),
                                      targets=(0.1, 0.3, -0.2)),
    "complex-targets": PolyPickData(d=2, nodes=tuple(zip(NODES_SHIFT[0], NODES_SHIFT[1])),
                                    targets=TARGETS_SHIFT[:3]),
}


class TestTargetScale:
    """The barrier path runs on the targets divided by their own 2^e, so
    the norm and both certificates see w / t only, at any target scale."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(SCALE_CASES))
    def test_power_of_two_scaling_is_exact(self, name):
        data = SCALE_CASES[name]
        norm = float(schur_agler_norm(data))
        gammas = [g.tobytes() for g in schur_agler_norm(data).decomposition.gammas]
        for k in (-1000, -600, -300, 300, 600, 1000):
            scaled = schur_agler_norm(times_scale(data, 2.0 ** k))
            assert scaled == math.ldexp(norm, k)
            assert scaled.decomposition.t == float(scaled)
            assert [g.tobytes() for g in scaled.decomposition.gammas] == gammas
        for f in (0.99, 1.01):
            want = certificate_bytes(agler_feasible(data, f * norm))
            for k in (-1000, -300, 300, 1000):
                got = agler_feasible(times_scale(data, 2.0 ** k), math.ldexp(f * norm, k))
                assert certificate_bytes(got) == want

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-120, 1e-100, 1e-80, 1e80, 1e100, 1e120, 1e200])
    def test_decimal_scales_are_decided(self, scale):
        # these scales once left the path's Newton system non-finite or
        # out of budget
        data = times_scale(CANONICAL, scale)
        norm = float(schur_agler_norm(data))
        assert norm == pytest.approx(float(schur_agler_norm(CANONICAL)) * scale, rel=1e-9)
        assert isinstance(agler_feasible(data, 1.01 * norm), Feasible)
        assert isinstance(agler_feasible(data, 0.99 * norm), Infeasible)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_targets_below_the_level_are_feasible(self):
        # the level-1 target matrix of this data overflows, w / t does not
        data = times_scale(CANONICAL, 1e200)
        assert isinstance(agler_feasible(data, 1.5e200), Feasible)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_norm_is_domain_error(self):
        # the norm, 1e308 / 0.5 = 2e308, is past the largest float
        with pytest.raises(DomainError, match="overflows"):
            schur_agler_norm(PolyPickData(d=2, nodes=CANONICAL.nodes, targets=(0.0, 1e308)))


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

    def test_cone_deficit_cleared_by_diagonal_shift(self):
        # d=3 retract data of exact norm 1 (the benchmark's retract_problem
        # with default_rng(5), 3, 8, 1.0): the converged path dual misses
        # the cone by about 5e-12, and only the diagonal shift turns it
        # into a certificate; without the shift this level is undecided
        data = PolyPickData(d=3, nodes=NODES_SHIFT, targets=TARGETS_SHIFT)
        out = agler_feasible(data, 0.99, optimal_certificate=True)
        assert isinstance(out, Infeasible)
        K = out.kernel.K
        DualKernel(K=K, violation=out.kernel.violation)
        lam = np.array(data.nodes)
        for r in range(3):
            cone = (1.0 - np.outer(lam[:, r], np.conj(lam[:, r]))) * K
            cone = 0.5 * (cone + np.conj(cone.T))
            assert float(np.linalg.eigvalsh(cone).min()) >= -1e-12
        w = np.array(data.targets) / 0.99
        tested = (1.0 - np.outer(w, np.conj(w))) * K
        tested = 0.5 * (tested + np.conj(tested.T))
        assert float(np.linalg.eigvalsh(tested).min()) <= -1e-8

    def test_membership_evidence_for_certificate(self):
        # every (1 - l^r l^r*) o K of the optimal kernel is PSD; by Agler's
        # decomposition and the Schur product theorem, (1 - phi phi*) o K
        # is then PSD for every phi in the Schur-Agler ball
        out = agler_feasible(CANONICAL, t=1.0, optimal_certificate=True)
        K = out.kernel.K
        lam = np.array(CANONICAL.nodes)
        for r in range(CANONICAL.d):
            cone = (1.0 - np.outer(lam[:, r], np.conj(lam[:, r]))) * K
            cone = 0.5 * (cone + np.conj(cone.T))
            assert float(np.linalg.eigvalsh(cone).min()) >= -1e-12


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
