"""Tests for one-variable Pick interpolation and the infinitesimal
l1 extremality test at the origin."""

import collections
import dataclasses
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import polydisklab
from polydisklab import pick_disk
from polydisklab import (
    BlaschkeProduct,
    CPDataOrigin,
    DiskPickData,
    infinitesimal_extremal_origin,
    is_extremal,
    minimal_norm,
    pick_matrix,
    schur_construct,
    solvable,
)
from polydisklab.disk_geometry import pseudo_hyperbolic
from polydisklab.errors import (
    ConditioningError,
    DegenerateDataError,
    DomainError,
    InfeasibleConstraintsError,
)
from polydisklab.pick_disk import EXTREMAL_RTOL, NORM_RTOL, _pencil, _pencil_eigh


def random_disk(rng, n, rmax=0.9):
    r = rmax * np.sqrt(rng.random(n))
    th = 2 * np.pi * rng.random(n)
    return r * np.exp(1j * th)


class TestDiskPickData:
    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            DiskPickData(nodes=(0.0, 0.5), targets=(0.1,))

    def test_empty(self):
        with pytest.raises(DegenerateDataError):
            DiskPickData(nodes=(), targets=())

    def test_coincident_nodes(self):
        with pytest.raises(DegenerateDataError):
            DiskPickData(nodes=(0.3, 0.3), targets=(0.1, 0.2))

    def test_node_outside_disk(self):
        with pytest.raises(DomainError):
            DiskPickData(nodes=(1.0,), targets=(0.5,))

    def test_bad_derivative_index(self):
        with pytest.raises(DomainError):
            DiskPickData(nodes=(0.0,), targets=(0.0,),
                         derivative_constraints=((3, 0.1),))

    def test_two_derivative_constraints_at_one_node(self):
        # refused up front, naming the node, rather than reported later as
        # a singular Szegő Gram matrix of nodes that are fine
        with pytest.raises(DegenerateDataError, match="node index 0; at most one"):
            DiskPickData(nodes=(0.1, 0.5), targets=(0.2, 0.3),
                         derivative_constraints=((0, 0.5), (0, 0.7)))


def reference_pick(nodes, targets, derivs):
    """The extended Pick matrix entry by entry: value rows, then one row
    per derivative constraint, holding the mixed Wirtinger derivatives of
    (1 - f(x) conj(f(y))) / (1 - x conj(y))."""
    n, lam, w = len(nodes), np.asarray(nodes), np.asarray(targets)
    m = n + len(derivs)
    D = 1.0 - np.outer(lam, np.conj(lam))
    N = 1.0 - np.outer(w, np.conj(w))
    A = np.zeros((m, m), dtype=complex)
    A[:n, :n] = N / D
    for a, (i, vi) in enumerate(derivs):
        for j in range(n):
            d = D[i, j]
            A[n + a, j] = -vi * np.conj(w[j]) / d + N[i, j] * np.conj(lam[j]) / d**2
            A[j, n + a] = np.conj(A[n + a, j])
        for b, (j, vj) in enumerate(derivs):
            d = D[i, j]
            A[n + a, n + b] = (-vi * np.conj(vj) / d
                               - vi * np.conj(w[j]) * lam[i] / d**2
                               - w[i] * np.conj(vj) * np.conj(lam[j]) / d**2
                               + N[i, j] / d**2
                               + 2.0 * N[i, j] * lam[i] * np.conj(lam[j]) / d**3)
    return A


class TestPickMatrix:
    def test_pencil_matches_entrywise_reference(self):
        # A0 - A1 / (t 2^-e)^2 is the Pick matrix of the data scaled by 1/t
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            nodes = random_disk(rng, n)
            targets = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            idx = sorted(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
            derivs = tuple((int(i), complex(rng.standard_normal(), rng.standard_normal()))
                           for i in idx)
            data = DiskPickData(nodes=tuple(nodes), targets=tuple(targets),
                                derivative_constraints=derivs)
            t = 0.5 + 2.0 * rng.random()
            ref = reference_pick(nodes, targets / t, [(i, v / t) for i, v in derivs])
            A0, A1, e = _pencil(data)
            assert np.abs(A0 - A1 / math.ldexp(t, -e)**2 - ref).max() <= 1e-12 * np.abs(ref).max()
            ref1 = reference_pick(nodes, targets, derivs)
            assert np.abs(pick_matrix(data) - ref1).max() <= 1e-12 * np.abs(ref1).max()


class TestMinimalNorm:
    def test_two_point_closed_form(self):
        # {0 -> 0, lam -> w} has minimal norm |w| / |lam|.
        rng = np.random.default_rng(11)
        for _ in range(200):
            lam = random_disk(rng, 1)[0]
            if abs(lam) < 0.05:
                continue
            w = random_disk(rng, 1)[0]
            data = DiskPickData(nodes=(0.0, lam), targets=(0.0, w))
            assert minimal_norm(data) == pytest.approx(abs(w) / abs(lam), abs=1e-8)

    def test_known_value(self):
        data = DiskPickData(nodes=(0.0, 0.5), targets=(0.0, 0.25))
        assert minimal_norm(data) == pytest.approx(0.5, abs=1e-8)

    def test_single_node_constant(self):
        data = DiskPickData(nodes=(0.3 + 0.1j,), targets=(0.45j,))
        assert minimal_norm(data) == pytest.approx(0.45, abs=1e-9)

    def test_zero_data(self):
        data = DiskPickData(nodes=(0.0, 0.2, -0.4j), targets=(0.0, 0.0, 0.0))
        assert minimal_norm(data) == 0.0

    def test_solvable_monotone_in_t(self):
        rng = np.random.default_rng(5)
        nodes = random_disk(rng, 4, rmax=0.8)
        targets = random_disk(rng, 4)
        data = DiskPickData(nodes=tuple(nodes), targets=tuple(targets))
        t = minimal_norm(data)
        assert not solvable(data, max(t - 1e-3, 1e-6))
        assert solvable(data, t + 1e-3)
        # the level's square overflows a float; the Pick matrix is A0
        assert solvable(data, 1e200)

    def test_derivative_constraint_oracle(self):
        # f(z) = z^2 has sup norm 1; data {0 -> 0, 0.5 -> 0.25} plus
        # f'(0.5) = 1 pins the minimal norm at 1.
        data = DiskPickData(nodes=(0.0, 0.5), targets=(0.0, 0.25),
                            derivative_constraints=((1, 1.0),))
        assert minimal_norm(data) == pytest.approx(1.0, abs=1e-6)

    def test_adding_constraint_never_decreases(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            nodes = random_disk(rng, 3, rmax=0.7)
            targets = random_disk(rng, 3, rmax=0.8)
            base = DiskPickData(nodes=tuple(nodes), targets=tuple(targets))
            dval = complex(rng.standard_normal() + 1j * rng.standard_normal())
            more = DiskPickData(nodes=tuple(nodes), targets=tuple(targets),
                                derivative_constraints=((0, dval),))
            assert minimal_norm(more) >= minimal_norm(base) - 1e-8

    def test_invalid_level(self):
        data = DiskPickData(nodes=(0.0,), targets=(0.5,))
        with pytest.raises(DomainError):
            solvable(data, 0.0)


def gram_condition(data):
    """Condition number of the Szegő Gram matrix that minimal_norm's
    documented accuracy scales with."""
    return float(np.linalg.cond(_pencil(data)[0]))


def within_documented_accuracy(t, exact, data):
    return abs(t - exact) <= NORM_RTOL * gram_condition(data) * exact


class TestMinimalNormRegressions:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("targets, derivs", [
        ((0.0, 1e308), ()),
        ((0.0, 1e200j), ()),
        ((0.0, 0.5), ((0, 1e200),)),
    ])
    def test_overflowing_pick_matrix_is_domain_error(self, targets, derivs):
        # the Pick matrix at level 1 holds the |w|^2 terms themselves, so it
        # overflows even where the minimal norm does not
        data = DiskPickData(nodes=(0.1, 0.2), targets=targets,
                            derivative_constraints=derivs)
        for solve in (pick_matrix, lambda data: solvable(data, 1.0)):
            with pytest.raises(DomainError):
                solve(data)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_norm_is_domain_error(self):
        # the norm 9.8e308 is past the largest float
        data = DiskPickData(nodes=(0.1, 0.2), targets=(0.0, 1e308))
        for solve in (minimal_norm, is_extremal, schur_construct):
            with pytest.raises(DomainError):
                solve(data)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e160, 1e200j, 1e300])
    def test_huge_targets_scale_the_norm(self, scale):
        # the norm is homogeneous in the targets; the pencil divides them
        # by a power of two and the level is scaled back
        unit = minimal_norm(DiskPickData(nodes=(0.1, 0.2), targets=(0.0, 1.0)))
        assert unit == pytest.approx(9.8, rel=1e-14)
        data = DiskPickData(nodes=(0.1, 0.2), targets=(0.0, scale))
        norm = abs(scale) * unit
        assert minimal_norm(data) == pytest.approx(norm, rel=1e-15)
        assert not is_extremal(data)
        assert schur_construct(data).scale == pytest.approx(norm, rel=1e-14)
        assert solvable(data, 1.01 * norm) and not solvable(data, 0.99 * norm)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_derivative_values_scale_the_norm(self):
        small = DiskPickData(nodes=(0.0, 0.5), targets=(0.0, 0.5),
                             derivative_constraints=((0, 2.0),))
        huge = DiskPickData(nodes=(0.0, 0.5), targets=(0.0, 0.5e200),
                            derivative_constraints=((0, 2e200),))
        assert minimal_norm(huge) == pytest.approx(1e200 * minimal_norm(small),
                                                   rel=1e-14)

    def test_large_norm_returns(self):
        # nodes 1e-6 apart: the norm 9e5 is far above any fixed bracket, and
        # an absolute stopping tolerance sits below the float spacing there
        code = ("from polydisklab import DiskPickData, minimal_norm; "
                "print(repr(minimal_norm(DiskPickData(nodes=(0.0, 1e-6), "
                "targets=(0.0, 0.9)))))")
        src = os.path.dirname(os.path.dirname(polydisklab.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=30,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.returncode == 0, out.stderr
        t = float(out.stdout)
        data = DiskPickData(nodes=(0.0, 1e-6), targets=(0.0, 0.9))
        assert within_documented_accuracy(t, 9e5, data)

    @pytest.mark.parametrize("gap", [1e-5, 2e-6])
    def test_close_nodes_within_documented_accuracy(self, gap):
        data = DiskPickData(nodes=(0.0, gap), targets=(0.0, 0.9))
        assert within_documented_accuracy(minimal_norm(data), 0.9 / gap, data)

    @pytest.mark.parametrize("nodes", [(0.0, 1e-9), (0.3, 0.3 + 1e-9),
                                       (0.5j, 0.5j + 1e-9, -0.2)])
    def test_nearly_coincident_nodes(self, nodes):
        # the Szegő Gram matrix is singular to working precision: the
        # eigensolver's failure surfaces as the documented error
        data = DiskPickData(nodes=nodes, targets=(0.0, 0.5, 0.1)[:len(nodes)])
        try:
            t = minimal_norm(data)
        except ConditioningError:
            return
        assert np.isfinite(t) and t > 0.0

    def test_eigensolver_failure_is_conditioning_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(pick_disk, "eigh", fail)
        data = DiskPickData(nodes=(0.0, 0.5), targets=(0.0, 0.25))
        for solve in (minimal_norm, is_extremal, schur_construct):
            with pytest.raises(ConditioningError):
                solve(data)

    def test_mpmath_brackets_the_norm(self):
        # value-only data on clustered nodes (Gram condition 1.5e8): at 50
        # digits the Pick matrix is PSD 1e-9 above the computed norm and
        # not PSD 1e-9 below it
        data = DiskPickData(nodes=(0.0, 0.01, 0.02j), targets=(0.1, 0.3, -0.2j))
        t = mpmath.mpf(minimal_norm(data))
        with mpmath.workdps(50):
            lam = [mpmath.mpc(z) for z in data.nodes]
            w = [mpmath.mpc(z) for z in data.targets]

            def min_eig(level):
                A = mpmath.matrix(
                    [[(1 - wi * mpmath.conj(wj) / level**2)
                      / (1 - li * mpmath.conj(lj))
                      for lj, wj in zip(lam, w)] for li, wi in zip(lam, w)])
                return min(mpmath.eighe(A, eigvals_only=True))

            assert min_eig(t * (1 + mpmath.mpf("1e-9"))) >= 0
            assert min_eig(t * (1 - mpmath.mpf("1e-9"))) < 0


DISK = st.complex_numbers(max_magnitude=0.7, allow_nan=False, allow_infinity=False)


@st.composite
def disk_problems(draw):
    """Up to 4 separated nodes, each with or without a derivative."""
    n = draw(st.integers(1, 4))
    nodes = draw(st.lists(DISK, min_size=n, max_size=n))
    assume(all(pseudo_hyperbolic(z, u) >= 0.15
               for i, z in enumerate(nodes) for u in nodes[:i]))
    targets = draw(st.lists(st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                                               allow_infinity=False),
                            min_size=n, max_size=n))
    assume(max(abs(w) for w in targets) >= 0.05)
    with_derivative = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    derivs = [(i, draw(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                          allow_infinity=False)))
              for i in range(n) if with_derivative[i]]
    return DiskPickData(nodes=tuple(nodes), targets=tuple(targets),
                        derivative_constraints=tuple(derivs))


ORACLE = settings(max_examples=40, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.filter_too_much,
                                         HealthCheck.too_slow])


class TestMinimalNormMetamorphic:
    """Invariances of the disk norm, to 1e-7 relative."""

    @ORACLE
    @given(disk_problems(), DISK, st.floats(0.0, 2.0 * np.pi))
    def test_mobius_change_of_nodes(self, data, a, theta):
        # f -> f o phi^-1 keeps the sup norm; derivatives follow the chain rule
        a = 0.7 * a
        rot = np.exp(1j * theta)

        def phi(z):
            return rot * (z - a) / (1 - np.conj(a) * z)

        def dphi(z):
            return rot * (1 - abs(a) ** 2) / (1 - np.conj(a) * z) ** 2

        moved = DiskPickData(
            nodes=tuple(phi(z) for z in data.nodes), targets=data.targets,
            derivative_constraints=tuple(
                (i, v / dphi(data.nodes[i])) for i, v in data.derivative_constraints))
        assert minimal_norm(moved) == pytest.approx(minimal_norm(data), rel=1e-7)

    @ORACLE
    @given(disk_problems(), st.floats(0.0, 2.0 * np.pi))
    def test_target_rotation(self, data, theta):
        rot = np.exp(1j * theta)
        turned = DiskPickData(
            nodes=data.nodes, targets=tuple(rot * w for w in data.targets),
            derivative_constraints=tuple((i, rot * v)
                                         for i, v in data.derivative_constraints))
        assert minimal_norm(turned) == pytest.approx(minimal_norm(data), rel=1e-7)

    @ORACLE
    @given(disk_problems(), st.floats(0.05, 20.0), st.floats(0.0, 2.0 * np.pi))
    def test_target_scaling(self, data, r, theta):
        c = r * np.exp(1j * theta)
        scaled = DiskPickData(
            nodes=data.nodes, targets=tuple(c * w for w in data.targets),
            derivative_constraints=tuple((i, c * v)
                                         for i, v in data.derivative_constraints))
        assert minimal_norm(scaled) == pytest.approx(r * minimal_norm(data), rel=1e-7)


class TestSchurConstruct:
    def test_zero_on_circle_is_conditioning_error(self, monkeypatch):
        # a state matrix with an eigenvalue on the circle puts a zero there
        monkeypatch.setattr(np.linalg, "eigvals", lambda D: np.ones(len(D)))
        data = DiskPickData(nodes=(0.0, 0.5), targets=(0.0, 0.25))
        with pytest.raises(ConditioningError, match="unit circle"):
            schur_construct(data)

    def test_residual_above_tolerance_is_conditioning_error(self, monkeypatch):
        def misfit(nodes, values, zeros, c):
            return zeros + 0.01, c, 1.0

        monkeypatch.setattr(pick_disk, "_polish_blaschke", misfit)
        data = DiskPickData(nodes=(0.0, 0.5), targets=(0.0, 0.25))
        with pytest.raises(ConditioningError, match="interpolation residual"):
            schur_construct(data)

    def test_identity_map(self):
        data = DiskPickData(nodes=(0.0, 0.5), targets=(0.0, 0.5))
        b = schur_construct(data)
        assert b.degree == 1
        assert b.zeros[0] == pytest.approx(0.0, abs=1e-9)
        assert abs(b(0.3) - 0.3) < 1e-8

    def test_single_node_constant(self):
        b = schur_construct(DiskPickData(nodes=(0.0,), targets=(0.3,)))
        assert b.degree == 0
        assert b.scale == pytest.approx(0.3, abs=1e-9)
        assert abs(b(0.7j) - 0.3) < 1e-9

    def test_blaschke_round_trip(self):
        # Sample a random Blaschke product of degree <= 4 at degree + 1
        # nodes, reconstruct, and compare at fresh points.
        rng = np.random.default_rng(31)
        for _ in range(25):
            deg = int(rng.integers(1, 5))
            zeros = random_disk(rng, deg, rmax=0.8)
            c = np.exp(2j * np.pi * rng.random())
            ref = BlaschkeProduct(zeros=tuple(zeros), unimodular_constant=c)
            nodes = random_disk(rng, deg + 1, rmax=0.75)
            # keep nodes separated so the reduction stays well conditioned
            if min(abs(nodes[i] - nodes[j])
                   for i in range(len(nodes))
                   for j in range(i + 1, len(nodes))) < 0.05:
                continue
            data = DiskPickData(nodes=tuple(nodes),
                                targets=tuple(ref(z) for z in nodes))
            got = schur_construct(data)
            fresh = random_disk(rng, 100, rmax=0.9)
            err = max(abs(got(z) - ref(z)) for z in fresh)
            assert err < 1e-7

    def test_degree_two_extremal_round_trip(self):
        ref = BlaschkeProduct(zeros=(0.2, -0.4j), unimodular_constant=1.0)
        nodes = (0.0, 0.5, -0.3 + 0.2j)
        data = DiskPickData(nodes=nodes, targets=tuple(ref(z) for z in nodes))
        got = schur_construct(data)
        assert got.degree == 2
        resid = max(abs(got(z) - w) for z, w in zip(data.nodes, data.targets))
        assert resid < 1e-8

    # Samples of a degree-2 Blaschke product at 8 nodes (extremal, norm 1),
    # drawn by the disk-pick benchmark generator.  Reducing at the computed
    # norm itself made a Schur step exceed |g| = 1 on data like this.
    EXTREMAL_EIGHT_NODES = [
        ((-0.7719539743354662 - 0.16383207586555987j, -0.551375863661754 - 0.5218625230829562j,
          -0.7619130961605809 + 0.3259173348256014j, 0.5656366200997714 - 0.42330878069553923j,
          0.4799483286752944 + 0.4952235794544865j, 0.24992960125022445 - 0.6731189870832648j,
          -0.3323759997797365 - 0.4624975584053863j, 0.4518081971248979 + 0.05709253898415683j),
         (-0.910900742620403 - 0.16400399498412552j, -0.8614363367648633 - 0.31437605762044984j,
          -0.9239043200260866 + 0.03994071439764322j, -0.32018775145204603 - 0.6541948269906672j,
          -0.14196463038850493 - 0.03714298626640724j, -0.6062679077245434 - 0.5912231898582817j,
          -0.7705007050334463 - 0.3283895830728033j, -0.18776422944046256 - 0.21280674901418156j)),
        ((0.6180540481714152 - 0.6051926291597389j, 0.47025844136816664 - 0.46426837792006725j,
          0.6830608191876079 - 0.5357532745790853j, 0.07943100433518317 - 0.8355887871484348j,
          -0.4875877682059959 - 0.504236514414393j, -0.40261998870254706 + 0.7102844235793166j,
          0.2533992637726608 + 0.5569476491303428j, 0.6432922386743579 + 0.5474489105298309j),
         (0.28397955272264525 - 0.8272923829103055j, 0.2519765361773023 - 0.6431896276648831j,
          0.36686025621579654 - 0.8058754354849097j, -0.3785145490788701 - 0.5937563533169402j,
          0.2120410826055638 + 0.08284757547542057j, 0.01938303024336508 + 0.6319821670834167j,
          0.6352435950122814 + 0.09355404350039598j, 0.8698912417509065 - 0.13605032203685638j)),
    ]

    @pytest.mark.parametrize("nodes,targets", EXTREMAL_EIGHT_NODES)
    def test_extremal_eight_node_round_trip(self, nodes, targets):
        data = DiskPickData(nodes=nodes, targets=targets)
        got = schur_construct(data)
        assert got.degree == 2
        assert got.scale == pytest.approx(1.0, abs=1e-7)
        assert max(abs(got(z) - w) for z, w in zip(nodes, targets)) < 1e-8

    # Draws of the disk-pick benchmark generator with the degree allowed
    # up to n - 1, as (nodes, targets, zeros, constant, level).  The
    # Schur recursion left the recovered constant off the unit circle
    # by more than 1e-6 on these and refused them.
    DEGREE_N_MINUS_ONE_DRAWS = [
        ((0.7408333376517812 + 0.434266913975828j, -0.8005453468502521 - 0.09190139813570737j,
          -0.12207262442259888 - 0.5225552968127687j, 0.34401100309898597 - 0.5454087858987724j,
          0.6412492944303894 - 0.02774826701556783j, 0.5642030411386626 + 0.2715840668149153j),
         (0.5265112424301348 + 0.1928586295072544j, 0.1700674877478165 - 0.3334045449042819j,
          -0.32471672412720093 + 0.12213687651303354j, -0.44288434009788746 - 0.3381030294609001j,
          0.16690636008637125 - 0.4318999702363738j, 0.24553443547307716 - 0.10081083532691927j),
         (-0.4158031194987646 - 0.08267640514103583j, -0.39464738166362934 + 0.5826411106954276j,
          -0.32899776104191064 + 0.5560503278253887j, -0.5439630629811554 + 0.552747649776243j,
          0.38984129298732084 + 0.5321865890669587j),
         -0.8584540456565012 + 0.5128904868448876j, 1.0),
        ((-0.10675914121229572 + 0.6362491272719759j, -0.43025445887662833 + 0.7713824123981381j,
          -0.505466509414191 + 0.002219939398270461j, 0.1288063822385119 - 0.45785589362963036j,
          -0.8500894094157584 - 0.048345231921476196j, 0.7790620557909455 - 0.12187652529832421j,
          -0.47272515462135173 + 0.5134968958950555j, -0.32634145701739525 - 0.7997444624947214j),
         (0.07126947499921577 - 0.00417722705870937j, 0.20287643822496498 + 0.23761653547868694j,
          -0.005070565951356573 - 0.039060154117902604j, -0.0036671112318155032 - 0.009549977146267923j,
          0.025380344226561855 - 0.280400794880667j, -0.008228990658863969 + 0.0023928570995619025j,
          -0.023867864026978602 + 0.14402441188461293j, -0.22436360577160136 + 0.1856245922751671j),
         (0.46446189410218974 + 0.24792838305138337j, 0.18022448022896795 - 0.3655262324097246j,
          0.7103427381563291 + 0.003642644554482265j, 0.687307681131223 - 0.17064779372604738j,
          0.18279297315987483 + 0.7505020822798704j, 0.5772102069295112 + 0.13660322565491004j,
          -0.3074167778245453 + 0.003530669922327359j),
         0.8218592707497737 + 0.5696905643265036j, 0.5),
        ((-0.5626714171523456 + 0.6286299954519777j, 0.7344653792128404 + 0.24678401272759837j,
          0.010995338842294436 + 0.7366061276554994j, -0.0031698513388616367 - 0.8987018410962233j,
          0.5669267675775137 + 0.5658846658853984j, 0.6966123004739355 + 0.534393712266426j,
          -0.32040371064546397 - 0.6345993822538031j, 0.06734659562061504 + 0.86782973598865j),
         (-0.2612845387628699 + 0.26999996636430895j, -0.12422798288476622 + 0.21602726931967528j,
          0.29811281839263126 - 0.046177100866919014j, 0.06146766079156361 + 0.2979276601921983j,
          -0.2830332331110716 - 0.21427409350992385j, -0.46299175973360657 - 0.0817972871548173j,
          -0.024524487283229788 - 0.00894913857921326j, 0.4687419305335914 - 0.15984733300923698j),
         (-0.1775063362312148 - 0.4375784167065165j, 0.3393418468806867 - 0.17159229481446045j,
          0.36901287291292095 - 0.2723475838491911j, -0.6971386404985813 - 0.3327427748009014j,
          -0.6561527753077675 - 0.0013496734450701793j, -0.3002999525246508 - 0.2113924267431313j,
          -0.10933563834693162 - 0.3307900410478569j),
         -0.9744434638277254 - 0.22463289118787677j, 0.75),
    ]

    @pytest.mark.parametrize("nodes,targets,zeros,const,level",
                             DEGREE_N_MINUS_ONE_DRAWS)
    def test_degree_n_minus_one_round_trip(self, nodes, targets, zeros, const,
                                           level):
        ref = BlaschkeProduct(zeros=zeros, unimodular_constant=const,
                              scale=level)
        got = schur_construct(DiskPickData(nodes=nodes, targets=targets))
        assert got.degree == len(zeros)
        fresh = random_disk(np.random.default_rng(3), 100, rmax=0.9)
        assert np.max(np.abs(got(fresh) - ref(fresh))) < 1e-7

    def test_degree_up_to_n_minus_one_sweep(self):
        # Nodes as the disk-pick benchmark draws them: modulus <= 0.9,
        # pseudo-hyperbolic separation >= 0.3, Szegő Gram condition
        # <= 1e3; zeros of modulus <= 0.8 and any degree below n.
        rng = np.random.default_rng(2024)
        levels = (1.0, 0.5, 0.75, 1.25, 1.5)
        for k in range(600):
            n = 2 + k % 7
            while True:
                nodes = random_disk(rng, n)
                sep = min(pseudo_hyperbolic(nodes[i], nodes[j])
                          for i in range(n) for j in range(i))
                if sep >= 0.3 and gram_condition(
                        DiskPickData(nodes=tuple(nodes), targets=(0.0,) * n)) <= 1e3:
                    break
            deg = 1 + (k // 7) % (n - 1)
            ref = BlaschkeProduct(zeros=tuple(random_disk(rng, deg, rmax=0.8)),
                                  unimodular_constant=np.exp(2j * np.pi * rng.random()),
                                  scale=levels[k % len(levels)])
            got = schur_construct(DiskPickData(nodes=tuple(nodes),
                                               targets=tuple(ref(nodes))))
            assert got.degree == deg
            fresh = random_disk(rng, 50)
            assert np.max(np.abs(got(fresh) - ref(fresh))) < 1e-7

    def test_rejects_derivative_data(self):
        data = DiskPickData(nodes=(0.0, 0.5), targets=(0.0, 0.25),
                            derivative_constraints=((1, 1.0),))
        with pytest.raises(DomainError):
            schur_construct(data)

    def test_zero_data_degenerate(self):
        data = DiskPickData(nodes=(0.0, 0.5), targets=(0.0, 0.0))
        with pytest.raises(DegenerateDataError):
            schur_construct(data)


class TestIsExtremal:
    def test_identity_data_extremal(self):
        assert is_extremal(DiskPickData(nodes=(0.0, 0.5), targets=(0.0, 0.5)))

    def test_strictly_solvable_not_extremal(self):
        assert not is_extremal(
            DiskPickData(nodes=(0.0, 0.5), targets=(0.0, 0.25))
        )

    def test_blaschke_samples_extremal(self):
        ref = BlaschkeProduct(zeros=(0.3,), unimodular_constant=1.0)
        nodes = (0.0, 0.5, -0.2j)
        data = DiskPickData(nodes=nodes, targets=tuple(ref(z) for z in nodes))
        assert is_extremal(data)
        assert minimal_norm(data) == pytest.approx(1.0, abs=1e-8)
        assert schur_construct(data).degree <= np.linalg.matrix_rank(
            pick_matrix(data), tol=1e-8
        )


    def test_norm_half_derivative_data_not_extremal(self):
        # s * B and s * B' at 5 nodes for a degree-4 product B and s = 0.5:
        # the Pick matrix at level 1 has smallest eigenvalue 8.9e-9, inside
        # an absolute singularity window, but the norm is 0.5
        nodes = (-0.559943886655689 - 0.06604378503403373j,
                 -0.25089389940335993 - 0.2159924509924641j,
                 0.21766255392841946 - 0.2105495669449241j,
                 -0.6501722879607358 - 0.01718143257251546j,
                 -0.4922818213561652 + 0.46726963940880845j)
        targets = (-0.00011789298400011535 - 0.10590249628791792j,
                   0.08752557270647135 - 0.007283015340107742j,
                   0.004154194333984239 + 0.06590095093076334j,
                   -0.05698912243166663 - 0.12928716875248278j,
                   0.01741321922708915 + 0.13111536314185473j)
        derivs = (0.3025261474027069 + 0.44070151470903507j,
                  -0.062431527726259116 + 0.3067013317749645j,
                  -0.2662045979167112 + 0.0026850664654184016j,
                  0.45990270527023425 + 0.48972524524500044j,
                  0.4292356195534387 - 0.49980786168540986j)
        data = DiskPickData(nodes=nodes, targets=targets,
                            derivative_constraints=tuple(enumerate(derivs)))
        assert within_documented_accuracy(minimal_norm(data), 0.5, data)
        assert not is_extremal(data)


def reference_minimal_norm(data):
    A0, A1, e = _pencil(data)
    top = float(_pencil_eigh(A0, A1)[0][-1])
    return math.ldexp(float(np.sqrt(max(top, 0.0))), e)


def reference_is_extremal(data):
    A0, _, _ = _pencil(data)
    return abs(reference_minimal_norm(data) - 1.0) <= EXTREMAL_RTOL * np.linalg.cond(A0)


def reference_schur_construct(data):
    """schur_construct's arithmetic without its checks, building the
    pencil and taking cond(A0) afresh: the pencil's units up to the
    scale, which is taken back by 2^e."""
    A0, A1, e = _pencil(data)
    mu, X = _pencil_eigh(A0, A1)
    t = float(np.sqrt(mu[-1]))
    p = 1.0 - mu / mu[-1]
    keep = p > EXTREMAL_RTOL * np.linalg.cond(A0)
    H = A0 @ X[:, keep] * np.sqrt(p[keep])
    lams = np.asarray(data.nodes, dtype=complex)
    values = np.array([complex(math.ldexp(w.real, -e), math.ldexp(w.imag, -e))
                       for w in data.targets]) / t
    Vt, *_ = np.linalg.lstsq(np.hstack([np.ones((len(lams), 1)), lams[:, None] * H]),
                             np.hstack([values[:, None], H]), rcond=None)
    zeros = np.conj(np.linalg.eigvals(Vt[1:, 1:]))
    b0 = np.prod((lams[:, None] - zeros) / (1.0 - np.conj(zeros) * lams[:, None]),
                 axis=1)
    c = np.vdot(b0, values) / np.vdot(b0, b0)
    zeros, c, s = pick_disk._polish_blaschke(data.nodes, values, zeros, c)
    return list(zeros), c, math.ldexp(t, e) * s


def seeded_problems(seed):
    """Value and derivative problems with 2 to 8 separated nodes: targets
    s B(nodes) of a Blaschke product B of degree 1 or 2 (extremal at s),
    derivatives s B' at some nodes, or random targets."""
    rng = np.random.default_rng(seed)
    for n in range(2, 9):
        for kind in ("value", "derivative", "random"):
            while True:
                nodes = random_disk(rng, n, rmax=0.8)
                if min(pseudo_hyperbolic(nodes[i], nodes[j])
                       for i in range(n) for j in range(i)) >= 0.3:
                    break
            zeros = random_disk(rng, 1 + int(rng.integers(min(2, n - 1))), rmax=0.8)
            s = float(rng.choice([0.75, 1.0, 1.25]))
            B = BlaschkeProduct(zeros=tuple(zeros),
                                unimodular_constant=np.exp(2j * np.pi * rng.random()),
                                scale=s)
            targets = B(nodes)
            derivs = ()
            if kind == "derivative":
                idx = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
                derivs = tuple((int(i), complex(B(nodes[i]) * sum(
                    (1.0 - abs(a) ** 2) / ((nodes[i] - a) * (1.0 - np.conj(a) * nodes[i]))
                    for a in zeros))) for i in idx)
            elif kind == "random":
                targets = random_disk(rng, n)
            yield DiskPickData(nodes=tuple(nodes), targets=tuple(targets),
                               derivative_constraints=derivs)


def hexed(values):
    return [(float(np.real(v)).hex(), float(np.imag(v)).hex()) for v in values]


class TestCachedPencil:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_outputs_match_fresh_solves_bit_for_bit(self, seed):
        extremal = 0
        for data in seeded_problems(seed):
            norm = minimal_norm(data)
            assert norm.hex() == reference_minimal_norm(data).hex()
            assert is_extremal(data) == reference_is_extremal(data)
            extremal += bool(is_extremal(data))
            if not data.derivative_constraints:
                got = schur_construct(data)
                zeros, c, scale = reference_schur_construct(data)
                assert hexed(got.zeros) == hexed(zeros)
                assert hexed([got.unimodular_constant]) == hexed([c / abs(c)])
                assert got.scale.hex() == float(scale).hex()
        assert extremal > 0

    def test_one_pencil_one_eigensolve_one_cond(self, monkeypatch):
        counts = collections.Counter()

        def counted(name, f):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return f(*args, **kwargs)
            return wrapper

        real_eigh = pick_disk.eigh

        def eigh(*args, eigvals_only=False, **kwargs):
            counts["eigh values" if eigvals_only else "eigh vectors"] += 1
            return real_eigh(*args, eigvals_only=eigvals_only, **kwargs)

        monkeypatch.setattr(pick_disk, "_pencil", counted("pencil", pick_disk._pencil))
        monkeypatch.setattr(pick_disk, "eigh", eigh)
        monkeypatch.setattr(np.linalg, "cond", counted("cond", np.linalg.cond))
        data = DiskPickData(nodes=(0.0, 0.5, -0.3j), targets=(0.1, 0.4, -0.2))
        twin = DiskPickData(nodes=data.nodes, targets=data.targets)
        before = hash(data)
        for _ in range(2):
            minimal_norm(data)
            is_extremal(data)
            schur_construct(data)
            pick_matrix(data)
            solvable(data, 1.0)
        assert counts == {"pencil": 1, "eigh vectors": 1, "cond": 1}
        assert data == twin and hash(data) == before == hash(twin)
        fresh = dataclasses.replace(data)
        assert fresh == data
        minimal_norm(fresh)
        assert counts["pencil"] == 2 and counts["eigh vectors"] == 2
        assert counts["eigh values"] == 0
        assert fresh.pencil[0] is not data.pencil[0]

    def test_cached_arrays_refuse_writes(self):
        data = DiskPickData(nodes=(0.0, 0.5), targets=(0.0, 0.25),
                            derivative_constraints=((1, 1.0),))
        for A in data.pencil[:2] + data.pencil_eig:
            with pytest.raises(ValueError):
                A[..., 0] = 0.0
        assert pick_matrix(data).flags.writeable


def times_power_of_two(data, k):
    """The data with targets and derivative values times 2^k, exactly."""
    def scale(w):
        return complex(math.ldexp(w.real, k), math.ldexp(w.imag, k))

    return DiskPickData(nodes=data.nodes, targets=tuple(map(scale, data.targets)),
                        derivative_constraints=tuple(
                            (i, scale(v)) for i, v in data.derivative_constraints))


class TestPowerOfTwoScale:
    """Every problem's pencil divides its targets by its own 2^e, so
    scaling the data by 2^k moves no bit but the exponent of the level."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-1000, -600, -300, 300, 600])
    def test_norm_and_blaschke_scale_are_exact(self, k):
        kinds = collections.Counter()
        for data in seeded_problems(4):
            scaled = times_power_of_two(data, k)
            assert minimal_norm(scaled) == math.ldexp(minimal_norm(data), k)
            assert not is_extremal(scaled)
            kinds["derivative" if data.derivative_constraints else "value"] += 1
            if not data.derivative_constraints:
                got, want = schur_construct(scaled), schur_construct(data)
                assert got.scale == math.ldexp(want.scale, k)
                assert hexed(got.zeros) == hexed(want.zeros)
                assert hexed([got.unimodular_constant]) == hexed([want.unimodular_constant])
        assert kinds["derivative"] > 0 and kinds["value"] > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-600, -530])
    def test_tiny_targets_keep_their_norm(self, k):
        # the squared targets underflow a float; the pencil of the scaled
        # targets does not lose them
        data = DiskPickData(nodes=(0.0, 0.5), targets=(0.0, math.ldexp(0.5, k)))
        assert minimal_norm(data) == math.ldexp(minimal_norm(times_power_of_two(data, -k)), k)
        assert minimal_norm(data) == pytest.approx(math.ldexp(1.0, k), rel=1e-15)
        assert schur_construct(data).scale == pytest.approx(math.ldexp(1.0, k), rel=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_targets_give_a_finite_blaschke_product(self):
        # the level 1e-320 is subnormal; the construction divides in the
        # pencil's units only
        data = DiskPickData(nodes=(0.0, 0.5), targets=(0.0, 0.5e-320))
        got = schur_construct(data)
        assert got.degree == 1 and abs(got.zeros[0]) < 1e-9
        assert abs(got.unimodular_constant) == pytest.approx(1.0, rel=1e-12)
        # 1e-320 is about 2000 subnormal spacings
        assert minimal_norm(data) == pytest.approx(1e-320, rel=1e-3)
        assert got.scale == pytest.approx(1e-320, rel=1e-3)
        assert solvable(data, 1e300) and not solvable(data, 1e-321)


def l1_minimum_lp(V, u, phases=32):
    """Lower bound on min ||c||_1 subject to V c = u by a linear program.

    Replaces |c_r| by its largest real part over a grid of phases, which
    is below |c_r| by at most a factor cos(pi / phases).
    """
    K, d = V.shape
    cost = np.concatenate([np.zeros(2 * d), np.ones(d)])  # x_r, y_r, t_r
    phis = 2.0 * np.pi * np.arange(phases) / phases
    eye = np.eye(d)
    A_ub = np.vstack([np.hstack([np.cos(phi) * eye, np.sin(phi) * eye, -eye])
                      for phi in phis])
    A_eq = np.block([[V.real, -V.imag, np.zeros((K, d))],
                     [V.imag, V.real, np.zeros((K, d))]])
    b_eq = np.concatenate([u.real, u.imag])
    bounds = [(None, None)] * (2 * d) + [(0, None)] * d
    res = linprog(cost, A_ub=A_ub, b_ub=np.zeros(phases * d), A_eq=A_eq,
                  b_eq=b_eq, bounds=bounds)
    assert res.success, res.message
    return float(res.fun)


def _l1_draw(rng):
    K = int(rng.integers(2, 4))
    d = int(rng.integers(K + 1, 7))
    return (rng.standard_normal((K, d)) + 1j * rng.standard_normal((K, d)),
            rng.standard_normal(K) + 1j * rng.standard_normal(K))


class TestInfinitesimalExtremal:
    def test_single_axis_direction(self):
        cp = CPDataOrigin(vectors=((1.0, 0.0, 0.0),), targets=(1.0,))
        m, ext, wit = infinitesimal_extremal_origin(cp)
        assert m == pytest.approx(1.0, abs=1e-9)
        assert ext
        assert np.allclose(wit, (1.0, 0.0, 0.0), atol=1e-9)

    def test_split_direction(self):
        # minimize |c1| + |c2| with c1 + c2 = 1: the triangle inequality
        # forces the minimum to be exactly 1.
        cp = CPDataOrigin(vectors=((1.0, 1.0),), targets=(1.0,))
        m, ext, wit = infinitesimal_extremal_origin(cp)
        assert m == pytest.approx(1.0, abs=1e-9)
        assert ext
        assert np.dot(np.array(wit), np.ones(2)) == pytest.approx(1.0, abs=1e-9)

    def test_two_constraint_extremal_family(self):
        # v1 = (1, a), v2 = (b, 1) with targets alpha + beta a and
        # alpha b + beta: the minimizer is (alpha, beta), so the norm is
        # |alpha| + |beta| = 1 exactly.
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = random_disk(rng, 1, rmax=0.6)[0]
            b = random_disk(rng, 1, rmax=0.6)[0]
            s = rng.random()
            alpha = s * np.exp(2j * np.pi * rng.random())
            beta = (1 - s) * np.exp(2j * np.pi * rng.random())
            cp = CPDataOrigin(vectors=((1.0, a), (b, 1.0)),
                              targets=(alpha + beta * a, alpha * b + beta))
            m, ext, wit = infinitesimal_extremal_origin(cp)
            assert m == pytest.approx(1.0, abs=1e-9)
            assert ext
            assert np.allclose(wit, (alpha, beta), rtol=0.0, atol=1e-9)

    def test_single_row_closed_form(self):
        # With one constraint v . c = u the minimum is |u| / max|v_k|.
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            u = rng.standard_normal() + 1j * rng.standard_normal()
            cp = CPDataOrigin(vectors=(tuple(v),), targets=(complex(u),))
            m, _, wit = infinitesimal_extremal_origin(cp)
            oracle = abs(u) / np.max(np.abs(v))
            assert m == pytest.approx(oracle, rel=1e-9)
            assert abs(np.dot(np.array(wit), v) - u) < 1e-9

    def test_unimodular_rescaling_invariance(self):
        rng = np.random.default_rng(41)
        vecs = tuple(tuple(random_disk(rng, 3)) for _ in range(2))
        targs = tuple(random_disk(rng, 2))
        m0, _, _ = infinitesimal_extremal_origin(
            CPDataOrigin(vectors=vecs, targets=targs)
        )
        for _ in range(5):
            om = np.exp(2j * np.pi * rng.random())
            m1, _, _ = infinitesimal_extremal_origin(
                CPDataOrigin(vectors=vecs, targets=tuple(om * u for u in targs))
            )
            assert abs(m1 - m0) < 1e-10

    def test_never_below_lp_lower_bound(self):
        # the phase-grid LP relaxes |c_r| from below by at most a factor
        # cos(pi / phases), so the minimum lies in [LP, LP / cos(pi / phases)];
        # draw 135 of default_rng(11) is one an upward-biased minimizer missed
        rng = np.random.default_rng(5)
        draws = [_l1_draw(rng) for _ in range(40)]
        rng11 = np.random.default_rng(11)
        draws.append([_l1_draw(rng11) for _ in range(136)][-1])
        for V, u in draws:
            m, _, wit = infinitesimal_extremal_origin(
                CPDataOrigin(vectors=tuple(map(tuple, V)), targets=tuple(u)))
            assert np.max(np.abs(V @ np.array(wit) - u)) < 1e-9
            lp = l1_minimum_lp(V, u, phases=256)
            assert m >= lp * (1.0 - 1e-9)
            assert m <= lp / np.cos(np.pi / 256) * (1.0 + 1e-9)

    def test_infeasible_system(self):
        cp = CPDataOrigin(vectors=((1.0, 0.0), (1.0, 0.0)),
                          targets=(1.0, 2.0))
        with pytest.raises(InfeasibleConstraintsError):
            infinitesimal_extremal_origin(cp)

    def test_validation(self):
        with pytest.raises(DegenerateDataError):
            CPDataOrigin(vectors=(), targets=())
        with pytest.raises(DomainError):
            CPDataOrigin(vectors=((1.0, 0.0), (1.0,)), targets=(0.1, 0.2))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_vector_rejected(self, entry):
        # reaching the solver, such an entry made LAPACK print "illegal
        # value" lines and raise a raw LinAlgError
        with pytest.raises(DomainError, match="finite"):
            CPDataOrigin(vectors=((1.0, 0.5), (entry, 0.2)), targets=(0.3, 0.1))

    @pytest.mark.parametrize("target", [np.nan, -np.inf])
    def test_non_finite_target_rejected(self, target):
        # a NaN target used to run the Newton budget out and then raise
        # ConditioningError with a NaN bracket
        with pytest.raises(DomainError, match="finite"):
            CPDataOrigin(vectors=((1.0, 0.5),), targets=(target,))
