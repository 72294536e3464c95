"""Tests for the experiment drivers: the plane-variety reproduction,
extension-versus-von-Neumann comparison, and the circle-image test."""

import numpy as np
import pytest
from scipy.integrate import quad

from polydisklab import (
    DiskPickData,
    Polynomial,
    PolyPickData,
    builtin_rational_inner_graph,
    builtin_v0,
    circle_image_test,
    exg1_data,
    exg1_extremal_candidate,
    exg1_reproduce,
    extension_vs_vn,
    is_extremal,
    minimal_norm,
    sample_variety,
    schur_agler_norm,
)
from polydisklab import agler, experiments, labcli
from polydisklab.agler import CAVEAT_D3
from polydisklab.disk_geometry import pseudo_hyperbolic
from polydisklab.errors import DomainError
from polydisklab.experiments import ARC_ETA, ARC_GRID, _omitted_arc

GAP_MS = (0.1, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999)
WITNESS_MS = (1e-3, 0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.97, 0.999)
CANONICAL = PolyPickData(d=2, nodes=((0.0, 0.0), (0.5, 0.5)), targets=(0.0, 0.7))


@pytest.fixture(scope="module")
def report09():
    return exg1_reproduce(0.9)


class TestOmittedArc:
    def test_no_samples(self):
        gap, mid, frac = _omitted_arc(np.array([]))
        assert gap == pytest.approx(2 * np.pi)
        assert mid is None
        assert frac == 0.0

    def test_interior_samples_cover_nothing(self):
        gap, mid, frac = _omitted_arc(np.array([0.5, -0.3j, 0.1 + 0.1j]))
        assert gap == pytest.approx(2 * np.pi)
        assert frac == 0.0

    def test_full_circle(self):
        th = np.linspace(0, 2 * np.pi, 1000, endpoint=False)
        gap, mid, frac = _omitted_arc(np.exp(1j * th))
        assert gap == 0.0
        assert mid is None
        assert frac == 1.0

    def test_half_circle(self):
        th = np.linspace(0, np.pi, 2000)
        gap, mid, frac = _omitted_arc(np.exp(1j * th))
        # each boundary sample covers +-arccos(1 - eta) of angle
        assert gap == pytest.approx(np.pi, abs=0.1)
        assert abs(mid - (-1j)) < 0.1
        assert 0.45 < frac < 0.55

    def test_matches_loop_reference(self):
        # the marking loop and run scan the array version replaced; ties
        # between equal runs go to the first one
        def reference(samples):
            F = samples[np.abs(samples) >= 1.0 - ARC_ETA]
            covered = np.zeros(ARC_GRID, dtype=bool)
            width = np.arccos(np.clip((1.0 - ARC_ETA) / np.abs(F), -1.0, 1.0))
            scale = ARC_GRID / (2.0 * np.pi)
            lo = np.floor((np.angle(F) - width) * scale).astype(int)
            hi = np.ceil((np.angle(F) + width) * scale).astype(int)
            for a, b in zip(lo.tolist(), hi.tolist()):
                covered[np.arange(a, b + 1) % ARC_GRID] = True
            frac = float(covered.mean())
            if covered.all():
                return 0.0, None, frac
            if not covered.any():
                return 2.0 * np.pi, None, frac
            runs, start = [], None
            ext = np.concatenate([covered, covered])
            for i in range(2 * ARC_GRID):
                if not ext[i] and start is None:
                    start = i
                elif ext[i] and start is not None:
                    runs.append((start, i))
                    start = None
            if start is not None:
                runs.append((start, 2 * ARC_GRID))
            a, b = max(runs, key=lambda ab: ab[1] - ab[0])
            theta = (a + b) / 2.0 % ARC_GRID * 2.0 * np.pi / ARC_GRID
            return (min(b - a, ARC_GRID) * 2.0 * np.pi / ARC_GRID,
                    complex(np.exp(1j * theta)), frac)

        rng = np.random.default_rng(3)
        for i in range(200):
            n = int(rng.integers(0, 40))
            r = 1.0 - 3e-3 * rng.random(n)
            if i % 3 == 1:
                r = r * (1.0 + rng.random(n))  # |F| > 1 covers nearly pi
            th = 2.0 * np.pi * rng.random(n)
            if i % 3 == 2:
                th = np.round(th * 4.0 / np.pi) * np.pi / 4.0  # equal runs
            F = r * np.exp(1j * th)
            assert _omitted_arc(F) == reference(F)


class TestExg1Candidate:
    def test_modulus_bounded(self):
        F = exg1_extremal_candidate(0.9)
        rng = np.random.default_rng(8)
        pts = np.sqrt(rng.random((5000, 3))) * np.exp(
            2j * np.pi * rng.random((5000, 3))
        )
        assert np.abs(F(pts)).max() <= 1.0 + 1e-12

    def test_interpolates_report_data(self, report09):
        F = exg1_extremal_candidate(0.9)
        nodes = np.asarray(report09.data.nodes, dtype=complex)
        got = F(nodes)
        assert np.abs(got - np.asarray(report09.data.targets)).max() <= 1e-12

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            exg1_extremal_candidate(0.0)
        with pytest.raises(DomainError):
            exg1_extremal_candidate(1.0)


class TestExg1Reproduce:
    def test_witness_and_verdict(self, report09):
        r = report09
        assert r.verdict == "violation_detected"
        assert r.slack >= 1e-6
        assert r.sa_norm == 1.0
        assert r.circle_gap > 0.05

    def test_frozen_witness_values(self, report09):
        r = report09
        assert r.zeta == pytest.approx(28 / 29, abs=1e-15)
        assert r.xi == pytest.approx(57 / 58, abs=1e-15)
        assert r.eq_ex_lhs == pytest.approx(0.252174, abs=1e-6)
        assert r.eq_ex_rhs == pytest.approx(0.337209, abs=1e-6)
        assert r.slack == pytest.approx(0.085035, abs=1e-6)

    def test_frozen_gap_value(self, report09):
        assert report09.circle_gap == pytest.approx(4.067280, abs=1e-6)
        assert exg1_reproduce(0.7).circle_gap == pytest.approx(3.782650, abs=1e-6)
        # near m = 1 the arc tends to 4 pi / 3, not to the whole circle
        assert exg1_reproduce(0.999).circle_gap == pytest.approx(4.187635, abs=1e-6)

    def test_data_sits_on_plane_variety(self, report09):
        nodes = np.asarray(report09.data.nodes, dtype=complex)
        assert report09.data.d == 3
        assert report09.data.n == 3
        assert np.abs(nodes[:, 2] - nodes[:, 0] - nodes[:, 1]).max() <= 1e-12
        assert np.abs(nodes[0]).max() == 0.0
        assert report09.data.targets[0] == 0.0

    def test_gap_across_m_values(self):
        # two oracles: 2 pi minus the quadrature of the rate of arg F along
        # the boundary arc, and twice the argument of F at its endpoint
        omega = np.exp(2j * np.pi / 3)
        for m in GAP_MS:
            r = exg1_reproduce(m)
            image, _ = quad(
                lambda t: 1.0 + (1.0 - m * m) / abs(np.exp(1j * t) - m) ** 2,
                2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0, epsabs=1e-13, epsrel=0.0,
            )
            endpoint = omega * (m - omega) / (1.0 - m * omega)
            assert abs(r.circle_gap - (2.0 * np.pi - image)) <= 1e-12
            assert abs(r.circle_gap - 2.0 * np.angle(endpoint)) <= 1e-12
            assert r.verdict == "violation_detected"
            assert r.gap_midpoint == 1.0

    @pytest.mark.parametrize("m", GAP_MS)
    def test_boundary_image_bounds_the_gap(self, m):
        # z1 = phi_m(u), z2 = u phi_m(u) over the arc Re u <= -1/2 lies on
        # the closure of the plane, where |F| = 1; arg F stays out of the
        # gap and reaches both of its ends
        gap = exg1_reproduce(m).circle_gap
        u = np.exp(1j * np.linspace(2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0, 2001))
        z1 = (m - u) / (1.0 - m * u)
        z2 = u * z1
        assert np.abs(z1 + z2).max() <= 1.0 + 1e-12
        F = exg1_extremal_candidate(m)(np.stack([z1, z2, z1 + z2], axis=-1))
        assert np.abs(np.abs(F) - 1.0).max() <= 1e-12
        assert np.abs(np.angle(F)).min() >= gap / 2.0 - 1e-12
        assert np.abs(np.angle(F[[0, -1]])) == pytest.approx(gap / 2.0, abs=1e-12)

    def test_reproduce_samples_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("exg1_reproduce must not sample the arc")

        monkeypatch.setattr(experiments, "_omitted_arc", forbidden)
        assert exg1_reproduce(0.9).verdict == "violation_detected"

    @pytest.mark.parametrize("m", sorted(set(GAP_MS + WITNESS_MS)))
    def test_reproduce_solves_nothing(self, m, monkeypatch):
        # the norm is the closed form of the module docstring, not a solve
        def forbidden(*args, **kwargs):
            raise AssertionError("exg1_reproduce must not solve for the norm")

        monkeypatch.setattr(experiments, "schur_agler_norm", forbidden)
        r = exg1_reproduce(m)
        assert r.sa_norm == 1.0
        assert r.verdict == "violation_detected"

    def test_midpoint_near_one(self, report09):
        assert report09.gap_midpoint == 1.0

    def test_parameter_validation(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                exg1_reproduce(bad)
        with pytest.raises(DomainError):
            exg1_reproduce(0.5 + 0.1j)


def _plane_data(m, zeta, xi):
    """The 3-point exg1 problem at an arbitrary real pair zeta, xi."""
    def phi(x):
        return (m - x) / (1.0 - m * x)

    nodes = ((0.0, 0.0, 0.0),) + tuple(
        (x, x * phi(x), x * (1.0 + phi(x))) for x in (zeta, xi))
    return PolyPickData(d=3, nodes=nodes,
                        targets=(0.0,) + tuple(x * phi(x) for x in (zeta, xi)))


class TestExg1ClosedForm:
    def test_criterion_matches_pseudo_hyperbolic_distance(self):
        # rho(g(zeta), g(xi)) < rho(zeta, xi), g = 1 + phi_m, exactly when
        # alpha + beta + m (2 + m) alpha beta < 1
        rng = np.random.default_rng(16)
        for _ in range(5000):
            m = rng.uniform(1e-3, 0.999)
            zeta, xi = np.sort(rng.uniform(m, 1.0, size=2))
            g_zeta, g_xi = ((1.0 + m) * (1.0 - x) / (1.0 - m * x) for x in (zeta, xi))
            alpha, beta = (1.0 - zeta) / (1.0 - m), (1.0 - xi) / (1.0 - m)
            contracts = pseudo_hyperbolic(g_zeta, g_xi) < pseudo_hyperbolic(zeta, xi)
            assert contracts == (alpha + beta + m * (2 + m) * alpha * beta < 1)

    def test_data_is_the_closed_form_pair(self):
        for m in (0.3, 0.9):
            data = exg1_data(m)
            want = _plane_data(m, (1 + 2 * m) / (2 + m), (3 + 3 * m) / (4 + 2 * m))
            assert data == want

    @pytest.mark.parametrize("m", WITNESS_MS)
    def test_witness_holds_across_m(self, m):
        r = exg1_reproduce(m)
        assert m < r.zeta < r.xi < 1.0
        assert r.slack >= 0.08
        assert r.verdict == "violation_detected"
        assert r.sa_norm == 1.0
        # the closed form's ingredients: z2 interpolates; the Blaschke
        # problem on the first coordinate has norm 1, and psi, the third
        # coordinate over the first, has norm below 1
        data = exg1_data(m)
        lam1, lam2, lam3 = zip(*data.nodes)
        assert data.targets == lam2
        blaschke = DiskPickData(nodes=lam1, targets=data.targets)
        assert abs(minimal_norm(blaschke) - 1.0) <= 1e-12
        assert is_extremal(blaschke)
        assert minimal_norm(DiskPickData(nodes=lam1, targets=lam3)) < 1.0
        # the barrier solve stays as an oracle: an upper bound at d = 3
        norm = schur_agler_norm(data)
        assert 1.0 - 1e-7 <= float(norm) <= 1.0 + 1e-5
        assert norm.caveat_flag == CAVEAT_D3

    def test_pair_outside_the_criterion_has_norm_below_one(self):
        # at m = 0.9, (0.95, 0.975) has slack -0.0195: no contraction, and
        # the problem is solvable with room to spare
        data = _plane_data(0.9, 0.95, 0.975)
        (z1, _, z3), (x1, _, x3) = data.nodes[1:]
        slack = pseudo_hyperbolic(z1, x1) - pseudo_hyperbolic(z3 / z1, x3 / x1)
        assert slack == pytest.approx(-0.0195, abs=1e-4)
        assert float(schur_agler_norm(data)) < 1.0 - 1e-3

    @pytest.mark.parametrize("argv", [
        ["experiment", "circle-image"],
        ["experiment", "ext-vs-vn", "--m", "0.9"],
    ])
    def test_cli_builds_the_data_with_one_norm_solve(self, argv, monkeypatch,
                                                     tmp_path, capsys):
        calls = []

        def counted(data):
            calls.append(data)
            return schur_agler_norm(data)

        def forbidden(*args, **kwargs):
            raise AssertionError("exg1_reproduce must not run")

        monkeypatch.setattr(experiments, "schur_agler_norm", counted)
        monkeypatch.setattr(labcli, "exg1_reproduce", forbidden)
        assert labcli.main(argv + ["--out-dir", str(tmp_path)]) == 0
        assert calls == [exg1_data(0.9)]


class TestExtensionVsVN:
    def test_consistent_on_polynomial_graph(self, monkeypatch):
        # nodes on the graph z3 = z1 z2 / 2; they share no coordinate, so
        # the path's start needs no path of its own, and one path gives
        # the norm and the decomposition at it
        nodes = ((0.0, 0.0, 0.0), (0.5, 0.5, 0.125), (0.6, -0.4, -0.12))
        data = PolyPickData(d=3, nodes=nodes,
                            targets=tuple(p[2] for p in nodes))
        paths = []

        def counted(*args):
            paths.append(args)
            return central_path(*args)

        central_path = agler._central_path
        monkeypatch.setattr(agler, "_central_path", counted)
        rep = extension_vs_vn(data)
        assert len(paths) == 1
        assert rep.verdict == "extension_consistent"
        assert rep.norm <= 1.0 + 1e-4
        assert rep.decomposition is not None
        assert rep.witness is None
        assert rep.certified_t == rep.norm == rep.decomposition.t
        assert rep.decomposition.min_eigenvalue() >= agler.GAMMA_PSD_TOL
        assert rep.decomposition.reconstruction_residual(data) <= agler.RECON_TOL
        assert rep.caveat_flag == CAVEAT_D3

    def test_violation_on_canonical_pair(self):
        rep = extension_vs_vn(CANONICAL)
        assert rep.verdict == "von_neumann_violation"
        assert rep.norm == pytest.approx(1.4, abs=1e-4)
        assert rep.decomposition is None
        assert rep.witness is not None
        assert rep.witness.f_norm > 1.0 + 1e-6
        assert rep.caveat_flag is None

    def test_scaled_candidate_violates(self, report09):
        base = report09.data
        scaled = PolyPickData(d=base.d, nodes=base.nodes,
                              targets=tuple(1.05 * w for w in base.targets))
        rep = extension_vs_vn(scaled)
        assert rep.verdict == "von_neumann_violation"
        assert rep.norm == pytest.approx(1.05, abs=1e-3)
        assert rep.witness.f_norm > 1.0 + 1e-6

    def test_verdicts_mutually_exclusive(self, report09):
        for rep in (
            extension_vs_vn(CANONICAL),
            extension_vs_vn(report09.data),
        ):
            assert (rep.decomposition is None) != (rep.witness is None)


class TestCircleImage:
    def test_inner_graph_covers_circle(self):
        gens = builtin_rational_inner_graph(0.4, 0.4)
        pts = sample_variety(gens, count=80, seed=3)
        nodes = tuple(tuple(p) for p in pts[:3])
        data = PolyPickData(d=3, nodes=nodes,
                            targets=tuple(p[2] for p in nodes))
        res = circle_image_test(gens, Polynomial(3, {(0, 0, 1): 1.0}), data)
        assert res.omitted_arc < 0.05

    def test_plane_candidate_omits_arc(self, report09):
        res = circle_image_test(
            builtin_v0(), exg1_extremal_candidate(0.9), report09.data
        )
        assert res.is_extremal_evidence
        assert res.omitted_arc == pytest.approx(4.2092, abs=0.05)
        assert "incompatible" in res.statement

    def test_non_extremal_candidate_is_vacuous(self):
        gens = builtin_v0()
        nodes = ((0.0, 0.0, 0.0), (0.2, 0.1, 0.3))
        data = PolyPickData(d=3, nodes=nodes, targets=(0.0, 0.15))
        phi = Polynomial(3, {(0, 0, 1): 0.5})
        res = circle_image_test(gens, phi, data)
        assert not res.is_extremal_evidence
        assert "vacuous" in res.statement

    def test_modulus_precheck(self, report09):
        phi = Polynomial(3, {(1, 0, 0): 2.0})
        with pytest.raises(DomainError):
            circle_image_test(builtin_v0(), phi, report09.data)

    @pytest.mark.parametrize("c, refused", [(1.001, True), (1.0, False)])
    def test_polynomial_modulus_is_checked_on_the_torus(self, report09, c, refused):
        # c (z1 + z2) / 2 has torus supremum c; |phi| on 4096 random
        # interior points stays below 1.001, so only the torus sees it
        phi = Polynomial(3, {(1, 0, 0): c / 2, (0, 1, 0): c / 2})
        if refused:
            with pytest.raises(DomainError, match="torus"):
                circle_image_test(builtin_v0(), phi, report09.data)
        else:
            res = circle_image_test(builtin_v0(), phi, report09.data)
            assert not res.is_extremal_evidence

    def test_dimension_mismatch(self):
        phi = Polynomial(2, {(1, 0): 1.0})
        with pytest.raises(DomainError):
            circle_image_test(builtin_v0(), phi, CANONICAL)
