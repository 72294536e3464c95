import numpy as np
import pytest

from polydisklab.balance import (
    balanced_disk_through,
    caratheodory_extremal_for_pair,
    classify_pair,
    find_balanced_pair_on_graph,
    scan_balanced_pairs,
)
from polydisklab.disk_geometry import kobayashi_distance_polydisk, pseudo_hyperbolic
from polydisklab.errors import DegenerateDataError, DomainError
from polydisklab.polynomials import Polynomial, sup_on_torus


class TestClassifyPair:
    def test_unbalanced(self):
        rep = classify_pair((0.5, 0.0), (0.0, 0.0))
        assert rep.n == 1
        assert rep.permutation == (1, 2)
        assert rep.rho_values[0] == pytest.approx(0.5)

    def test_two_balanced_diagonal(self):
        rep = classify_pair((0.3, 0.3), (-0.2, -0.2))
        assert rep.n == 2
        assert rep.rho_values[0] == pytest.approx(rep.rho_values[1])

    def test_fully_balanced_triple(self):
        rep = classify_pair((0.2, 0.2, 0.2), (0.0, 0.0, 0.0))
        assert rep.n == 3

    def test_tolerance_widens_ties(self):
        l, m = (0.30, 0.301), (0.0, 0.0)
        assert classify_pair(l, m, tol=1e-9).n == 1
        assert classify_pair(l, m, tol=0.05).n == 2

    def test_permutation_orders_by_distance(self):
        rep = classify_pair((0.1, 0.7, 0.4), (0.0, 0.0, 0.0))
        assert rep.permutation == (2, 3, 1)
        assert rep.rho_values == tuple(sorted(rep.rho_values, reverse=True))


class TestBalancedDisk:
    def test_embedding_recovers_pair(self):
        l, m = (0.3, 0.3j, 0.1), (-0.2, -0.2j, 0.1)
        disk = balanced_disk_through(l, m)
        assert disk.n == 2
        p0, p1 = disk.preimages
        assert disk(p0) == pytest.approx(l, abs=1e-12)
        assert disk(p1) == pytest.approx(m, abs=1e-12)

    def test_embedding_is_a_kobayashi_geodesic(self):
        l, m = (0.4, 0.4j), (-0.1, -0.1j)
        disk = balanced_disk_through(l, m)
        rng = np.random.default_rng(0)
        for _ in range(25):
            z, w = 0.9 * np.sqrt(rng.uniform(size=2)) * np.exp(
                2j * np.pi * rng.uniform(size=2)
            )
            assert kobayashi_distance_polydisk(disk(z), disk(w)) == pytest.approx(
                pseudo_hyperbolic(z, w), abs=1e-10
            )

    def test_leading_twist_normalized(self):
        disk = balanced_disk_through((0.3, 0.3j, 0.1), (-0.2, -0.2j, 0.1))
        assert disk.omegas[0] == pytest.approx(1.0, abs=1e-14)
        assert all(abs(abs(w) - 1.0) < 1e-12 for w in disk.omegas)

    def test_unbalanced_pair_rejected(self):
        with pytest.raises(DegenerateDataError):
            balanced_disk_through((0.5, 0.1), (0.0, 0.0))


class TestCaratheodoryExtremal:
    def test_realizes_kobayashi_distance(self):
        l, m = (0.3, 0.3j, 0.1), (-0.2, -0.2j, 0.1)
        ext = caratheodory_extremal_for_pair(l, m)
        assert abs(ext(m)) == pytest.approx(0.0, abs=1e-14)
        assert abs(ext(l)) == pytest.approx(
            kobayashi_distance_polydisk(l, m), abs=1e-12
        )

    def test_maps_into_disk(self):
        ext = caratheodory_extremal_for_pair((0.3, 0.3j), (-0.2, -0.2j))
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = tuple(
                0.999 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                for _ in range(2)
            )
            assert abs(ext(z)) < 1.0

    def test_coordinates_are_one_based(self):
        ext = caratheodory_extremal_for_pair((0.1, 0.7, 0.4), (0.0, 0.0, 0.0))
        assert ext.coordinates == (2,)

    def test_unbalanced_falls_back_to_projection(self):
        l, m = (0.5, 0.1), (0.0, 0.0)
        ext = caratheodory_extremal_for_pair(l, m)
        assert ext.n == 1
        assert abs(ext(l)) == pytest.approx(0.5, abs=1e-12)


class TestFindBalancedPairOnGraph:
    def test_witness_inequality_quadratic(self):
        z, gz = find_balanced_pair_on_graph([0.0, 0.0, 0.9], w1=0.3, r=0.6)
        assert abs(z) <= 0.6 + 1e-12
        assert pseudo_hyperbolic(gz, 0.3) <= abs(z) + 1e-9

    def test_witness_inequality_generic(self):
        g = [0.0, 0.5, 0.0, 0.3]
        z, gz = find_balanced_pair_on_graph(g, w1=0.2 + 0.1j, r=0.5)
        assert pseudo_hyperbolic(gz, 0.2 + 0.1j) <= abs(z) + 1e-9
        assert gz == pytest.approx(np.polyval(g[::-1], z), abs=1e-14)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            find_balanced_pair_on_graph([0.0, 1.0], w1=0.5, r=0.3)
        with pytest.raises(DomainError):
            find_balanced_pair_on_graph([0.1, 0.5], w1=0.0, r=0.5)
        with pytest.raises(DomainError):
            find_balanced_pair_on_graph([0.0, 0.5, 0.5], w1=0.0, r=0.5)
        # degree 13 is above the Polynomial cap
        with pytest.raises(DomainError, match="exceeds cap"):
            find_balanced_pair_on_graph([0.0] * 13 + [0.5], w1=0.0, r=0.5)

    def test_sup_just_above_one_rejected(self):
        # |g| peaks at 1 + 2e-8 between two of 4096 equally spaced circle
        # samples, which all read below 1
        c, alpha = 0.5 + 1e-8, np.pi / 4096
        g = [0.0, c * np.exp(1j * alpha), c * np.exp(2j * alpha)]
        with pytest.raises(DomainError, match="not a self-map"):
            find_balanced_pair_on_graph(g, w1=0.0, r=0.5)

    def test_fixed_point_is_exactly_balanced(self):
        # g = z / 2 and w1 = -0.3: the fixed points of the Mobius image of
        # g solve 0.15 z^2 + 1.5 z + 0.3 = 0, and z = (sqrt(2.07) - 1.5) / 0.3
        # lies inside r = 0.5
        z, gz = find_balanced_pair_on_graph([0.0, 0.5], w1=-0.3, r=0.5)
        assert z == pytest.approx((np.sqrt(2.07) - 1.5) / 0.3, abs=1e-12)
        assert pseudo_hyperbolic(gz, -0.3) == pytest.approx(abs(z), abs=1e-12)

    @pytest.mark.parametrize(
        "g, w1, witness",
        [([], 0.3j, 0.3j), ([0.0], 0.3, 0.3), ([0.0, 0.5, 0.2], 0.0, 0.0)],
    )
    def test_zero_map_and_zero_target(self, g, w1, witness):
        # g = 0 has the one fixed point z = w1; w1 = 0 has z = 0 as one
        z, gz = find_balanced_pair_on_graph(g, w1=w1, r=0.5)
        assert z == pytest.approx(witness, abs=1e-15)
        assert pseudo_hyperbolic(gz, w1) <= abs(z) + 1e-15

    @pytest.mark.parametrize(
        "g, w1, on_circle",
        [([0.0, 0.5], -0.3, False), ([0.0, -0.9], 0.45, True)],
    )
    def test_zero_top_coefficients_change_nothing(self, g, w1, on_circle):
        # the polynomials handed to np.roots then lead with zeros
        z, gz = find_balanced_pair_on_graph(g, w1=w1, r=0.5)
        assert (abs(z) == pytest.approx(0.5, rel=1e-14)) == on_circle
        assert pseudo_hyperbolic(gz, w1) <= abs(z) + 1e-9
        padded = find_balanced_pair_on_graph(g + [0.0, 0.0], w1=w1, r=0.5)
        assert padded == pytest.approx((z, gz), abs=1e-15)

    def test_random_sweep_always_finds_a_witness(self):
        # degree 1-12, torus sup up to 1 - 1e-6, r up to 0.999 and |w1| up to
        # r (1 - 1e-6); a point strictly inside |z| < r is a fixed point,
        # one on the circle comes from the critical points there
        rng = np.random.default_rng(26)
        branches = {"fixed": 0, "circle": 0}
        for _ in range(1000):
            deg = int(rng.integers(1, 13))
            c = np.r_[0.0, rng.normal(size=deg) + 1j * rng.normal(size=deg)]
            sup = sup_on_torus(Polynomial(1, {(k,): v for k, v in enumerate(c)}))
            c *= (1.0 - 10.0 ** -rng.uniform(2, 6)) / sup
            r = 1.0 - 10.0 ** -rng.uniform(0.3, 3)
            w1 = r * (1.0 - 10.0 ** -rng.uniform(0.5, 6))
            w1 *= np.exp(2j * np.pi * rng.uniform())
            z, gz = find_balanced_pair_on_graph(list(c), w1=w1, r=r)
            assert abs(z) <= r
            assert pseudo_hyperbolic(gz, w1) <= abs(z) + 1e-9
            assert gz == np.polyval(c[::-1], z)
            branches["circle" if abs(z) > r * (1 - 1e-14) else "fixed"] += 1
        assert min(branches.values()) > 0, branches


class TestScanBalancedPairs:
    def test_finds_constructed_ties(self):
        sample = [(0.3, 0.3), (-0.2, -0.2), (0.1, 0.5), (0.0, 0.0)]
        found = scan_balanced_pairs(sample)
        pairs = {idx for idx, _ in found}
        assert (0, 1) in pairs
        assert (0, 3) in pairs

    def test_sorted_by_n_then_index(self):
        sample = [(0.3, 0.3, 0.3), (0.0, 0.0, 0.0), (0.2, 0.2, 0.5)]
        found = scan_balanced_pairs(sample)
        ns = [rep.n for _, rep in found]
        assert ns == sorted(ns, reverse=True)

    def test_empty_sample_rejected(self):
        with pytest.raises(DegenerateDataError):
            scan_balanced_pairs([])

    def test_coincident_points_skipped(self):
        found = scan_balanced_pairs([(0.1, 0.1), (0.1, 0.1)])
        assert found == []
