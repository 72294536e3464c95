"""Tests for variety sampling, graph extraction, the retract test, and
the uniqueness-curve fit."""

import numpy as np
import pytest

from polydisklab import (
    Polynomial,
    builtin_rational_inner_graph,
    builtin_v0,
    contains,
    extract_graph,
    fit_rational_graph,
    retract_check,
    sample_variety,
    sup_on_torus,
    uniqueness_coincidence_check,
    uniqueness_variety_points,
)
from polydisklab.errors import DegenerateDataError, DomainError
from polydisklab.variety import equal_area_disk


def graph_generator(h):
    """Generator z3 - h(z1, z2) for a 2-variable polynomial h."""
    coeffs = {(0, 0, 1): 1.0}
    for (a, b), c in h.coeffs.items():
        coeffs[(a, b, 0)] = coeffs.get((a, b, 0), 0.0) - c
    return (Polynomial(3, coeffs),)


class TestContainsAndSample:
    def test_contains_on_plane(self):
        gens = builtin_v0()
        assert contains(gens, (0.1, 0.2, 0.3 + 0j))
        assert not contains(gens, (0.1, 0.2, 0.4))

    def test_sample_satisfies_generators(self):
        gens = builtin_v0()
        pts = sample_variety(gens, count=200, seed=0)
        assert len(pts) > 50
        for g in gens:
            assert np.abs(g(pts)).max() <= 1e-8
        assert np.abs(pts).max() < 1.0

    def test_sample_respects_seed(self):
        gens = builtin_v0()
        a = sample_variety(gens, count=100, seed=5)
        b = sample_variety(gens, count=100, seed=5)
        assert np.array_equal(a, b)

    def test_constant_generator_degenerate(self):
        with pytest.raises(DegenerateDataError):
            sample_variety((Polynomial(3, {(0, 0, 0): 1.0}),))

    def test_count_below_one_rejected(self):
        for count in (0, -1):
            with pytest.raises(DomainError, match="count"):
                sample_variety(builtin_v0(), count=count)


class TestExtractGraph:
    def test_v0_three_pairs(self):
        gens = builtin_v0()
        for pair in ((1, 2), (1, 3), (2, 3)):
            rep = extract_graph(gens, pair)
            assert rep.single_sheeted
            assert rep.dependent_coordinate not in pair
            # the plane leaves the polydisk over part of every base grid
            assert 0.0 < rep.mask_fraction < 1.0
            assert rep.escape_count > 0

    def test_v0_mask_is_pointwise_correct(self):
        gens = builtin_v0()
        rep = extract_graph(gens, (1, 2))
        s = np.abs(rep.base_points.sum(axis=1))
        # masked exactly where |z1 + z2| reaches the closed unit disk edge
        assert np.all(s[rep.mask] >= 1.0 - 1e-7)
        assert np.all(s[~rep.mask] <= 1.0 + 1e-7)
        vals = rep.values[~rep.mask]
        assert np.allclose(vals, rep.base_points[~rep.mask].sum(axis=1),
                           atol=1e-10)

    def test_polynomial_graph_values(self):
        h = Polynomial(2, {(1, 1): 0.5})
        rep = extract_graph(graph_generator(h), (1, 2))
        assert rep.single_sheeted
        assert rep.mask_fraction == 0.0
        assert rep.escape_count == 0
        got = rep.values
        want = 0.5 * rep.base_points[:, 0] * rep.base_points[:, 1]
        assert np.abs(got - want).max() <= 1e-10
        assert rep.sup_abs <= 0.5

    def test_pair_validation(self):
        gens = builtin_v0()
        with pytest.raises(DomainError):
            extract_graph(gens, (1, 2, 3))
        with pytest.raises(DomainError):
            extract_graph(gens, (0, 1))
        with pytest.raises(DomainError):
            extract_graph(gens, (1, 1))

    def test_grid_below_one_rejected(self):
        for grid in ((0, 0), (8, 0), (-1, 8)):
            with pytest.raises(DomainError, match="grid"):
                extract_graph(builtin_v0(), (1, 2), grid=grid)

    def test_degenerate_direction(self):
        # generator free of z3: no graph over (1, 2)
        g = (Polynomial(3, {(1, 0, 0): 1.0, (0, 1, 0): -1.0}),)
        with pytest.raises(DegenerateDataError):
            extract_graph(g, (1, 2))


class TestRetractCheck:
    def test_v0_is_not_retract(self):
        rep = retract_check(builtin_v0())
        assert rep.verdict == "not_retract"
        pair, base, escaped = rep.witness
        assert pair in ((1, 2), (1, 3), (2, 3))
        assert max(abs(b) for b in base) < 1.0
        assert abs(escaped) > 1.0

    def test_small_polynomial_graph_is_retract(self):
        h = Polynomial(2, {(1, 1): 0.5})
        rep = retract_check(graph_generator(h))
        assert rep.verdict == "retract_graph"
        assert rep.witness is None

    def test_random_bounded_graphs_are_retracts(self):
        rng = np.random.default_rng(71)
        for _ in range(4):
            from polydisklab import random_polynomial

            h = random_polynomial(rng, 2, 3)
            sup = sup_on_torus(h)
            if sup == 0.0:
                continue
            h = h * (0.9 / sup)
            assert retract_check(graph_generator(h)).verdict == "retract_graph"

    def test_permutation_invariance(self):
        # swap z1 and z2 in the generator; verdict must not change
        h = Polynomial(2, {(2, 0): 0.4, (0, 1): 0.3})
        g = graph_generator(h)[0]
        swapped = Polynomial(
            3, {(e[1], e[0], e[2]): c for e, c in g.coeffs.items()}
        )
        a = retract_check((g,))
        b = retract_check((swapped,))
        assert a.verdict == b.verdict == "retract_graph"

    def test_multi_generator_inconclusive(self):
        g1 = Polynomial(3, {(0, 0, 1): 1.0, (1, 0, 0): -1.0})
        g2 = Polynomial(3, {(0, 1, 0): 1.0})
        rep = retract_check((g1, g2))
        assert rep.verdict == "inconclusive"

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            retract_check((Polynomial(2, {(1, 0): 1.0}),))

    @pytest.mark.parametrize("margin", [float("nan"), 2.0, 1.0, -0.1, float("inf")])
    def test_margin_outside_unit_interval_rejected(self, margin):
        # z3 = 0.5 z1 + 0.49 z2 is a retract graph at the default margin;
        # a margin outside [0, 1) is an error, not an inconclusive verdict
        g = graph_generator(Polynomial(2, {(1, 0): 0.5, (0, 1): 0.49}))
        assert retract_check(g).verdict == "retract_graph"
        assert retract_check(g, margin=0.0).verdict == "retract_graph"
        with pytest.raises(DomainError, match="margin"):
            retract_check(g, margin=margin)

    def test_rational_inner_graph_is_retract(self):
        rep = retract_check(builtin_rational_inner_graph(0.4, 0.4))
        assert rep.verdict == "retract_graph"


class TestBuiltins:
    def test_rational_inner_boundary_modulus(self):
        gens = builtin_rational_inner_graph(0.3, 0.5, omega=1j)
        g = gens[0]
        # on the torus, solve for z3 and check |z3| = 1
        rng = np.random.default_rng(2)
        th = 2 * np.pi * rng.random((100, 2))
        z12 = np.exp(1j * th)
        num = np.zeros(100, dtype=complex)
        den = np.zeros(100, dtype=complex)
        for (a, b, c3), c in g.coeffs.items():
            term = c * z12[:, 0] ** a * z12[:, 1] ** b
            if c3 == 1:
                den += term
            else:
                num += term
        z3 = -num / den
        assert np.abs(np.abs(z3) - 1.0).max() < 1e-9

    def test_rational_inner_validation(self):
        with pytest.raises(DomainError):
            builtin_rational_inner_graph(1.2, 0.0)
        with pytest.raises(DomainError):
            builtin_rational_inner_graph(0.3, 0.3, omega=0.5)


class TestUniquenessCurve:
    def test_points_lie_in_polydisk(self):
        zet = 0.7 * np.exp(1j * np.linspace(0, 2 * np.pi, 17)[:-1])
        pts = uniqueness_variety_points(0.2, 0.4j, -0.3, 0.5, zet)
        assert pts.shape == (16, 3)
        assert np.abs(pts).max() < 1.0

    def test_zeta_zero_maps_to_origin(self):
        pts = uniqueness_variety_points(0.2, 0.4j, -0.3, 0.5, [0.0])
        assert np.abs(pts).max() == 0.0

    def test_colinear_rejected(self):
        with pytest.raises(DegenerateDataError):
            uniqueness_variety_points(0.1, 0.3, -0.5, 0.5, [0.2])

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            uniqueness_variety_points(0.2, 0.4j, -0.3, 1.5, [0.2])
        with pytest.raises(DomainError):
            uniqueness_variety_points(0.2, 0.4j, -0.3, 0.5, [1.0])

    def test_coincidence_with_rational_graph(self):
        fit = uniqueness_coincidence_check(0.2, 0.4j, -0.3)
        assert fit.residual < 1e-6
        assert fit.consistency < 1e-6
        # holdout at fresh parameters
        zet = 0.55 * np.exp(1j * (np.arange(40) + 0.5) / 40 * 2 * np.pi)
        fresh = uniqueness_variety_points(0.2, 0.4j, -0.3, 0.37, zet)
        assert np.abs(fit.generator(fresh)).max() < 1e-5

    def test_random_parameter_fits(self):
        rng = np.random.default_rng(19)
        done = 0
        while done < 5:
            a, b, g = (0.6 * np.sqrt(rng.random(3))
                       * np.exp(2j * np.pi * rng.random(3)))
            try:
                fit = uniqueness_coincidence_check(a, b, g)
            except DegenerateDataError:
                continue
            assert fit.residual < 1e-6
            done += 1


class TestRationalGraphFit:
    def test_recovers_known_parameters(self):
        gens = builtin_rational_inner_graph(0.25, -0.35j, omega=np.exp(0.4j))
        pts = sample_variety(gens, count=150, seed=1)
        fit = fit_rational_graph(pts)
        assert abs(fit.A - 0.25) < 1e-8
        assert abs(fit.B + 0.35j) < 1e-8
        assert abs(fit.omega - np.exp(0.4j)) < 1e-8
        assert fit.residual < 1e-9

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            fit_rational_graph(np.zeros((3, 3)))

    def test_rank_deficient_sample(self):
        # all points share one base point: the fit is undetermined
        pts = np.tile(np.array([[0.1, 0.2, 0.15]]), (10, 1))
        with pytest.raises(DegenerateDataError):
            fit_rational_graph(pts)


class TestEqualAreaGrid:
    def test_points_inside_disk(self):
        pts = equal_area_disk(200, np.random.default_rng(0))
        assert len(pts) == 200
        assert np.abs(pts).max() < 1.0

    def test_deterministic_given_rng_seed(self):
        a = equal_area_disk(64, np.random.default_rng(3))
        b = equal_area_disk(64, np.random.default_rng(3))
        assert np.array_equal(a, b)
