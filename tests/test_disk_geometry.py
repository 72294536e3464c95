import numpy as np
import pytest

from polydisklab.disk_geometry import (
    BOUNDARY_TOL,
    BlaschkeProduct,
    MobiusMap,
    PolydiskAutomorphism,
    apply_automorphism,
    blaschke_eval,
    check_disk_point,
    check_poly_point,
    kobayashi_distance_polydisk,
    mobius_interchange,
    pseudo_hyperbolic,
)
from polydisklab.errors import DimensionMismatchError, DomainError


def random_disk(rng, n=1, rmax=0.999):
    r = rmax * np.sqrt(rng.uniform(size=n))
    z = r * np.exp(2j * np.pi * rng.uniform(size=n))
    return z[0] if n == 1 else z


class TestPseudoHyperbolic:
    def test_distance_to_zero_is_modulus(self):
        assert pseudo_hyperbolic(0.0, 0.3 + 0.4j) == pytest.approx(0.5)

    def test_known_value(self):
        # |0.3 - (-0.4)| / |1 - (-0.4)(0.3)| = 0.7 / 1.12
        assert pseudo_hyperbolic(0.3, -0.4) == pytest.approx(0.625)

    def test_symmetry_and_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            z, w = random_disk(rng), random_disk(rng)
            assert pseudo_hyperbolic(z, w) == pytest.approx(
                pseudo_hyperbolic(w, z), abs=1e-15
            )
        assert pseudo_hyperbolic(0.5j, 0.5j) == 0.0

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            r = pseudo_hyperbolic(random_disk(rng), random_disk(rng))
            assert 0.0 <= r < 1.0

    def test_moebius_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            z, w, a = random_disk(rng, rmax=0.99), random_disk(rng, rmax=0.99), random_disk(rng, rmax=0.95)
            tau = np.exp(2j * np.pi * rng.uniform())
            phi = MobiusMap(a, tau)
            assert pseudo_hyperbolic(phi(z), phi(w)) == pytest.approx(
                pseudo_hyperbolic(z, w), abs=1e-12
            )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            z, w, v = (random_disk(rng) for _ in range(3))
            assert pseudo_hyperbolic(z, w) <= (
                pseudo_hyperbolic(z, v) + pseudo_hyperbolic(v, w) + 1e-14
            )


class TestDomainChecks:
    def test_boundary_rejection(self):
        with pytest.raises(DomainError):
            check_disk_point(1.0)
        with pytest.raises(DomainError):
            check_disk_point(1.0 - BOUNDARY_TOL / 2)
        with pytest.raises(DomainError):
            check_disk_point(np.exp(0.77j))
        with pytest.raises(DomainError):
            check_disk_point(float("nan"))
        assert check_disk_point(0.999999) == 0.999999

    def test_poly_point_dimension(self):
        assert check_poly_point((0.1, 0.2j), d=2) == (0.1 + 0j, 0.2j)
        with pytest.raises(DimensionMismatchError):
            check_poly_point((0.1, 0.2), d=3)
        with pytest.raises(DomainError):
            check_poly_point((0.1, 1.0))


class TestMobiusMap:
    def test_interchange(self):
        a = 0.4 - 0.2j
        phi = mobius_interchange(a)
        assert phi(a) == pytest.approx(0.0, abs=1e-15)
        assert phi(0.0) == pytest.approx(a, abs=1e-15)
        # involution
        z = 0.3 + 0.1j
        assert phi(phi(z)) == pytest.approx(z, abs=1e-14)

    def test_non_unimodular_prefactor_rejected(self):
        with pytest.raises(DomainError):
            MobiusMap(0.2, 1.5)

    def test_nan_prefactor_rejected(self):
        # NaN fails every comparison, so the check must be written to fail
        with pytest.raises(DomainError, match="unimodular"):
            MobiusMap(0.3, tau=np.nan)

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            phi = MobiusMap(random_disk(rng), np.exp(2j * np.pi * rng.uniform()))
            psi = MobiusMap.from_matrix(phi.matrix())
            assert psi.a == pytest.approx(phi.a, abs=1e-12)
            assert psi.tau == pytest.approx(phi.tau, abs=1e-12)

    def test_compose_matches_pointwise(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            f = MobiusMap(random_disk(rng), np.exp(2j * np.pi * rng.uniform()))
            g = MobiusMap(random_disk(rng), np.exp(2j * np.pi * rng.uniform()))
            h = f.compose(g)
            z = random_disk(rng)
            assert h(z) == pytest.approx(f(g(z)), abs=1e-12)

    def test_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            f = MobiusMap(random_disk(rng), np.exp(2j * np.pi * rng.uniform()))
            z = random_disk(rng)
            assert f.inverse()(f(z)) == pytest.approx(z, abs=1e-12)


class TestPolydiskAutomorphism:
    def test_identity(self):
        phi = PolydiskAutomorphism.identity(3)
        z = (0.1, 0.2j, -0.3)
        assert apply_automorphism(phi, z) == pytest.approx(z, abs=1e-15)

    def test_centering(self):
        p = (0.3, -0.2j)
        phi = PolydiskAutomorphism.centering(p)
        assert apply_automorphism(phi, p) == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_kobayashi_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            l = tuple(random_disk(rng) for _ in range(3))
            m = tuple(random_disk(rng) for _ in range(3))
            phi = PolydiskAutomorphism.centering(
                tuple(random_disk(rng) for _ in range(3))
            )
            assert kobayashi_distance_polydisk(
                apply_automorphism(phi, l), apply_automorphism(phi, m)
            ) == pytest.approx(kobayashi_distance_polydisk(l, m), abs=1e-12)

    def test_kobayashi_is_max_of_coordinates(self):
        l, m = (0.1, 0.5), (0.2, -0.1)
        assert kobayashi_distance_polydisk(l, m) == pytest.approx(
            max(pseudo_hyperbolic(0.1, 0.2), pseudo_hyperbolic(0.5, -0.1))
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kobayashi_distance_polydisk((0.1, 0.2), (0.1, 0.2, 0.3))


class TestBlaschke:
    def test_modulus_inside_and_near_circle(self):
        b = BlaschkeProduct(zeros=(0.2, -0.5j), unimodular_constant=1j, scale=0.8)
        rng = np.random.default_rng(9)
        for _ in range(100):
            z = random_disk(rng)
            assert abs(blaschke_eval(b, z)) < 0.8
        circle = np.exp(2j * np.pi * np.arange(64) / 64)
        vals = np.array([b(0.9999999 * t) for t in circle])
        assert np.allclose(np.abs(vals), 0.8, atol=1e-5)

    def test_zeros_are_hit(self):
        b = BlaschkeProduct(zeros=(0.3 + 0.1j,))
        assert blaschke_eval(b, 0.3 + 0.1j) == pytest.approx(0.0, abs=1e-15)

    def test_degree_and_validation(self):
        assert BlaschkeProduct(zeros=(0.1, 0.2, 0.3)).degree == 3
        with pytest.raises(DomainError):
            BlaschkeProduct(zeros=(1.1,))
        with pytest.raises(DomainError):
            BlaschkeProduct(zeros=(), scale=-1.0)

    @pytest.mark.parametrize("scale", [np.nan, np.inf])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(DomainError, match="scale"):
            BlaschkeProduct(zeros=(0.5,), scale=scale)

    def test_nan_constant_rejected(self):
        with pytest.raises(DomainError, match="unimodular"):
            BlaschkeProduct(zeros=(0.5,), unimodular_constant=np.nan)
