"""Tests for sparse multivariate polynomials and the torus supremum."""

import numpy as np
import pytest

from polydisklab import Polynomial, polynomials, random_polynomial, sup_on_torus
from polydisklab.errors import DomainError
from polydisklab.operators import (
    VN_MAX_DEGREE,
    _draw_samples,
    _sample_polynomial,
)
from polydisklab.polynomials import (
    MAX_DEGREE,
    REFINE_CANDIDATES,
    REFINE_POINTS,
    REFINE_SHRINK,
    REFINE_STAGES,
    _coefficient_stack,
    _grid_candidates,
    _local_grid_values,
    _phases,
    effective_torus_grid,
    monomial,
)


def _l1(p):
    return sum(abs(c) for c in p.coeffs.values())


def _ifftn_grid(p):
    """Oracle for the grid scan: |p| on the grid of grid-th roots of unity
    in each coordinate, from the padded coefficient tensor by ifftn."""
    grid = effective_torus_grid(p.d)
    C = _coefficient_stack([p])[0]
    pad = np.zeros((grid,) * p.d, dtype=complex)
    pad[tuple(slice(0, s) for s in C.shape)] = C
    return np.abs(np.fft.ifftn(pad) * grid ** p.d), grid


def _grid_peaks(values, take):
    """Oracle of the candidate rule: of the take largest grid values, the
    points with no strictly larger one among them within one grid step
    in every coordinate, counted cyclically."""
    top = np.argsort(values.ravel())[-take:]
    points = list(zip(*np.unravel_index(top, values.shape)))
    grid = values.shape[0]

    def near(a, b):
        return all((x - y) % grid in (0, 1, grid - 1) for x, y in zip(a, b))

    return {a for a in points
            if not any(near(a, b) and values[b] > values[a] for b in points)}


def _kernel_grid(p):
    """The grid values of _grid_candidates: one window of the local grid
    kernel, centred at theta = 0, with the grid angles as offsets."""
    grid = effective_torus_grid(p.d)
    C = _coefficient_stack([p])
    width = max(C.shape[1:])
    angles = np.arange(grid) * (2.0 * np.pi / grid)
    vals = _local_grid_values(
        C, _phases(np.zeros((1, p.d)), width), _phases(angles, width)
    )
    return np.abs(vals[0]), grid


class TestPolynomialBasics:
    def test_evaluation_single_and_batch(self):
        p = Polynomial(2, {(1, 0): 0.5, (0, 1): 0.5})
        assert p(np.array([0.4, 0.6])) == pytest.approx(0.5)
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [1j, -1j]])
        assert np.allclose(p(pts), [0.0, 1.0, 0.0])

    def test_arithmetic(self):
        z1 = monomial(2, (1, 0))
        z2 = monomial(2, (0, 1))
        p = (z1 + z2) * 0.5
        q = z1 * z2 - 1.0
        pt = np.array([0.3, -0.5j])
        assert (p * q)(pt) == pytest.approx(p(pt) * q(pt))
        assert (p - q)(pt) == pytest.approx(p(pt) - q(pt))
        assert (2.0 * p)(pt) == pytest.approx(2.0 * p(pt))

    def test_like_terms_collapse(self):
        p = Polynomial(1, {(1,): 1.0}) + Polynomial(1, {(1,): -1.0})
        assert p.coeffs == {}
        assert p.degree == 0

    def test_degree_accounting(self):
        p = Polynomial(3, {(2, 1, 0): 1.0, (0, 0, 4): 2.0})
        assert p.degree == 4
        assert p.degree_in(0) == 2
        assert p.degree_in(1) == 1
        assert p.degree_in(2) == 4

    def test_degree_cap(self):
        with pytest.raises(DomainError):
            Polynomial(1, {(MAX_DEGREE + 1,): 1.0})

    def test_exponent_validation(self):
        with pytest.raises(DomainError):
            Polynomial(2, {(1,): 1.0})
        with pytest.raises(DomainError):
            Polynomial(2, {(-1, 0): 1.0})
        with pytest.raises(DomainError):
            Polynomial(0, {})

    def test_variable_count_mismatch(self):
        with pytest.raises(DomainError):
            Polynomial(2, {(1, 0): 1.0}) + Polynomial(3, {(1, 0, 0): 1.0})

    def test_payload_round_trip(self):
        p = Polynomial(2, {(1, 0): 0.5 + 0.25j, (2, 3): -1.5})
        q = Polynomial.from_payload(p.to_payload())
        assert q.d == p.d
        assert q.coeffs == p.coeffs

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                   complex(1.0, np.inf)])
    def test_non_finite_coefficient_rejected(self, c):
        # abs(nan) > chop is False, so an unchecked NaN term would vanish
        # from the polynomial; an infinite one makes the supremum NaN
        with pytest.raises(DomainError):
            Polynomial(2, {(0, 0): c, (1, 0): 1.0})
        with pytest.raises(DomainError):
            Polynomial(1, {(0,): c})

    def test_payload_validation(self):
        with pytest.raises(DomainError):
            Polynomial.from_payload({"d": 2, "terms": [[1, 0, 0.5]]})

    def test_coeffs_in_slice(self):
        # p = z1^2 z2 + 3 z1 + z2^2, sliced in z1 at z2 = 0.5
        p = Polynomial(2, {(2, 1): 1.0, (1, 0): 3.0, (0, 2): 1.0})
        c = p.coeffs_in(0, [None, 0.5])
        assert np.allclose(c, [0.25, 3.0, 0.5])


class TestTorusSup:
    def test_averaging_polynomial(self):
        p = Polynomial(2, {(1, 0): 0.5, (0, 1): 0.5})
        assert sup_on_torus(p) == pytest.approx(1.0, abs=1e-9)

    def test_one_variable_triple(self):
        p = Polynomial(1, {(0,): 1.0, (1,): 1.0, (2,): 1.0})
        assert sup_on_torus(p) == pytest.approx(3.0, abs=1e-9)

    def test_monomials(self):
        # one term: constant modulus on the torus, so |c| in closed form
        for k in (1, 3, 7):
            assert sup_on_torus(monomial(1, (k,))) == 1.0
        assert sup_on_torus(monomial(3, (1, 2, 0), coeff=2.5)) == 2.5

    def test_constant_and_zero(self):
        assert sup_on_torus(Polynomial(2, {(0, 0): -1.5j})) == 1.5
        assert sup_on_torus(Polynomial(2, {})) == 0.0

    def test_bounds_consistency(self):
        # grid sup <= true sup <= coefficient l1 norm
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(1, 3))
            p = random_polynomial(rng, d, int(rng.integers(1, 6)))
            if not p.coeffs:
                continue
            sup = sup_on_torus(p)
            l1 = sum(abs(c) for c in p.coeffs.values())
            th = 2 * np.pi * rng.random((50, d))
            sampled = np.abs(p(np.exp(1j * th))).max()
            assert sampled - 1e-12 <= sup <= l1 + 1e-9

    def test_refinement_beats_raw_grid(self):
        # peak of |1 + z|^ between grid nodes: refinement must find it
        p = Polynomial(1, {(0,): 1.0, (1,): np.exp(0.5j * 2 * np.pi / 128)})
        assert sup_on_torus(p) == pytest.approx(2.0, abs=1e-9)

    def test_grid_cap_by_dimension(self):
        assert effective_torus_grid(1) == 128
        assert effective_torus_grid(2) == 128
        assert effective_torus_grid(3) == 128
        assert effective_torus_grid(4) == 32
        assert effective_torus_grid(5) == 16

    @pytest.mark.parametrize("d", [6, 7, 8])
    def test_grid_beyond_the_cap_is_refused(self, d, monkeypatch):
        # 16^d points break TORUS_GRID_CAP from d = 6 (2^24 points at d = 6,
        # 4 GB of grid at d = 7): refused before any grid is built
        def fail(*args):
            raise AssertionError("built a grid")

        monkeypatch.setattr(polynomials, "_local_grid_values", fail)
        monkeypatch.setattr(polynomials, "_phases", fail)
        with pytest.raises(DomainError):
            effective_torus_grid(d)
        two = Polynomial(d, {(0,) * d: 1.0, (1,) + (0,) * (d - 1): 0.5j})
        with pytest.raises(DomainError):
            sup_on_torus(two)
        # zero and one-term polynomials keep their closed form
        one = monomial(d, (1,) * d, coeff=-2j)
        assert sup_on_torus(one) == 2.0
        assert sup_on_torus(Polynomial(d, {})) == 0.0

    @pytest.mark.parametrize("d, degree", [(1, 12), (2, 6), (3, 2), (4, 3), (5, 2)])
    def test_grid_values_match_padded_ifftn(self, d, degree):
        p = random_polynomial(np.random.default_rng(d), d, degree)
        vals, grid = _kernel_grid(p)
        want, _grid = _ifftn_grid(p)
        assert np.abs(vals - want).max() <= 1e-13 * _l1(p)
        # the candidates are the peaks among the oracle's best grid points
        thetas, best = _grid_candidates(p)
        got = {tuple(k) for k in np.rint(thetas * grid / (2.0 * np.pi)).astype(int)}
        assert got == _grid_peaks(want, REFINE_CANDIDATES)
        assert abs(best - want.max()) <= 1e-13 * _l1(p)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_window_for_a_peak_on_the_grid_seam(self, d):
        # |1 + z_1 + ... + z_d| peaks at theta = 0, next to grid points at
        # index grid - 1: counted cyclically, they are its neighbours
        p = Polynomial(d, {tuple(e): 1.0 for e in np.eye(d + 1, d, -1, dtype=int)})
        thetas, best = _grid_candidates(p)
        assert np.array_equal(thetas, np.zeros((1, d)))
        assert best == pytest.approx(d + 1.0, rel=1e-15)

    def test_grid_values_shape(self):
        p = Polynomial(2, {(1, 0): 1.0})
        vals, grid = _kernel_grid(p)
        assert vals.shape == (grid, grid)
        assert np.allclose(vals, 1.0, atol=1e-12)


class TestLocalGridKernel:
    """The batched local grids of sup_on_torus against Polynomial.__call__
    at the same points."""

    def _grid(self, p, thetas, offsets):
        C = _coefficient_stack([p])[0]
        width = max(C.shape)
        return _local_grid_values(
            C, _phases(thetas, width), _phases(offsets, width)
        )

    def _check(self, p, thetas, offsets):
        """offsets: (P,) shared by all windows, or (c, P), one row each."""
        got = self._grid(p, thetas, offsets)
        c, d = thetas.shape
        P = offsets.shape[-1]
        assert got.shape == (c,) + (P,) * d
        index = np.stack(np.meshgrid(*([np.arange(P)] * d), indexing="ij"), -1)
        offs = np.broadcast_to(offsets, (c, P))
        pts = thetas[:, None, :] + offs[:, index.reshape(-1, d)]
        want = p(np.exp(1j * pts.reshape(-1, d))).reshape(got.shape)
        assert np.abs(got - want).max() <= 1e-13 * _l1(p)
        return got

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_random_windows(self, d):
        rng = np.random.default_rng(40 + d)
        p = random_polynomial(rng, d, 5 if d < 4 else 3)
        thetas = 2.0 * np.pi * rng.random((6, d))
        self._check(p, thetas, 0.3 * np.linspace(-1.0, 1.0, 5))
        # a window of its own width around each centre, as in sup_on_torus
        widths = 0.3 * rng.random(6)
        self._check(p, thetas, np.multiply.outer(widths, np.linspace(-1.0, 1.0, 9)))

    def test_unequal_degrees_per_axis(self):
        # a different degree on every axis, so that a contraction along
        # the wrong axis cannot match
        p = Polynomial(3, {(3, 0, 1): 1 - 0.5j, (0, 1, 4): 0.7,
                           (1, 1, 0): -0.2j, (2, 0, 4): 0.4, (0, 0, 0): 0.1})
        rng = np.random.default_rng(8)
        self._check(p, 2.0 * np.pi * rng.random((4, 3)),
                    0.2 * np.linspace(-1.0, 1.0, 3))

    def test_windows_wrap_through_zero(self):
        p = random_polynomial(np.random.default_rng(9), 2, 6)
        thetas = np.array([[0.0, 2.0 * np.pi - 0.01], [0.02, 0.0],
                           [2.0 * np.pi - 1e-3, 1e-3]])
        offsets = 0.05 * np.linspace(-1.0, 1.0, 9)
        got = self._check(p, thetas, offsets)
        shifted = self._grid(p, thetas - 2.0 * np.pi, offsets)
        assert np.abs(got - shifted).max() <= 1e-13 * _l1(p)

    def test_constant_and_single_monomial(self):
        rng = np.random.default_rng(10)
        offsets = 0.1 * np.linspace(-1.0, 1.0, 9)
        const = self._check(Polynomial(2, {(0, 0): 2 - 1j}),
                            2.0 * np.pi * rng.random((3, 2)), offsets)
        assert np.allclose(const, 2 - 1j, rtol=0, atol=1e-15)
        mono = self._check(monomial(3, (0, 2, 0), coeff=1.5j),
                           2.0 * np.pi * rng.random((3, 3)), offsets)
        assert np.allclose(np.abs(mono), 1.5, rtol=0, atol=1e-14)


def _grid_top(p):
    """The REFINE_CANDIDATES best grid points of _grid_candidates, as
    angles, before any is dropped for a larger neighbour, and the largest
    grid value."""
    vals, grid = _kernel_grid(p)
    flat = vals.ravel()
    idx = np.argpartition(flat, flat.size - REFINE_CANDIDATES)[-REFINE_CANDIDATES:]
    centers = np.stack(np.unravel_index(idx, vals.shape), axis=1)
    return centers * (2.0 * np.pi / grid), float(flat[idx].max())


def _unmerged_sup(p, thetas, best):
    """sup_on_torus's refinement for one polynomial with at least two
    terms, from windows at the given angles and the grid maximum best,
    as a loop over rounds that keeps every window: coincident windows
    are refined side by side, and the loop runs until all windows have
    shrunk REFINE_STAGES times or 2 * REFINE_STAGES rounds have passed."""
    grid = effective_torus_grid(p.d)
    take = len(thetas)
    C = _coefficient_stack([p])[0]
    width = max(C.shape)
    offsets = np.linspace(-1.0, 1.0, REFINE_POINTS)
    strides = REFINE_POINTS ** np.arange(p.d - 1, -1, -1)
    half_widths = (2.0 * np.pi / grid) / REFINE_SHRINK ** np.arange(REFINE_STAGES + 1)
    offset_phases = _phases(np.multiply.outer(half_widths, offsets), width)
    shrinks = np.zeros(take, dtype=int)
    for _round in range(2 * REFINE_STAGES):
        if shrinks.min() >= REFINE_STAGES:
            break
        vals = _local_grid_values(C, _phases(thetas, width), offset_phases[shrinks])
        vals = np.abs(vals).reshape(take, -1)
        k = np.argmax(vals, axis=1)
        best = max(best, float(vals.max()))
        steps = k[:, None] // strides % REFINE_POINTS
        thetas = thetas + half_widths[shrinks, None] * offsets[steps]
        interior = np.all((steps > 0) & (steps < REFINE_POINTS - 1), axis=1)
        shrinks = np.minimum(shrinks + interior, REFINE_STAGES)
    return best


def _vn_samples(rng, d, count, max_degree):
    """count samples of von_neumann_check's sampler, as Polynomials."""
    C, taylor = _draw_samples(rng, d, count, max_degree)
    return [_sample_polynomial(row, t) for row, t in zip(C, taylor)]


class TestBatchedSupremum:
    """sup_on_torus takes one Polynomial and refuses a sequence of them,
    and its refinement matches the reference loop on the same windows."""

    def test_one_polynomial_sequence_refused(self):
        p = Polynomial(2, {(0, 0): 1.0, (1, 2): 0.5j})
        with pytest.raises(DomainError):
            sup_on_torus([p])
        with pytest.raises(DomainError):
            sup_on_torus((p,))

    def test_mixed_variable_counts_rejected(self):
        with pytest.raises(DomainError):
            sup_on_torus([monomial(2, (1, 0)), monomial(3, (1, 0, 0))])

    def test_empty_batch(self):
        with pytest.raises(DomainError):
            sup_on_torus([])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_merged_matches_unmerged_reference(self, d):
        # the production refinement, bit for bit against the reference
        # loop on the same windows
        rng = np.random.default_rng(29 + d)
        for p in _vn_samples(rng, d, 20 if d == 3 else 200, VN_MAX_DEGREE):
            if len(p.coeffs) > 1:
                assert sup_on_torus(p) == _unmerged_sup(p, *_grid_candidates(p))


def _near_inner_draw(index):
    """Draw index of von_neumann_check's sampler at seed 5, d = 2."""
    return _vn_samples(np.random.default_rng(5), 2, index + 1, VN_MAX_DEGREE)[index]


class TestPeakWindows:
    """One window per grid peak against a window at each of the
    REFINE_CANDIDATES best grid points.  The kept windows follow the
    reference's own trajectories, so the supremum is never above the
    reference, and a dropped window that climbs the same peak finds its
    maximum to within rounding."""

    def _check(self, polys):
        for p in polys:
            if len(p.coeffs) < 2:
                continue
            ref = _unmerged_sup(p, *_grid_top(p))
            assert ref * (1.0 - 1e-14) <= sup_on_torus(p) <= ref

    @pytest.mark.parametrize("d", [1, 2])
    def test_von_neumann_draws(self, d):
        rng = np.random.default_rng(60 + d)
        self._check(_vn_samples(rng, d, 1000, VN_MAX_DEGREE))

    def test_near_inner_draws(self):
        self._check([_near_inner_draw(i) for i in (186, 623, 996)])

    def test_three_variable_draws(self):
        rng = np.random.default_rng(64)
        self._check([random_polynomial(rng, 3, 2) for _ in range(20)])


def _certified_bracket(p, grid, rtol=1e-9, max_boxes=200_000):
    """Certified bracket (lower, upper) on sup |p| over the torus with
    upper - lower <= rtol * lower, by branch and bound on f = |p|^2.

    f has frequencies in [-n_k, n_k] along axis k (n_k the degree of p
    in z_k), so by Bernstein's inequality every second partial of f is
    at most n_j n_k sup f, and on a box of half-width r around c
        f <= f(c) + r sum_k |d_k f(c)| + (sum_k n_k r)^2 U2 / 2
    for any U2 >= sup f.  U2 starts at (sum |c_a|)^2 and is lowered to
    the largest box bound, which is again >= sup f.  The boxes start as
    the cells of the FFT grid, with f and its gradient at the grid points
    from FFTs of C and of i a_k C.  Boxes whose bound is below the best
    centre value are dropped and the rest split in 2^d halves; off the
    grid, values are sums of c_a exp(i a . theta) at the centres.  The
    bracket is exact up to rounding of order 1e-15 relative.
    """
    d = p.d
    C = _coefficient_stack([p])[0]
    spread = float(sum(C.shape) - d)
    U2 = float(np.abs(C).sum()) ** 2
    pad = np.zeros((1 + d,) + (grid,) * d, dtype=complex)
    corner = (slice(None),) + tuple(slice(0, s) for s in C.shape)
    pad[corner] = np.concatenate([C[None], 1j * np.indices(C.shape) * C])
    axes = tuple(range(1, d + 1))
    vals = (np.fft.ifftn(pad, axes=axes) * grid ** d).reshape(1 + d, -1).T
    centers = np.indices((grid,) * d).reshape(d, -1).T * (2.0 * np.pi / grid)
    expos = np.array(sorted(p.coeffs), dtype=float).reshape(-1, d)
    coef = np.array([p.coeffs[e] for e in sorted(p.coeffs)])
    weights = np.concatenate([coef[:, None], 1j * expos * coef[:, None]], 1)
    corners = np.stack(
        np.meshgrid(*([(-1.0, 1.0)] * d), indexing="ij"), axis=-1
    ).reshape(-1, d)
    r = np.pi / grid
    lower = 0.0
    while True:
        v, dv = vals[:, 0], vals[:, 1:]
        f = np.abs(v) ** 2
        linear = f + r * np.abs(2.0 * (np.conj(v)[:, None] * dv).real).sum(1)
        lower = max(lower, float(f.max()))
        q = 0.5 * (spread * r) ** 2
        top = float(linear.max())
        while top + q * U2 < U2 * (1.0 - 1e-12):
            U2 = top + q * U2
        if np.sqrt(U2) - np.sqrt(lower) <= rtol * np.sqrt(lower):
            return np.sqrt(lower), np.sqrt(U2)
        keep = centers[linear + q * U2 >= lower]
        assert len(keep) * 2 ** d <= max_boxes, "box count exploded"
        r /= 2.0
        centers = (keep[:, None, :] + r * corners[None]).reshape(-1, d)
        # the phase as a real product: right after a complex matmul,
        # numpy's complex exp ran ten times slower (numpy 2.4 wheels)
        vals = np.exp(1j * (centers @ expos.T)) @ weights


class TestCertifiedSupremum:
    """sup_on_torus against certified brackets: it must lie in the
    bracket and fall short of the certified upper bound by at most 2e-9
    relative.  The 1e-13 * sum |c_a| allowance is rounding of evaluation,
    as in TestLocalGridKernel."""

    def _check(self, p, grid):
        lower, upper = _certified_bracket(p, grid)
        sup = sup_on_torus(p)
        rounding = 1e-13 * _l1(p)
        assert lower - rounding <= sup <= upper + rounding
        assert sup >= upper * (1.0 - 2e-9)

    def test_von_neumann_draws(self):
        rng = np.random.default_rng(23)
        for p in _vn_samples(rng, 2, 200, VN_MAX_DEGREE):
            self._check(p, 128)

    @pytest.mark.parametrize("index", [186, 623, 996])
    def test_near_inner_draws(self, index):
        # draws of seed 5 that are Taylor truncations of transfer functions
        # near inner (|p| within 7% of 1 on half the torus); the highest
        # peak of each lies on a thin slanted ridge, where a window that
        # shrinks every round falls behind the crest's maximum (draw 186
        # by 3e-7 with a 4-fold shrink, draws 623 and 996 by 5e-7 and
        # 8e-8 with a 3-fold one)
        p = _near_inner_draw(index)
        absvals, _grid = _ifftn_grid(p)
        assert np.all(np.abs(np.percentile(absvals, [25, 75]) - 1.0) < 0.07)
        self._check(p, 128)

    def test_three_variable_draws(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            self._check(random_polynomial(rng, 3, 2), 64)


class TestRandomPolynomial:
    def test_respects_degree_and_dimension(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            deg = int(rng.integers(1, 6))
            p = random_polynomial(rng, d, deg)
            assert p.d == d
            assert p.degree <= deg
