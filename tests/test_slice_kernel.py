"""The batched slice kernel and balanced-pair scan against the per-point
code they replaced, which is kept below as the reference.

The batched code is required to agree bit for bit: coefficients, roots,
graph reports, samples and balanced pairs.
"""

import numpy as np
import pytest

from polydisklab.balance import classify_pair, scan_balanced_pairs
from polydisklab.disk_geometry import _rho_raw, pseudo_hyperbolic
from polydisklab.polynomials import Polynomial
from polydisklab.variety import (
    BOUNDARY_WINDOW,
    LEAD_TRIM,
    RESIDUAL_TOL,
    ROOT_DEDUPE,
    ROOT_MATCH_TOL,
    _scale,
    builtin_rational_inner_graph,
    builtin_v0,
    equal_area_disk,
    extract_graph,
    sample_variety,
    slice_roots,
)

# ---------------------------------------------------------------------------
# per-point reference: one coefficient loop, np.roots call and dedupe per
# base point, one classify_pair call per pair of sample points


def ref_coeffs_in(p, k, values):
    out = np.zeros(p.degree_in(k) + 1, dtype=complex)
    for e, c in p.coeffs.items():
        term = c
        for j, a in enumerate(e):
            if j == k:
                continue
            term = term * values[j] ** a
        out[e[k]] += term
    return out


def ref_trimmed_coeffs(g, k, values):
    c = ref_coeffs_in(g, k, values)
    mags = np.abs(c)
    top = mags.max()
    if top == 0.0:
        return c[:1]
    keep = len(c)
    while keep > 1 and mags[keep - 1] <= LEAD_TRIM * top:
        keep -= 1
    return c[:keep]


def ref_slice_roots(gens, k, values):
    root_sets = []
    for g in gens:
        c = ref_trimmed_coeffs(g, k, values)
        if len(c) == 1:
            if abs(c[0]) <= RESIDUAL_TOL * _scale(g):
                continue
            return np.array([], dtype=complex), False
        root_sets.append(np.roots(c[::-1]))
    if not root_sets:
        return np.array([], dtype=complex), True
    roots = root_sets[0]
    for other in root_sets[1:]:
        keep = [
            r for r in roots if np.min(np.abs(other - r)) <= ROOT_MATCH_TOL
        ]
        roots = np.array(keep, dtype=complex)
        if len(roots) == 0:
            break
    return roots, False


def ref_dedupe(roots):
    out = []
    for r in sorted(roots, key=lambda z: (z.real, z.imag)):
        if not out or abs(r - out[-1]) > ROOT_DEDUPE:
            out.append(r)
    return np.array(out, dtype=complex)


def ref_extract_graph(gens, pair, grid, seed=0):
    d = gens[0].d
    k = next(j for j in range(1, d + 1) if j not in pair) - 1
    axes = [equal_area_disk(g, np.random.default_rng(seed)) for g in grid]
    mesh = np.meshgrid(*axes, indexing="ij")
    base = np.stack([m.ravel() for m in mesh], axis=1)
    m = base.shape[0]
    values = np.full(m, np.nan + 0j, dtype=complex)
    mask = np.zeros(m, dtype=bool)
    escapes = 0
    witness = None
    witness_mod = 0.0
    sup_abs = 0.0
    hist = {}
    for idx in range(m):
        vals = np.zeros(d, dtype=complex)
        for a, j in enumerate(pair):
            vals[j - 1] = base[idx, a]
        roots, vacuous = ref_slice_roots(gens, k, vals)
        if vacuous:
            mask[idx] = True
            hist["degenerate"] = hist.get("degenerate", 0) + 1
            continue
        interior = []
        escaped_here = []
        for r in ref_dedupe(roots):
            vals[k] = r
            if any(abs(g(vals)) > RESIDUAL_TOL * _scale(g) for g in gens):
                continue
            if abs(r) < 1.0 - BOUNDARY_WINDOW:
                interior.append(r)
            elif abs(r) > 1.0 + BOUNDARY_WINDOW:
                escaped_here.append(r)
        vals[k] = 0.0
        sheets = len(interior)
        hist[sheets] = hist.get(sheets, 0) + 1
        if sheets == 0:
            mask[idx] = True
            if escaped_here:
                escapes += 1
                worst = max(escaped_here, key=abs)
                if abs(worst) > witness_mod:
                    witness_mod = abs(worst)
                    witness = (tuple(base[idx]), complex(worst))
        else:
            sup_abs = max(sup_abs, max(abs(r) for r in interior))
            if sheets == 1:
                values[idx] = interior[0]
    return values, mask, escapes, witness, sup_abs, hist


def ref_sample_variety(gens, k, count, seed, tol=RESIDUAL_TOL):
    d = gens[0].d
    rng = np.random.default_rng(seed)
    free = [j for j in range(d) if j != k]
    grids = {j: equal_area_disk(count, rng) for j in free}
    found = []
    for idx in range(count):
        values = np.zeros(d, dtype=complex)
        for j in free:
            values[j] = grids[j][idx]
        roots, vacuous = ref_slice_roots(gens, k, values)
        if vacuous:
            continue
        for r in ref_dedupe(roots):
            if abs(r) >= 1.0 - BOUNDARY_WINDOW:
                continue
            values[k] = r
            pt = values.copy()
            if all(abs(g(pt)) <= tol * _scale(g) for g in gens):
                found.append(pt)
        values[k] = 0.0
    return np.array(found)


def ref_scan(pts, tol):
    found = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] == pts[j]:
                continue
            report = classify_pair(pts[i], pts[j], tol=tol)
            if report.n >= 2:
                found.append(((i, j), report))
    found.sort(key=lambda item: (-item[1].n, item[0]))
    return found


# ---------------------------------------------------------------------------


def bits(a):
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(np.int64).tobytes()


def random_bases(rng, m, d):
    """Base values with exact zeros and repeated entries mixed in, so that
    leading coefficients vanish and slices go constant or vacuous."""
    r = np.sqrt(rng.uniform(size=(m, d)))
    vals = r * np.exp(2j * np.pi * rng.uniform(size=(m, d)))
    vals[rng.uniform(size=(m, d)) < 0.15] = 0.0
    vals[rng.uniform(size=(m, d)) < 0.05] = 1e-13
    return vals


def random_poly(rng, d, degree, k):
    coeffs = {}
    for _ in range(3 * degree + 2):
        e = [int(a) for a in rng.integers(0, degree + 1, size=d)]
        if sum(e) <= degree:
            coeffs[tuple(e)] = complex(rng.normal(), rng.normal())
    coeffs[tuple(degree if j == k else 0 for j in range(d))] = 1.0
    return Polynomial(d, coeffs)


GENERATOR_SETS = {
    # z3^3 carries a coefficient below LEAD_TRIM and z1 z3^2 one that
    # vanishes with z1, so leading coefficients are trimmed
    "trimmed": (Polynomial(3, {(0, 0, 3): 1e-14, (1, 0, 2): 1.0,
                               (0, 1, 1): -0.5, (0, 0, 0): 0.25}),),
    # every term of degree >= 1 in z3 once z1 z2 = 0: roots at 0
    "roots_at_zero": (Polynomial(3, {(0, 0, 3): 1.0, (1, 0, 2): 0.3,
                                     (0, 1, 1): -0.7j, (1, 1, 0): 0.4}),),
    # constant (z1 = 0) and vacuous (z1 = z2 = 0) slices
    "constant": (Polynomial(3, {(1, 0, 1): 1.0, (0, 1, 0): -0.5,
                                (1, 1, 1): 0.2}),),
    # (z3 - z1)(z3 - z2) and (z3 - z1)(z3 + 0.5) meet at z3 = z1
    "intersection": (
        Polynomial(3, {(0, 0, 2): 1.0, (1, 0, 1): -1.0, (0, 1, 1): -1.0,
                       (1, 1, 0): 1.0}),
        Polynomial(3, {(0, 0, 2): 1.0, (1, 0, 1): -1.0, (0, 0, 1): 0.5,
                       (1, 0, 0): -0.5}),
    ),
}


class TestCoefficients:
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_one_point_loop(self, seed):
        rng = np.random.default_rng(seed)
        for k in range(3):
            p = random_poly(rng, 3, int(rng.integers(1, 7)), k)
            vals = random_bases(rng, 300, 3)
            batch = p.coeffs_in(k, vals)
            ref = np.array([ref_coeffs_in(p, k, v) for v in vals])
            assert bits(batch) == bits(ref)

    def test_one_point_form(self):
        p = Polynomial(2, {(2, 1): 1.0 - 0.5j, (1, 0): 3.0, (0, 2): 1.0})
        v = np.array([0.0, 0.3 + 0.4j])
        assert p.coeffs_in(0, v).shape == (3,)
        assert bits(p.coeffs_in(0, v)) == bits(ref_coeffs_in(p, 0, v))


def assert_slices_match(gens, k, vals):
    roots, vacuous = slice_roots(gens, k, vals)
    for i, v in enumerate(vals):
        ref, ref_vac = ref_slice_roots(gens, k, v)
        assert bool(vacuous[i]) == ref_vac, i
        got = roots[i][~np.isnan(roots[i].real)]
        assert bits(got) == bits(ref_dedupe(ref)), i
    return vacuous


class TestSliceRoots:
    @pytest.mark.parametrize("name", sorted(GENERATOR_SETS))
    def test_constructed_slices(self, name):
        gens = GENERATOR_SETS[name]
        rng = np.random.default_rng(7)
        vals = random_bases(rng, 400, 3)
        vacuous = assert_slices_match(gens, 2, vals)
        if name == "constant":
            assert vacuous.any() and not vacuous.all()

    def test_constructed_cases_occur(self):
        rng = np.random.default_rng(7)
        vals = random_bases(rng, 400, 3)
        g = GENERATOR_SETS["trimmed"][0]
        trimmed = [len(ref_trimmed_coeffs(g, 2, v)) < 4 for v in vals]
        assert any(trimmed)
        g = GENERATOR_SETS["roots_at_zero"][0]
        at_zero = [np.any(ref_slice_roots((g,), 2, v)[0] == 0) for v in vals]
        assert any(at_zero)
        gens = GENERATOR_SETS["intersection"]
        common = [len(ref_slice_roots(gens, 2, v)[0]) for v in vals]
        assert max(common) >= 1

    @pytest.mark.parametrize("seed", range(3))
    def test_random_generators(self, seed):
        rng = np.random.default_rng(100 + seed)
        for k in range(3):
            gens = tuple(random_poly(rng, 3, int(rng.integers(1, 5)), k)
                         for _ in range(int(rng.integers(1, 3))))
            assert_slices_match(gens, k, random_bases(rng, 200, 3))


def contractive_graph(rng, degree):
    h = {(a, b): complex(rng.normal(), rng.normal())
         for a in range(degree + 1) for b in range(degree + 1 - a)}
    scale = 0.9 / sum(abs(c) for c in h.values())
    gen = {(0, 0, 1): 1.0}
    for (a, b), c in h.items():
        gen[(a, b, 0)] = -scale * c
    return (Polynomial(3, gen),)


GRAPHS = {
    "v0": builtin_v0(),
    "inner": builtin_rational_inner_graph(0.4, 0.3j),
    **{f"deg{deg}": contractive_graph(np.random.default_rng(deg), deg)
       for deg in (1, 2, 3, 4)},
}


class TestGraphsAndSamples:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_graph_reports_match(self, name):
        gens = GRAPHS[name]
        for pair in ((1, 2), (1, 3), (2, 3)):
            rep = extract_graph(gens, pair, grid=(24, 24), seed=3)
            values, mask, escapes, witness, sup_abs, hist = ref_extract_graph(
                gens, pair, (24, 24), seed=3
            )
            assert bits(rep.values) == bits(values)
            assert np.array_equal(rep.mask, mask)
            assert rep.escape_count == escapes
            assert rep.witness == witness
            assert rep.sup_abs == sup_abs
            assert list(rep.sheet_histogram.items()) == list(hist.items())

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_samples_match(self, name):
        gens = GRAPHS[name]
        pts = sample_variety(gens, count=150, seed=5)
        assert bits(pts) == bits(ref_sample_variety(gens, 0, 150, seed=5))


class TestBalancedScan:
    @pytest.mark.parametrize("gens", [builtin_v0(),
                                      builtin_rational_inner_graph(0.4, 0.4)])
    def test_batched_rho_is_scalar_rho(self, gens):
        pts = sample_variety(gens, count=120, seed=0)
        for i in range(len(pts) - 1):
            later = pts[i + 1:]
            batch = _rho_raw(pts[i][None, :], later)
            ref = [[pseudo_hyperbolic(a, b) for a, b in zip(pts[i], q)]
                   for q in later]
            assert np.asarray(ref).tobytes() == batch.tobytes()

    def test_scan_matches_pair_loop_on_sample(self):
        pts = [tuple(p) for p in sample_variety(builtin_v0(), count=120)]
        assert scan_balanced_pairs(pts, tol=1e-9) == ref_scan(pts, 1e-9)

    def test_scan_matches_pair_loop_with_exact_ties(self):
        rng = np.random.default_rng(11)
        a = 0.3 + 0.4j
        pts = [
            (a, a, 0.1j),
            (0.0, 0.0, 0.0),
            (a, np.conj(a), -a),        # |a| in all three coordinates
            (0.0, 0.0, 0.0),            # coincident with point 1
            (a, a, 0.1j),               # coincident with point 0
            (-a, -a, 0.5),
            (0.5, 0.5 + 1e-12, 0.5),    # quantizes to a 3-way tie at 1e-9
            (0.2, 0.2, 0.2),
        ]
        pts += [tuple(z) for z in 0.6 * np.exp(
            2j * np.pi * rng.uniform(size=(12, 3)))]
        pts += [(z[1], z[0], z[2]) for z in pts[-6:]]
        for tol in (1e-9, 1e-3, 0.0):
            got = scan_balanced_pairs(pts, tol=tol)
            ref = ref_scan(pts, tol)
            assert got == ref
            for (_, g), (_, r) in zip(got, ref):
                assert np.array(g.rho_values).tobytes() == \
                    np.array(r.rho_values).tobytes()
        assert any(rep.n == 3 for _, rep in scan_balanced_pairs(pts))
