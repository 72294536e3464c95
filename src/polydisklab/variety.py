"""Algebraic varieties in the polydisk: sampling, graph structure, retracts.

A variety is given by a tuple of Polynomial generators.  The tools here
answer grid-relative questions: where the variety is a single-sheeted
graph over a coordinate pair, whether it escapes the polydisk over an
interior base point, and whether it passes the operational retract test
(globally defined single-sheeted graph with sup strictly inside the
disk).  A "not_retract" verdict carries an interior witness point and is
conclusive; "retract_graph" is grid evidence, not a proof.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .disk_geometry import check_disk_point
from .errors import DegenerateDataError, DomainError
from .polynomials import Polynomial

CONTAINS_TOL = 1e-8
RESIDUAL_TOL = 1e-9
BOUNDARY_WINDOW = 1e-7
ROOT_MATCH_TOL = 1e-8
ROOT_DEDUPE = 1e-6
LEAD_TRIM = 1e-12
DEFAULT_GRID = (64, 64)
RETRACT_MARGIN = 1e-3


def _check_generators(generators):
    gens = tuple(generators)
    if not gens:
        raise DomainError("need at least one generator")
    if not all(isinstance(g, Polynomial) for g in gens):
        raise DomainError("generators must be Polynomial instances")
    d = gens[0].d
    if any(g.d != d for g in gens):
        raise DomainError("generators have mixed variable counts")
    return gens, d


def _scale(g):
    return max(1.0, sum(abs(c) for c in g.coeffs.values()))


def contains(generators, point, tol=CONTAINS_TOL):
    """Whether the point satisfies every generator to relative tol."""
    gens, d = _check_generators(generators)
    pt = np.asarray([complex(c) for c in point], dtype=complex)
    if pt.shape != (d,):
        raise DomainError(f"point has {pt.shape[0]} coordinates, expected {d}")
    return all(abs(g(pt)) <= tol * _scale(g) for g in gens)


def equal_area_disk(count, rng=None):
    """Deterministic equal-area polar points in the unit disk, with an
    optional seeded angular jitter per ring."""
    nr = max(1, int(round(np.sqrt(count))))
    na = int(np.ceil(count / nr))
    pts = []
    for i in range(nr):
        r = np.sqrt((i + 0.5) / nr)
        off = 0.5 * (i % 2)
        if rng is not None:
            off += rng.uniform()
        for j in range(na):
            pts.append(r * np.exp(2j * np.pi * (j + off) / na))
    return np.array(pts[:count])


def _modulus(z):
    # |z| as scalar abs computes it (hypot); numpy's complex array abs
    # rounds differently in the last bit
    return np.hypot(z.real, z.imag)


def _generator_roots(g, k, values):
    """Roots in variable k of one generator over every base row, as
    np.roots finds them once coefficients at most LEAD_TRIM times the
    largest are trimmed from the top.

    Returns (roots, constant, c0): roots is (m, degree in k), NaN-padded;
    constant marks rows where the trimmed slice is the constant c0.
    Rows are grouped by effective degree and by exact low-order zeros
    (np.roots's roots at 0), and each group's roots are the eigenvalues
    of its stacked companion matrices, the LAPACK call np.roots makes.
    """
    c = g.coeffs_in(k, values)
    m, width = c.shape
    mags = np.abs(c)
    above = ~(mags <= LEAD_TRIM * mags.max(axis=1)[:, None])
    last = width - 1 - np.argmax(above[:, ::-1], axis=1)
    deg = np.where(above.any(axis=1), last, 0)
    zeros = np.argmax(c != 0, axis=1)
    roots = np.full((m, width - 1), np.nan + 0j, dtype=complex)
    for n, z in sorted(set(zip(deg.tolist(), zeros.tolist()))):
        if n == 0:
            continue
        rows = np.flatnonzero((deg == n) & (zeros == z))
        size = n - z
        if size:
            p = c[rows, z:n + 1][:, ::-1]
            comp = np.zeros((len(rows), size, size), dtype=complex)
            comp[:, 0, :] = -p[:, 1:] / p[:, :1]
            idx = np.arange(size - 1)
            comp[:, idx + 1, idx] = 1.0
            roots[rows, :size] = np.linalg.eigvals(comp)
        roots[rows, size:n] = 0.0
    return roots, deg == 0, c[:, 0]


def slice_roots(gens, k, values):
    """Common roots in variable k of all generators, for every row of an
    (m, d) array of base values (entry k ignored).

    Returns (roots, vacuous).  Row i of roots holds that slice's distinct
    common roots, sorted by (real, imag) and NaN-padded on the right: the
    first generator's roots that lie within ROOT_MATCH_TOL of a root of
    every other generator, with a root dropped when within ROOT_DEDUPE of
    the last one kept.  A generator that is constant on the slice is
    ignored when the constant is negligible and leaves no roots
    otherwise; vacuous marks rows where every generator is negligible.
    All rows are solved together, column by column.
    """
    m = values.shape[0]
    width = max(g.degree_in(k) for g in gens)
    roots = np.full((m, max(width, 1)), np.nan + 0j, dtype=complex)
    started = np.zeros(m, dtype=bool)
    dead = np.zeros(m, dtype=bool)
    vacuous = np.ones(m, dtype=bool)
    for g in gens:
        own, constant, c0 = _generator_roots(g, k, values)
        negligible = constant & (_modulus(c0) <= RESIDUAL_TOL * _scale(g))
        dead |= constant & ~negligible
        vacuous &= negligible
        first = ~constant & ~started
        roots[first, : own.shape[1]] = own[first]
        later = ~constant & started
        if own.shape[1] and later.any():
            dist = np.abs(own[later, None, :] - roots[later, :, None])
            dist[np.isnan(dist)] = np.inf
            matched = dist.min(axis=2) <= ROOT_MATCH_TOL
            roots[later] = np.where(matched, roots[later], np.nan)
        started |= first
    roots[dead | vacuous] = np.nan
    order = np.lexsort((roots.imag, roots.real), axis=1)
    roots = np.take_along_axis(roots, order, axis=1)
    keep = ~np.isnan(roots.real)
    last = roots[:, 0]
    for col in range(1, roots.shape[1]):
        r = roots[:, col]
        keep[:, col] &= _modulus(r - last) > ROOT_DEDUPE
        last = np.where(keep[:, col], r, last)
    order = np.argsort(~keep, axis=1, kind="stable")
    roots = np.take_along_axis(np.where(keep, roots, np.nan), order, axis=1)
    return roots, vacuous


def _lift(values, k, roots, select):
    """Points with coordinate k set to each selected root, row-major."""
    rows, cols = np.nonzero(select)
    pts = values[rows]
    pts[:, k] = roots[rows, cols]
    return pts


def sample_variety(generators, count=200, seed=0, tol=RESIDUAL_TOL):
    """Points of the variety inside the open polydisk.

    Base values for the free coordinates come from jittered equal-area
    disk grids; the dependent coordinate is the first one any generator
    actually involves.  All slices are solved in one batch by
    slice_roots.  Every returned point re-satisfies all generators to the
    stated tolerance, independently of the root-finder.
    """
    gens, d = _check_generators(generators)
    if count < 1:
        raise DomainError("count must be at least 1")
    k = next(
        (j for j in range(d) if any(g.degree_in(j) > 0 for g in gens)), None
    )
    if k is None:
        raise DegenerateDataError(
            "generators are constant; variety is degenerate"
        )
    rng = np.random.default_rng(seed)
    values = np.zeros((count, d), dtype=complex)
    for j in range(d):
        if j != k:
            values[:, j] = equal_area_disk(count, rng)
    roots, _vacuous = slice_roots(gens, k, values)
    pts = _lift(values, k, roots, _modulus(roots) < 1.0 - BOUNDARY_WINDOW)
    good = np.all(
        [_modulus(g(pts)) <= tol * _scale(g) for g in gens], axis=0
    )
    if not good.any():
        raise DegenerateDataError(
            "no variety points found inside the polydisk"
        )
    return pts[good]


@dataclasses.dataclass(frozen=True)
class GraphReport:
    """Grid evidence about the variety over a coordinate pair.

    pair and dependent_coordinate are 1-based.  values holds the graph
    value where the base point carries exactly one interior sheet and
    NaN elsewhere; mask marks base points with no interior sheet at all.
    """

    pair: tuple
    dependent_coordinate: int
    single_sheeted: bool
    mask_fraction: float
    escape_count: int
    sup_abs: float
    witness: tuple
    base_points: np.ndarray
    values: np.ndarray
    mask: np.ndarray
    sheet_histogram: dict


def extract_graph(generators, pair, grid=DEFAULT_GRID, seed=0):
    """Sheet structure of the variety over the 1-based coordinate pair.

    Solves the dependent-coordinate slices over an equal-area base grid
    in one batch (slice_roots), then re-checks every root's residual and
    sorts the roots by the boundary window, for all base points at once.
    Roots within the boundary window of the unit circle are ambiguous
    and excluded, roots beyond it are escapes (variety leaves the
    polydisk over an interior base point).
    """
    gens, d = _check_generators(generators)
    pair = tuple(int(j) for j in pair)
    if len(pair) != d - 1 or len(set(pair)) != len(pair):
        raise DomainError(f"pair must list {d - 1} distinct coordinates")
    if any(j < 1 or j > d for j in pair):
        raise DomainError("coordinates are 1-based")
    dep = next(j for j in range(1, d + 1) if j not in pair)
    k = dep - 1
    if all(g.degree_in(k) == 0 for g in gens):
        raise DegenerateDataError(
            f"no generator involves coordinate {dep}; graph direction is degenerate"
        )
    if len(grid) != d - 1:
        raise DomainError(f"grid must give {d - 1} axis sizes")
    if any(g < 1 for g in grid):
        raise DomainError("grid sizes must be at least 1")
    # every axis draws the same jittered point set, so swapping the two
    # independent coordinates maps the base grid onto itself and retract
    # verdicts stay permutation-invariant
    axes = [equal_area_disk(g, np.random.default_rng(seed)) for g in grid]
    mesh = np.meshgrid(*axes, indexing="ij")
    base = np.stack([m.ravel() for m in mesh], axis=1)

    m = base.shape[0]
    vals = np.zeros((m, d), dtype=complex)
    vals[:, [j - 1 for j in pair]] = base
    roots, vacuous = slice_roots(gens, k, vals)
    found = ~np.isnan(roots.real)
    pts = _lift(vals, k, roots, found)
    bad = np.any(
        [_modulus(g(pts)) > RESIDUAL_TOL * _scale(g) for g in gens], axis=0
    )
    ok = np.zeros_like(found)
    ok[found] = ~bad
    mod = _modulus(roots)
    interior = ok & (mod < 1.0 - BOUNDARY_WINDOW)
    escaped = ok & (mod > 1.0 + BOUNDARY_WINDOW)
    sheets = interior.sum(axis=1)
    mask = vacuous | (sheets == 0)
    single_rows = np.flatnonzero(~vacuous & (sheets == 1))
    values = np.full(m, np.nan + 0j, dtype=complex)
    first_sheet = np.argmax(interior[single_rows], axis=1)
    values[single_rows] = roots[single_rows, first_sheet]
    multi = bool(np.any(sheets[~vacuous] > 1))
    sup_abs = np.max(mod[interior]) if interior.any() else 0.0

    # histogram keys in order of first occurrence along the grid
    label = np.where(vacuous, -1, sheets)
    keys, first, counts = np.unique(
        label, return_index=True, return_counts=True
    )
    hist = {
        ("degenerate" if key < 0 else int(key)): int(n)
        for _, key, n in sorted(zip(first, keys, counts))
    }

    escape_rows = ~vacuous & (sheets == 0) & escaped.any(axis=1)
    escapes = int(escape_rows.sum())
    witness = None
    if escapes:
        esc_mod = np.where(escaped & escape_rows[:, None], mod, -np.inf)
        col = np.argmax(esc_mod, axis=1)
        row_max = esc_mod[np.arange(m), col]
        idx = int(np.argmax(row_max))
        witness = (tuple(base[idx]), complex(roots[idx, col[idx]]))
    covered = int(m - mask.sum())
    single = covered > 0 and not multi
    return GraphReport(
        pair=pair,
        dependent_coordinate=dep,
        single_sheeted=single,
        mask_fraction=float(mask.sum()) / m,
        escape_count=escapes,
        sup_abs=sup_abs,
        witness=witness,
        base_points=base,
        values=values,
        mask=mask,
        sheet_histogram=hist,
    )


@dataclasses.dataclass(frozen=True)
class RetractReport:
    verdict: str
    witness: tuple
    reports: dict
    margin: float


def retract_check(generators, margin=RETRACT_MARGIN, grid=DEFAULT_GRID, seed=0):
    """Operational retract test for a two-dimensional variety in D^3.

    retract_graph: some coordinate pair carries a single-sheeted graph
    over the whole grid with sup at most 1 - margin.  not_retract: every
    pair either multi-sheets or escapes the polydisk over an interior
    base point (the witness is conclusive).  Anything else, including
    varieties cut by more than one generator, is inconclusive.

    The same base grid is reused for all three pairs, so the verdict is
    invariant under coordinate permutations of the generators.  The
    margin must satisfy 0 <= margin < 1.
    """
    if not 0.0 <= margin < 1.0:
        raise DomainError(f"retract margin must satisfy 0 <= margin < 1, got {margin}")
    gens, d = _check_generators(generators)
    if d != 3:
        raise DomainError("retract test is defined for varieties in D^3")
    if len(gens) != 1:
        return RetractReport(
            verdict="inconclusive", witness=None, reports={}, margin=margin
        )
    reports = {}
    for pair in ((1, 2), (1, 3), (2, 3)):
        k = next(j for j in range(1, 4) if j not in pair) - 1
        if all(g.degree_in(k) == 0 for g in gens):
            continue
        reports[pair] = extract_graph(gens, pair, grid=grid, seed=seed)
    witness = None
    for pair, rep in reports.items():
        if (
            rep.single_sheeted
            and rep.mask_fraction == 0.0
            and rep.escape_count == 0
            and rep.sup_abs <= 1.0 - margin
        ):
            return RetractReport(
                verdict="retract_graph",
                witness=None,
                reports=reports,
                margin=margin,
            )
    bad_everywhere = bool(reports)
    for pair, rep in reports.items():
        multi = any(
            isinstance(s, int) and s > 1 for s in rep.sheet_histogram
        )
        if rep.escape_count > 0:
            if witness is None or abs(rep.witness[1]) > abs(witness[2]):
                witness = (pair, rep.witness[0], rep.witness[1])
        elif not multi:
            bad_everywhere = False
    if bad_everywhere:
        return RetractReport(
            verdict="not_retract", witness=witness, reports=reports, margin=margin
        )
    return RetractReport(
        verdict="inconclusive", witness=witness, reports=reports, margin=margin
    )


def builtin_v0():
    """The plane z3 = z1 + z2 intersected with D^3."""
    return (
        Polynomial(3, {(0, 0, 1): 1.0, (1, 0, 0): -1.0, (0, 1, 0): -1.0}),
    )


def builtin_rational_inner_graph(A, B, omega=1.0):
    """Graph of z3 = omega (A z1 + B z2 + z1 z2) / (1 + conj(B) z1 + conj(A) z2).

    The graph function has unimodular boundary values on the torus
    wherever defined, and is inner when |A| + |B| <= 1 (the denominator
    is then zero-free on the closed bidisk).
    """
    A = complex(A)
    B = complex(B)
    omega = complex(omega)
    if abs(A) > 1.0 or abs(B) > 1.0:
        raise DomainError("|A| and |B| must be at most 1")
    if abs(abs(omega) - 1.0) > 1e-9:
        raise DomainError("omega must be unimodular")
    omega = omega / abs(omega)
    return (
        Polynomial(
            3,
            {
                (0, 0, 1): 1.0,
                (1, 0, 1): np.conj(B),
                (0, 1, 1): np.conj(A),
                (1, 0, 0): -omega * A,
                (0, 1, 0): -omega * B,
                (1, 1, 0): -omega,
            },
        ),
    )


def _noncolinear(alpha, beta, gamma):
    params = tuple(complex(v) for v in (alpha, beta, gamma))
    for v in params:
        check_disk_point(v)
    a, b, g = params
    if abs(np.imag((b - a) * np.conj(g - a))) < 1e-12:
        raise DegenerateDataError(
            "alpha, beta, gamma are colinear; curve does not determine a fit"
        )
    return params


def uniqueness_variety_points(alpha, beta, gamma, t, zetas):
    """Points of the uniqueness curve with parameters alpha, beta, gamma.

    Coordinate k is (a_k t zeta - zeta^2) / (1 - conj(a_k t) zeta), a
    two-factor Blaschke product in zeta since |a_k t| < 1, so the curve
    stays inside D^3; the output is re-verified anyway.
    """
    params = _noncolinear(alpha, beta, gamma)
    t = float(t)
    if not 0.0 < t < 1.0:
        raise DomainError("t must lie in (0, 1)")
    zet = np.asarray(zetas, dtype=complex).ravel()
    if np.any(np.abs(zet) >= 1.0):
        raise DomainError("zetas must lie in the open disk")
    cols = []
    for mu in params:
        ak = mu * t
        cols.append((ak * zet - zet**2) / (1.0 - np.conj(ak) * zet))
    out = np.stack(cols, axis=1)
    if np.any(np.abs(out) >= 1.0):
        raise DomainError("curve point left the open polydisk")
    return out


@dataclasses.dataclass(frozen=True)
class RationalGraphFit:
    """Least-squares identification of a rational inner graph variety."""

    A: complex
    B: complex
    omega: complex
    residual: float
    consistency: float
    generator: Polynomial


def fit_rational_graph(points):
    """Fit z3 (1 + p z1 + q z2) = (r z1 + s z2 + u z1 z2) to sample points.

    Solves the linear system in (p, q, r, s, u), reads off the graph
    parameters omega = u, A = r / u, B = s / u, and reports both the
    worst generator residual over the input points and the symmetry
    consistency |conj(B) - p|, |conj(A) - q|.
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DomainError("expected an (m, 3) array of points")
    if pts.shape[0] < 5:
        raise DomainError("need at least 5 points to determine the fit")
    z1, z2, z3 = pts[:, 0], pts[:, 1], pts[:, 2]
    V = np.stack([z1 * z3, z2 * z3, -z1, -z2, -z1 * z2], axis=1)
    coef, _res, rank, sv = np.linalg.lstsq(V, -z3, rcond=None)
    if sv[-1] < 1e-10 * sv[0]:
        raise DegenerateDataError(
            "sample does not determine the graph (rank-deficient fit)"
        )
    p, q, r, s, u = coef
    if abs(u) < 1e-12:
        raise DegenerateDataError("fit collapsed: leading coefficient vanishes")
    omega = u
    A = r / omega
    B = s / omega
    gen = Polynomial(
        3,
        {
            (0, 0, 1): 1.0,
            (1, 0, 1): p,
            (0, 1, 1): q,
            (1, 0, 0): -r,
            (0, 1, 0): -s,
            (1, 1, 0): -u,
        },
    )
    residual = float(np.abs(gen(pts)).max())
    consistency = float(max(abs(np.conj(B) - p), abs(np.conj(A) - q)))
    return RationalGraphFit(
        A=complex(A),
        B=complex(B),
        omega=complex(omega),
        residual=residual,
        consistency=consistency,
        generator=gen,
    )


def uniqueness_coincidence_check(alpha, beta, gamma, samples=200):
    """Fit a rational inner graph to sampled uniqueness-curve points.

    Draws roughly `samples` points of the curve across a spread of
    (t, zeta) parameters and runs fit_rational_graph; a residual below
    1e-6 certifies that the curve family lies on a single graph variety.
    """
    _noncolinear(alpha, beta, gamma)
    samples = int(samples)
    if samples < 5:
        raise DomainError("need at least 5 samples")
    n_t = max(2, int(round(np.sqrt(samples / 2.0))))
    n_z = max(5, samples // n_t)
    ts = np.linspace(0.2, 0.8, n_t)
    pts = []
    for i, t in enumerate(ts):
        radius = 0.3 + 0.45 * (i + 0.5) / n_t
        zet = radius * np.exp(2j * np.pi * (np.arange(n_z) + 0.37 * i) / n_z)
        pts.append(uniqueness_variety_points(alpha, beta, gamma, t, zet))
    return fit_rational_graph(np.concatenate(pts, axis=0))
