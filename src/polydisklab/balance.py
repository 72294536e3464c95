"""Balanced pairs of polydisk points, balanced disks, and witness searches.

A pair (l, m) in the polydisk is n-balanced when its n largest
coordinatewise pseudo-hyperbolic distances agree.  Balanced pairs admit
distinguished geodesic disks through them and explicit Caratheodory
extremal functions; this module constructs both and finds balanced-pair
witnesses on one-variable graphs by one root solve.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .disk_geometry import (
    DEFAULT_TOL,
    _rho_raw,
    check_disk_point,
    check_poly_point,
    mobius_interchange,
    pseudo_hyperbolic,
)
from .errors import ConditioningError, DegenerateDataError, DomainError
from .polynomials import Polynomial, sup_on_torus

# Witness inequality slack, fixed by contract.
WITNESS_SLACK = 1e-9


@dataclasses.dataclass(frozen=True)
class BalanceReport:
    """Classification of a pair of polydisk points.

    ``n`` is the number of tied leading coordinatewise distances,
    ``permutation`` lists coordinate labels (1-based) in descending
    distance order, and ``rho_values`` are the distances in that order.
    """

    n: int
    permutation: tuple
    rho_values: tuple
    tol: float


def classify_pair(l, m, tol=DEFAULT_TOL):
    """Classify (l, m) as n-balanced.

    Ties are decided on values quantized to a grid of spacing
    tol * max(rho): coordinates whose quantized distances match the
    quantized maximum count toward n.  Among permutations witnessing the
    same n, the lexicographically smallest is returned (descending
    distance, index ascending on exact ties).
    """
    lc = check_poly_point(l)
    mc = check_poly_point(m)
    if len(lc) != len(mc):
        raise DomainError("points have different dimensions")
    if lc == mc:
        raise DegenerateDataError("cannot classify a pair of equal points")
    rho = [pseudo_hyperbolic(a, b) for a, b in zip(lc, mc)]
    rmax = max(rho)
    grid = tol * rmax
    if grid > 0.0:
        quant = [round(v / grid) for v in rho]
    else:
        quant = rho
    qmax = max(quant)
    n = sum(1 for q in quant if q == qmax)
    order = sorted(range(len(rho)), key=lambda j: (-rho[j], j))
    return BalanceReport(
        n=n,
        permutation=tuple(j + 1 for j in order),
        rho_values=tuple(rho[j] for j in order),
        tol=tol,
    )


@dataclasses.dataclass(frozen=True)
class BalancedDisk:
    """Geodesic disk through an n-balanced pair.

    ``embedding`` maps the parameter disk into the polydisk; the pair is
    recovered at the parameters stored in ``preimages``.  ``omegas`` are
    the unimodular twists of the n balanced coordinates relative to the
    leading one (so omegas[0] == 1).
    """

    omegas: tuple
    embedding: object
    n: int
    permutation: tuple
    preimages: tuple

    def __call__(self, zeta):
        return self.embedding(zeta)


class _GeodesicEmbedding:
    """Coordinatewise geodesic parametrization; equivariant by construction.

    Coordinate k follows its own unit-speed geodesic from l_k to m_k,
    slowed by the factor rho_k / rho_max so that every coordinate arrives
    at m_k simultaneously.
    """

    def __init__(self, base, twists, slopes):
        self._base = tuple(base)
        self._twists = tuple(twists)
        self._slopes = tuple(slopes)
        self._maps = tuple(mobius_interchange(p) for p in self._base)

    def __call__(self, zeta):
        zeta = check_disk_point(zeta)
        out = []
        for p_map, tw, sl in zip(self._maps, self._twists, self._slopes):
            out.append(p_map(tw * sl * zeta))
        return tuple(out)


def balanced_disk_through(l, m, tol=DEFAULT_TOL):
    """Construct the balanced disk through an n-balanced pair, n >= 2.

    The embedding satisfies embedding(preimages[0]) == l and
    embedding(preimages[1]) == m exactly, and is a Kobayashi geodesic.
    """
    report = classify_pair(l, m, tol=tol)
    if report.n < 2:
        raise DegenerateDataError(
            f"pair is only 1-balanced at tolerance {tol}; no balanced disk"
        )
    lc = check_poly_point(l)
    mc = check_poly_point(m)
    r = report.rho_values[0]
    twists = []
    slopes = []
    for k, (a, b) in enumerate(zip(lc, mc)):
        rho_k = pseudo_hyperbolic(a, b)
        if rho_k == 0.0:
            twists.append(1.0 + 0.0j)
            slopes.append(0.0)
            continue
        image = mobius_interchange(a)(b)
        twists.append(image / abs(image))
        slopes.append(rho_k / r)
    top = [j - 1 for j in report.permutation[: report.n]]
    lead = twists[top[0]]
    omegas = tuple(twists[k] / lead for k in top)
    embedding = _GeodesicEmbedding(lc, twists, slopes)
    return BalancedDisk(
        omegas=omegas,
        embedding=embedding,
        n=report.n,
        permutation=report.permutation,
        preimages=(0.0 + 0.0j, complex(r)),
    )


class CaratheodoryExtremal:
    """Extremal map phi o Phi for a pair: Phi centers m at the origin and
    rotates l onto nonnegative coordinates, phi averages the n balanced
    coordinates."""

    def __init__(self, n, top, center_maps, phases):
        self.n = n
        self.coordinates = tuple(k + 1 for k in top)
        self._top = tuple(top)
        self._maps = tuple(center_maps)
        self._phases = tuple(phases)

    def __call__(self, z):
        coords = check_poly_point(z, d=len(self._maps))
        total = 0.0 + 0.0j
        for k in self._top:
            total += self._phases[k] * self._maps[k](coords[k])
        return total / self.n


def caratheodory_extremal_for_pair(l, m, tol=DEFAULT_TOL):
    """Caratheodory extremal realizing the Kobayashi distance of the pair.

    Unbalanced pairs fall back to the projection onto the single farthest
    coordinate (the n = 1 case).
    """
    report = classify_pair(l, m, tol=tol)
    lc = check_poly_point(l)
    mc = check_poly_point(m)
    center_maps = [mobius_interchange(b) for b in mc]
    phases = []
    for k, a in enumerate(lc):
        v = center_maps[k](a)
        phases.append(np.conj(v) / abs(v) if abs(v) > 0.0 else 1.0 + 0.0j)
    top = [j - 1 for j in report.permutation[: report.n]]
    return CaratheodoryExtremal(report.n, top, center_maps, phases)


def _validate_graph_map(coeffs):
    coeffs = [complex(c) for c in coeffs]
    if coeffs and abs(coeffs[0]) > 1e-14:
        raise DomainError("graph map must satisfy g(0) = 0")
    sup = sup_on_torus(Polynomial(1, {(k,): c for k, c in enumerate(coeffs)}))
    if sup >= 1.0:
        raise DomainError(f"graph map is not a self-map of the disk (sup {sup:.6f})")
    return coeffs


def find_balanced_pair_on_graph(g, w1, r):
    """A point z on the graph w = g(z) witnessing a 2-balanced pair.

    g lists the ascending coefficients of a self-map of the disk with
    g(0) = 0, and |w1| < r < 1.  Returns (z, g(z)) with |z| <= r and
    rho(g(z), w1) <= |z| + 1e-9, from one root solve, with no search.

    Such a z always exists.  Let m be the Mobius map that swaps w1 and 0,
    and F = m o g, so rho(g(z), w1) = |F(z)| and |F(0)| = |w1| < r.  A
    fixed point of F is exactly balanced; the fixed points are the roots
    of g(z) (1 - conj(w1) z) + z - w1, and the one of least modulus is
    returned when it lies in |z| <= r.  If none does, then |F| <= r
    somewhere on |z| = r: were |F| > r = |z| on the whole circle, Rouche
    would give F as many zeros in |z| < r as F - z, that is none, and the
    minimum-modulus principle would then give |F(0)| > r.  On
    z = r e^(i theta), G(theta) = |g - w1|^2 - r^2 |1 - conj(w1) g|^2 has
    the sign of |F| - r and is a trigonometric polynomial of degree
    N = deg g, so its minimum lies at the angle of a root of
    zeta^N G'(theta), or anywhere (theta = 0) when G is constant.  Of
    these circle points, roots off the circle only adding candidates, the
    one with least rho(g(z), w1) - |z| is returned.
    A ConditioningError reports rounding that defeats either bound.
    """
    coeffs = _validate_graph_map(g)
    w1 = check_disk_point(w1)
    r = float(r)
    if not abs(w1) < r < 1.0:
        raise DomainError("need |w1| < r < 1")
    c = np.array(coeffs or [0.0], dtype=complex)
    n = len(c) - 1

    def excess(z):
        return _rho_raw(np.polyval(c[::-1], z), w1) - np.abs(z)

    fixed = np.convolve(c, [1.0, -np.conj(w1)])
    fixed[:2] += [-w1, 1.0]
    roots = np.roots(fixed[::-1])
    roots = roots[np.abs(roots) <= r]
    z = roots[np.argmin(np.abs(roots))] if roots.size else None
    if z is None or excess(z) > WITNESS_SLACK:
        a = c * r ** np.arange(n + 1)
        lin = np.zeros(2 * n + 1, dtype=complex)
        lin[n:] += np.conj(w1) * a
        lin[n::-1] += w1 * np.conj(a)
        coef = (1.0 - r * r * abs(w1) ** 2) * np.convolve(a, np.conj(a[::-1]))
        coef -= (1.0 - r * r) * lin
        coef *= 1j * np.arange(-n, n + 1)
        theta = np.append(np.angle(np.roots(coef[::-1])), 0.0)
        # a few ulps inside the circle, so that rounding keeps |z| <= r
        circle = (r - 8.0 * np.finfo(float).eps * r) * np.exp(1j * theta)
        z = circle[np.argmin(excess(circle))]
    if abs(z) > r or excess(z) > WITNESS_SLACK:
        raise ConditioningError(
            f"rounding defeats the witness: |z| = {abs(z)!r}, excess {excess(z):.3e}"
        )
    return complex(z), complex(np.polyval(c[::-1], z))


def scan_balanced_pairs(sample, tol=DEFAULT_TOL):
    """All n >= 2 balanced pairs among the sample points.

    Returns [((i, j), BalanceReport), ...] with 0-based sample indices,
    sorted by n descending, then by index pair.  Coincident points are
    skipped.  Each point is classified against all later points at once
    from one array of distances, with the same quantized tie rule and
    tie order as classify_pair, so reports agree with it exactly; memory
    stays linear in the sample size.
    """
    pts = [check_poly_point(p) for p in sample]
    if not pts:
        raise DegenerateDataError("empty sample")
    if len({len(p) for p in pts}) > 1:
        raise DomainError("points have different dimensions")
    P = np.array(pts, dtype=complex)
    found = []
    for i in range(len(pts) - 1):
        later = P[i + 1:]
        rho = _rho_raw(P[i][None, :], later)
        distinct = np.flatnonzero(~np.all(later == P[i], axis=1))
        if not len(distinct):
            continue
        rho = rho[distinct]
        grid = tol * rho.max(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            quant = np.where(grid > 0.0, np.rint(rho / grid), rho)
        n = np.sum(quant == quant.max(axis=1, keepdims=True), axis=1)
        for row in np.flatnonzero(n >= 2):
            order = np.argsort(-rho[row], kind="stable")
            found.append((
                (i, i + 1 + int(distinct[row])),
                BalanceReport(
                    n=int(n[row]),
                    permutation=tuple(int(j) + 1 for j in order),
                    rho_values=tuple(rho[row, order]),
                    tol=tol,
                ),
            ))
    found.sort(key=lambda item: (-item[1].n, item[0]))
    return found
