"""Balanced pairs of polydisk points, balanced disks, and witness searches.

A pair (l, m) in the polydisk is n-balanced when its n largest
coordinatewise pseudo-hyperbolic distances agree.  Balanced pairs admit
distinguished geodesic disks through them and explicit Caratheodory
extremal functions; this module constructs both and provides the grid
search used to exhibit balanced pairs on one-variable graphs.
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
from .errors import DegenerateDataError, DomainError, ResolutionExhaustedError
from .polynomials import Polynomial, sup_on_torus

# Default polar grid for find_balanced_pair_on_graph: angles x radii.
WITNESS_GRID = (512, 256)

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


def _poly_eval(coeffs, z):
    # ascending-power coefficients; empty list is the zero map
    if len(coeffs) == 0:
        return np.zeros_like(np.asarray(z, dtype=complex))
    return np.polyval(np.asarray(coeffs, dtype=complex)[::-1], z)


def _validate_graph_map(coeffs):
    coeffs = [complex(c) for c in coeffs]
    if coeffs and abs(coeffs[0]) > 1e-14:
        raise DomainError("graph map must satisfy g(0) = 0")
    sup = sup_on_torus(Polynomial(1, {(k,): c for k, c in enumerate(coeffs)}))
    if sup >= 1.0:
        raise DomainError(f"graph map is not a self-map of the disk (sup {sup:.6f})")
    return coeffs


def find_balanced_pair_on_graph(g, w1, r, resolution=WITNESS_GRID):
    """Search the graph of g for a point witnessing a 2-balanced pair.

    Returns (z, g(z)) where z satisfies
    rho(g(z), w1) <= rho(z, 0) + 1e-9.  The search never reports
    nonexistence: if the grid and its refinements fail, a
    ResolutionExhaustedError carries diagnostics.
    """
    coeffs = _validate_graph_map(g)
    w1 = check_disk_point(w1)
    r = float(r)
    if not abs(w1) < r < 1.0:
        raise DomainError("need |w1| < r < 1")

    def h(z):
        gz = _poly_eval(coeffs, z)
        return np.abs(gz - w1) / np.abs(1.0 - np.conj(w1) * gz) - np.abs(z)

    n_ang, n_rad = resolution
    angles = np.exp(2j * np.pi * np.arange(n_ang) / n_ang)
    radii = np.linspace(0.0, r, n_rad)
    zgrid = np.outer(angles, radii)
    hvals = h(zgrid)
    flat = int(np.argmin(hvals))
    ia, ir = divmod(flat, n_rad)
    hmin = float(hvals[ia, ir])

    if hmin <= 0.0:
        # refine toward the crossing: bisect radially between the last
        # nonnegative radius and this nonpositive one
        lo_ir = ir
        while lo_ir > 0 and hvals[ia, lo_ir - 1] <= 0.0:
            lo_ir -= 1
        if lo_ir == 0:
            z = zgrid[ia, ir]
            return complex(z), complex(_poly_eval(coeffs, z))
        t_lo, t_hi = radii[lo_ir - 1], radii[lo_ir]
        direction = angles[ia]
        for _ in range(80):
            t_mid = 0.5 * (t_lo + t_hi)
            if h(direction * t_mid) <= 0.0:
                t_hi = t_mid
            else:
                t_lo = t_mid
        z = direction * t_hi
        return complex(z), complex(_poly_eval(coeffs, z))

    if hmin <= WITNESS_SLACK:
        z = zgrid[ia, ir]
        return complex(z), complex(_poly_eval(coeffs, z))

    # local refinement around the best grid point
    theta = 2.0 * np.pi * ia / n_ang
    rad = radii[ir]
    dth = 2.0 * np.pi / n_ang
    drad = radii[1] - radii[0] if n_rad > 1 else r
    best = hmin
    best_z = zgrid[ia, ir]
    for _ in range(4):
        ths = theta + np.linspace(-dth, dth, 33)
        rds = np.clip(rad + np.linspace(-drad, drad, 33), 0.0, r)
        local = np.exp(1j * ths)[:, None] * rds[None, :]
        lv = h(local)
        flat = int(np.argmin(lv))
        li, lj = divmod(flat, 33)
        if lv[li, lj] < best:
            best = float(lv[li, lj])
            best_z = local[li, lj]
            theta = ths[li]
            rad = rds[lj]
        dth /= 8.0
        drad /= 8.0
        if best <= WITNESS_SLACK:
            return complex(best_z), complex(_poly_eval(coeffs, best_z))
    raise ResolutionExhaustedError(
        "no witness found at this resolution; the guaranteed point exists "
        "but needs a finer grid or different parameters",
        diagnostics={
            "min_residual": best,
            "argmin": complex(best_z),
            "resolution": resolution,
            "suggestion": "increase resolution or move w1 closer to g(D)",
        },
    )


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
