"""End-to-end reproductions of the extension-property experiments.

Three drivers: the plane z3 = z1 + z2 non-extension argument (a
pseudo-hyperbolic contraction witness, a 3-point interpolation problem
of norm 1, and the arc of the unit circle omitted by the extremal
solution on the closure of the variety), the extension-versus-von
Neumann pipeline, and the circle-image test for extremal candidates.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from . import variety as variety_mod
from .agler import PolyPickData, agler_feasible, schur_agler_norm
from .disk_geometry import pseudo_hyperbolic
from .errors import DomainError, ResolutionExhaustedError
from .operators import violation_witness
from .polynomials import Polynomial

WITNESS_SLACK_MIN = 1e-6
DEFAULT_RESOLUTION = 2000
SHELL_EXPONENTS = (2, 3, 4, 5, 6)
ARC_GRID = 4096
ARC_ETA = 1e-3
EXTENSION_TOL = 1e-4


def _omitted_arc(samples, eta=ARC_ETA, grid=ARC_GRID):
    """Largest arc of the unit circle not approached by the samples.

    A sample F with |F| >= 1 - eta covers the boundary angles within
    arccos((1 - eta) / |F|) of arg F.  Returns (gap_radians, midpoint
    on the circle or None, covered_fraction).
    """
    samples = np.asarray(samples, dtype=complex).ravel()
    covered = np.zeros(grid, dtype=bool)
    mags = np.abs(samples)
    sel = mags >= 1.0 - eta
    if np.any(sel):
        F = samples[sel]
        m = np.abs(F)
        width = np.arccos(np.clip((1.0 - eta) / m, -1.0, 1.0))
        center = np.angle(F)
        scale = grid / (2.0 * np.pi)
        lo = np.floor((center - width) * scale).astype(int)
        hi = np.ceil((center + width) * scale).astype(int)
        # dedupe identical index ranges before the marking loop
        for a, b in set(zip(lo.tolist(), hi.tolist())):
            idx = np.arange(a, b + 1) % grid
            covered[idx] = True
    frac = float(covered.mean())
    if covered.all():
        return 0.0, None, frac
    if not covered.any():
        return 2.0 * np.pi, None, frac
    # largest circular run of uncovered angles
    runs = []
    ext = np.concatenate([covered, covered])
    start = None
    for i in range(2 * grid):
        if not ext[i] and start is None:
            start = i
        elif ext[i] and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, 2 * grid))
    best = max(runs, key=lambda ab: ab[1] - ab[0])
    length = min(best[1] - best[0], grid)
    mid = (best[0] + best[1]) / 2.0 % grid
    theta = mid * 2.0 * np.pi / grid
    return length * 2.0 * np.pi / grid, complex(np.exp(1j * theta)), frac


@dataclasses.dataclass(frozen=True)
class Exg1Report:
    """Reproduction record for the plane z3 = z1 + z2 example."""

    m: float
    zeta: float
    xi: float
    eq_ex_lhs: float
    eq_ex_rhs: float
    sa_norm: float
    sa_caveat: str
    circle_gap: float
    verdict: str
    shell_gaps: tuple
    gap_midpoint: complex
    data: PolyPickData

    @property
    def slack(self):
        return self.eq_ex_rhs - self.eq_ex_lhs


def _mobius_m(m):
    def phi(z):
        return (m - z) / (1.0 - m * z)

    return phi


def exg1_extremal_candidate(m):
    """The candidate F(z) = (z1 phi_m(z1) + z2) / 2 as a vectorized map.

    On the plane z3 = z1 + z2 it interpolates the data exg1_reproduce
    assembles and has modulus at most 1 on the closed polydisk.
    """
    m = float(m)
    if not 0.0 < m < 1.0:
        raise DomainError("m must lie strictly between 0 and 1")
    phi = _mobius_m(m)

    def F(points):
        pts = np.asarray(points, dtype=complex)
        return (pts[..., 0] * phi(pts[..., 0]) + pts[..., 1]) / 2.0

    return F


def exg1_reproduce(m, search_resolution=DEFAULT_RESOLUTION):
    """Reproduce the non-extension argument for the plane z3 = z1 + z2.

    Searches real zeta, xi in (0, 1) whose induced pair contracts the
    pseudo-hyperbolic distance (a norm-1 extension of the second
    coordinate off the plane would forbid that), certifies the 3-point
    interpolation problem has norm 1 to SDP scale, and measures the arc
    of the circle omitted by F = (z1 phi_m(z1) + z2) / 2 on the sampled
    closure of the plane.
    """
    m = complex(m)
    if abs(m.imag) > 1e-12:
        raise DomainError("m must be real")
    m = float(m.real)
    if not 0.0 < m < 1.0:
        raise DomainError("m must lie strictly between 0 and 1")
    resolution = int(search_resolution)
    if resolution < 2:
        raise DomainError("search_resolution must be at least 2")
    phi = _mobius_m(m)

    xs = np.linspace(0.0, 1.0, resolution + 2)[1:-1]
    g = 1.0 + phi(xs)
    ok = (np.abs(g) < 1.0 - 1e-12) & (np.abs(xs * g) < 1.0 - 1e-12)
    xs_ok, g_ok = xs[ok], g[ok]
    best_slack = -np.inf
    pair = None
    if len(xs_ok) >= 2:
        src = np.abs(xs_ok[:, None] - xs_ok[None, :]) / np.abs(
            1.0 - xs_ok[None, :] * xs_ok[:, None]
        )
        img = np.abs(g_ok[:, None] - g_ok[None, :]) / np.abs(
            1.0 - np.conj(g_ok[None, :]) * g_ok[:, None]
        )
        slack = src - img
        np.fill_diagonal(slack, -np.inf)
        i, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
        best_slack = float(slack[i, j])
        pair = (min(xs_ok[i], xs_ok[j]), max(xs_ok[i], xs_ok[j]))
    if pair is None or best_slack < WITNESS_SLACK_MIN:
        raise ResolutionExhaustedError(
            "no contraction witness at this resolution",
            diagnostics={
                "best_slack": best_slack,
                "admissible_points": int(len(xs_ok)),
                "resolution": resolution,
                "suggestion": "increase search_resolution or move m closer to 1",
            },
        )
    zeta, xi = pair
    lhs = pseudo_hyperbolic(complex(1.0 + phi(zeta)), complex(1.0 + phi(xi)))
    rhs = pseudo_hyperbolic(complex(zeta), complex(xi))

    nodes = (
        (0.0, 0.0, 0.0),
        (zeta, zeta * phi(zeta), zeta * (1.0 + phi(zeta))),
        (xi, xi * phi(xi), xi * (1.0 + phi(xi))),
    )
    targets = (0.0, zeta * phi(zeta), xi * phi(xi))
    data = PolyPickData(d=3, nodes=nodes, targets=targets)
    norm = schur_agler_norm(data)

    shell_gaps = []
    union_samples = []
    angles = 2.0 * np.pi * np.arange(512) / 512.0
    for k in SHELL_EXPONENTS:
        r = 1.0 - 10.0 ** (-k)
        z1 = r * np.exp(1j * angles)
        z2 = r * np.exp(1j * (angles + np.pi / 512.0))
        Z1, Z2 = np.meshgrid(z1, z2, indexing="ij")
        keep = np.abs(Z1 + Z2) <= 1.0
        F = (Z1[keep] * phi(Z1[keep]) + Z2[keep]) / 2.0
        gap_k, _, _ = _omitted_arc(F)
        shell_gaps.append((k, gap_k))
        union_samples.append(F)
    gap, midpoint, _ = _omitted_arc(np.concatenate(union_samples))

    verdict = (
        "violation_detected"
        if float(norm) >= 1.0 - 1e-3 and gap > 0.0
        else "inconclusive"
    )
    return Exg1Report(
        m=m,
        zeta=float(zeta),
        xi=float(xi),
        eq_ex_lhs=float(lhs),
        eq_ex_rhs=float(rhs),
        sa_norm=float(norm),
        sa_caveat=norm.caveat_flag,
        circle_gap=float(gap),
        verdict=verdict,
        shell_gaps=tuple(shell_gaps),
        gap_midpoint=midpoint,
        data=data,
    )


@dataclasses.dataclass(frozen=True)
class ExtensionVNReport:
    """One of two mutually exclusive branches of the norm dichotomy."""

    verdict: str
    norm: float
    caveat_flag: str
    certified_t: float
    decomposition: object
    witness: object


def extension_vs_vn(data, f_values=None, variety=None):
    """Extension-consistency versus von Neumann violation for the data.

    If the minimal decomposition level is at most 1 + 1e-4 the report
    carries a verified decomposition at that level (the extension
    direction); otherwise it carries an operator tuple on which the
    interpolated function exceeds norm 1 (the von Neumann direction).
    """
    if f_values is not None:
        data = PolyPickData(d=data.d, nodes=data.nodes, targets=tuple(f_values))
    if variety is not None:
        for p in data.nodes:
            if not variety_mod.contains(variety, p):
                raise DomainError(
                    "interpolation node does not lie on the supplied variety"
                )
    norm = schur_agler_norm(data)
    if float(norm) <= 1.0 + EXTENSION_TOL:
        # norm is a feasible level of the same barrier path, so t is too
        t = max(1.0, float(norm) + 1e-6)
        res = agler_feasible(data, t)
        return ExtensionVNReport(
            verdict="extension_consistent",
            norm=float(norm),
            caveat_flag=norm.caveat_flag,
            certified_t=t,
            decomposition=res.decomposition,
            witness=None,
        )
    wit = violation_witness(data, t=1.0)
    return ExtensionVNReport(
        verdict="von_neumann_violation",
        norm=float(norm),
        caveat_flag=norm.caveat_flag,
        certified_t=1.0,
        decomposition=None,
        witness=wit,
    )


class CircleImageResult(typing.NamedTuple):
    is_extremal_evidence: bool
    omitted_arc: float
    statement: str


def _closure_sample(generators, n_primary=512, n_secondary=64, seed=0):
    """Variety points with base coordinates on torus-adjacent shells.

    The dependent coordinate is the highest one the generators involve;
    the two base coordinates run over circles of radius 1 - 10^-k.
    Roots up to just past the unit circle are kept, approximating the
    closure of the variety in the closed polydisk.
    """
    gens, d = variety_mod._check_generators(generators)
    if d != 3:
        raise DomainError("closure sampling expects varieties in D^3")
    k = next(
        (j for j in (2, 1, 0) if any(g.degree_in(j) > 0 for g in gens)), None
    )
    if k is None:
        raise DomainError("generators are constant")
    base_idx = [j for j in range(3) if j != k]
    pts = []
    ang1 = 2.0 * np.pi * np.arange(n_primary) / n_primary
    ang2 = 2.0 * np.pi * (np.arange(n_secondary) + 0.37) / n_secondary
    for ke in SHELL_EXPONENTS:
        r = 1.0 - 10.0 ** (-ke)
        a = r * np.exp(1j * ang1)
        b = r * np.exp(1j * ang2)
        A, B = np.meshgrid(a, b, indexing="ij")
        base = np.stack([A.ravel(), B.ravel()], axis=1)
        pts.append(_solve_dependent(gens, k, base_idx, base))
    interior = variety_mod.equal_area_disk(64, np.random.default_rng(seed))
    A, B = np.meshgrid(interior, interior, indexing="ij")
    base = np.stack([A.ravel(), B.ravel()], axis=1)
    pts.append(_solve_dependent(gens, k, base_idx, base))
    return np.concatenate(pts, axis=0)


def _solve_dependent(gens, k, base_idx, base):
    """Solve the dependent coordinate over an array of base points.

    Vectorized closed forms for slice degree <= 2; companion-matrix
    fallback per point above that.  Keeps roots with |root| <= 1 + 1e-9.
    """
    m = base.shape[0]
    out = []

    def emit(mask, roots):
        sel = mask & (np.abs(roots) <= 1.0 + 1e-9)
        if not np.any(sel):
            return
        pts = np.zeros((int(sel.sum()), 3), dtype=complex)
        pts[:, base_idx[0]] = base[sel, 0]
        pts[:, base_idx[1]] = base[sel, 1]
        pts[:, k] = roots[sel]
        good = np.ones(len(pts), dtype=bool)
        for g in gens:
            good &= np.abs(g(pts)) <= 1e-7 * variety_mod._scale(g)
        out.append(pts[good])

    if len(gens) == 1 and gens[0].degree_in(k) <= 2:
        g = gens[0]
        deg = g.degree_in(k)
        coeff_polys = []
        for j in range(deg + 1):
            terms = {
                (e[base_idx[0]], e[base_idx[1]]): c
                for e, c in g.coeffs.items()
                if e[k] == j
            }
            coeff_polys.append(Polynomial(2, terms))
        C = np.stack([cp(base) for cp in coeff_polys], axis=1)
        if deg == 1:
            nz = np.abs(C[:, 1]) > 1e-14
            roots = np.where(nz, -C[:, 0] / np.where(nz, C[:, 1], 1.0), 0.0)
            emit(nz, roots)
        else:
            quad = np.abs(C[:, 2]) > 1e-14
            disc = np.sqrt(C[:, 1] ** 2 - 4.0 * C[:, 2] * C[:, 0] + 0j)
            for sgn in (+1.0, -1.0):
                den = np.where(quad, 2.0 * C[:, 2], 1.0)
                roots = (-C[:, 1] + sgn * disc) / den
                emit(quad, roots)
            lin = (~quad) & (np.abs(C[:, 1]) > 1e-14)
            roots = np.where(lin, -C[:, 0] / np.where(lin, C[:, 1], 1.0), 0.0)
            emit(lin, roots)
    else:
        for idx in range(m):
            vals = np.zeros(3, dtype=complex)
            vals[base_idx[0]] = base[idx, 0]
            vals[base_idx[1]] = base[idx, 1]
            roots, vacuous = variety_mod._slice_roots(gens, k, vals)
            if vacuous:
                continue
            keep = roots[np.abs(roots) <= 1.0 + 1e-9]
            if len(keep):
                rep = np.repeat(base[idx][None, :], len(keep), axis=0)
                pts = np.zeros((len(keep), 3), dtype=complex)
                pts[:, base_idx[0]] = rep[:, 0]
                pts[:, base_idx[1]] = rep[:, 1]
                pts[:, k] = keep
                out.append(pts)
    if not out:
        return np.zeros((0, 3), dtype=complex)
    return np.concatenate(out, axis=0)


def circle_image_test(generators, phi, data, seed=0):
    """Evidence that phi is an extremal solution whose image omits an arc.

    Extremality evidence requires phi to interpolate the data and the
    data's decomposition norm to sit at 1 within 1e-3.  The omitted arc
    is measured over a closure sample of the variety; a genuinely
    extremal solution of an extension-property variety must cover the
    whole circle, so extremal evidence plus a positive arc is exactly
    the failure signature.
    """
    if isinstance(phi, Polynomial):
        if phi.d != data.d:
            raise DomainError("phi and data dimensions differ")
    elif not callable(phi):
        raise DomainError("phi must be a Polynomial or a vectorized callable")
    rng = np.random.default_rng(seed)
    probe = rng.uniform(size=(4096, data.d)) ** 0.5 * np.exp(
        2j * np.pi * rng.uniform(size=(4096, data.d))
    )
    if np.abs(phi(probe)).max() > 1.0 + 1e-9:
        raise DomainError("phi exceeds modulus 1 on the sampled polydisk")

    node_arr = np.asarray(data.nodes, dtype=complex)
    interp = float(
        np.max(np.abs(np.asarray(phi(node_arr)) - np.asarray(data.targets)))
    )
    norm = schur_agler_norm(data)
    extremal = interp <= 1e-6 and abs(float(norm) - 1.0) <= 1e-3

    sample = _closure_sample(generators, seed=seed)
    gap, _, _ = _omitted_arc(phi(sample))
    if extremal and gap > 0.0:
        statement = (
            "candidate interpolates extremally and its closure image omits "
            f"an arc of {gap:.4f} radians; on a polynomially convex variety "
            "this is incompatible with the extension property"
        )
    elif extremal:
        statement = (
            "candidate interpolates extremally and its closure image covers "
            "the circle; no obstruction detected"
        )
    else:
        statement = "candidate is not extremal for the data; test is vacuous"
    return CircleImageResult(
        is_extremal_evidence=bool(extremal),
        omitted_arc=float(gap),
        statement=statement,
    )
