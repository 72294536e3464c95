"""End-to-end reproductions of the extension-property experiments.

Three drivers: the plane z3 = z1 + z2 non-extension argument (a
pseudo-hyperbolic contraction witness, a 3-point interpolation problem
of norm 1, and the arc of the unit circle omitted by the extremal
solution on the closure of the variety), the extension-versus-von
Neumann pipeline, and the circle-image test for extremal candidates.

The witness pair is in closed form.  On (m, 1), g = 1 + phi_m maps into
(0, 1), and with alpha = (1 - zeta) / (1 - m), beta = (1 - xi) / (1 - m),
rho(g(zeta), g(xi)) < rho(zeta, xi) holds exactly when
alpha + beta + m (2 + m) alpha beta < 1.  exg1_data takes alpha = 1 / (2 + m)
and beta = alpha / 2, where the left side is (3 + m) / (2 (2 + m)) < 1.
So (two-point Pick) a Schur function h has h = g at zeta and xi, and the
nodes of exg1_data lie on the analytic disk (z, z phi_m(z), z h(z)) in D^3.
Every interpolant restricted to it interpolates the Blaschke product
z phi_m(z) at 0, zeta and xi, a disk problem of minimal norm 1; and z2, a
Schur-Agler function, interpolates (the targets are the second
coordinates).  So exg1_data has norm exactly 1 (H-infinity and Schur-Agler).

The omitted arc is in closed form too.  On the closure of the plane in the
closed tridisk, F = (z1 phi_m(z1) + z2) / 2 has |F| = 1 only where |z1| = 1,
z2 = z1 phi_m(z1) and |z1 + z2| = |1 + phi_m(z1)| <= 1.  With u = phi_m(z1)
(phi_m is an involution) the boundary image is
{u phi_m(u) : |u| = 1, Re u <= -1/2}.  Along u = e^(i theta), theta in
[2 pi / 3, 4 pi / 3], arg F grows at the rate
1 + (1 - m^2) / |e^(i theta) - m|^2, so the image is an arc of length
2 pi / 3 plus 2 pi times the harmonic measure of that arc at m, which is
2 pi - 4 arctan(sqrt(3) (1 + m) / (1 - m)).  The omitted arc is the rest,
4 arctan(sqrt(3) (1 + m) / (1 - m)) - 2 pi / 3, between 2 pi / 3 and
4 pi / 3, and since m is real it is centred at 1 (u = -1 gives F = -1).
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from . import variety as variety_mod
from .agler import PolyPickData, schur_agler_norm
from .disk_geometry import pseudo_hyperbolic
from .errors import DomainError
from .operators import violation_witness
from .polynomials import Polynomial, sup_on_torus

SHELL_EXPONENTS = (2, 3, 4, 5, 6)
ARC_GRID = 4096
ARC_ETA = 1e-3
EXTENSION_TOL = 1e-4


def _omitted_arc(samples):
    """Largest arc of the unit circle not approached by the samples.

    A sample F with |F| >= 1 - ARC_ETA covers the boundary angles within
    arccos((1 - ARC_ETA) / |F|) of arg F.  Returns (gap_radians, midpoint
    on the circle or None, covered_fraction).
    """
    samples = np.asarray(samples, dtype=complex).ravel()
    F = samples[np.abs(samples) >= 1.0 - ARC_ETA]
    width = np.arccos(np.clip((1.0 - ARC_ETA) / np.abs(F), -1.0, 1.0))
    center = np.angle(F)
    scale = ARC_GRID / (2.0 * np.pi)
    lo = np.floor((center - width) * scale).astype(int)
    hi = np.ceil((center + width) * scale).astype(int)
    # |center| <= pi and width < pi / 2, so every index lies within three
    # quarters of a turn of 0: shifted by one turn, the ranges are marked
    # on two turns by a difference array, then folded
    edges = np.bincount(lo + ARC_GRID, minlength=2 * ARC_GRID + 1)
    edges -= np.bincount(hi + ARC_GRID + 1, minlength=2 * ARC_GRID + 1)
    covered = np.cumsum(edges)[:-1].reshape(2, ARC_GRID).any(axis=0)
    frac = float(covered.mean())
    if covered.all():
        return 0.0, None, frac
    if not covered.any():
        return 2.0 * np.pi, None, frac
    # largest circular run of uncovered angles (the first, on ties)
    ext = np.concatenate([[True], covered, covered, [True]])
    step = np.diff(ext.astype(np.int8))
    starts, ends = np.flatnonzero(step == -1), np.flatnonzero(step == 1)
    best = int(np.argmax(ends - starts))
    start, end = int(starts[best]), int(ends[best])
    length = min(end - start, ARC_GRID)
    mid = (start + end) / 2.0 % ARC_GRID
    theta = mid * 2.0 * np.pi / ARC_GRID
    return length * 2.0 * np.pi / ARC_GRID, complex(np.exp(1j * theta)), frac


@dataclasses.dataclass(frozen=True)
class Exg1Report:
    """Reproduction record for the plane z3 = z1 + z2 example."""

    m: float
    zeta: float
    xi: float
    eq_ex_lhs: float
    eq_ex_rhs: float
    sa_norm: float
    circle_gap: float
    verdict: str
    gap_midpoint: complex
    data: PolyPickData

    @property
    def slack(self):
        return self.eq_ex_rhs - self.eq_ex_lhs


def _mobius_m(m):
    def phi(z):
        return (m - z) / (1.0 - m * z)

    return phi


def _real_m(m):
    """m as a float, if it is a real number strictly between 0 and 1."""
    m = complex(m)
    if abs(m.imag) > 1e-12 or not 0.0 < m.real < 1.0:
        raise DomainError("m must be a real number strictly between 0 and 1")
    return m.real


def exg1_extremal_candidate(m):
    """The candidate F(z) = (z1 phi_m(z1) + z2) / 2 as a vectorized map.

    On the plane z3 = z1 + z2 it interpolates exg1_data(m) and has
    modulus at most 1 on the closed polydisk.
    """
    phi = _mobius_m(_real_m(m))

    def F(points):
        pts = np.asarray(points, dtype=complex)
        return (pts[..., 0] * phi(pts[..., 0]) + pts[..., 1]) / 2.0

    return F


def exg1_data(m):
    """The 3-point problem on the plane z3 = z1 + z2 for 0 < m < 1.

    Nodes 0 and (x, x phi_m(x), x (1 + phi_m(x))) with targets 0 and
    x phi_m(x), for x = zeta = (1 + 2m) / (2 + m) and
    x = xi = (3 + 3m) / (4 + 2m), the closed-form contraction pair of the
    module docstring.
    """
    m = _real_m(m)
    phi = _mobius_m(m)
    zeta = (1.0 + 2.0 * m) / (2.0 + m)
    xi = (3.0 + 3.0 * m) / (4.0 + 2.0 * m)
    nodes = ((0.0, 0.0, 0.0),) + tuple(
        (x, x * phi(x), x * (1.0 + phi(x))) for x in (zeta, xi)
    )
    targets = (0.0,) + tuple(x * phi(x) for x in (zeta, xi))
    return PolyPickData(d=3, nodes=nodes, targets=targets)


def exg1_reproduce(m):
    """Reproduce the non-extension argument for the plane z3 = z1 + z2.

    The verdict reads the pair criterion, which a norm-1 extension of
    the second coordinate off the plane would forbid.  It, the 3-point
    norm 1 and the arc omitted by F = (z1 phi_m(z1) + z2) / 2 are the
    module docstring's closed forms: nothing is solved or sampled.
    """
    m = _real_m(m)
    phi = _mobius_m(m)
    data = exg1_data(m)
    zeta, xi = (p[0].real for p in data.nodes[1:])
    lhs = pseudo_hyperbolic(complex(1.0 + phi(zeta)), complex(1.0 + phi(xi)))
    rhs = pseudo_hyperbolic(complex(zeta), complex(xi))
    gap = 4.0 * np.arctan(np.sqrt(3.0) * (1.0 + m) / (1.0 - m)) - 2.0 * np.pi / 3
    verdict = "violation_detected" if lhs < rhs else "inconclusive"
    return Exg1Report(
        m=m,
        zeta=zeta,
        xi=xi,
        eq_ex_lhs=float(lhs),
        eq_ex_rhs=float(rhs),
        sa_norm=1.0,
        circle_gap=float(gap),
        verdict=verdict,
        gap_midpoint=complex(1.0),
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


def extension_vs_vn(data):
    """Extension-consistency versus von Neumann violation for the data.

    If the minimal decomposition level is at most 1 + 1e-4 the report
    carries the norm's own verified decomposition, at t = the norm (the
    extension direction; None for all-zero targets); otherwise it
    carries an operator tuple on which the interpolated function exceeds
    norm 1 (the von Neumann direction).
    """
    norm = schur_agler_norm(data)
    if float(norm) <= 1.0 + EXTENSION_TOL:
        return ExtensionVNReport(
            verdict="extension_consistent",
            norm=float(norm),
            caveat_flag=norm.caveat_flag,
            certified_t=float(norm),
            decomposition=norm.decomposition,
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


def _closure_sample(generators, seed=0):
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
    ang1 = 2.0 * np.pi * np.arange(512) / 512
    ang2 = 2.0 * np.pi * (np.arange(64) + 0.37) / 64
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

    All slices are solved together by variety.slice_roots.  Keeps roots
    with |root| <= 1 + 1e-9 that satisfy every generator to 1e-7
    relative.
    """
    vals = np.zeros((base.shape[0], 3), dtype=complex)
    vals[:, base_idx] = base
    roots, _vacuous = variety_mod.slice_roots(gens, k, vals)
    pts = variety_mod._lift(
        vals, k, roots, variety_mod._modulus(roots) <= 1.0 + 1e-9
    )
    good = np.all(
        [variety_mod._modulus(g(pts)) <= 1e-7 * variety_mod._scale(g)
         for g in gens],
        axis=0,
    )
    return pts[good]


def circle_image_test(generators, phi, data, seed=0):
    """Evidence that phi is an extremal solution whose image omits an arc.

    Extremality evidence requires phi to interpolate the data and the
    data's decomposition norm to sit at 1 within 1e-3.  The omitted arc
    is measured over a closure sample of the variety; a genuinely
    extremal solution of an extension-property variety must cover the
    whole circle, so extremal evidence plus a positive arc is exactly
    the failure signature.

    phi must map the polydisk into the closed disk, else DomainError.  A
    Polynomial phi is refused when its supremum on the torus, which
    bounds |phi| on the polydisk, exceeds 1 + 1e-9 (sup_on_torus).  A
    callable phi can only be sampled: it is refused when |phi| exceeds
    1 + 1e-9 at one of 4096 random points of the polydisk, so a callable
    slightly larger than 1 elsewhere can pass.
    """
    if isinstance(phi, Polynomial):
        if phi.d != data.d:
            raise DomainError("phi and data dimensions differ")
        sup = sup_on_torus(phi)
        if sup > 1.0 + 1e-9:
            raise DomainError(f"phi exceeds modulus 1 on the torus (sup {sup:.6f})")
    elif callable(phi):
        rng = np.random.default_rng(seed)
        probe = rng.uniform(size=(4096, data.d)) ** 0.5 * np.exp(
            2j * np.pi * rng.uniform(size=(4096, data.d))
        )
        if np.abs(phi(probe)).max() > 1.0 + 1e-9:
            raise DomainError("phi exceeds modulus 1 on the sampled polydisk")
    else:
        raise DomainError("phi must be a Polynomial or a vectorized callable")

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
