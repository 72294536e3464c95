"""Hyperbolic geometry of the unit disk and automorphisms of the polydisk.

Everything downstream (balance classification, Pick solvers, the
feasibility engine) is built on the handful of exact formulas in this
module: the pseudo-hyperbolic metric, Moebius interchanges, finite
Blaschke products, and coordinate-permuting polydisk automorphisms.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DimensionMismatchError, DomainError

# Points this close to the unit circle are rejected by the open-disk
# checks; the metric degenerates there.
BOUNDARY_TOL = 1e-12

# Default tolerance for value comparisons throughout the package.
DEFAULT_TOL = 1e-9


def check_disk_point(z):
    """Validate membership in the open unit disk and return ``z`` as a
    complex; points with 1 - |z| < BOUNDARY_TOL are rejected as interior
    points, and so is NaN."""
    z = complex(z)
    if not 1.0 - abs(z) >= BOUNDARY_TOL:
        raise DomainError(f"point {z} is not interior to the unit disk")
    return z


def check_poly_point(z, d=None):
    """Validate a polydisk point given as a sequence of coordinates."""
    coords = tuple(complex(c) for c in z)
    if d is not None and len(coords) != d:
        raise DimensionMismatchError(f"expected dimension {d}, got {len(coords)}")
    for c in coords:
        check_disk_point(c)
    return coords


def pseudo_hyperbolic(z, w):
    """Pseudo-hyperbolic distance |z - w| / |1 - conj(w) z| on the disk."""
    z = check_disk_point(z)
    w = check_disk_point(w)
    return abs(z - w) / abs(1.0 - np.conj(w) * z)


def _rho_raw(z, w):
    """Unchecked pseudo_hyperbolic over numpy arrays, equal to it bit for
    bit: conj(w) z in real arithmetic and moduli by hypot, as the scalar
    rules round them (numpy's complex array kernels do not)."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    pr = w.real * z.real - (-w.imag) * z.imag
    pi = w.real * z.imag + (-w.imag) * z.real
    num = np.hypot(z.real - w.real, z.imag - w.imag)
    return num / np.hypot(1.0 - pr, 0.0 - pi)


@dataclasses.dataclass(frozen=True)
class MobiusMap:
    """Disk automorphism z -> tau * (a - z) / (1 - conj(a) z).

    ``a`` is the point interchanged with 0 when ``tau == 1``; ``tau`` is a
    unimodular prefactor.  Frozen so maps can be shared freely.
    """

    a: complex
    tau: complex = 1.0 + 0.0j

    def __post_init__(self):
        a = check_disk_point(self.a)
        tau = complex(self.tau)
        if not abs(abs(tau) - 1.0) <= DEFAULT_TOL:
            raise DomainError(f"prefactor {tau} is not unimodular")
        tau /= abs(tau)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "tau", tau)

    def __call__(self, z):
        return self.tau * (self.a - z) / (1.0 - np.conj(self.a) * z)

    def matrix(self):
        """2x2 matrix acting on z by the fractional linear rule."""
        return np.array(
            [[-self.tau, self.tau * self.a], [-np.conj(self.a), 1.0]], dtype=complex
        )

    @staticmethod
    def from_matrix(M):
        """Recover canonical (a, tau) from a fractional linear matrix.

        The matrix must represent a disk automorphism of the interchange
        form; this is automatic for products of MobiusMap matrices.
        """
        alpha, beta = M[0]
        gamma, delta = M[1]
        if abs(alpha) <= BOUNDARY_TOL * max(1.0, abs(beta)):
            raise DomainError("matrix does not represent a Moebius interchange")
        a = -beta / alpha
        dperiv = (alpha * delta - beta * gamma) / (delta * delta)
        tau = dperiv / (abs(a) ** 2 - 1.0)
        return MobiusMap(a, tau / abs(tau))

    def compose(self, other):
        """Composition self after other, again in canonical form."""
        return MobiusMap.from_matrix(self.matrix() @ other.matrix())

    def inverse(self):
        M = self.matrix()
        adj = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]], dtype=complex)
        return MobiusMap.from_matrix(adj)


def mobius_interchange(a):
    """The Moebius map interchanging ``a`` and 0 (an involution)."""
    return MobiusMap(a=a, tau=1.0)


@dataclasses.dataclass(frozen=True)
class PolydiskAutomorphism:
    """Automorphism of the polydisk: permute coordinates, then apply a
    Moebius factor to each.

    ``permutation`` is a 0-based tuple p; output coordinate j reads input
    coordinate p[j].  The permutation acts before the factors.
    """

    permutation: tuple
    factors: tuple

    def __post_init__(self):
        perm = tuple(int(i) for i in self.permutation)
        facs = tuple(self.factors)
        if sorted(perm) != list(range(len(perm))):
            raise DomainError(f"{perm} is not a permutation of 0..{len(perm) - 1}")
        if len(facs) != len(perm):
            raise DimensionMismatchError("need one Moebius factor per coordinate")
        object.__setattr__(self, "permutation", perm)
        object.__setattr__(self, "factors", facs)

    @property
    def d(self):
        return len(self.permutation)

    @staticmethod
    def identity(d):
        # tau = -1 with a = 0 gives the identity map z -> z
        return PolydiskAutomorphism(
            tuple(range(d)), tuple(MobiusMap(0.0, -1.0) for _ in range(d))
        )

    @staticmethod
    def centering(point):
        """Automorphism sending ``point`` to the origin, identity permutation."""
        coords = check_poly_point(point)
        return PolydiskAutomorphism(
            tuple(range(len(coords))), tuple(mobius_interchange(c) for c in coords)
        )

    def __call__(self, z):
        return apply_automorphism(self, z)

    def compose(self, other):
        """self after other."""
        if self.d != other.d:
            raise DimensionMismatchError("dimension mismatch in composition")
        perm = tuple(other.permutation[self.permutation[j]] for j in range(self.d))
        facs = tuple(
            self.factors[j].compose(other.factors[self.permutation[j]])
            for j in range(self.d)
        )
        return PolydiskAutomorphism(perm, facs)

    def inverse(self):
        inv_perm = [0] * self.d
        inv_facs = [None] * self.d
        for j in range(self.d):
            k = self.permutation[j]
            inv_perm[k] = j
            inv_facs[k] = self.factors[j].inverse()
        return PolydiskAutomorphism(tuple(inv_perm), tuple(inv_facs))


def apply_automorphism(phi, z):
    """Apply a PolydiskAutomorphism to a polydisk point."""
    coords = check_poly_point(z, d=phi.d)
    return tuple(phi.factors[j](coords[phi.permutation[j]]) for j in range(phi.d))


def kobayashi_distance_polydisk(l, m):
    """Kobayashi distance on the polydisk: max of coordinatewise rho."""
    lc = check_poly_point(l)
    mc = check_poly_point(m)
    if len(lc) != len(mc):
        raise DimensionMismatchError("points have different dimensions")
    return max(pseudo_hyperbolic(a, b) for a, b in zip(lc, mc))


@dataclasses.dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product times a positive scale.

    Represents  scale * unimodular_constant * prod_k (z - a_k)/(1 - conj(a_k) z).
    On the unit circle the modulus is exactly ``scale``; the Schur-class
    case has scale <= 1.
    """

    zeros: tuple
    unimodular_constant: complex = 1.0 + 0.0j
    scale: float = 1.0

    def __post_init__(self):
        zeros = tuple(check_disk_point(a) for a in self.zeros)
        c = complex(self.unimodular_constant)
        if not abs(abs(c) - 1.0) <= DEFAULT_TOL:
            raise DomainError(f"constant {c} is not unimodular")
        c /= abs(c)
        scale = float(self.scale)
        if not 0.0 < scale < np.inf:
            raise DomainError("scale must be positive and finite")
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "unimodular_constant", c)
        object.__setattr__(self, "scale", scale)

    @property
    def degree(self):
        return len(self.zeros)

    def __call__(self, z):
        return blaschke_eval(self, z)


def blaschke_eval(b, z):
    """Evaluate a BlaschkeProduct on the closed disk.

    Accepts a scalar or a numpy array of points.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) > 1.0 + BOUNDARY_TOL):
        raise DomainError("evaluation point outside the closed unit disk")
    val = np.full(z.shape, b.scale * b.unimodular_constant, dtype=complex)
    for a in b.zeros:
        val *= (z - a) / (1.0 - np.conj(a) * z)
    if val.shape == ():
        return complex(val)
    return val
