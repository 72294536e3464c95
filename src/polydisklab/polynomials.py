"""Multivariate polynomials with complex coefficients.

Shared by the variety tools (generators), the operator-theory checks
(test functions on the torus), and the experiment drivers.  Polynomials
are stored sparsely as exponent-tuple -> coefficient maps; the supremum
on the unit torus is computed from an FFT evaluation grid followed by
local refinement around the best candidates.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

MAX_DEGREE = 12

# Torus supremum: base FFT grid per axis (total size capped), number of
# candidates kept for refinement, and refinement stages.
TORUS_GRID = 128
TORUS_GRID_CAP = 2 ** 21
REFINE_CANDIDATES = 12
REFINE_STAGES = 6
REFINE_POINTS = 9

_COEFF_CHOP = 1e-15


def _cmul(ar, ai, br, bi):
    """Complex product in real arithmetic, as the scalar rules round it."""
    return ar * br - ai * bi, ar * bi + ai * br


def _cpow(re, im, n):
    """z**n for integer n >= 0 in real arithmetic, following the
    multiplication order of numpy's complex scalar power (npy_cpow):
    z**0 = 1, 0**n = 0, unrolled squares and cubes, then binary powers."""
    if n == 0:
        return np.ones_like(re), np.zeros_like(re)
    if n == 1:
        pr, pi = re, im
    elif n == 2:
        pr, pi = _cmul(re, im, re, im)
    elif n == 3:
        pr, pi = _cmul(re, im, *_cmul(re, im, re, im))
    else:
        pr, pi = np.ones_like(re), np.zeros_like(re)
        sr, si = re, im
        mask = 1
        while True:
            if n & mask:
                pr, pi = _cmul(pr, pi, sr, si)
            mask <<= 1
            if n < mask:
                break
            sr, si = _cmul(sr, si, sr, si)
    zero = (re == 0.0) & (im == 0.0)
    return np.where(zero, 0.0, pr), np.where(zero, 0.0, pi)


class Polynomial:
    """Sparse polynomial in d complex variables."""

    def __init__(self, d, coeffs=None):
        d = int(d)
        if d < 1:
            raise DomainError("need at least one variable")
        self.d = d
        clean = {}
        for expo, c in (coeffs or {}).items():
            expo = tuple(int(a) for a in expo)
            if len(expo) != d:
                raise DomainError(
                    f"exponent {expo} does not match {d} variables"
                )
            if any(a < 0 for a in expo):
                raise DomainError(f"negative exponent in {expo}")
            c = complex(c)
            if abs(c) <= _COEFF_CHOP:
                continue
            if sum(expo) > MAX_DEGREE:
                raise DomainError(
                    f"total degree {sum(expo)} exceeds cap {MAX_DEGREE}"
                )
            clean[expo] = clean.get(expo, 0.0) + c
        self.coeffs = {e: c for e, c in clean.items() if abs(c) > _COEFF_CHOP}
        self._expo_arr = None
        self._coef_arr = None

    @property
    def degree(self):
        if not self.coeffs:
            return 0
        return max(sum(e) for e in self.coeffs)

    def degree_in(self, k):
        if not self.coeffs:
            return 0
        return max(e[k] for e in self.coeffs)

    def _arrays(self):
        if self._expo_arr is None:
            expos = sorted(self.coeffs)
            self._expo_arr = np.array(expos, dtype=int).reshape(-1, self.d)
            self._coef_arr = np.array(
                [self.coeffs[e] for e in expos], dtype=complex
            )
        return self._expo_arr, self._coef_arr

    def __call__(self, points):
        pts = np.asarray(points, dtype=complex)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.shape[1] != self.d:
            raise DomainError(
                f"points have {pts.shape[1]} coordinates, polynomial has {self.d}"
            )
        if not self.coeffs:
            out = np.zeros(pts.shape[0], dtype=complex)
            return out[0] if single else out
        A, c = self._arrays()
        vals = np.prod(pts[:, None, :] ** A[None, :, :], axis=2) @ c
        return vals[0] if single else vals

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0.0) + c
        return Polynomial(self.d, out)

    def __sub__(self, other):
        return self + (self._coerce(other) * (-1.0))

    def __mul__(self, other):
        if np.isscalar(other):
            return Polynomial(
                self.d, {e: c * other for e, c in self.coeffs.items()}
            )
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0.0) + c1 * c2
        return Polynomial(self.d, out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.d != self.d:
                raise DomainError("variable counts differ")
            return other
        return Polynomial(self.d, {(0,) * self.d: complex(other)})

    def conj_coeffs(self):
        return Polynomial(
            self.d, {e: np.conj(c) for e, c in self.coeffs.items()}
        )

    def coeffs_in(self, k, values):
        """Ascending coefficients in variable k with the other variables
        fixed at the given values (values indexed by variable, entry k
        ignored).

        A length-d sequence gives a (deg + 1,) array; an (m, d) array of
        base points gives one row per point, shape (m, deg + 1).  Each
        row equals the one-point result bit for bit: products and powers
        are taken in real arithmetic in the order numpy's complex scalar
        rules use, since numpy's complex array kernels round differently.
        """
        if np.ndim(values) == 1:
            point = [0.0 if j == k else values[j] for j in range(self.d)]
            return self.coeffs_in(k, np.array([point], dtype=complex))[0]
        vals = np.asarray(values, dtype=complex)
        m = vals.shape[0]
        deg = self.degree_in(k)
        out_re = np.zeros((m, deg + 1))
        out_im = np.zeros((m, deg + 1))
        powers = {}
        for e, c in self.coeffs.items():
            tr = np.full(m, c.real)
            ti = np.full(m, c.imag)
            for j, a in enumerate(e):
                if j == k:
                    continue
                if (j, a) not in powers:
                    powers[(j, a)] = _cpow(vals[:, j].real, vals[:, j].imag, a)
                pr, pi = powers[(j, a)]
                tr, ti = _cmul(tr, ti, pr, pi)
            out_re[:, e[k]] += tr
            out_im[:, e[k]] += ti
        out = np.empty((m, deg + 1), dtype=complex)
        out.real = out_re
        out.imag = out_im
        return out

    def to_payload(self):
        terms = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            terms.append(list(e) + [float(c.real), float(c.imag)])
        return {"d": self.d, "terms": terms}

    @classmethod
    def from_payload(cls, payload):
        d = int(payload["d"])
        coeffs = {}
        for row in payload["terms"]:
            if len(row) != d + 2:
                raise DomainError(f"bad term row of length {len(row)}")
            expo = tuple(int(a) for a in row[:d])
            coeffs[expo] = complex(row[d], row[d + 1])
        return cls(d, coeffs)

    def __repr__(self):
        return f"Polynomial(d={self.d}, terms={len(self.coeffs)})"


def monomial(d, expo, coeff=1.0):
    return Polynomial(d, {tuple(expo): coeff})


def random_polynomial(rng, d, degree, scale=1.0):
    """Dense random polynomial with complex Gaussian coefficients."""
    coeffs = {}

    def fill(prefix, remaining):
        if len(prefix) == d:
            coeffs[tuple(prefix)] = scale * (
                rng.normal() + 1j * rng.normal()
            )
            return
        for a in range(remaining + 1):
            fill(prefix + [a], remaining - a)

    fill([], degree)
    return Polynomial(d, coeffs)


def _coefficient_tensor(p):
    shape = tuple(p.degree_in(k) + 1 for k in range(p.d))
    C = np.zeros(shape, dtype=complex)
    for e, c in p.coeffs.items():
        C[e] = c
    return C


def effective_torus_grid(d, grid=TORUS_GRID):
    """Per-axis grid size after capping the total point count."""
    grid = int(grid)
    while grid ** d > TORUS_GRID_CAP and grid > 16:
        grid //= 2
    return grid


def torus_grid_values(p, grid=TORUS_GRID):
    """|p| on the grid of grid-th roots of unity in each coordinate.

    Zero-pads the coefficient tensor and applies an inverse FFT per
    axis, which evaluates sum c_a exp(i a . theta) exactly on the grid.
    """
    grid = effective_torus_grid(p.d, grid)
    C = _coefficient_tensor(p)
    if any(s > grid for s in C.shape):
        raise DomainError("grid too coarse for the polynomial degree")
    pad = np.zeros((grid,) * p.d, dtype=complex)
    pad[tuple(slice(0, s) for s in C.shape)] = C
    vals = np.fft.ifftn(pad) * grid ** p.d
    return np.abs(vals), grid


def sup_on_torus(p, grid=TORUS_GRID, stages=REFINE_STAGES):
    """Supremum of |p| over the unit torus.

    FFT grid scan followed by stages of shrinking local grids around the
    best candidates; the local spacing contracts fast enough that the
    final estimate is accurate to roughly 1e-9 relative at moderate
    degree.
    """
    if not p.coeffs:
        return 0.0
    absvals, grid = torus_grid_values(p, grid)
    flat = absvals.ravel()
    take = min(REFINE_CANDIDATES, flat.size)
    idx = np.argpartition(flat, flat.size - take)[-take:]
    centers = np.stack(np.unravel_index(idx, absvals.shape), axis=1)
    thetas = centers.astype(float) * (2.0 * np.pi / grid)
    best = float(flat[idx].max())

    offsets = np.linspace(-1.0, 1.0, REFINE_POINTS)
    mesh = np.stack(
        np.meshgrid(*([offsets] * p.d), indexing="ij"), axis=-1
    ).reshape(-1, p.d)
    h = np.pi / grid
    for _stage in range(stages):
        new_thetas = []
        for th in thetas:
            local = th[None, :] + h * mesh
            pts = np.exp(1j * local)
            vals = np.abs(p(pts))
            k = int(np.argmax(vals))
            if vals[k] > best:
                best = float(vals[k])
            new_thetas.append(local[k])
        thetas = np.array(new_thetas)
        h /= REFINE_POINTS - 1.0
    return best
