"""Multivariate polynomials with complex coefficients.

Shared by the variety tools (generators), the operator-theory checks
(test functions on the torus), and the experiment drivers.  Polynomials
are stored sparsely as exponent-tuple -> coefficient maps.  The
supremum on the unit torus takes one polynomial or a batch of them.  A
one-term polynomial has constant modulus there, so its supremum is |c|.
Every other polynomial is evaluated on a grid of roots of unity, and
each peak among its best grid points seeds one window.  The windows are
refined in rounds shared by the whole batch: each round evaluates a
local tensor grid around every window, a fixed-size block of windows at
a time.  The grid and the windows come from one kernel, which contracts
per-axis tables of exp(i a theta) with the coefficient tensors,
zero-padded to one shape in a batch.  The same kernel on a coarse
sub-lattice of the grid gives cheap lower bounds on the suprema.
"""

from __future__ import annotations

import cmath
import functools
import itertools

import numpy as np

from .errors import DomainError

MAX_DEGREE = 12

# Torus supremum: base grid per axis (total size capped), number of
# candidates kept for refinement, window shrinks per candidate, local
# grid points per axis, and the factor of each shrink.
TORUS_GRID = 128
TORUS_GRID_CAP = 2 ** 21
# Lower bounds on the supremum (_torus_lower_bounds): grid points per
# axis of the sub-lattice, a divisor of every effective grid.
LOW_GRID = 16
REFINE_CANDIDATES = 12
REFINE_STAGES = 14
REFINE_POINTS = 9
REFINE_SHRINK = 3.0

# Polynomial.__call__ evaluates this many points at a time, so that its
# (points x terms x d) power tensor stays bounded.
EVAL_BLOCK = 1024
# sup_on_torus evaluates the local grids of its windows in blocks of at
# most this many points (one window at least), so that a batch's working
# set stays bounded: 256 windows of 9 x 9 points for d = 2.
REFINE_BLOCK = 20736

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
            expo = tuple(map(int, expo))
            if len(expo) != d:
                raise DomainError(
                    f"exponent {expo} does not match {d} variables"
                )
            if min(expo) < 0:
                raise DomainError(f"negative exponent in {expo}")
            c = complex(c)
            if not cmath.isfinite(c):
                raise DomainError(f"coefficient {c} of {expo} is not finite")
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
        blocks = np.split(pts, range(EVAL_BLOCK, len(pts), EVAL_BLOCK))
        vals = np.concatenate(
            [np.prod(b[:, None, :] ** A[None, :, :], axis=2) @ c for b in blocks]
        )
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
        """Inverse of to_payload; DomainError if the payload is not a
        {"d": int, "terms": [[e_1, ..., e_d, re, im], ...]} object."""
        if not isinstance(payload, dict):
            raise DomainError("polynomial payload must be a JSON object")
        d, terms = payload.get("d"), payload.get("terms")
        if not isinstance(d, int) or not isinstance(terms, list):
            raise DomainError("polynomial payload needs an integer d and a terms list")
        coeffs = {}
        for row in terms:
            if not (isinstance(row, list) and len(row) == d + 2
                    and all(isinstance(a, int) for a in row[:d])
                    and all(isinstance(x, (int, float)) for x in row[d:])):
                raise DomainError(f"bad term row {row!r}")
            coeffs[tuple(row[:d])] = complex(row[d], row[d + 1])
        return cls(d, coeffs)

    def __repr__(self):
        return f"Polynomial(d={self.d}, terms={len(self.coeffs)})"


def monomial(d, expo, coeff=1.0):
    return Polynomial(d, {tuple(expo): coeff})


@functools.lru_cache(maxsize=None)
def _dense_exponents(d, degree):
    """The exponents of total degree <= degree in d variables, in
    lexicographic order."""
    return tuple(
        e for e in itertools.product(range(degree + 1), repeat=d)
        if sum(e) <= degree
    )


def random_polynomial(rng, d, degree, scale=1.0):
    """Dense random polynomial with complex Gaussian coefficients.

    The exponents of total degree <= degree are visited in lexicographic
    order, and each coefficient draws its real part, then its imaginary
    part."""
    expos = _dense_exponents(d, degree)
    draws = iter(rng.normal(size=2 * len(expos)).tolist())
    coeffs = {e: scale * (re + 1j * im) for e, re, im in zip(expos, draws, draws)}
    return Polynomial(d, coeffs)


def _stack_shape(polys):
    """The shape _coefficient_stack pads polys to: the largest degree in
    each variable, plus one."""
    degrees = [(0,) * polys[0].d]
    degrees += [tuple(map(max, zip(*p.coeffs))) for p in polys if p.coeffs]
    return tuple(max(col) + 1 for col in zip(*degrees))


def _coefficient_stack(polys, shape=None):
    """Coefficient tensors of polynomials in the same d, zero-padded to
    one shape, by default _stack_shape(polys): C[i, a_0, ..., a_{d-1}]
    is the coefficient of z^a in polys[i]."""
    if shape is None:
        shape = _stack_shape(polys)
    C = np.zeros((len(polys),) + shape, dtype=complex)
    for i, p in enumerate(polys):
        if p.coeffs:
            A, c = p._arrays()
            C[(i,) + tuple(A.T)] = c
    return C


def effective_torus_grid(d):
    """Per-axis grid size after capping the total point count."""
    grid = TORUS_GRID
    while grid ** d > TORUS_GRID_CAP and grid > 16:
        grid //= 2
    return grid


def _phases(angles, width):
    """exp(i a angle) for a = 0..width-1, along a new last axis."""
    return np.exp(1j * np.multiply.outer(angles, np.arange(width)))


def _local_grid_values(C, at_centre, at_offset):
    """Values of polynomials on a local tensor grid around every window.

    C is the coefficient tensor of one polynomial, shared by all windows,
    or a stack of them, one per window (see _coefficient_stack).
    at_centre = _phases(thetas, w) holds the (c, d) window centres and
    at_offset = _phases(offsets, w) the (c, P) or (P,) angle offsets
    taken along every axis, with w at least the largest axis of C.
    Returns the complex values at
    thetas[c] + (offsets[c, i_0], ..., offsets[c, i_{d-1}]) as a
    (c, P, ..., P) array.  Axis k contributes the table
    E_k[c, i, a] = exp(i a thetas[c, k]) * exp(i a offsets[c, i]),
    a = 0..n_k, and the tables are contracted with C one axis at a time
    by batched matmuls, which for d = 2 is (E_0 @ C) @ E_1^T.  Each
    window is its own matmul, so its values do not depend on which
    other windows share the call.
    """
    d = at_centre.shape[1]
    # T holds the axes still to contract, then the grid axes done so far
    T = C.reshape((-1,) + C.shape[C.ndim - d:])
    for k, n in enumerate(T.shape[1:]):
        E = at_centre[:, k, None, :n] * at_offset[..., :n]
        out = E @ T.reshape(T.shape[0], n, -1)
        out = out.reshape(E.shape[:2] + T.shape[2:])
        T = out.transpose(0, *range(2, out.ndim), 1)
    return T


def sup_on_torus(p):
    """Supremum of |p| over the unit torus.

    p is one Polynomial, which gives a float, or a sequence of them in
    the same number of variables, which gives an array with one supremum
    each (DomainError if the variable counts differ).  The zero
    polynomial gives 0.0 and a one-term polynomial c z^a, of constant
    modulus on the torus, gives |c| exactly, neither with a grid.

    For every other polynomial a scan of the grid of grid-th roots of
    unity in each coordinate (_grid_candidates, one window of the kernel
    below) takes its REFINE_CANDIDATES best grid points, which mostly
    crowd one peak, and keeps the peaks among them as window centres.
    Each round then evaluates a REFINE_POINTS^d local grid in every
    window of the batch (_local_grid_values, on the coefficient tensors
    zero-padded to one shape, at most REFINE_BLOCK local grid points per
    call) and moves each window to its best local point.  A window
    starts at half-width one grid spacing, 2 pi / grid, and shrinks
    REFINE_SHRINK-fold whenever its best point is interior, so the next
    window still covers the local spacing (a quarter of the half-width)
    around it.  A window whose best point lies on its edge keeps its
    size, since the maximum may lie beyond: on a thin slanted ridge the
    best sample can sit several spacings from the crest's maximum along
    the ridge.  A polynomial's refinement ends once its windows have all shrunk
    REFINE_STAGES times (the last local spacing is then below 1e-8 rad),
    or after 2 * REFINE_STAGES rounds; its windows then leave the batch.
    So each supremum is the refinement its polynomial gets on its own:
    bit for bit when the batch shares one coefficient shape, else within
    the rounding of the padded contraction (1e-15 relative).  The batch
    enters only through that padded shape, so _torus_suprema can give
    one sample of a batch the same bits without the rest; that is how
    von_neumann_check takes exact suprema only for the samples that can
    still be its worst, with _torus_lower_bounds bounding the others.  A
    window at every best grid point would give no smaller value, and on
    7060 draws at most 1.4e-15 relative larger.

    Measured against certified brackets from a branch and bound on
    |p|^2 (tests/test_polynomials.py), no result fell short of the
    certified upper bound by more than 2e-9 relative on 5700 d = 2 draws
    of von_neumann_check's sampler, near-inner transfer-function
    truncations included; on 1200 of them the largest gap was 9.9e-10,
    the width of the bracket itself.  The value is attained on the
    torus, so it exceeds the supremum only by rounding.
    """
    single = isinstance(p, Polynomial)
    polys = [p] if single else list(p)
    if len({q.d for q in polys}) > 1:
        raise DomainError("polynomials of one batch must share their variable count")
    best = _torus_suprema(polys, _refine_shape(polys))
    return float(best[0]) if single else best


def _refine_shape(polys):
    """The shape sup_on_torus pads the refinement of the batch polys to:
    the _stack_shape of its polynomials with more than one term, or None
    when it has none."""
    multi = [q for q in polys if len(q.coeffs) > 1]
    return _stack_shape(multi) if multi else None


def _torus_suprema(polys, shape):
    """sup_on_torus of each of polys, the refinement's coefficient stack
    padded to shape (a _refine_shape of a batch holding polys).  A
    polynomial's supremum depends on the batch only through shape, so a
    sample of a batch gets the supremum the whole batch would give it."""
    best = np.zeros(len(polys))
    refined = []
    for i, q in enumerate(polys):
        if len(q.coeffs) == 1:
            best[i] = abs(next(iter(q.coeffs.values())))
        elif q.coeffs:
            refined.append(i)
    if refined:
        best[refined] = _refined_suprema([polys[i] for i in refined], shape)
    return best


def _torus_lower_bounds(C):
    """A lower bound on the supremum of |p| on the torus for each p of
    the coefficient stack C (see _coefficient_stack): max |p| over the
    sub-lattice of sup_on_torus's grid that takes every
    (grid / LOW_GRID)-th angle, LOW_GRID^d points.  The batch shares
    _local_grid_values calls of at most grid^d points each, the size of
    one grid scan of sup_on_torus, so the bounds need no more memory
    than one supremum.

    Each value is attained on the torus, so it bounds the supremum from
    below.  sup_on_torus starts from the maximum over its whole grid,
    which holds the sub-lattice, so its result can fall below the bound
    by the rounding of the two contractions only.  That rounding is a
    few ulps of the sum of the coefficients' moduli, while the grid
    maximum is at least the root of the sum of their squares (the mean
    of |p|^2 over a grid finer than the degree), so the gap stays below
    1e-11 relative at every degree up to MAX_DEGREE.
    """
    d = C.ndim - 1
    grid = effective_torus_grid(d)
    angles = (np.arange(grid) * (2.0 * np.pi / grid))[:: grid // LOW_GRID]
    width = max(C.shape[1:])
    offsets = _phases(angles, width)
    block = (grid // LOW_GRID) ** d
    low = np.empty(len(C))
    for start in range(0, len(C), block):
        Cb = C[start:start + block]
        vals = _local_grid_values(Cb, _phases(np.zeros((len(Cb), d)), width), offsets)
        low[start:start + block] = np.abs(vals).reshape(len(Cb), -1).max(axis=1)
    return low


def _grid_candidates(p):
    """The peaks of |p| among its REFINE_CANDIDATES best points on the
    grid of grid-th roots of unity in each coordinate, as (c, d) angles,
    and the largest grid value.  A best point is dropped when another is
    strictly larger within one grid step in every coordinate (counted
    cyclically), so each peak seeds one window.  The grid is one window
    of _local_grid_values, centred at theta = 0, whose offsets along
    every axis are the grid angles."""
    grid = effective_torus_grid(p.d)
    C = _coefficient_stack([p])
    width = max(C.shape[1:])
    angles = np.arange(grid) * (2.0 * np.pi / grid)
    window = _phases(np.zeros((1, p.d)), width), _phases(angles, width)
    # no name holds the complex grid, so it is freed once |p| is taken
    flat = np.abs(_local_grid_values(C, *window)).ravel()
    take = min(REFINE_CANDIDATES, flat.size)
    idx = np.argpartition(flat, flat.size - take)[-take:]
    vals = flat[idx]
    centers = np.stack(np.unravel_index(idx, (grid,) * p.d), axis=1)
    # (i - j + 1) mod grid <= 2: at most one step apart, cyclically
    near = np.all((centers[:, None] - centers[None] + 1) % grid <= 2, axis=2)
    peaks = ~np.any(near & (vals[None, :] > vals[:, None]), axis=1)
    return angles[centers[peaks]], float(vals.max())


def _refined_suprema(polys, shape):
    """The grid scan and the batched window refinement of sup_on_torus,
    on the coefficient stack of polys padded to shape."""
    d = polys[0].d
    grid = effective_torus_grid(d)
    scans = [_grid_candidates(p) for p in polys]
    thetas = np.concatenate([t for t, _ in scans])
    owner = np.repeat(np.arange(len(polys)), [len(t) for t, _ in scans])
    best = np.array([b for _, b in scans])

    C = _coefficient_stack(polys, shape)
    width = max(C.shape[1:])
    offsets = np.linspace(-1.0, 1.0, REFINE_POINTS)
    strides = REFINE_POINTS ** np.arange(d - 1, -1, -1)
    stages = REFINE_STAGES
    half_widths = (2.0 * np.pi / grid) / REFINE_SHRINK ** np.arange(stages + 1)
    offset_phases = _phases(np.multiply.outer(half_widths, offsets), width)
    shrinks = np.zeros(len(owner), dtype=int)
    block = max(1, REFINE_BLOCK // REFINE_POINTS ** d)
    for _round in range(2 * stages):
        # keep the windows of unfinished polynomials
        unfinished = np.zeros(len(polys), dtype=bool)
        unfinished[owner[shrinks < stages]] = True
        keep = unfinished[owner]
        if not keep.any():
            break
        owner, shrinks, thetas = owner[keep], shrinks[keep], thetas[keep]
        k = np.empty(len(owner), dtype=int)
        for start in range(0, len(owner), block):
            b = slice(start, start + block)
            vals = _local_grid_values(
                C[owner[b]], _phases(thetas[b], width), offset_phases[shrinks[b]]
            )
            vals = np.abs(vals).reshape(len(vals), -1)
            k[b] = np.argmax(vals, axis=1)
            np.maximum.at(best, owner[b], vals[np.arange(len(vals)), k[b]])
        steps = k[:, None] // strides % REFINE_POINTS
        thetas = thetas + half_widths[shrinks, None] * offsets[steps]
        interior = np.all((steps > 0) & (steps < REFINE_POINTS - 1), axis=1)
        shrinks = np.minimum(shrinks + interior, stages)
    return best
