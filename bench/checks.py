"""Independent checks of polydisklab outputs.

Every check recomputes what it needs with plain numpy (and scipy for a
local optimizer) from the inputs the benchmark generated; none imports
polydisklab or compares against a stored copy of the program's output.
A check raises CheckError on a wrong answer and returns None otherwise.
"""

import numpy as np
from scipy.optimize import minimize


class CheckError(Exception):
    """An output failed its independent check."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------- geometry

def mobius(a, z):
    """The disk automorphism z -> (z - a) / (1 - conj(a) z)."""
    return (z - a) / (1.0 - np.conj(a) * z)


def rho(z, w):
    """Pseudo-hyperbolic distance on the unit disk."""
    return np.abs(z - w) / np.abs(1.0 - np.conj(w) * z)


def blaschke(zeros, const, scale, z):
    """scale * const * prod (z - a) / (1 - conj(a) z), vectorized in z."""
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, scale * const, dtype=complex)
    for a in zeros:
        out = out * mobius(a, z)
    return out


def blaschke_derivative(zeros, const, scale, z):
    """Derivative of blaschke() by the logarithmic-derivative rule."""
    z = np.asarray(z, dtype=complex)
    total = np.zeros(z.shape, dtype=complex)
    for a in zeros:
        total = total + (1.0 - abs(a) ** 2) / ((z - a) * (1.0 - np.conj(a) * z))
    return blaschke(zeros, const, scale, z) * total


def probe_points(count, rng):
    """Fresh interior points, away from any interpolation node."""
    return 0.95 * np.sqrt(rng.uniform(size=count)) * np.exp(
        2j * np.pi * rng.uniform(size=count))


# ------------------------------------------------------------------- disk

def check_disk_norm(t, s):
    """minimal_norm's documented accuracy: within 1e-9 * max(1, s) of s."""
    require(abs(float(t) - s) <= 1e-9 * max(1.0, s),
            f"minimal norm {float(t)!r} is not within 1e-9 of {s!r}")


def check_extremal(flag, s):
    require(bool(flag) == (s == 1.0),
            f"is_extremal returned {flag} for data of minimal norm {s}")


def check_blaschke(zeros, const, scale, s, b_zeros, b_const, points):
    """The constructed product equals s * B at the given fresh points."""
    require(abs(float(scale) - s) <= 1e-7 * max(1.0, s),
            f"constructed scale {float(scale)!r} does not match {s!r}")
    got = blaschke(zeros, const, scale, points)
    want = blaschke(b_zeros, b_const, s, points)
    err = float(np.max(np.abs(got - want)))
    require(err <= 1e-7, f"constructed product differs from s*B by {err:.3e}")


# --------------------------------------------------------------- polydisk

def kernel_blocks(nodes):
    """The d matrices [1 - l_i^r conj(l_j^r)] for nodes of shape (n, d)."""
    nodes = np.asarray(nodes, dtype=complex)
    return [1.0 - np.outer(nodes[:, r], np.conj(nodes[:, r]))
            for r in range(nodes.shape[1])]


def target_block(targets, t):
    w = np.asarray(targets, dtype=complex) / t
    return 1.0 - np.outer(w, np.conj(w))


def min_eig(A):
    return float(np.linalg.eigvalsh(0.5 * (A + A.conj().T)).min())


def check_poly_norm(value, s, d, caveat):
    """schur_agler_norm lies in [s (1 - 1e-7), s + 1e-5], flagged iff d >= 3."""
    value = float(value)
    require(s * (1.0 - 1e-7) <= value <= s + 1e-5,
            f"polydisk norm {value!r} outside [s(1-1e-7), s+1e-5] for s={s!r}")
    require(bool(caveat) == (d >= 3),
            f"caveat flag {caveat!r} is wrong for d={d}")


def check_dual_kernel(K, nodes, targets, t):
    """A dual kernel certifies that the data has no decomposition at t."""
    K = np.asarray(K, dtype=complex)
    diag = float(np.max(np.abs(np.diag(K) - 1.0)))
    require(diag <= 1e-10, f"kernel diagonal is off 1 by {diag:.3e}")
    require(min_eig(K) > 0.0, "kernel is not positive definite")
    for r, M in enumerate(kernel_blocks(nodes)):
        cone = min_eig(M * K)
        require(cone >= -1e-11,
                f"coordinate {r + 1} kernel block has eigenvalue {cone:.3e}")
    viol = min_eig(target_block(targets, t) * K)
    require(viol <= -1e-8, f"kernel exposes no violation ({viol:.3e})")


def check_decomposition(gammas, nodes, targets, t):
    """Gamma^r >= -1e-9 and sum_r M^r o Gamma^r = 1 - w w*/t^2 within 1e-7."""
    gammas = [np.asarray(g, dtype=complex) for g in gammas]
    for r, G in enumerate(gammas):
        lo = min_eig(G)
        require(lo >= -1e-9, f"Gamma^{r + 1} has eigenvalue {lo:.3e}")
    total = sum(M * G for M, G in zip(kernel_blocks(nodes), gammas))
    recon = float(np.max(np.abs(total - target_block(targets, t))))
    require(recon <= 1e-7, f"decomposition reconstructs to {recon:.3e}")


def check_exg1(m, verdict, zeta, xi, sa_norm, circle_gap):
    require(verdict == "violation_detected", f"exg1 verdict {verdict!r}")

    def phi(z):
        return (m - z) / (1.0 - m * z)

    slack = rho(zeta, xi) - rho(1.0 + phi(zeta), 1.0 + phi(xi))
    require(slack >= 1e-6, f"exg1 witness slack {slack:.3e} below 1e-6")
    require(1.0 - 1e-7 <= sa_norm <= 1.0 + 1e-5,
            f"exg1 three-point norm {sa_norm!r} is not 1")
    require(circle_gap > 0.05, f"exg1 omitted arc {circle_gap!r} too small")


# ---------------------------------------------------------------- variety

def poly_eval(coeffs, points):
    """sum c_e z^e for coeffs {exponent tuple: c}, points of shape (m, d)."""
    pts = np.asarray(points, dtype=complex)
    out = np.zeros(pts.shape[0], dtype=complex)
    for e, c in coeffs.items():
        term = np.full(pts.shape[0], complex(c))
        for k, a in enumerate(e):
            if a:
                term = term * pts[:, k] ** a
        out = out + term
    return out


def check_retract_verdict(verdict, expected):
    require(verdict == expected,
            f"retract verdict {verdict!r}, expected {expected!r}")


def check_graph_values(base, values, h_coeffs):
    """The (1,2) graph values equal h at the base points within 1e-10."""
    base = np.asarray(base, dtype=complex)
    values = np.asarray(values, dtype=complex)
    require(np.all(np.isfinite(values)), "graph has undefined values")
    err = float(np.max(np.abs(values - poly_eval(h_coeffs, base))))
    require(err <= 1e-10, f"graph values differ from h by {err:.3e}")


def check_escape_witness(pair, base, value, gen_coeffs):
    """An escape witness lies on the variety over an interior base point."""
    pair = tuple(int(j) for j in pair)
    base = np.asarray(base, dtype=complex)
    require(np.all(np.abs(base) < 1.0), "witness base point is not interior")
    require(abs(value) > 1.0, f"witness value modulus {abs(value):.6f} <= 1")
    pt = np.zeros(3, dtype=complex)
    dep = next(j for j in (1, 2, 3) if j not in pair)
    for j, b in zip(pair, base):
        pt[j - 1] = b
    pt[dep - 1] = value
    resid = float(abs(poly_eval(gen_coeffs, pt[None, :])[0]))
    require(resid <= 1e-10, f"witness misses the variety by {resid:.3e}")


def check_variety_points(points, gen_coeffs):
    """Every point satisfies the generator within 1e-9 (relative to the
    coefficient sum, as documented) and lies in the open polydisk."""
    pts = np.asarray(points, dtype=complex)
    require(pts.ndim == 2 and len(pts) > 0, "no sampled points")
    scale = max(1.0, sum(abs(c) for c in gen_coeffs.values()))
    resid = float(np.max(np.abs(poly_eval(gen_coeffs, pts))))
    require(resid <= 1e-9 * scale, f"sampled point misses by {resid:.3e}")
    require(float(np.max(np.abs(pts))) < 1.0, "sampled point outside polydisk")


def check_balanced_pair(rho_values, n, tol, l=None, m=None):
    """The n largest coordinate distances tie to tol (relative to the
    largest); with the points given, the distances are recomputed."""
    vals = np.asarray(rho_values, dtype=float)
    require(n >= 2, f"reported pair is only {n}-balanced")
    if l is not None:
        mine = np.sort(rho(np.asarray(l), np.asarray(m)))[::-1]
        err = float(np.max(np.abs(mine - vals)))
        require(err <= 1e-12, f"reported distances are off by {err:.3e}")
        vals = mine
    spread = float(vals[0] - vals[n - 1])
    require(spread <= tol * vals[0] * (1.0 + 1e-9) + 1e-15,
            f"top-{n} distances spread {spread:.3e} exceeds the tie tolerance")


# ------------------------------------------------------------- operators

def torus_grid_max(coeffs, d, grid):
    """Max |p| over the grid of grid-th roots of unity, by per-axis
    Vandermonde contraction; returns (value, angles of the maximizer)."""
    degs = [max(e[k] for e in coeffs) for k in range(d)]
    C = np.zeros([g + 1 for g in degs], dtype=complex)
    for e, c in coeffs.items():
        C[e] += c
    theta = 2.0 * np.pi * np.arange(grid) / grid
    vals = C
    for k in range(d):
        V = np.exp(1j * np.outer(np.arange(degs[k] + 1), theta))
        vals = np.tensordot(vals, V, axes=([0], [0]))
    absvals = np.abs(vals)
    idx = np.unravel_index(int(np.argmax(absvals)), absvals.shape)
    return float(absvals[idx]), theta[list(idx)]


def polished_torus_max(coeffs, d, grid=64):
    """Dense-grid maximum of |p| on the torus, polished by BFGS."""
    best, th0 = torus_grid_max(coeffs, d, grid)

    def neg(th):
        return -float(abs(poly_eval(coeffs, np.exp(1j * th)[None, :])[0]))

    res = minimize(neg, th0, method="BFGS", options={"gtol": 1e-12})
    return max(best, -float(res.fun))


def operator_norm_at_nodes(V, values):
    """||V diag(values) V^{-1}||_2: the function of the tuple taking the
    given values at the joint eigenvalues."""
    V = np.asarray(V, dtype=complex)
    return float(np.linalg.norm(V @ np.diag(values) @ np.linalg.inv(V), 2))


def check_ando_ratio(max_ratio):
    require(float(max_ratio) <= 1.0 + 1e-6,
            f"von Neumann ratio {float(max_ratio)!r} breaks Ando's inequality")


def check_operator_norm(V, nodes, coeffs, claimed):
    """||p(T)|| recomputed through the eigenvector model agrees within 1e-8."""
    pvals = poly_eval(coeffs, np.asarray(nodes, dtype=complex))
    mine = operator_norm_at_nodes(V, pvals)
    require(abs(mine - claimed) <= 1e-8 * max(1.0, mine),
            f"||p(T)|| recomputes to {mine!r}, report implies {claimed!r}")


def check_tuple(matrices, V, nodes):
    """Commuting contractions with the nodes as joint eigenvalues."""
    V = np.asarray(V, dtype=complex)
    nodes = np.asarray(nodes, dtype=complex)
    mats = [np.asarray(T, dtype=complex) for T in matrices]
    for j, T in enumerate(mats):
        eig = float(np.max(np.abs(T @ V - V * nodes[:, j][None, :])))
        require(eig <= 1e-9, f"T_{j + 1} eigen relation off by {eig:.3e}")
        excess = float(np.linalg.norm(T, 2)) - 1.0
        require(excess <= 1e-9, f"T_{j + 1} exceeds norm 1 by {excess:.3e}")
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            comm = float(np.linalg.norm(mats[a] @ mats[b] - mats[b] @ mats[a], 2))
            require(comm <= 1e-9, f"T_{a + 1}, T_{b + 1} commute only to {comm:.3e}")


def check_witness(f_norm, s, t, matrices, V, nodes, targets):
    """1 < ||f(T)|| <= (s/t)(1 + 1e-6), with ||f(T)|| recomputed."""
    check_tuple(matrices, V, nodes)
    f_norm = float(f_norm)
    require(1.0 < f_norm <= s / t * (1.0 + 1e-6),
            f"witness norm {f_norm!r} outside (1, {s / t!r}]")
    mine = operator_norm_at_nodes(V, np.asarray(targets, dtype=complex) / t)
    require(abs(mine - f_norm) <= 1e-8 * max(1.0, mine),
            f"witness norm recomputes to {mine!r}, reported {f_norm!r}")
