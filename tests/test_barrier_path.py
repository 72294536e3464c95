"""The batched barrier Newton step against the per-block step it replaced,
which is kept below as the reference.

The batched step is required to agree bit for bit: every yielded (s, gap)
pair, iterate and dual point, the Newton step counts, the Schur-Agler norms
and the decompositions and dual kernels that agler_feasible returns.

Bitwise agreement holds at a fixed BLAS thread count: multi-threaded
OpenBLAS rounds a QR of the larger Newton matrices differently from its
single-threaded code, and the reference's numpy QR and the batched step's
scipy QR come from two OpenBLAS builds whose thresholds differ.  So the
comparison runs in a child interpreter with one BLAS thread, as the
benchmark does.  `OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python
tests/test_barrier_path.py` prints the mismatches and Newton step counts of
every case.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from polydisklab import agler
from polydisklab.agler import (
    CENTRED,
    DUAL_DECREMENT,
    NEWTON_BUDGET,
    TAU_GROWTH,
    PolyPickData,
    _hbasis,
    _hmat,
    _hvec,
    agler_feasible,
    schur_agler_norm,
)
from polydisklab.errors import UndecidedError

# ---------------------------------------------------------------------------
# per-block reference: np.kron and two gathers per block, scipy's
# solve_triangular, np.linalg.qr, and the dual point built on every step


def ref_scaled_form(Li, basis, cols):
    (li, lc), (ri, rc) = basis, cols
    K = np.kron(Li, np.conj(Li))
    KF = K[:, ri[0]] * rc[0] + K[:, ri[1]] * rc[1]
    return np.real(np.conj(lc[0])[:, None] * KF[li[0]] + np.conj(lc[1])[:, None] * KF[li[1]])


def ref_central_path(M, B, gammas, s):
    d, n, _ = M.shape
    S0 = 1.0 / M[0]
    J = np.ones((n, n))
    P = S0[None] * M[1:]
    PB = S0 * B
    basis = _hbasis(n)
    nb, nf = n * n, (d - 1) * n * n
    cross = (np.tile(basis[0], (1, d - 1)),
             np.hstack([-basis[1] * P[r].reshape(-1)[basis[0]]
                        for r in range(d - 1)] or [np.zeros((2, 0))]))
    ones = np.tile(_hvec(np.eye(n), basis), d)
    nu = float(n * d)
    tau = nu * float(np.max(np.real(np.diag(B))))
    gam = [np.array(g, dtype=complex) for g in gammas]
    state = {"s": float(s), "gap": np.inf, "newton_steps": 0}

    def eliminate(gam, s):
        return S0 * (J - s * B - sum(M[r] * gam[r] for r in range(1, d)))

    def inverse_factors(gam):
        return [solve_triangular(np.linalg.cholesky(g), np.eye(n), lower=True)
                for g in gam]

    gam[0] = eliminate(gam, s)
    try:
        Li = inverse_factors(gam)
    except np.linalg.LinAlgError as exc:
        raise UndecidedError(f"barrier path start is not positive definite: {exc}",
                             residuals=dict(state)) from exc
    for step in range(NEWTON_BUDGET):
        state["newton_steps"] = step
        A = np.zeros((d * nb, nf + 1))
        A[:nb, :nf] = ref_scaled_form(Li[0], basis, cross)
        A[:nb, nf] = _hvec(Li[0] @ (-PB) @ np.conj(Li[0].T), basis)
        for r in range(1, d):
            A[r * nb:(r + 1) * nb, (r - 1) * nb:r * nb] = ref_scaled_form(Li[r], basis, basis)
        gb = -A.T @ ones
        try:
            Q, R = np.linalg.qr(A)
            a = -solve_triangular(R, Q.T @ ones)
            c = solve_triangular(R, np.eye(nf + 1)[nf]) / R[nf, nf]
        except np.linalg.LinAlgError as exc:
            raise UndecidedError(f"singular barrier Newton system: {exc}",
                                 residuals=dict(state)) from exc
        g_a = float(np.dot(gb, a))

        def newton(tau):
            dz = tau * c - a
            return dz, max(g_a - 2.0 * tau * a[nf] + tau * tau * c[nf], 0.0)

        if step == 0 and a[nf] > 0.0:
            tau = a[nf] / c[nf]
        disc = a[nf] * a[nf] - c[nf] * (g_a - DUAL_DECREMENT ** 2)
        if disc >= 0.0:
            tau_d = (a[nf] + np.sqrt(disc)) / c[nf]
            dz = tau_d * c - a
            gap = max((nu + float(np.dot(gb, dz))) / tau_d, 0.0)
            W0 = np.conj(Li[0].T) @ Li[0]
            dg0 = -sum(P[r - 1] * _hmat(dz[(r - 1) * nb:r * nb], basis, n)
                       for r in range(1, d)) - dz[nf] * PB
            Y = (W0 - W0 @ dg0 @ W0) / np.conj(M[0]) / tau_d
            state["gap"] = gap
            yield s, gap, tuple(gam), 0.5 * (Y + np.conj(Y.T))
        else:
            yield s, np.inf, tuple(gam), None
        dz, lam2 = newton(tau)
        if lam2 < CENTRED:
            tau *= TAU_GROWTH
            dz, lam2 = newton(tau)
        lam = np.sqrt(lam2)
        alpha = 1.0 if lam < 0.25 else 1.0 / (1.0 + lam)
        dgam = [None] + [_hmat(dz[(r - 1) * nb:r * nb], basis, n) for r in range(1, d)]
        for _ in range(40):
            trial = [None] + [gam[r] + alpha * dgam[r] for r in range(1, d)]
            trial_s = s + alpha * float(dz[nf])
            trial[0] = eliminate(trial, trial_s)
            try:
                Li = inverse_factors(trial)
                break
            except np.linalg.LinAlgError:
                alpha *= 0.5
        else:
            raise UndecidedError("barrier step cannot stay positive definite",
                                 residuals=dict(state))
        gam, s = trial, trial_s
        state["s"] = float(s)
    raise UndecidedError("barrier path exhausted its Newton budget",
                         iterations=NEWTON_BUDGET, residuals=dict(state))


def lazy_ref_central_path(M, B, gammas, s):
    """The reference path with its dual point handed out as agler_feasible
    now takes it: a zero-argument callable."""
    for s, gap, gam, Y in ref_central_path(M, B, gammas, s):
        yield s, gap, gam, None if Y is None else (lambda Y=Y: Y)


# ---------------------------------------------------------------------------
# frozen cases: nodes drawn in the polydisk of radius 0.7 and targets in the
# disk of radius 0.9, at shapes that include the largest supported ones (the
# default LAPACK workspace changes the QR's rounding only from (2, 12) on)


def random_data(d, n, seed):
    rng = np.random.default_rng(seed)

    def points(radius, shape):
        r, angle = rng.uniform(size=shape), rng.uniform(size=shape)
        return radius * np.sqrt(r) * np.exp(2j * np.pi * angle)

    return PolyPickData(d=d, nodes=tuple(map(tuple, points(0.7, (n, d)).tolist())),
                        targets=tuple(points(0.9, n).tolist()))


# nodes 0 and 1 share their first coordinate, so the path also builds the
# start (agler._start's shifted path)
SHARED = PolyPickData(d=2, nodes=((0.3, 0.2), (0.3, -0.4), (-0.5, 0.1)),
                      targets=(0.1, 0.3, -0.2))

CASES = {f"d{d}-n{n}": (d, n) for d, n in
         ((1, 3), (2, 4), (3, 4), (2, 6), (3, 6), (2, 12), (3, 12))}
# certificates at these multiples of the norm; an optimal one runs the path to
# convergence, as the norm already does, so the 12-node cases skip them to
# keep the test short
FACTORS = (0.99, 1.01)
OPTIMAL_MAX_NODES = 6


def bits(x):
    """Exact digest of a float, array or nested tuple of them."""
    if isinstance(x, (tuple, list)):
        return [bits(y) for y in x]
    if isinstance(x, np.ndarray):
        return x.tobytes().hex()
    return float(x).hex()


def trace(path, log):
    """path, recording every yield bit for bit in log."""
    def traced(*args):
        for s, gap, gam, Y in path(*args):
            log.append([bits(s), bits(gap), bits(gam), None if Y is None else bits(Y())])
            yield s, gap, gam, Y
    return traced


def outcomes(data, path):
    """Norm, certificates and every path yield, with path as the barrier path."""
    saved, log, out = agler._central_path, [], []

    def record(call):
        del log[:]
        try:
            res = call()
            if isinstance(res, agler.Feasible):
                got = ["feasible", bits(res.decomposition.gammas)]
            elif isinstance(res, agler.Infeasible):
                got = ["infeasible", bits(res.kernel.K), bits(res.kernel.violation)]
            else:
                got = ["norm", bits(res)]
        except UndecidedError as exc:
            residuals = [v for _, v in sorted(exc.residuals.items())]
            res, got = None, ["undecided", str(exc), bits(residuals)]
        out.append(got + [len(log), list(log)])
        return res

    agler._central_path = trace(path, log)
    try:
        norm = record(lambda: schur_agler_norm(data))
        optimal = (False, True) if data.n <= OPTIMAL_MAX_NODES else (False,)
        for f in FACTORS if norm is not None else ():
            for opt in optimal:
                record(lambda: agler_feasible(data, f * norm, optimal_certificate=opt))
    finally:
        agler._central_path = saved
    return out


def compare(data):
    """Mismatches between the batched path and the reference on data."""
    new, ref = outcomes(data, agler._central_path), outcomes(data, lazy_ref_central_path)
    found = []
    for k, (a, b) in enumerate(zip(new, ref)):
        if a[-2] != b[-2]:
            found.append(f"call {k}: {a[-2]} steps, reference {b[-2]}")
        for i, (ya, yb) in enumerate(zip(a[-1], b[-1])):
            for name, xa, xb in zip(("s", "gap", "gammas", "dual"), ya, yb):
                if xa != xb:
                    found.append(f"call {k}, yield {i}: {name} differs")
        if a[:-2] != b[:-2]:
            found.append(f"call {k}: result {a[0]} differs from reference {b[0]}")
    return found, [a[-2] for a in new]


def run_all():
    cases = {name: random_data(d, n, seed=n) for name, (d, n) in CASES.items()}
    cases["shared-coordinate"] = SHARED
    return {name: compare(data) for name, data in cases.items()}


SINGLE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def results():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               **{k: "1" for k in SINGLE_THREAD})
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", [*CASES, "shared-coordinate"])
def test_bitwise_equal_to_reference(results, name):
    mismatches, steps = results[name]
    assert mismatches == []
    # the norm and every certificate ran the path
    assert len(steps) > len(FACTORS) and min(steps) > 0


if __name__ == "__main__":
    print(json.dumps(run_all()))
