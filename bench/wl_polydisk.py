"""polydisk: Schur-Agler problems, where the agler layer does the work.

Nodes lie on a retract lambda -> (lambda, psi2(lambda), psi3(lambda))
with disk self-maps psi_r, and the targets are s * B(lambda).  Then
s * B(z1) interpolates with norm s, and restricting any interpolant to
the retract gives a disk interpolant, so the polydisk norm is exactly s
for every d (for d = 3 the Schur-Agler norm is s as well).
"""

import json
import os

import numpy as np

import checks
from harness import Op, pair, run_cli, write_problem

# (d, n) of the problems solved by schur_agler_norm, and of those given
# certificates below and above the norm (the shapes cycle).  Forty
# certificates put the median operation inside a dense band of costs.
NORM_CASES = ((1, 3), (1, 4), (2, 3), (2, 3))
CERT_SHAPES = ((1, 3), (1, 4), (2, 3), (2, 4), (2, 6), (3, 3), (3, 4))
CERT_PROBLEMS = 20
CERT_FACTORS = (0.99, 1.01)  # certificates at these multiples of the norm
LEVELS = (0.5, 0.75, 1.25, 1.5)
MAX_NODE_MODULUS = 0.75
MIN_SEPARATION = 0.2
BLASCHKE_DEGREE = 2
EXG1_M = (0.7, 0.9)  # 0.7 through the library, 0.9 through labcli

CANONICAL = {"d": 2, "nodes": ((0.0, 0.0), (0.5, 0.5)), "targets": (0.0, 0.7)}
CANONICAL_NORM = 1.4


def _disk_point(rng, radius):
    return radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())


def level(index):
    """The norm s of problem number index: 1 for every other problem."""
    return 1.0 if index % 2 == 0 else LEVELS[(index // 2) % len(LEVELS)]


def retract_problem(rng, d, n, s):
    while True:
        lam = np.array([_disk_point(rng, MAX_NODE_MODULUS) for _ in range(n)])
        if min(checks.rho(lam[i], lam[j]) for i in range(n) for j in range(i)) >= MIN_SEPARATION:
            break
    a2, a3 = _disk_point(rng, 0.5), _disk_point(rng, 0.5)
    turn = np.exp(2j * np.pi * rng.uniform())
    coords = [lam, 0.9 * turn * checks.mobius(a2, lam), lam * checks.mobius(a3, lam)]
    zeros = [_disk_point(rng, 0.8) for _ in range(BLASCHKE_DEGREE)]
    targets = checks.blaschke(zeros, np.exp(2j * np.pi * rng.uniform()), s, lam)
    return {
        "d": d,
        "nodes": tuple(tuple(complex(c[i]) for c in coords[:d]) for i in range(n)),
        "targets": tuple(complex(w) for w in targets),
        "s": s,
    }


def poly_data(lab, prob):
    return lab.agler.PolyPickData(d=prob["d"], nodes=prob["nodes"],
                                  targets=prob["targets"])


def _norm_op(lab, prob):
    def run():
        return lab.agler.schur_agler_norm(poly_data(lab, prob))

    def check(norm):
        checks.check_poly_norm(norm, prob["s"], prob["d"], norm.caveat_flag)

    return Op(f"norm-d{prob['d']}", run, check)


def _cert_op(lab, prob, factor):
    t = factor * prob["s"]

    def run():
        return lab.agler.agler_feasible(poly_data(lab, prob), t, optimal_certificate=True)

    def check(res):
        if factor < 1.0:
            checks.require(hasattr(res, "kernel"), f"no dual kernel at {factor} x norm")
            checks.check_dual_kernel(res.kernel.K, prob["nodes"], prob["targets"], t)
        else:
            checks.require(hasattr(res, "decomposition"),
                           f"no decomposition at {factor} x norm")
            checks.check_decomposition(res.decomposition.gammas, prob["nodes"],
                                       prob["targets"], t)

    return Op(f"cert-{'below' if factor < 1.0 else 'above'}", run, check)


def _exg1_op(lab, m):
    def run():
        return lab.experiments.exg1_reproduce(m)

    def check(rep):
        checks.check_exg1(m, rep.verdict, rep.zeta, rep.xi, rep.sa_norm, rep.circle_gap)

    return Op("exg1", run, check)


def _exg1_cli_op(lab, m, workdir):
    out_dir = os.path.join(workdir, "exg1")

    def run():
        return run_cli(lab, ["experiment", "exg1", "--m", str(m), "--json",
                             "--out-dir", out_dir])

    def check(out):
        code, text = out
        checks.require(code == 0, f"labcli exg1 exited with {code}")
        rep = json.loads(text)
        checks.check_exg1(m, rep["verdict"], rep["zeta"], rep["xi"],
                          rep["sa_norm"], rep["circle_gap"])

    return Op("exg1-cli", run, check)


def write_canonical(path):
    write_problem(path, "poly_pick", {
        "d": CANONICAL["d"],
        "nodes": [[pair(c) for c in p] for p in CANONICAL["nodes"]],
        "targets": [pair(w) for w in CANONICAL["targets"]]})


def _canonical_cli_op(lab, workdir):
    path = os.path.join(workdir, "canonical.json")
    write_canonical(path)

    def run():
        return run_cli(lab, ["pick-solve", path, "--json"])

    def check(out):
        code, text = out
        checks.require(code == 0, f"pick-solve exited with {code}")
        res = json.loads(text)
        checks.check_poly_norm(res["sa_norm"], CANONICAL_NORM, CANONICAL["d"],
                               res.get("caveat_flag"))
        cert = res["certificate"]
        checks.require(cert is not None, "pick-solve printed a null certificate")
        gammas = [np.array(g)[..., 0] + 1j * np.array(g)[..., 1] for g in cert["gammas"]]
        checks.check_decomposition(gammas, CANONICAL["nodes"], CANONICAL["targets"],
                                   cert["t"])

    return Op("pick-cli", run, check)


def build(lab, rng, workdir):
    ops = []
    for i, (d, n) in enumerate(NORM_CASES):
        ops.append(_norm_op(lab, retract_problem(rng, d, n, level(i))))
    ops.append(_norm_op(lab, dict(CANONICAL, s=CANONICAL_NORM)))
    for i in range(CERT_PROBLEMS):
        d, n = CERT_SHAPES[i % len(CERT_SHAPES)]
        prob = retract_problem(rng, d, n, level(i))
        ops.extend(_cert_op(lab, prob, factor) for factor in CERT_FACTORS)
    ops.append(_canonical_cli_op(lab, workdir))
    ops.append(_exg1_op(lab, EXG1_M[0]))
    ops.append(_exg1_cli_op(lab, EXG1_M[1], workdir))
    return ops


def warm_up(lab):
    data = lab.agler.PolyPickData(d=2, nodes=CANONICAL["nodes"],
                                  targets=CANONICAL["targets"])
    lab.agler.agler_feasible(data, 1.5, optimal_certificate=True)
