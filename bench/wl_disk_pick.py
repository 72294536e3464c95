"""disk-pick: one-variable Pick problems solved the way `labcli pick-solve`
solves them (minimal_norm, is_extremal, then schur_construct for value
data).  Every tenth problem goes through labcli.main in-process.

Targets are s * B at the nodes (and s * B' where a derivative is
prescribed) for a Blaschke product B of degree 1 or 2, below the number
of constraints, so the data is extremal at level s and the minimal norm
is exactly s.
"""

import json
import os

import numpy as np

import checks
from harness import Op, pair, run_cli, write_problem

PROBLEMS = 300
CLI_EVERY = 10
LEVELS = (0.5, 0.75, 1.25, 1.5)
MAX_NODE_MODULUS = 0.9
MAX_ZERO_MODULUS = 0.8
# Products of degree 3 and more make schur_construct raise ConditioningError
# on about 1 in 2000 draws (see FOUND in CHANGES.md).
MAX_DEGREE = 2
# Smallest pseudo-hyperbolic distance between two nodes, and largest
# condition number of the constraints' Szego Gram matrix.  On worse
# conditioned data minimal_norm's absolute bisection floor biases the
# level (F2 in CHANGES.md) on some draws and not others, which would
# make the failure count depend on the seed.
MIN_SEPARATION = 0.3
MAX_CONDITION = 1e3
# Every third problem carries derivative constraints: (nodes, derivatives)
# with at most six constraints in all.
DERIVATIVE_SHAPES = ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2))

# Fixed data on which minimal_norm is biased (F2): the closed form is
# 0.9 / 1e-5 = 90000; the solver returns about 89820.55.
F2_NODES = (0.0, 1e-5)
F2_TARGETS = (0.0, 0.9)


def _disk_point(rng, radius):
    return radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())


def _nodes(rng, n):
    while True:
        lam = np.array([_disk_point(rng, MAX_NODE_MODULUS) for _ in range(n)])
        sep = min((checks.rho(lam[i], lam[j]) for i in range(n) for j in range(i)),
                  default=1.0)
        if sep >= MIN_SEPARATION:
            return lam


def szego_gram(lam, deriv_idx):
    """Gram matrix of point evaluations at lam and derivative evaluations
    at lam[deriv_idx] in the Hardy space: 1/(1 - x conj(y)) and its
    derivatives in x and conj(y)."""
    x = np.concatenate([lam, lam[deriv_idx]])
    dx = np.arange(len(x)) >= len(lam)
    X, Y = np.meshgrid(x, np.conj(x), indexing="ij")
    u = 1.0 - X * Y
    G = np.where(dx[:, None] & dx[None, :], (1.0 + X * Y) / u ** 3,
                 np.where(dx[:, None], Y / u ** 2,
                          np.where(dx[None, :], X / u ** 2, 1.0 / u)))
    return G


def make_problem(rng, index):
    """Problem number index: its shape (node count, derivative count,
    degree, level) cycles with the index, so every seed runs the same mix;
    nodes, zeros and the constant come from rng."""
    if index % 3 == 2:
        n, k = DERIVATIVE_SHAPES[(index // 3) % len(DERIVATIVE_SHAPES)]
    else:
        n, k = 2 + (index // 3) % 7, 0
    degree = 1 + (index // 7) % min(n + k - 1, MAX_DEGREE)
    s = 1.0 if index % 2 == 0 else LEVELS[(index // 2) % len(LEVELS)]
    while True:
        lam = _nodes(rng, n)
        deriv_idx = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
        ev = np.linalg.eigvalsh(szego_gram(lam, deriv_idx))
        if ev[-1] <= MAX_CONDITION * ev[0]:
            break
    zeros = tuple(_disk_point(rng, MAX_ZERO_MODULUS) for _ in range(degree))
    const = complex(np.exp(2j * np.pi * rng.uniform()))
    targets = checks.blaschke(zeros, const, s, lam)
    dvals = checks.blaschke_derivative(zeros, const, s, lam[deriv_idx])
    return {
        "nodes": tuple(complex(z) for z in lam),
        "targets": tuple(complex(w) for w in targets),
        "derivs": tuple((i, complex(v)) for i, v in zip(deriv_idx, dvals)),
        "s": s,
        "zeros": zeros,
        "const": const,
        "probe": checks.probe_points(8, rng),
    }


def _write_problem(path, prob):
    payload = {
        "nodes": [pair(z) for z in prob["nodes"]],
        "targets": [pair(w) for w in prob["targets"]],
    }
    if prob["derivs"]:
        payload["derivative_constraints"] = [[i, pair(v)] for i, v in prob["derivs"]]
    write_problem(path, "disk_pick", payload)


def _library_op(lab, prob, known_fault=None):
    def run():
        pd = lab.pick_disk
        data = pd.DiskPickData(nodes=prob["nodes"], targets=prob["targets"],
                               derivative_constraints=prob["derivs"])
        norm = pd.minimal_norm(data)
        extremal = pd.is_extremal(data)
        product = None if prob["derivs"] else pd.schur_construct(data)
        return norm, extremal, product

    def check(out):
        norm, extremal, product = out
        checks.check_disk_norm(norm, prob["s"])
        checks.check_extremal(extremal, prob["s"])
        if product is not None:
            checks.check_blaschke(product.zeros, product.unimodular_constant,
                                  product.scale, prob["s"], prob["zeros"],
                                  prob["const"], prob["probe"])

    return Op("pick", run, check, known_fault)


def _cli_op(lab, prob, path):
    _write_problem(path, prob)

    def run():
        return run_cli(lab, ["pick-solve", path, "--json"])

    def check(out):
        code, text = out
        checks.require(code == 0, f"pick-solve exited with {code}")
        res = json.loads(text)
        checks.check_disk_norm(res["minimal_norm"], prob["s"])
        checks.check_extremal(res["extremal"], prob["s"])
        if not prob["derivs"]:
            cert = res["certificate"]
            checks.require(cert is not None, "pick-solve printed no certificate")
            checks.check_blaschke([complex(*z) for z in cert["zeros"]],
                                  complex(*cert["unimodular_constant"]),
                                  cert["scale"], prob["s"], prob["zeros"],
                                  prob["const"], prob["probe"])

    return Op("pick-cli", run, check)


def build(lab, rng, workdir):
    ops = []
    for i in range(PROBLEMS):
        prob = make_problem(rng, i)
        if i % CLI_EVERY == CLI_EVERY - 1:
            ops.append(_cli_op(lab, prob, os.path.join(workdir, f"pick{i}.json")))
        else:
            ops.append(_library_op(lab, prob))
    f2 = {
        "nodes": F2_NODES, "targets": F2_TARGETS, "derivs": (),
        "s": 0.9 / 1e-5, "zeros": (0.0,), "const": 1.0,
        "probe": checks.probe_points(8, np.random.default_rng(0)),
    }
    ops.append(_library_op(lab, f2, known_fault="F2"))
    return ops


def warm_up(lab):
    pd = lab.pick_disk
    data = pd.DiskPickData(nodes=(0.0, 0.5), targets=(0.0, 0.25))
    pd.schur_construct(data)
    pd.is_extremal(data)
