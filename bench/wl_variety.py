"""variety: graph varieties in D^3, where variety, balance and the
point-by-point side of polynomials do the work and no solver runs.

Contractive graphs z3 = h(z1, z2) with sup |h| = 0.9 on the torus are
retracts (the (1,2) graph is single-sheeted with values h(base) inside
the disk), and stay so with z1 and z2 swapped.  The plane z3 = z1 + z2
(builtin_v0) is not a retract: over interior base points it escapes the
polydisk.  Rational inner graphs with |A| + |B| <= 1 are sampled and
scanned for balanced pairs.
"""

import json

import numpy as np

import checks
from harness import Op, run_cli

GRAPH_DEGREES = (1, 3)  # degree of h for the contractive graphs
GRAPH_SUP = 0.9
INNER_GRAPHS = 2
INNER_SAMPLE = 200
INNER_NORM_SUM = 0.9  # |A| + |B| for the rational inner graphs
BALANCE_TOL = 1e-9

V0 = {(0, 0, 1): 1.0, (1, 0, 0): -1.0, (0, 1, 0): -1.0}


def contractive_h(rng, degree):
    """Random h(z1, z2) of the given degree scaled to torus sup GRAPH_SUP."""
    h = {(a, b): complex(rng.normal(), rng.normal())
         for a in range(degree + 1) for b in range(degree + 1 - a)}
    sup = checks.polished_torus_max(h, 2)
    return {e: GRAPH_SUP * c / sup for e, c in h.items()}


def graph_generator(h, swap=False):
    gen = {(0, 0, 1): 1.0 + 0j}
    for (a, b), c in h.items():
        gen[(b, a, 0) if swap else (a, b, 0)] = -c
    return gen


def _retract_op(lab, gen, check):
    def run():
        poly = lab.polynomials.Polynomial(3, gen)
        return lab.variety.retract_check((poly,))

    return Op("retract", run, check)


def _graph_op(lab, h, swap):
    h_eval = {((b, a) if swap else (a, b)): c for (a, b), c in h.items()}

    def check(rep):
        checks.check_retract_verdict(rep.verdict, "retract_graph")
        graph = rep.reports[(1, 2)]
        checks.check_graph_values(graph.base_points, graph.values, h_eval)

    return _retract_op(lab, graph_generator(h, swap), check)


def _v0_op(lab):
    def check(rep):
        checks.check_retract_verdict(rep.verdict, "not_retract")
        checks.require(rep.witness is not None, "not_retract without a witness")
        checks.check_escape_witness(*rep.witness, V0)

    return _retract_op(lab, V0, check)


def inner_generator(A, B, omega):
    """z3 (1 + conj(B) z1 + conj(A) z2) = omega (A z1 + B z2 + z1 z2)."""
    return {(0, 0, 1): 1.0, (1, 0, 1): np.conj(B), (0, 1, 1): np.conj(A),
            (1, 0, 0): -omega * A, (0, 1, 0): -omega * B, (1, 1, 0): -omega}


def _inner_op(lab, rng, seed):
    share = rng.uniform()
    A = INNER_NORM_SUM * share * np.exp(2j * np.pi * rng.uniform())
    B = INNER_NORM_SUM * (1.0 - share) * np.exp(2j * np.pi * rng.uniform())
    omega = np.exp(2j * np.pi * rng.uniform())
    gen = inner_generator(A, B, omega)

    def run():
        gens = lab.variety.builtin_rational_inner_graph(A, B, omega)
        pts = lab.variety.sample_variety(gens, count=INNER_SAMPLE, seed=seed)
        return pts, lab.balance.scan_balanced_pairs([tuple(p) for p in pts],
                                                    tol=BALANCE_TOL)

    def check(out):
        pts, pairs = out
        checks.check_variety_points(pts, gen)
        for (i, j), rep in pairs:
            checks.check_balanced_pair(rep.rho_values, rep.n, BALANCE_TOL,
                                       pts[i], pts[j])

    return Op("sample-scan", run, check)


def _cli_retract_op(lab):
    def run():
        return run_cli(lab, ["variety", "retract", "builtin:v0", "--json"])

    def check(out):
        code, text = out
        checks.require(code == 0, f"labcli variety retract exited with {code}")
        rep = json.loads(text)
        checks.check_retract_verdict(rep["verdict"], "not_retract")
        wit = rep["witness"]
        checks.require(wit is not None, "not_retract without a witness")
        checks.check_escape_witness(wit["pair"], [complex(*z) for z in wit["base"]],
                                    complex(*wit["value"]), V0)

    return Op("retract-cli", run, check)


def _cli_scan_op(lab):
    def run():
        return run_cli(lab, ["variety", "scan-balanced", "builtin:v0", "--json"])

    def check(out):
        code, text = out
        checks.require(code == 0, f"labcli variety scan-balanced exited with {code}")
        rep = json.loads(text)
        checks.require(rep["balanced_pair_count"] >= len(rep["pairs"]) > 0,
                       "scan-balanced reported no balanced pairs on the plane")
        for pair in rep["pairs"]:
            checks.check_balanced_pair(pair["rho_values"], pair["n"], BALANCE_TOL)

    return Op("scan-cli", run, check)


def build(lab, rng, workdir):
    ops = []
    for degree in GRAPH_DEGREES:
        h = contractive_h(rng, degree)
        ops.extend(_graph_op(lab, h, swap) for swap in (False, True))
    ops.append(_v0_op(lab))
    ops.extend(_inner_op(lab, rng, seed) for seed in range(INNER_GRAPHS))
    ops.append(_cli_retract_op(lab))
    ops.append(_cli_scan_op(lab))
    return ops


def warm_up(lab):
    gens = lab.variety.builtin_rational_inner_graph(0.4, 0.4)
    lab.variety.sample_variety(gens, count=10)
