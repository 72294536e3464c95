"""operator-vn: commuting contraction tuples and von Neumann checks, where
operators and the FFT-plus-refinement side of polynomials (a torus
supremum per sampled polynomial) do the work and agler does little.

sup_on_torus on its own, on d = 3 polynomials, is left out: it falls
short of attained values by more than its documented 1e-9 on some draws
and not others (FOUND in CHANGES.md).

The d = 2 data is retract-embedded (see wl_polydisk) at a level s > 1,
so its norm is exactly s: at t = 1 it has a dual kernel, whose tuple is
a pair of commuting contractions (Ando's inequality bounds every
von Neumann ratio by 1) on which the interpolant has norm in (1, s].
"""

import json
import os

import numpy as np

import checks
import wl_polydisk
from harness import Op, run_cli

# Node counts of the d = 2 tuples built in set-up.  With fixed sampling
# seeds a check costs about the same on every tuple of a size, and six of
# them put the median operation among the checks.
VN_TUPLES = (3, 4, 3, 4, 3, 4)
VN_SAMPLES = 100
WITNESS_NODES = (3, 4)
WITNESS_PROBLEMS = 4
TUPLE_LEVELS = (1.25, 1.5)


def _vn_op(lab, prob, seed):
    data = wl_polydisk.poly_data(lab, prob)
    kernel = lab.agler.agler_feasible(data, 1.0, optimal_certificate=True).kernel
    tup = lab.operators.build_tuple_from_kernel(kernel, data.nodes)
    checks.check_tuple(tup.matrices, tup.gram_vectors, prob["nodes"])

    def run():
        return lab.operators.von_neumann_check(tup, samples=VN_SAMPLES, seed=seed)

    def check(rep):
        checks.check_ando_ratio(rep.max_ratio)
        # the report keeps only the ratio; the supremum it was taken
        # against is the program's own for the worst polynomial
        worst = rep.worst_function
        claimed = rep.max_ratio * lab.polynomials.sup_on_torus(worst)
        checks.check_operator_norm(tup.gram_vectors, prob["nodes"], worst.coeffs, claimed)

    return Op("vn-check", run, check)


def _witness_op(lab, prob):
    def run():
        return lab.operators.violation_witness(wl_polydisk.poly_data(lab, prob), 1.0)

    def check(wit):
        checks.check_dual_kernel(wit.kernel.K, prob["nodes"], prob["targets"], 1.0)
        checks.check_witness(wit.f_norm, prob["s"], 1.0, wit.ando.matrices,
                             wit.ando.gram_vectors, prob["nodes"], prob["targets"])

    return Op("witness", run, check)


def _ext_vs_vn_op(lab, workdir):
    path = os.path.join(workdir, "canonical.json")
    wl_polydisk.write_canonical(path)
    can = wl_polydisk.CANONICAL
    s = wl_polydisk.CANONICAL_NORM

    def run():
        return run_cli(lab, ["experiment", "ext-vs-vn", path, "--json",
                             "--out-dir", os.path.join(workdir, "ext-vs-vn")])

    def check(out):
        code, text = out
        checks.require(code == 0, f"labcli ext-vs-vn exited with {code}")
        rep = json.loads(text)
        checks.require(rep["verdict"] == "von_neumann_violation",
                       f"ext-vs-vn verdict {rep['verdict']!r}")
        checks.check_poly_norm(rep["norm"], s, can["d"], rep.get("caveat_flag"))
        wit = rep["witness"]
        K = np.array(wit["kernel"])
        K = K[..., 0] + 1j * K[..., 1]
        checks.check_dual_kernel(K, can["nodes"], can["targets"], 1.0)
        # any V with V* V = conj(K) models the same tuple up to unitaries
        V = np.linalg.cholesky(np.conj(K)).conj().T
        mine = checks.operator_norm_at_nodes(V, np.asarray(can["targets"]))
        checks.require(1.0 < wit["f_norm"] <= s * (1.0 + 1e-6),
                       f"witness norm {wit['f_norm']!r} outside (1, {s}]")
        checks.require(abs(mine - wit["f_norm"]) <= 1e-8 * mine,
                       f"witness norm recomputes to {mine!r}")

    return Op("ext-vs-vn-cli", run, check)


def build(lab, rng, workdir):
    ops = []
    for i, n in enumerate(VN_TUPLES):
        prob = wl_polydisk.retract_problem(rng, 2, n, TUPLE_LEVELS[i % 2])
        ops.append(_vn_op(lab, prob, seed=i))
    for i in range(WITNESS_PROBLEMS):
        n = WITNESS_NODES[i % len(WITNESS_NODES)]
        ops.append(_witness_op(lab, wl_polydisk.retract_problem(
            rng, 2, n, TUPLE_LEVELS[(i // 2) % len(TUPLE_LEVELS)])))
    ops.append(_ext_vs_vn_op(lab, workdir))
    return ops


def warm_up(lab):
    p = lab.polynomials.Polynomial(2, {(1, 0): 1.0, (0, 1): 0.5})
    lab.polynomials.sup_on_torus(p)
