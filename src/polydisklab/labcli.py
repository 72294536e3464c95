"""Command-line front end: problem file I/O, experiment runners, reports.

All numerics live in the core modules; this layer parses flags and
problem files, dispatches, and renders results as canonical JSON, CSV,
or human-readable text.  Exit codes are a stable contract:

    0  success (a verdict or result was produced)
    1  input error (bad file, bad flag, out-of-domain parameter)
    2  solver undecided
    3  degenerate geometry
    4  retired (was: witness search exhausted); never reused
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import _serialize as ser
from .agler import (
    Feasible,
    PolyPickData,
    agler_feasible,
    schur_agler_norm,
)
from .balance import scan_balanced_pairs
from .errors import (
    ConditioningError,
    DegenerateDataError,
    InfeasibleConstraintsError,
    PolydiskLabError,
    UndecidedError,
)
from .experiments import (
    circle_image_test,
    exg1_data,
    exg1_extremal_candidate,
    exg1_reproduce,
    extension_vs_vn,
)
from .pick_disk import DiskPickData, is_extremal, minimal_norm, schur_construct
from .polynomials import Polynomial
from .variety import (
    builtin_rational_inner_graph,
    builtin_v0,
    extract_graph,
    retract_check,
    sample_variety,
    uniqueness_coincidence_check,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNDECIDED = 2
EXIT_DEGENERATE = 3

PROBLEM_VERSION = 1
PROBLEM_KINDS = ("disk_pick", "poly_pick", "variety")
SCAN_PAIR_LIMIT = 25


class _UsageError(Exception):
    pass


def parse_complex(text):
    """Parse a complex flag value; accepts 'i' as the imaginary unit."""
    cleaned = str(text).strip().replace("i", "j").replace("J", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise _UsageError(f"cannot parse complex number from {text!r}")


def parse_pair(text):
    parts = str(text).split(",")
    if len(parts) != 2:
        raise _UsageError("--pair expects two comma-separated indices, e.g. 1,2")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise _UsageError(f"cannot parse coordinate pair from {text!r}")


def _given(value, default):
    """A flag's value, or the default when the flag is absent (None)."""
    return default if value is None else value


def _int_at_least(least):
    """An argparse type for an integer flag that must be >= least."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def _finite_float(least=-math.inf, below=math.inf):
    """An argparse type for a finite float flag in [least, below)."""

    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
        if not (math.isfinite(value) and least <= value < below):
            raise argparse.ArgumentTypeError(
                f"must be finite and in [{least}, {below}), got {text!r}")
        return value

    return parse


def load_problem(path):
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise _UsageError("problem file must be a JSON object")
    version = raw.get("version")
    if version != PROBLEM_VERSION:
        raise _UsageError(f"unsupported problem file version {version!r}")
    kind = raw.get("kind")
    if kind not in PROBLEM_KINDS:
        raise _UsageError(f"unknown problem kind {kind!r}")
    payload = raw.get("payload")
    if not isinstance(payload, dict):
        raise _UsageError("problem file payload must be a JSON object")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise _UsageError("seed must be a nonnegative integer")
    return {"version": version, "kind": kind, "payload": payload, "seed": seed}


def _nonempty_lists(payload, kind):
    nodes = payload.get("nodes")
    targets = payload.get("targets")
    if not (isinstance(nodes, list) and nodes and isinstance(targets, list)
            and targets):
        raise _UsageError(f"{kind} payload needs nonempty nodes and targets lists")
    return nodes, targets


def _decode_disk_pick(payload):
    nodes, targets = _nonempty_lists(payload, "disk_pick")
    pairs = payload.get("derivative_constraints", [])
    if not isinstance(pairs, list) or not all(
        isinstance(c, list) and len(c) == 2 and isinstance(c[0], int) for c in pairs
    ):
        raise _UsageError("derivative_constraints must be [node_index, value] pairs")
    derivs = tuple((i, ser.as_complex(v)) for i, v in pairs)
    return DiskPickData(
        nodes=tuple(ser.as_complex(z) for z in nodes),
        targets=tuple(ser.as_complex(w) for w in targets),
        derivative_constraints=derivs,
    )


def _decode_poly_pick(payload):
    nodes, targets = _nonempty_lists(payload, "poly_pick")
    if not all(isinstance(p, list) for p in nodes):
        raise _UsageError("poly_pick nodes must be lists of coordinates")
    d = payload.get("d", len(nodes[0]))
    if not isinstance(d, int):
        raise _UsageError(f"poly_pick d must be an integer, got {d!r}")
    return PolyPickData(
        d=d,
        nodes=tuple(tuple(ser.as_complex(c) for c in p) for p in nodes),
        targets=tuple(ser.as_complex(w) for w in targets),
    )


def _decode_generators(payload):
    gens = payload.get("generators")
    if not isinstance(gens, list) or not gens:
        raise _UsageError("variety payload needs a nonempty generators list")
    return tuple(Polynomial.from_payload(g) for g in gens)


def resolve_variety(source, args):
    """A generator tuple and the seed to run with, from 'builtin:<name>'
    or a problem file path.  --seed overrides the file's seed; a builtin
    without --seed runs with seed 0."""
    seed = _given(args.seed, 0)
    if source.startswith("builtin:"):
        name = source[len("builtin:"):]
        if name == "v0":
            return builtin_v0(), seed
        if name == "rational_inner":
            return builtin_rational_inner_graph(
                _given(getattr(args, "A", None), 0.5),
                _given(getattr(args, "B", None), 0.5),
                _given(getattr(args, "omega", None), 1.0),
            ), seed
        raise _UsageError(f"unknown builtin variety {name!r}")
    prob = load_problem(source)
    if prob["kind"] != "variety":
        raise _UsageError(f"expected a variety problem file, got {prob['kind']!r}")
    if args.seed is None:
        seed = prob["seed"]
    return _decode_generators(prob["payload"]), seed


def _encode_poly_data(data):
    return {
        "d": data.d,
        "nodes": [list(p) for p in data.nodes],
        "targets": list(data.targets),
    }


def _encode_decomposition(dec, data=None):
    out = {
        "t": dec.t,
        "gammas": [g for g in dec.gammas],
        "min_eigenvalue": dec.min_eigenvalue(),
    }
    if data is not None:
        out["reconstruction_residual"] = dec.reconstruction_residual(data)
    return out


def _encode_witness(wit):
    return {
        "kernel": np.asarray(wit.kernel.K),
        "kernel_violation": wit.kernel.violation,
        "f_norm": wit.f_norm,
        "tight_bound": wit.tight_bound,
        "printed_bound_holds": wit.printed_bound_holds,
        "witness_vector": np.asarray(wit.witness_vector),
        "contraction_excess": wit.contraction_excess,
    }


def _emit(args, result, human_lines, out_is_json=True):
    """Write the canonical JSON (file and/or stdout) and human text.

    Commands that already consumed --out for a CSV pass
    out_is_json=False so the JSON does not clobber the file.
    """
    text = ser.dumps_canonical(result)
    out = getattr(args, "out", None)
    if out and out_is_json:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    if getattr(args, "json", False) or not human_lines:
        sys.stdout.write(text)
    else:
        for line in human_lines:
            print(line)


def _fmt_complex(z):
    z = complex(z)
    return f"{z.real:.6g}{z.imag:+.6g}i"


def cmd_pick_solve(args):
    prob = load_problem(args.input)
    kind = prob["kind"]
    if kind == "disk_pick":
        data = _decode_disk_pick(prob["payload"])
        norm = minimal_norm(data)
        result = {"kind": kind, "minimal_norm": norm, "extremal": is_extremal(data)}
        certificate = None
        if not data.derivative_constraints:
            try:
                bl = schur_construct(data)
                certificate = {
                    "type": "blaschke",
                    "zeros": list(bl.zeros),
                    "unimodular_constant": bl.unimodular_constant,
                    "scale": bl.scale,
                }
            except DegenerateDataError:
                certificate = None
        result["certificate"] = certificate
        human = []
    elif kind == "poly_pick":
        data = _decode_poly_pick(prob["payload"])
        norm = schur_agler_norm(data)
        result = {"kind": kind, "sa_norm": float(norm)}
        if norm.caveat_flag:
            result["caveat_flag"] = norm.caveat_flag
        certificate = None
        res = agler_feasible(data, max(float(norm) * (1.0 + 1e-6), 1e-9))
        if isinstance(res, Feasible):
            certificate = _encode_decomposition(res.decomposition, data)
        result["certificate"] = certificate
        human = []
    else:
        raise _UsageError(f"pick-solve expects disk_pick or poly_pick, got {kind!r}")
    _emit(args, result, human)
    return EXIT_OK


def cmd_variety(args):
    gens, seed = resolve_variety(args.input, args)
    sub = args.variety_cmd
    if sub == "sample":
        pts = sample_variety(gens, count=_given(args.resolution, 200), seed=seed,
                             tol=_given(args.tol, 1e-9))
        result = {"subcommand": sub, "count": len(pts), "seed": seed}
        if args.out:
            ser.write_points_csv(args.out, pts)
            result["csv"] = args.out
        residual = max(
            float(np.abs(g(pts)).max()) for g in gens
        )
        result["max_generator_residual"] = residual
        _emit(
            args,
            result,
            [f"sampled {len(pts)} points (max residual {residual:.3e})"]
            + ([f"wrote {args.out}"] if args.out else []),
            out_is_json=False,
        )
        return EXIT_OK
    if sub == "graph":
        pair = args.pair or (1, 2)
        side = _given(args.resolution, 64)
        rep = extract_graph(gens, pair, grid=(side, side), seed=seed)
        result = {
            "subcommand": sub,
            "pair": list(rep.pair),
            "dependent_coordinate": rep.dependent_coordinate,
            "single_sheeted": rep.single_sheeted,
            "mask_fraction": rep.mask_fraction,
            "escape_count": rep.escape_count,
            "sup_abs": rep.sup_abs,
            "sheet_histogram": {str(k): v for k, v in rep.sheet_histogram.items()},
            "witness": (
                {"base": list(rep.witness[0]), "value": rep.witness[1]}
                if rep.witness
                else None
            ),
        }
        if args.out:
            base = np.asarray(rep.base_points)
            vals = np.asarray(rep.values)
            mask = np.asarray(rep.mask)
            keep = ~mask & np.isfinite(vals)
            rows = np.column_stack([base[keep], vals[keep]])
            ser.write_points_csv(
                args.out, rows, names=["base1", "base2", "value"]
            )
            result["csv"] = args.out
        human = [
            f"pair {rep.pair} (dependent coordinate {rep.dependent_coordinate}): "
            f"single_sheeted={rep.single_sheeted} mask={rep.mask_fraction:.3f} "
            f"escapes={rep.escape_count} sup|value|={rep.sup_abs:.4f}"
        ]
        _emit(args, result, human, out_is_json=False)
        return EXIT_OK
    if sub == "retract":
        side = _given(args.resolution, 64)
        rep = retract_check(
            gens,
            margin=_given(args.margin, 1e-3),
            grid=(side, side),
            seed=seed,
        )
        result = {
            "subcommand": sub,
            "verdict": rep.verdict,
            "margin": rep.margin,
            "witness": (
                {
                    "pair": list(rep.witness[0]),
                    "base": list(rep.witness[1]),
                    "value": rep.witness[2],
                }
                if rep.witness
                else None
            ),
            "pairs": [
                {
                    "pair": list(pair),
                    "single_sheeted": g.single_sheeted,
                    "mask_fraction": g.mask_fraction,
                    "escape_count": g.escape_count,
                    "sup_abs": g.sup_abs,
                }
                for pair, g in sorted(rep.reports.items())
            ],
        }
        human = [f"verdict: {rep.verdict}"]
        if rep.witness:
            base_txt = ", ".join(_fmt_complex(z) for z in rep.witness[1])
            human.append(
                f"witness over pair {rep.witness[0]}: base ({base_txt}) "
                f"-> value {_fmt_complex(rep.witness[2])} "
                f"(modulus {abs(complex(rep.witness[2])):.4f})"
            )
        _emit(args, result, human)
        return EXIT_OK if rep.verdict != "inconclusive" else EXIT_UNDECIDED
    if sub == "scan-balanced":
        count = _given(args.resolution, 200)
        pts = sample_variety(gens, count=count, seed=seed, tol=1e-9)
        pairs = scan_balanced_pairs([tuple(p) for p in pts], tol=_given(args.tol, 1e-9))
        result = {
            "subcommand": sub,
            "sample_count": len(pts),
            "balanced_pair_count": len(pairs),
            "pairs": [
                {
                    "indices": list(idx),
                    "n": rep.n,
                    "permutation": list(rep.permutation),
                    "rho_values": [float(r) for r in rep.rho_values],
                }
                for idx, rep in pairs[:SCAN_PAIR_LIMIT]
            ],
        }
        human = [
            f"{len(pairs)} balanced pairs among {len(pts)} sampled points "
            f"(showing up to {SCAN_PAIR_LIMIT})"
        ]
        _emit(args, result, human)
        return EXIT_OK
    raise _UsageError(f"unknown variety subcommand {sub!r}")


def _write_reports(args, result, human_lines):
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "report.json")
    txt_path = os.path.join(out_dir, "report.txt")
    ser.write_json(json_path, result)
    with open(txt_path, "w", newline="") as fh:
        fh.write("\n".join(human_lines) + "\n")
    if args.json:
        sys.stdout.write(ser.dumps_canonical(result))
    else:
        for line in human_lines:
            print(line)
        print(f"wrote {json_path} and {txt_path}")


def cmd_experiment(args):
    name = args.experiment_cmd
    if name == "exg1":
        if args.m is None:
            raise _UsageError("exg1 requires --m")
        rep = exg1_reproduce(parse_complex(args.m))
        result = {
            "experiment": "exg1",
            "m": rep.m,
            "zeta": rep.zeta,
            "xi": rep.xi,
            "eq_ex_lhs": rep.eq_ex_lhs,
            "eq_ex_rhs": rep.eq_ex_rhs,
            "witness_slack": rep.slack,
            "sa_norm": rep.sa_norm,
            "circle_gap": rep.circle_gap,
            "gap_midpoint": rep.gap_midpoint,
            "verdict": rep.verdict,
            "data": _encode_poly_data(rep.data),
        }
        human = [
            f"m = {rep.m}",
            f"witness pair: zeta = {rep.zeta:.6f}, xi = {rep.xi:.6f}",
            f"distance of images {rep.eq_ex_lhs:.6f} < distance of sources "
            f"{rep.eq_ex_rhs:.6f} (slack {rep.slack:.6f})",
            f"3-point interpolation norm: {rep.sa_norm:.8f} (closed form: z2, z phi_m(z))",
            f"omitted circle arc: {rep.circle_gap:.4f} rad, centered at "
            f"{rep.gap_midpoint:.4f}",
            f"verdict: {rep.verdict}",
        ]
        _write_reports(args, result, human)
        return EXIT_OK
    if name == "ext-vs-vn":
        if args.input:
            prob = load_problem(args.input)
            if prob["kind"] != "poly_pick":
                raise _UsageError("ext-vs-vn expects a poly_pick problem file")
            data = _decode_poly_pick(prob["payload"])
        elif args.m is not None:
            base = exg1_data(parse_complex(args.m))
            scale = _given(args.scale, 1.0)
            data = PolyPickData(d=base.d, nodes=base.nodes,
                                targets=tuple(scale * w for w in base.targets))
        else:
            raise _UsageError("ext-vs-vn needs a problem file or --m")
        rep = extension_vs_vn(data)
        result = {
            "experiment": "ext-vs-vn",
            "verdict": rep.verdict,
            "norm": rep.norm,
            "certified_t": rep.certified_t,
            "data": _encode_poly_data(data),
        }
        if rep.caveat_flag:
            result["caveat_flag"] = rep.caveat_flag
        if rep.decomposition is not None:
            result["decomposition"] = _encode_decomposition(rep.decomposition, data)
        if rep.witness is not None:
            result["witness"] = _encode_witness(rep.witness)
        human = [f"verdict: {rep.verdict}", f"norm: {rep.norm:.8f}"]
        if rep.witness is not None:
            human.append(
                f"operator norm of interpolant on the certificate tuple: "
                f"{rep.witness.f_norm:.8f} > 1"
            )
        _write_reports(args, result, human)
        return EXIT_OK
    if name == "circle-image":
        source = args.input or "builtin:v0"
        gens, seed = resolve_variety(source, args)
        m = parse_complex(args.m) if args.m is not None else 0.9
        data = exg1_data(m)
        phi = exg1_extremal_candidate(m)
        res = circle_image_test(gens, phi, data, seed=seed)
        result = {
            "experiment": "circle-image",
            "variety": source,
            "m": m.real,
            "is_extremal_evidence": res.is_extremal_evidence,
            "omitted_arc": res.omitted_arc,
            "statement": res.statement,
        }
        human = [
            f"extremal evidence: {res.is_extremal_evidence}",
            f"omitted arc: {res.omitted_arc:.4f} rad",
            res.statement,
        ]
        _write_reports(args, result, human)
        return EXIT_OK
    if name == "uniqueness-fit":
        if args.alpha is None or args.beta is None or args.gamma is None:
            raise _UsageError("uniqueness-fit requires --alpha, --beta, --gamma")
        fit = uniqueness_coincidence_check(
            parse_complex(args.alpha),
            parse_complex(args.beta),
            parse_complex(args.gamma),
            samples=_given(args.samples, 200),
        )
        result = {
            "experiment": "uniqueness-fit",
            "residual": fit.residual,
            "consistency": fit.consistency,
            "omega": fit.omega,
            "A": fit.A,
            "B": fit.B,
            "graph_norm_sum": abs(fit.A) + abs(fit.B),
            "generator": fit.generator.to_payload(),
            "success": fit.residual < 1e-6,
        }
        human = [
            f"fit residual: {fit.residual:.3e} (success: {fit.residual < 1e-6})",
            f"omega = {fit.omega:.8f} (|omega| = {abs(fit.omega):.10f})",
            f"A = {fit.A:.8f}, B = {fit.B:.8f}, |A|+|B| = "
            f"{abs(fit.A) + abs(fit.B):.6f}",
        ]
        _write_reports(args, result, human)
        return EXIT_OK
    raise _UsageError(f"unknown experiment {name!r}")


class _Parser(argparse.ArgumentParser):
    # no prefix matching: a flag a command lacks must be an error, not an
    # abbreviation of another flag (--out for experiment's --out-dir)
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def build_parser():
    parser = _Parser(prog="labcli", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def outputs(p):
        p.add_argument("--out", help="write the JSON or CSV result to this path")
        p.add_argument("--json", action="store_true", help="machine JSON on stdout")

    def seeded(p):
        p.add_argument("--seed", type=_int_at_least(0), default=None,
                       help="overrides the problem file's seed")

    p_pick = sub.add_parser("pick-solve", help="solve a disk or polydisk problem")
    p_pick.add_argument("input", help="problem file (kind disk_pick or poly_pick)")
    outputs(p_pick)
    p_pick.set_defaults(func=cmd_pick_solve)

    p_var = sub.add_parser("variety", help="variety sampling and structure")
    p_var.add_argument(
        "variety_cmd", choices=["sample", "graph", "retract", "scan-balanced"]
    )
    p_var.add_argument("input", help="variety problem file or builtin:<name>")
    outputs(p_var)
    seeded(p_var)
    p_var.add_argument("--resolution", type=_int_at_least(1), default=None)
    p_var.add_argument("--tol", type=_finite_float(0.0), default=None)
    p_var.add_argument("--pair", type=parse_pair, default=None)
    p_var.add_argument("--margin", type=_finite_float(0.0, 1.0), default=None)
    p_var.add_argument("--A", type=parse_complex, default=None)
    p_var.add_argument("--B", type=parse_complex, default=None)
    p_var.add_argument("--omega", type=parse_complex, default=None)
    p_var.set_defaults(func=cmd_variety)

    p_exp = sub.add_parser("experiment", help="run a named experiment")
    p_exp.add_argument(
        "experiment_cmd",
        choices=["exg1", "ext-vs-vn", "circle-image", "uniqueness-fit"],
    )
    p_exp.add_argument("input", nargs="?", default=None)
    p_exp.add_argument("--json", action="store_true", help="machine JSON on stdout")
    seeded(p_exp)
    p_exp.add_argument("--out-dir", default=None)
    p_exp.add_argument("--m", default=None)
    p_exp.add_argument("--scale", type=_finite_float(), default=None)
    p_exp.add_argument("--alpha", default=None)
    p_exp.add_argument("--beta", default=None)
    p_exp.add_argument("--gamma", default=None)
    p_exp.add_argument("--samples", type=_int_at_least(1), default=None)
    p_exp.add_argument("--A", type=parse_complex, default=None)
    p_exp.add_argument("--B", type=parse_complex, default=None)
    p_exp.add_argument("--omega", type=parse_complex, default=None)
    p_exp.set_defaults(func=cmd_experiment)
    return parser


@functools.lru_cache(maxsize=1)
def _shared_parser():
    """build_parser(), built once per process: parse_args reads the
    parser and never changes it, also when it fails."""
    return build_parser()


def main(argv=None):
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (DegenerateDataError, ConditioningError, InfeasibleConstraintsError) as exc:
        print(f"degenerate geometry: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except PolydiskLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
