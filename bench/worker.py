"""One workload in its own process.

Started by run.py with PYTHONPATH=src and the BLAS thread count fixed.
It builds the workload's operations from the seed, warms up, then works
back to back through whole rounds of the same operations (one client, a
closed loop) until the run length has passed.  Each operation is timed
alone; its output is checked after the clock stops.  The last line of
standard output is one JSON object for run.py.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time

import checks

WORKLOADS = {
    "disk-pick": "wl_disk_pick",
    "polydisk": "wl_polydisk",
    "variety": "wl_variety",
    "operator-vn": "wl_operator_vn",
}


def run_round(ops, outcome):
    """Time every operation of one round, then check its output."""
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # an operation that raises has failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        outcome["times"].append(time.perf_counter() - t0)
        if error is None:
            try:
                op.check(out)
            except checks.CheckError as exc:
                error = f"CheckError: {exc}"
        outcome["attempted"] += 1
        if error is not None:
            outcome["failed"] += 1
            key = f"{op.known_fault or 'unexpected'} [{op.kind}] {error[:200]}"
            outcome["failures"][key] = outcome["failures"].get(key, 0) + 1
            if op.known_fault is None:
                outcome["correct"] = False


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy as np
    import scipy

    import polydisklab as lab
    import polydisklab.labcli  # noqa: F401  (the package does not import it)

    workload = importlib.import_module(WORKLOADS[args.workload])
    os.makedirs(args.workdir, exist_ok=True)
    ops = workload.build(lab, np.random.default_rng(args.seed), args.workdir)
    workload.warm_up(lab)
    result = {
        "setup_s": time.monotonic() - args.spawned_at,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    outcome = {"times": [], "attempted": 0, "failed": 0, "failures": {},
               "correct": True}
    tracer = None
    if args.trace:
        import trace_layers

        # rounds alternate untraced and traced, so the traced rounds can
        # be compared with identical untraced ones for the overhead
        tracer = trace_layers.Tracer(lab)
        traced_ops = [op._replace(run=tracer.op_runner(i, op.kind, op.run))
                      for i, op in enumerate(ops)]
        round_time = [0.0, 0.0]
    start = time.monotonic()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        before = sum(outcome["times"])
        if traced:
            tracer.install()
        try:
            run_round(traced_ops if traced else ops, outcome)
        finally:
            if traced:
                tracer.uninstall()
        if tracer is not None:
            round_time[traced] += sum(outcome["times"]) - before
        rounds += 1
        if time.monotonic() - start >= args.seconds and (tracer is None or rounds % 2 == 0):
            break

    result.update(outcome)
    result["rounds"] = rounds
    result["ops_per_round"] = len(ops)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        layers = tracer.per_round(rounds // 2)
        layers["trace_overhead"] = 100.0 * (round_time[1] / round_time[0] - 1.0)
        result["layers"] = layers
        result["spans_file"] = tracer.write_spans(os.path.join(
            os.path.dirname(args.workdir),
            f"trace_{args.workload}_seed{args.seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
