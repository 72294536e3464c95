"""Run one workload of the polydisklab benchmark and print its metrics.

    python3 bench/run.py --workload disk-pick --seed 1 --seconds 15 --trace 0

Run from the root of the repository.  The package is used from src/
(PYTHONPATH=src) with one BLAS thread.  Set-up is done SETUPS times, each
in a fresh process, and its median is reported; the last of those
processes then runs the workload (see worker.py).  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics named in BENCHMARK.json (end_to_end with --trace 0, per_layer
with --trace 1).  The line before it records the run conditions.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUPS = 5
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TIME_LIMIT = 170.0  # seconds for the whole run, set-ups included


def commit():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args, env, workdir, setup_only, deadline):
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times, ops_per_round):
    """The highest of p99, p90 and p50 that leaves at least ten operations
    above it, over the operations of a round, each timed as its median
    over the rounds.  A stall of the machine that slows a few percent of
    the operations of one run then moves no operation's time."""
    per_op = [statistics.median(times[i::ops_per_round]) for i in range(ops_per_round)]
    cuts = statistics.quantiles(per_op, n=100)
    for q in (99, 90, 50):
        if sum(t > cuts[q - 1] for t in per_op) >= 10:
            return cuts[q - 1]
    return statistics.median(per_op)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "polydisklab", "__init__.py")):
        print("error: src/polydisklab not found; run from the repository root",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT
    env = dict(os.environ, PYTHONPATH="src")
    env.update({var: BLAS_THREADS for var in BLAS_VARIABLES})
    workdir = os.path.join(BENCH, "out", f"work-{os.getpid()}")
    try:
        setups = [spawn(args, env, workdir, True, deadline)["setup_s"]
                  for _ in range(SETUPS - 1)]
        res = spawn(args, env, workdir, False, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])

    times = res["times"]
    measured = {
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail(times, res["ops_per_round"]),
        "ops_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = res["layers"] if args.trace else measured
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}

    conditions = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "nproc": os.cpu_count(),
        **res["versions"], "blas_threads": int(BLAS_THREADS),
        "rounds": res["rounds"], "ops_per_round": res["ops_per_round"],
        "setup_runs_s": setups, "failures": res["failures"],
    }
    if args.trace:
        conditions["spans_file"] = os.path.relpath(res["spans_file"], ROOT)
    print(json.dumps(conditions))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
