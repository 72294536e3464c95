"""What the workload modules share: the operation record, problem files
and the in-process labcli call."""

import collections
import contextlib
import io
import json

Op = collections.namedtuple("Op", "kind run check known_fault", defaults=(None,))
Op.__doc__ = """One timed operation.  run() returns the output and
check(output) raises checks.CheckError when the output is wrong.
known_fault names the program fault that makes the operation fail on
every run, or is None."""


def run_cli(lab, argv):
    """labcli.main in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lab.labcli.main(argv)
    return code, buf.getvalue()


def pair(z):
    """A complex number as the [re, im] pair of the problem-file format."""
    return [float(complex(z).real), float(complex(z).imag)]


def write_problem(path, kind, payload):
    with open(path, "w") as fh:
        json.dump({"version": 1, "kind": kind, "payload": payload, "seed": 0}, fh)
