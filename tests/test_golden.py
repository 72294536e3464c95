"""Golden reports: `labcli` output for every `variety` subcommand and for
two experiments, compared byte for byte with the files in tests/golden/.

The variety commands run on the plane builtin:v0, on a rational inner
graph, and on a committed degree-3 contractive graph z3 = h(z1, z2)
(tests/golden/contractive_deg3.json); the graph commands cover all three
coordinate pairs (on a 32 x 32 base grid, to keep the value files
small; `retract` runs on the default 64 x 64 grid).  A change that is meant to move a report regenerates
the files with

    PYTHONPATH=src python tests/test_golden.py

and lists each moved field, with the size of the move, in CHANGES.md.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from polydisklab.labcli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SOURCES = {
    "v0": ["builtin:v0"],
    "inner": ["builtin:rational_inner", "--A", "0.4", "--B", "0.4"],
    "deg3": [str(GOLDEN / "contractive_deg3.json")],
}


def _cases():
    """(name, argv, output files) for every golden report.

    argv ends with the flags that choose where the report goes; each
    output file is written relative to the working directory.
    """
    cases = []
    for src, spec in SOURCES.items():
        cases.append((f"variety_sample_{src}",
                      ["variety", "sample", *spec, "--out", "sample.csv"],
                      ["sample.csv"]))
        for pair in ("1,2", "1,3", "2,3"):
            tag = pair.replace(",", "")
            cases.append((f"variety_graph_{src}_{tag}",
                          ["variety", "graph", *spec, "--pair", pair,
                           "--resolution", "32", "--out", "graph.csv"],
                          ["graph.csv"]))
        cases.append((f"variety_retract_{src}",
                      ["variety", "retract", *spec], []))
        cases.append((f"variety_scan-balanced_{src}",
                      ["variety", "scan-balanced", *spec], []))
    cases.append(("experiment_uniqueness-fit",
                  ["experiment", "uniqueness-fit", "--alpha", "0.2",
                   "--beta", "0.4i", "--gamma", "-0.3", "--out-dir", "out"],
                  ["out/report.txt"]))
    cases.append(("experiment_circle-image",
                  ["experiment", "circle-image", "--out-dir", "out"],
                  ["out/report.txt"]))
    return cases


CASES = _cases()


def _golden_name(case, path):
    return f"{case}.{Path(path).name}"


def _report(argv):
    """Exit code and stdout of `labcli <argv> --json`."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--json"])
    return code, buf.getvalue()


@pytest.mark.parametrize("name,argv,files", CASES,
                         ids=[c[0] for c in CASES])
def test_report_is_byte_identical(name, argv, files, tmp_path,
                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    got_code, stdout = _report(argv)
    assert got_code == 0
    assert stdout == (GOLDEN / f"{name}.json").read_text()
    for path in files:
        expected = (GOLDEN / _golden_name(name, path)).read_bytes()
        assert (tmp_path / path).read_bytes() == expected, path


def regenerate():
    """Rewrite every golden file from the current code."""
    for name, argv, files in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                got_code, stdout = _report(argv)
            finally:
                os.chdir(cwd)
            if got_code != 0:
                raise SystemExit(f"{name}: exit code {got_code}")
            (GOLDEN / f"{name}.json").write_text(stdout)
            for path in files:
                data = (Path(tmp) / path).read_bytes()
                (GOLDEN / _golden_name(name, path)).write_bytes(data)
        print(f"wrote {name}")


if __name__ == "__main__":
    regenerate()
