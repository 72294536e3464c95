"""End-to-end tests of the command line interface, driving main()
directly and checking exit codes, report files, and output formats."""

import filecmp
import json

import numpy as np
import pytest

from polydisklab import agler, labcli
from polydisklab._serialize import dumps_canonical
from polydisklab.errors import UndecidedError
from polydisklab.labcli import _UsageError, main, parse_complex, parse_pair


def write_problem(path, kind, payload, seed=0):
    path.write_text(
        json.dumps({"version": 1, "kind": kind, "payload": payload,
                    "seed": seed})
    )
    return str(path)


@pytest.fixture()
def disk_problem(tmp_path):
    return write_problem(
        tmp_path / "disk.json", "disk_pick",
        {"nodes": [[0.0, 0.0], [0.5, 0.0]], "targets": [[0.0, 0.0], [0.25, 0.0]]},
    )


@pytest.fixture()
def poly_problem(tmp_path):
    return write_problem(
        tmp_path / "poly.json", "poly_pick",
        {"d": 2, "nodes": [[[0.0, 0.0], [0.0, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
         "targets": [[0.0, 0.0], [0.7, 0.0]]},
    )


class TestParseHelpers:
    def test_parse_complex_accepts_i(self):
        assert parse_complex("0.4i") == 0.4j
        assert parse_complex("-0.3+0.2i") == -0.3 + 0.2j
        assert parse_complex("0.5") == 0.5

    def test_parse_complex_rejects_junk(self):
        with pytest.raises(_UsageError):
            parse_complex("zebra")

    def test_parse_pair(self):
        assert parse_pair("1,2") == (1, 2)
        with pytest.raises(_UsageError):
            parse_pair("1")
        with pytest.raises(_UsageError):
            parse_pair("a,b")


class TestPickSolve:
    def test_disk_problem(self, disk_problem, capsys):
        assert main(["pick-solve", disk_problem]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["minimal_norm"] == pytest.approx(0.5, abs=1e-8)
        assert out["extremal"] is False
        assert out["certificate"]["type"] == "blaschke"

    def test_poly_problem_canonical(self, poly_problem, capsys):
        assert main(["pick-solve", poly_problem]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["sa_norm"] == pytest.approx(1.4, abs=1e-4)
        assert "caveat_flag" not in out

    def test_undecided_certificate_exits_2(self, poly_problem, monkeypatch, capsys):
        # an undecided certificate is reported, not printed as a null one
        def undecided(data, t, **kwargs):
            raise UndecidedError("forced", t=t)

        monkeypatch.setattr(labcli, "agler_feasible", undecided)
        assert main(["pick-solve", poly_problem]) == 2
        assert capsys.readouterr().out == ""

    def test_singular_newton_core_exits_2(self, poly_problem, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(agler, "solve_triangular", singular)
        assert main(["pick-solve", poly_problem]) == 2
        assert "undecided" in capsys.readouterr().err

    def test_d3_problem_carries_caveat(self, tmp_path, capsys):
        path = write_problem(
            tmp_path / "p3.json", "poly_pick",
            {"d": 3,
             "nodes": [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                       [[0.3, 0.0], [0.3, 0.0], [0.3, 0.0]]],
             "targets": [[0.0, 0.0], [0.2, 0.0]]},
        )
        assert main(["pick-solve", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["caveat_flag"] == "schur-agler-upper-bound"

    def test_empty_nodes_is_input_error(self, tmp_path, capsys):
        path = write_problem(tmp_path / "e.json", "disk_pick",
                             {"nodes": [], "targets": []})
        assert main(["pick-solve", path]) == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["pick-solve", str(path)]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["pick-solve", str(tmp_path / "nope.json")]) == 1

    def test_wrong_kind(self, tmp_path):
        path = write_problem(tmp_path / "v.json", "variety",
                             {"generators": []})
        assert main(["pick-solve", path]) == 1

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps({"version": 2, "kind": "disk_pick",
                                    "payload": {}}))
        assert main(["pick-solve", str(path)]) == 1

    def test_out_file_round_trips(self, disk_problem, tmp_path, capsys):
        out_path = tmp_path / "res.json"
        assert main(["pick-solve", disk_problem, "--out", str(out_path)]) == 0
        capsys.readouterr()
        text = out_path.read_text()
        assert dumps_canonical(json.loads(text)) == text


class TestVariety:
    def test_retract_v0(self, capsys):
        assert main(["variety", "retract", "builtin:v0", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "not_retract"
        assert out["witness"] is not None
        base = [complex(re, im) for re, im in out["witness"]["base"]]
        assert max(abs(b) for b in base) < 1.0

    def test_retract_rational_inner(self, capsys):
        assert main(["variety", "retract", "builtin:rational_inner",
                     "--A", "0.4", "--B", "0.4", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "retract_graph"

    def test_unknown_builtin(self, capsys):
        assert main(["variety", "retract", "builtin:nope"]) == 1

    def test_multi_generator_inconclusive_exit(self, tmp_path, capsys):
        gens = [
            {"d": 3, "terms": [[0, 0, 1, 1.0, 0.0], [1, 0, 0, -1.0, 0.0]]},
            {"d": 3, "terms": [[0, 1, 0, 1.0, 0.0]]},
        ]
        path = write_problem(tmp_path / "multi.json", "variety",
                             {"generators": gens})
        assert main(["variety", "retract", path, "--json"]) == 2

    def test_sample_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "pts.csv"
        assert main(["variety", "sample", "builtin:v0",
                     "--resolution", "100", "--out", str(csv_path),
                     "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "z1_re,z1_im,z2_re,z2_im,z3_re,z3_im"
        assert len(lines) - 1 == out["count"]
        assert out["max_generator_residual"] <= 1e-9

    def test_graph_json_fields(self, capsys):
        assert main(["variety", "graph", "builtin:v0", "--pair", "1,2",
                     "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pair"] == [1, 2]
        assert out["dependent_coordinate"] == 3
        assert out["single_sheeted"] is True
        assert 0.0 < out["mask_fraction"] < 1.0

    def test_scan_balanced_finds_pairs(self, capsys):
        assert main(["variety", "scan-balanced", "builtin:v0",
                     "--resolution", "200", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["balanced_pair_count"] > 0
        first = out["pairs"][0]
        assert len(first["indices"]) == 2
        assert first["n"] >= 1

    def test_variety_file_source(self, tmp_path, capsys):
        gen = {"d": 3, "terms": [[0, 0, 1, 1.0, 0.0], [1, 1, 0, -0.5, 0.0]]}
        path = write_problem(tmp_path / "g.json", "variety",
                             {"generators": [gen]})
        assert main(["variety", "retract", path, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "retract_graph"


class TestExperiments:
    def test_exg1_writes_reports(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["experiment", "exg1", "--m", "0.9",
                     "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["verdict"] == "violation_detected"
        assert report["witness_slack"] >= 1e-6
        assert report["sa_norm"] == pytest.approx(1.0, abs=1e-3)
        assert report["circle_gap"] > 0.05
        text = (out_dir / "report.txt").read_text()
        assert "verdict: violation_detected" in text

    def test_exg1_reruns_are_byte_identical(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", "exg1", "--m", "0.9",
                     "--out-dir", str(d1)]) == 0
        assert main(["experiment", "exg1", "--m", "0.9",
                     "--out-dir", str(d2)]) == 0
        assert filecmp.cmp(d1 / "report.json", d2 / "report.json",
                           shallow=False)

    def test_exg1_bad_m_is_input_error(self, tmp_path):
        assert main(["experiment", "exg1", "--m", "0",
                     "--out-dir", str(tmp_path)]) == 1

    def test_exg1_low_resolution_exhausts(self, tmp_path, capsys):
        assert main(["experiment", "exg1", "--m", "0.9",
                     "--resolution", "25", "--out-dir", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "search exhausted" in err
        assert "suggestion" in err

    def test_uniqueness_fit(self, tmp_path, capsys):
        out_dir = tmp_path / "fit"
        assert main(["experiment", "uniqueness-fit", "--alpha", "0.2",
                     "--beta", "0.4i", "--gamma", "-0.3",
                     "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["residual"] < 1e-6
        assert report["success"] is True
        om = complex(*report["omega"])
        assert abs(abs(om) - 1.0) < 1e-6

    def test_uniqueness_fit_colinear_is_degenerate(self, tmp_path):
        assert main(["experiment", "uniqueness-fit", "--alpha", "0.1",
                     "--beta", "0.3", "--gamma", "-0.5",
                     "--out-dir", str(tmp_path)]) == 3

    def test_ext_vs_vn_from_file(self, poly_problem, tmp_path, capsys):
        out_dir = tmp_path / "vn"
        assert main(["experiment", "ext-vs-vn", poly_problem,
                     "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["verdict"] == "von_neumann_violation"
        assert report["norm"] == pytest.approx(1.4, abs=1e-4)
        assert report["witness"]["f_norm"] > 1.0

    def test_missing_required_flags(self, tmp_path):
        assert main(["experiment", "exg1",
                     "--out-dir", str(tmp_path)]) == 1
        assert main(["experiment", "uniqueness-fit",
                     "--out-dir", str(tmp_path)]) == 1


class TestParserBehavior:
    def test_no_arguments_is_input_error(self):
        assert main([]) == 1

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, disk_problem):
        assert main(["pick-solve", disk_problem, "--frob"]) == 1
