"""End-to-end tests of the command line interface, driving main()
directly and checking exit codes, report files, and output formats."""

import filecmp
import json

import numpy as np
import pytest

from polydisklab import agler, labcli
from polydisklab._serialize import dumps_canonical
from polydisklab.errors import ConditioningError, UndecidedError
from polydisklab.experiments import circle_image_test
from polydisklab.labcli import _UsageError, main, parse_complex, parse_pair


def write_problem(path, kind, payload, seed=0):
    path.write_text(
        json.dumps({"version": 1, "kind": kind, "payload": payload,
                    "seed": seed})
    )
    return str(path)


V0_GENERATOR = {"d": 3, "terms": [[0, 0, 1, 1.0, 0.0], [1, 0, 0, -1.0, 0.0],
                                  [0, 1, 0, -1.0, 0.0]]}


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

    def test_certificate_scale_is_the_norm_with_a_zero_on_a_node(
            self, disk_problem, capsys):
        # the product has its zero at the node 0, and the certificate is
        # built at the norm itself, so its scale is the printed norm
        assert main(["pick-solve", disk_problem, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        (zero,) = out["certificate"]["zeros"]
        assert abs(complex(*zero)) < 1e-12
        scale = out["certificate"]["scale"]
        assert scale == pytest.approx(out["minimal_norm"], rel=1e-12)

    def test_singular_szego_gram_exits_3(self, tmp_path, capsys):
        # nodes 1e-9 apart: the failed eigensolve is reported, not a traceback
        path = write_problem(
            tmp_path / "close.json", "disk_pick",
            {"nodes": [[0.0, 0.0], [1e-9, 0.0]], "targets": [[0.0, 0.0], [0.5, 0.0]]},
        )
        assert main(["pick-solve", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "degenerate geometry" in captured.err

    def test_two_derivative_constraints_at_one_node_exit_3(self, tmp_path, capsys):
        path = write_problem(
            tmp_path / "twice.json", "disk_pick",
            {"nodes": [0.1, 0.5], "targets": [0.2, 0.3],
             "derivative_constraints": [[0, 0.5], [0, 0.7]]},
        )
        assert main(["pick-solve", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "degenerate geometry: two derivative constraints at node index 0; "
            "at most one per node\n"
        )

    def test_disk_certificate_conditioning_error_exits_3(
            self, disk_problem, monkeypatch, capsys):
        # a failed construction is reported, not printed as a null certificate
        def refuse(data):
            raise ConditioningError("forced")

        monkeypatch.setattr(labcli, "schur_construct", refuse)
        assert main(["pick-solve", disk_problem]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "degenerate geometry" in captured.err

    def test_zero_targets_give_null_certificate(self, tmp_path, capsys):
        path = write_problem(
            tmp_path / "zero.json", "disk_pick",
            {"nodes": [[0.0, 0.0], [0.5, 0.0]], "targets": [[0.0, 0.0], [0.0, 0.0]]},
        )
        assert main(["pick-solve", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["minimal_norm"] == 0.0
        assert out["certificate"] is None

    def test_huge_disk_targets_are_rescaled(self, tmp_path, capsys):
        # |w|^2 overflows a float, the norm does not: 1e160 times 9.8
        path = write_problem(tmp_path / "huge.json", "disk_pick",
                             {"nodes": [0.1, 0.2], "targets": [0, 1e160]})
        assert main(["pick-solve", path, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["minimal_norm"] == pytest.approx(9.8e160, rel=1e-14)
        assert out["certificate"]["scale"] == pytest.approx(9.8e160, rel=1e-14)

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

    @staticmethod
    def singular(monkeypatch, name):
        # a triangular solve of the barrier path reports a zero on the diagonal
        lapack_fn = getattr(agler, name)
        monkeypatch.setattr(agler, name, lambda *a, **k: (lapack_fn(*a, **k)[0], 1))

    def test_singular_newton_core_exits_2(self, poly_problem, monkeypatch, capsys):
        self.singular(monkeypatch, "ztrtrs")
        assert main(["pick-solve", poly_problem]) == 2
        assert "undecided" in capsys.readouterr().err

    def test_singular_newton_solve_exits_2(self, poly_problem, monkeypatch, capsys):
        self.singular(monkeypatch, "dtrtrs")
        assert main(["pick-solve", poly_problem]) == 2
        assert "undecided" in capsys.readouterr().err

    def test_non_finite_newton_system_exits_2(self, poly_problem, monkeypatch, capsys):
        cholesky = np.linalg.cholesky

        def poisoned(a, *args, **kwargs):
            L = cholesky(a, *args, **kwargs)
            L[..., 0, 0] = np.nan
            return L

        monkeypatch.setattr(np.linalg, "cholesky", poisoned)
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
        for kind in ("variety", "tuple", "experiment"):
            path = write_problem(tmp_path / f"{kind}.json", kind,
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

    def test_file_seed_applies_unless_flag_overrides(self, tmp_path, monkeypatch,
                                                      capsys):
        path = write_problem(tmp_path / "v0.json", "variety",
                             {"generators": [V0_GENERATOR]}, seed=3)

        def run(name, *flags):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert main(["variety", "sample", path, "--out", "pts.csv",
                         "--json", *flags]) == 0
            return capsys.readouterr().out, (tmp_path / name / "pts.csv").read_bytes()

        from_file = run("file")
        assert json.loads(from_file[0])["seed"] == 3
        assert from_file == run("flag", "--seed", "3")
        assert from_file[1] != run("override", "--seed", "0")[1]

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
        assert report["sa_norm"] == 1.0
        assert "caveat_flag" not in report
        assert report["circle_gap"] > 0.05
        text = (out_dir / "report.txt").read_text()
        assert "verdict: violation_detected" in text
        assert "norm: 1.00000000 (closed form: z2, z phi_m(z))" in text

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

    def test_ext_vs_vn_extension_consistent(self, tmp_path, capsys):
        # halving the exg1 targets puts the norm well below 1, so the
        # report carries a decomposition at level 1 instead of a witness
        assert main(["experiment", "ext-vs-vn", "--m", "0.9", "--scale", "0.5",
                     "--json", "--out-dir", str(tmp_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "extension_consistent"
        assert out["norm"] == pytest.approx(0.5, abs=1e-6)
        assert out["caveat_flag"] == "schur-agler-upper-bound"
        assert "witness" not in out
        dec = out["decomposition"]
        assert dec["t"] == 1.0
        assert dec["min_eigenvalue"] >= agler.GAMMA_PSD_TOL
        assert dec["reconstruction_residual"] <= agler.RECON_TOL

    def test_circle_image_reads_file_seed(self, tmp_path, monkeypatch, capsys):
        # the v0 report does not depend on the seed, so check what is passed
        seeds = []

        def spy(gens, phi, data, seed):
            seeds.append(seed)
            return circle_image_test(gens, phi, data, seed=seed)

        monkeypatch.setattr(labcli, "circle_image_test", spy)
        path = write_problem(tmp_path / "v0.json", "variety",
                             {"generators": [V0_GENERATOR]}, seed=3)
        for flags in ([], ["--seed", "5"]):
            assert main(["experiment", "circle-image", path, "--out-dir",
                         str(tmp_path / "out"), *flags]) == 0
        assert seeds == [3, 5]

    def test_missing_required_flags(self, tmp_path):
        assert main(["experiment", "exg1",
                     "--out-dir", str(tmp_path)]) == 1
        assert main(["experiment", "uniqueness-fit",
                     "--out-dir", str(tmp_path)]) == 1


POLY_NODES = [[[0.0, 0.0], [0.0, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
PAIR_TARGETS = [[0.0, 0.0], [0.25, 0.0]]


class TestMalformedInput:
    # problem: the (kind, payload[, seed]) of the file written to {file}
    @pytest.mark.parametrize("argv, problem", [
        pytest.param(["pick-solve", "{file}"],
                     ("poly_pick", {"nodes": [0.1, 0.2], "targets": PAIR_TARGETS}),
                     id="flat-poly-nodes"),
        pytest.param(["pick-solve", "{file}"],
                     ("poly_pick", {"d": "two", "nodes": POLY_NODES,
                                    "targets": PAIR_TARGETS}),
                     id="string-d"),
        pytest.param(["pick-solve", "{file}"],
                     ("poly_pick", {"nodes": [[]], "targets": [[0.1, 0]]}),
                     id="empty-poly-node"),
        pytest.param(["pick-solve", "{file}"],
                     ("poly_pick", {"d": 0, "nodes": [[]], "targets": [[0.1, 0]]}),
                     id="zero-d"),
        pytest.param(["pick-solve", "{file}"],
                     ("disk_pick", {"nodes": 5, "targets": PAIR_TARGETS}),
                     id="scalar-disk-nodes"),
        pytest.param(["pick-solve", "{file}"],
                     ("disk_pick", {"nodes": [[0.0, 0.0], [0.5, 0.0]],
                                    "targets": PAIR_TARGETS,
                                    "derivative_constraints": [[0]]}),
                     id="short-derivative-pair"),
        pytest.param(["pick-solve", "{file}"],
                     ("disk_pick", {"nodes": [["a", 0.0], [0.5, 0.0]],
                                    "targets": PAIR_TARGETS}),
                     id="string-coordinate"),
        pytest.param(["variety", "sample", "{file}"],
                     ("variety", {"generators": [{"terms": V0_GENERATOR["terms"]}]}),
                     id="generator-without-d"),
        pytest.param(["variety", "sample", "{file}"],
                     ("variety", {"generators": [{"d": 3,
                                                  "terms": [["a", 0, 1, 1.0, 0.0]]}]}),
                     id="string-exponent"),
        pytest.param(["variety", "sample", "{file}"], ("variety", {"generators": "x"}),
                     id="string-generators"),
        pytest.param(["variety", "sample", "{file}"],
                     ("variety", {"generators": [V0_GENERATOR]}, -1),
                     id="negative-file-seed"),
        pytest.param(["pick-solve", "{tmp}"], None, id="directory"),
        pytest.param(["variety", "sample", "builtin:v0", "--resolution", "-5"], None,
                     id="negative-resolution"),
        pytest.param(["variety", "graph", "builtin:v0", "--resolution", "0"], None,
                     id="zero-resolution"),
        pytest.param(["variety", "sample", "builtin:v0", "--seed", "-1"], None,
                     id="negative-seed"),
        pytest.param(["experiment", "uniqueness-fit", "--alpha", "0.2", "--beta", "0.4i",
                      "--gamma", "-0.3", "--samples", "0", "--out-dir", "{tmp}"], None,
                     id="zero-samples"),
        # json reads NaN and Infinity; no solver may see them
        pytest.param(["pick-solve", "{file}"],
                     ("poly_pick", {"nodes": POLY_NODES,
                                    "targets": [[0.0, 0.0], [float("nan"), 0.0]]}),
                     id="nan-poly-target"),
        pytest.param(["pick-solve", "{file}"],
                     ("disk_pick", {"nodes": [[0.0, 0.0], [0.5, 0.0]],
                                    "targets": [[0.0, 0.0], [float("inf"), 0.0]]}),
                     id="infinite-disk-target"),
        # finite, but |w|^2 overflows the Pick matrix
        pytest.param(["pick-solve", "{file}"],
                     ("disk_pick", {"nodes": [0.1, 0.2], "targets": [0, 1e308]}),
                     id="overflowing-disk-target"),
        # |w|^2 overflows the polydisk target matrix before the barrier path
        pytest.param(["pick-solve", "{file}"],
                     ("poly_pick", {"d": 2, "nodes": [[[0.1, 0.0], [0.2, 0.0]],
                                                      [[0.3, 0.0], [-0.2, 0.0]]],
                                    "targets": [[0.0, 0.0], [1e160, 0.0]]}),
                     id="overflowing-poly-target"),
        pytest.param(["pick-solve", "{file}"],
                     ("disk_pick", {"nodes": [[0.0, 0.0], [float("nan"), 0.0]],
                                    "targets": PAIR_TARGETS}),
                     id="nan-disk-node"),
        pytest.param(["pick-solve", "{file}"],
                     ("disk_pick", {"nodes": [[0.0, 0.0], [0.5, 0.0]],
                                    "targets": PAIR_TARGETS,
                                    "derivative_constraints":
                                        [[0, [float("nan"), 0.0]]]}),
                     id="nan-derivative-value"),
        # z3 = z1 + z2 with a NaN z1 coefficient, once read as z3 = z2
        pytest.param(["variety", "retract", "{file}"],
                     ("variety", {"generators": [{"d": 3, "terms": [
                         [0, 0, 1, 1.0, 0.0], [1, 0, 0, float("nan"), 0.0],
                         [0, 1, 0, -1.0, 0.0]]}]}),
                     id="nan-generator-coefficient"),
        pytest.param(["experiment", "ext-vs-vn", "--m", "0.9", "--scale", "nan",
                      "--out-dir", "{tmp}"], None, id="nan-scale"),
        pytest.param(["experiment", "ext-vs-vn", "--m", "0.9", "--scale", "inf",
                      "--out-dir", "{tmp}"], None, id="infinite-scale"),
        pytest.param(["variety", "sample", "builtin:v0", "--tol", "-1",
                      "--resolution", "5"], None, id="negative-sample-tol"),
        pytest.param(["variety", "retract", "builtin:v0", "--margin", "-1"], None,
                     id="negative-margin"),
        pytest.param(["variety", "retract", "builtin:v0", "--margin", "2"], None,
                     id="margin-above-one"),
        pytest.param(["variety", "scan-balanced", "builtin:v0", "--tol", "nan"], None,
                     id="nan-scan-tol"),
        pytest.param(["variety", "scan-balanced", "builtin:v0", "--tol", "-1"], None,
                     id="negative-scan-tol"),
    ])
    def test_exits_1_with_an_error_line(self, argv, problem, tmp_path, capsys):
        # no traceback: main returns 1 in process and says why on stderr
        path = tmp_path / "problem.json"
        if problem is not None:
            write_problem(path, *problem)
        argv = [a.format(file=path, tmp=tmp_path) for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["pick-solve"], ["variety", "retract"]])
    def test_non_utf8_file(self, argv, tmp_path, capsys):
        # a UTF-16 byte order mark: a usage error, not a UnicodeDecodeError
        path = tmp_path / "problem.json"
        path.write_bytes(b"\xff\xfe" + '{"version": 1}'.encode("utf-16-le"))
        assert main(argv + [str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "UTF-8" in captured.err
        assert captured.out == ""


class TestParserBehavior:
    def test_no_arguments_is_input_error(self):
        assert main([]) == 1

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, disk_problem):
        assert main(["pick-solve", disk_problem, "--frob"]) == 1

    @pytest.mark.parametrize("argv", [
        ["pick-solve", "{disk}", "--seed", "1"],
        ["pick-solve", "{disk}", "--tol", "1e-6"],
        ["pick-solve", "{disk}", "--resolution", "10"],
        ["experiment", "exg1", "--m", "0.9", "--out", "{tmp}/r.json"],
        ["experiment", "exg1", "--m", "0.9", "--tol", "1e-6"],
        ["experiment", "exg1", "--m", "0.9", "--resolution", "25"],
    ])
    def test_flag_a_command_does_not_read_is_input_error(self, argv, disk_problem,
                                                         tmp_path):
        argv = [a.format(disk=disk_problem, tmp=tmp_path) for a in argv]
        assert main(argv) == 1
        assert not (tmp_path / "r.json").exists()

    def test_parser_is_reused_unchanged(self, disk_problem, tmp_path, capsys):
        # main() keeps one parser per process; neither a run nor a usage
        # error may leave anything behind that changes the next run
        run = [
            ["pick-solve", disk_problem, "--json"],
            ["variety", "retract", "builtin:v0", "--json", "--seed", "3"],
            ["experiment", "exg1", "--m", "0.7", "--json",
             "--out-dir", str(tmp_path / "exg1")],
        ]
        failing = [
            ["pick-solve", disk_problem, "--frob"],
            ["variety", "retract", "builtin:v0", "--resolution", "0"],
            ["experiment", "exg1", "--m", "0.7", "--samples", "x"],
            [],
        ]

        def outcome(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        for argv in run:
            first = outcome(argv)
            assert first[0] == 0
            assert outcome(argv) == first
            for bad in failing:
                code, out, err = outcome(bad)
                assert code == 1 and out == "" and err.startswith("error:")
                assert outcome(argv) == first
        assert labcli._shared_parser() is labcli._shared_parser()
