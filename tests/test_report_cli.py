import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

import lcpbox as lb
from lcpbox.cli import run_cli
from lcpbox.io import ParseError, parse_matrix_file
from lcpbox.report import report_to_dict, report_to_json, report_from_json, validate_report
from conftest import TRACKED

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
ELAPSED = re.compile(r'"elapsed": [-+0-9.eE]+|elapsed: [0-9.]+s')


def write_json(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


class TestParsing:
    def test_radius_scale_file(self, tmp_path, box3_10):
        path = write_json(tmp_path, "b.json", {
            "n": 3,
            "midpoint": [[0, -1, 2], [2, 0, -2], [-1, 1, 0]],
            "radius_scale": {"of": "abs_midpoint", "factor": 0.1},
        })
        box = parse_matrix_file(path)
        assert isinstance(box, lb.IntervalMatrix)
        assert np.allclose(box.lower, box3_10.lower)
        assert np.allclose(box.upper, box3_10.upper)

    def test_single_matrix_file(self, tmp_path):
        path = write_json(tmp_path, "m.json", {"n": 2, "matrix": [[1, 0], [0, 1]]})
        M = parse_matrix_file(path)
        assert isinstance(M, np.ndarray)
        assert np.array_equal(M, np.eye(2))

    def test_degenerate_bounds_file(self, tmp_path):
        path = write_json(tmp_path, "d.json", {
            "n": 2, "lower": [[0, -1], [0, 0]], "upper": [[0, -1], [0, 0]],
        })
        box = parse_matrix_file(path)
        assert box.is_degenerate

    def test_qp_file_with_radii(self, tmp_path):
        path = write_json(tmp_path, "q.json", {
            "qp": {"C": [[10, 4], [4, 5]], "d": [1, 1],
                   "B": [[2, -1], [-3, 1]], "b": [10, 9]},
            "radB": [[0.2, 0.1], [0.3, 0.1]],
            "radC": [[1, 0.4], [0.4, 0.5]],
        })
        qp = parse_matrix_file(path)
        assert isinstance(qp, lb.QpInstance)
        assert qp.rad_b is not None and qp.rad_c is not None

    def test_errors(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            parse_matrix_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        with pytest.raises(ParseError, match="malformed"):
            parse_matrix_file(bad)
        with pytest.raises(ParseError):
            parse_matrix_file(write_json(tmp_path, "x1.json", {"n": 2}))
        with pytest.raises(ParseError):
            parse_matrix_file(write_json(
                tmp_path, "x2.json",
                {"n": 2, "lower": [[0, 0], [0, 0]], "upper": [[-1, 0], [0, 0]]},
            ))
        with pytest.raises(ParseError):
            parse_matrix_file(write_json(
                tmp_path, "x3.json", {"n": 3, "matrix": [[1, 0], [0, 1]]},
            ))

    def test_bundled_demo_files_parse(self):
        for name in ("box3_10pct.json", "box3_15pct.json",
                     "reducible_radius_box.json", "single_matrix.json"):
            parse_matrix_file(DATA / name)
        qp = parse_matrix_file(DATA / "qp2.json")
        assert isinstance(qp, lb.QpInstance)


class TestReportSerialization:
    def test_round_trip_bit_identical(self, box3_10):
        report = lb.run_checks(box3_10, TRACKED + ("principally-nondegenerate",))
        text = report_to_json(report)
        data = report_from_json(text)
        assert json.dumps(data, indent=2) == text

    def test_validate_rejects_corruption(self, box3_10):
        report = lb.run_checks(box3_10, ("semimonotone",))
        data = report_to_dict(report)
        validate_report(data)
        broken = json.loads(json.dumps(data))
        broken["properties"][0]["holds"] = "yes"
        with pytest.raises(ValueError, match="schema violation"):
            validate_report(broken)
        broken2 = json.loads(json.dumps(data))
        del broken2["input"]
        with pytest.raises(ValueError):
            validate_report(broken2)

    def test_certificates_one_based(self, box3_15):
        report = lb.run_checks(box3_15, ("column-sufficient", "r0"))
        data = report_to_dict(report)
        by_prop = {p["property"]: p for p in data["properties"]}
        assert by_prop["column-sufficient"]["certificate"]["I"] == [1, 2, 3]
        assert by_prop["column-sufficient"]["certificate"]["J"] == []
        assert by_prop["r0"]["certificate"]["I"] == [1, 2, 3]

    def test_failed_property_always_carries_certificate(self, box3_15):
        report = lb.run_checks(box3_15)
        for entry in report_to_dict(report)["properties"]:
            if not entry["holds"]:
                assert entry["certificate"] is not None

    def test_digest_stable(self, box3_10, mid3):
        again = lb.from_midpoint_radius(mid3, 0.1 * np.abs(mid3))
        from lcpbox.report import box_digest

        assert box_digest(box3_10) == box_digest(again)

    @staticmethod
    def _strip_timings(data):
        data = json.loads(json.dumps(data))
        data["elapsed"] = 0.0
        for p in data["properties"]:
            p["elapsed"] = 0.0
        return data

    def test_golden_reports(self, box3_10, qp_ref):
        golden_dir = Path(__file__).resolve().parent / "golden"
        props = TRACKED + ("principally-nondegenerate",)
        cases = [
            ("box3_10pct_report.json", box3_10),
            ("qp_matrix_report.json", lb.degenerate(lb.qp_to_lcp(qp_ref).A)),
        ]
        for name, box in cases:
            golden = json.loads((golden_dir / name).read_text())
            got = self._strip_timings(report_to_dict(lb.run_checks(box, props)))
            assert got == golden, name


class TestCli:
    def run(self, *argv):
        out = io.StringIO()
        code = run_cli(list(argv), out=out)
        return code, out.getvalue()

    def test_check_exit_zero_when_all_hold(self):
        code, text = self.run(
            "check", "--file", str(DATA / "box3_10pct.json"),
            "--properties", ",".join(TRACKED),
        )
        assert code == 0
        assert "holds" in text

    def test_check_exit_one_with_certificate(self):
        code, text = self.run(
            "check", "--file", str(DATA / "box3_15pct.json"),
            "--properties", ",".join(TRACKED), "--format", "json",
        )
        assert code == 1
        data = json.loads(text)
        validate_report(data)
        cs = next(p for p in data["properties"]
                  if p["property"] == "column-sufficient")
        assert cs["certificate"]["I"] == [1, 2, 3]
        assert cs["certificate"]["J"] == []

    def test_default_properties_include_nondegeneracy(self):
        code, text = self.run(
            "check", "--file", str(DATA / "box3_10pct.json"), "--format", "json",
        )
        assert code == 1  # nondegeneracy fails on the reference box
        data = json.loads(text)
        tokens = [p["property"] for p in data["properties"]]
        assert tokens == list(lb.DEFAULT_CHECK_PROPERTIES)

    def test_text_and_json_agree(self):
        code_t, text = self.run(
            "check", "--file", str(DATA / "box3_10pct.json"),
            "--properties", ",".join(TRACKED),
        )
        code_j, js = self.run(
            "check", "--file", str(DATA / "box3_10pct.json"),
            "--properties", ",".join(TRACKED), "--format", "json",
        )
        assert code_t == code_j
        data = json.loads(js)
        for entry in data["properties"]:
            token = f"strong {entry['property']}"
            assert token in text
            assert entry["holds"] is True

    def test_parse_error_exit_two(self, tmp_path):
        bad = write_json(tmp_path, "bad.json", {
            "n": 2, "lower": [[1, 0], [0, 1]], "upper": [[0, 0], [0, 0]],
        })
        code, _ = self.run("check", "--file", bad)
        assert code == 2
        code, _ = self.run("check", "--file", str(tmp_path / "missing.json"))
        assert code == 2

    def test_usage_error_exit_two(self):
        code, _ = self.run("check")  # missing --file
        assert code == 2
        code, _ = self.run("not-a-command")
        assert code == 2

    def test_cap_exceeded_exit_three(self, tmp_path):
        rng = np.random.default_rng(0)
        mid = rng.uniform(-1, 1, (11, 11))
        path = write_json(tmp_path, "big.json", {
            "n": 11, "midpoint": mid.tolist(),
            "radius": (0.01 * np.abs(mid)).tolist(),
        })
        code, _ = self.run("check", "--file", path,
                           "--properties", "column-sufficient")
        assert code == 3

    @pytest.mark.parametrize("prop", ["p", "principally-nondegenerate", "r0"])
    def test_falsify_above_point_cap_exit_three(self, tmp_path, prop):
        path = write_json(tmp_path, "big.json", {
            "n": 17, "midpoint": np.eye(17).tolist(),
            "radius": (0.01 * np.ones((17, 17))).tolist(),
        })
        code, _ = self.run("falsify", "--file", path, "--property", prop)
        assert code == 3

    def test_copositive_fast_failure_within_lowered_caps(self, tmp_path, capsys):
        # A fast-path "fails" takes its witness from the general route, so
        # a cap below n refuses it as --fast-paths off does.
        path = write_json(tmp_path, "id4.json", {
            "n": 4, "midpoint": np.eye(4).tolist(),
            "radius": (0.4 * np.ones((4, 4))).tolist(),
        })
        for prop in ("copositive", "strictly-copositive"):
            for fast_paths in ("auto", "off"):
                code, text = self.run("check", "--file", path, "--cap", "3",
                                      "--fast-paths", fast_paths,
                                      "--properties", prop)
                assert code == 3 and text == ""
                assert "exceeds enumeration cap 3" in capsys.readouterr().err

    def test_fast_failure_above_cap_says_why_no_witness(self, tmp_path, capsys):
        # Above the general route's cap a fast-path failure has no witness;
        # the CLI exits 3 and names the cap that refused it.
        path = write_json(tmp_path, "id4.json", {
            "n": 4, "midpoint": np.eye(4).tolist(),
            "radius": (0.4 * np.ones((4, 4))).tolist(),
        })
        errors = {
            "copositive": "dimension 4 exceeds enumeration cap 3",
            "semimonotone": "dimension 4 exceeds enumeration cap 3",
            "column-sufficient": "dimension 4 exceeds index-pair cap 3",
            "r": "dimension 4 exceeds index-set cap 3",
        }
        for prop, error in errors.items():
            code, text = self.run("check", "--file", path, "--cap", "3",
                                  "--format", "json", "--properties", prop)
            assert code == 3 and text == ""
            assert error in capsys.readouterr().err

    def test_row_scaled_strongly_h_box_holds(self, tmp_path):
        # Each row dominant by a factor of 1 + 1e-7, the second row about
        # 0.006 times the first: the midpoint-M test calls the scaled lower
        # bound no M-matrix while no leading minor is zero, so that fast
        # path must leave the box to the general route.
        path = write_json(tmp_path, "h2.json", {
            "n": 2,
            "midpoint": [[0.92542788003501419, 0.62929647976354075],
                         [8.0169742284908765e-04, 2.6212031836654994e-03]],
            "radius": [[0.02828948792001664, 0.2678418207442274],
                       [0.00132142994448067, 0.00049807559954217]],
        })
        code, text = self.run("check", "--file", path, "--format", "json")
        assert code == 0
        data = json.loads(text)
        assert [p["property"] for p in data["properties"]] == list(
            lb.DEFAULT_CHECK_PROPERTIES)
        assert all(p["holds"] for p in data["properties"])

    def test_tiny_positive_diagonal_is_no_r0_or_r_witness(self, tmp_path):
        # Every realization is diagonal with a positive diagonal, so the box
        # is strongly R0 and R. The 1x1 set (0,) is decided against the zero
        # tolerance of both bounds, 2e-12, which 1e-11 exceeds.
        path = write_json(tmp_path, "d.json", {
            "n": 2, "lower": [[1e-11, 0], [0, 1]], "upper": [[1, 0], [0, 2]],
        })
        for fast_paths in ("auto", "off"):
            code, text = self.run("check", "--file", path, "--format", "json",
                                  "--properties", "r0,r",
                                  "--fast-paths", fast_paths)
            assert code == 0, fast_paths
            for p in json.loads(text)["properties"]:
                assert p["holds"] and p["method"] == "general:index-systems"

    def test_unknown_property_exit_two(self):
        code, _ = self.run("check", "--file", str(DATA / "box3_10pct.json"),
                           "--properties", "nonsense")
        assert code == 2

    @pytest.mark.parametrize("command", [
        ("check", "--file", str(DATA / "box3_10pct.json")),
        ("qp2lcp", "--file", str(DATA / "qp2.json")),
        ("sweep", "--file", str(DATA / "box3_10pct.json"), "--scales", "0.1"),
    ], ids=["check", "qp2lcp", "sweep"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_empty_property_list_exit_two(self, command, fmt, monkeypatch,
                                          capsys):
        import lcpbox.report as report

        monkeypatch.setattr(report, "check_property", None)  # no check runs
        for tokens in (" , ", ","):
            code, text = self.run(*command, "--properties", tokens,
                                  "--format", fmt)
            assert (code, text) == (2, "")
            assert "--properties lists no property token" in capsys.readouterr().err

    def test_empty_properties_value_means_the_default_set(self):
        argv = ("check", "--file", str(DATA / "box3_10pct.json"),
                "--format", "json")
        code, text = self.run(*argv, "--properties", "")
        default_code, default_text = self.run(*argv)
        assert code == default_code
        assert ([p["property"] for p in json.loads(text)["properties"]]
                == [p["property"] for p in json.loads(default_text)["properties"]]
                == list(lb.DEFAULT_CHECK_PROPERTIES))

    @pytest.mark.parametrize("argv", [
        ("check", "--file", str(DATA / "box3_10pct.json"), "--oracle-budget"),
        ("qp2lcp", "--file", str(DATA / "qp2.json"), "--oracle-budget"),
        ("sweep", "--file", str(DATA / "box3_10pct.json"), "--scales", "0.1",
         "--oracle-budget"),
        ("falsify", "--file", str(DATA / "box3_10pct.json"),
         "--property", "r0", "--budget"),
    ], ids=["check", "qp2lcp", "sweep", "falsify"])
    def test_budget_below_one_exit_two(self, argv, monkeypatch, capsys):
        import lcpbox.report as report

        monkeypatch.setattr(report, "check_property", None)  # no check runs
        for budget in ("0", "-3"):
            code, text = self.run(*argv, budget, "--format", "json")
            assert (code, text) == (2, "")
            assert f"must be at least 1, got {budget}" in capsys.readouterr().err

    def test_json_outputs_have_the_indent_2_layout(self, tmp_path):
        # Every JSON output is written by one writer, byte for byte
        # json.dumps(..., indent=2) of what it encodes.
        matrix = write_json(tmp_path, "m.json", {"n": 2, "matrix": [[1, -2], [3, 0.5]]})
        box = str(DATA / "box3_15pct.json")
        runs = [
            ("check", "--file", box, "--properties", ",".join(TRACKED),
             "--oracle-budget", "50"),
            ("qp2lcp", "--file", str(DATA / "qp2.json"), "--radb-scale", "0.2"),
            ("sweep", "--file", box, "--scales", "0.05,0.15"),
            ("falsify", "--file", box, "--property", "semimonotone"),
            ("falsify", "--file", str(DATA / "box3_10pct.json"),
             "--property", "semimonotone", "--budget", "20"),
            ("lcp", "--file", matrix, "--q=-1,-1"),
        ]
        for argv in runs:
            code, text = self.run(*argv, "--format", "json")
            assert code in (0, 1), argv
            assert text == json.dumps(json.loads(text), indent=2) + "\n", argv

    def test_falsify_exit_codes(self):
        code, text = self.run(
            "falsify", "--file", str(DATA / "box3_15pct.json"),
            "--property", "semimonotone", "--budget", "2000", "--seed", "0",
        )
        assert code == 1 and "counterexample-found" in text
        code, text = self.run(
            "falsify", "--file", str(DATA / "box3_10pct.json"),
            "--property", "semimonotone", "--budget", "600", "--seed", "0",
        )
        assert code == 0 and "no-counterexample" in text

    def test_falsify_takes_every_point_property_token(self, capsys):
        tokens = [p.value for p in lb.PointProperty]
        assert len(tokens) == 16
        assert set(lb.ALL_STRONG_PROPERTIES) | {"m0", "p"} == set(tokens)
        for token in tokens:
            code, _ = self.run("falsify", "--file", str(DATA / "box3_15pct.json"),
                               "--property", token, "--budget", "4")
            assert code in (0, 1), token
        code, _ = self.run("falsify", "--file", str(DATA / "box3_15pct.json"),
                           "--property", "bogus")
        assert code == 2
        assert "unknown property token 'bogus'" in capsys.readouterr().err

    def test_lcp_subcommand(self, tmp_path):
        path = write_json(tmp_path, "m.json", {"n": 2, "matrix": [[1, 0], [0, 1]]})
        code, text = self.run("lcp", "--file", path, "--q=-1,-1",
                              "--format", "json")
        assert code == 0
        data = json.loads(text)
        assert len(data["solutions"]) == 1
        assert data["solutions"][0]["z"] == [1.0, 1.0]

    def test_qp2lcp_chains_into_check(self):
        code, text = self.run(
            "qp2lcp", "--file", str(DATA / "qp2.json"),
            "--radb-scale", "0.2", "--radc-scale", "0.2",
            "--properties", ",".join(TRACKED), "--format", "json",
        )
        assert code == 1
        data = json.loads(text)
        assert all(not p["holds"] for p in data["properties"])
        code, _ = self.run(
            "qp2lcp", "--file", str(DATA / "qp2.json"),
            "--radb-scale", "0.1", "--radc-scale", "0.2",
            "--properties", ",".join(TRACKED),
        )
        assert code == 0

    def test_sweep(self):
        code, text = self.run(
            "sweep", "--file", str(DATA / "box3_10pct.json"),
            "--scales", "0.05,0.10,0.15", "--properties", ",".join(TRACKED),
            "--format", "json",
        )
        assert code == 1  # the 0.15 scale fails
        rows = json.loads(text)
        assert [r["scale"] for r in rows] == [0.05, 0.10, 0.15]
        assert all(p["holds"] for p in rows[0]["report"]["properties"])
        assert all(not p["holds"] for p in rows[2]["report"]["properties"])

    def test_oracle_attachment(self):
        code, text = self.run(
            "check", "--file", str(DATA / "box3_10pct.json"),
            "--properties", "semimonotone", "--oracle-budget", "600",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(text)
        assert data["oracle"]["consistent"] is True

    def test_tol_env_override(self, monkeypatch):
        monkeypatch.setenv("LCPBOX_TOL", "1e-6")
        code, _ = self.run("check", "--file", str(DATA / "box3_10pct.json"),
                           "--properties", "semimonotone")
        assert code == 0
        monkeypatch.setenv("LCPBOX_TOL", "banana")
        code, _ = self.run("check", "--file", str(DATA / "box3_10pct.json"),
                           "--properties", "semimonotone")
        assert code == 2

    def test_cached_parser_matches_fresh_parser(self, capsys):
        import lcpbox.cli as cli

        calls = [
            ("check", "--file", str(DATA / "box3_15pct.json"),
             "--properties", "column-sufficient", "--format", "json"),
            ("check", "--fast-paths", "sometimes"),  # parse error
            ("check", "--file", str(DATA / "box3_10pct.json"),
             "--properties", "semimonotone,r0"),
            ("falsify", "--file", str(DATA / "box3_15pct.json"),
             "--property", "semimonotone", "--budget", "50"),
        ]

        def outcome(argv):
            code, text = self.run(*argv)
            err = capsys.readouterr().err
            return code, ELAPSED.sub("", text), err

        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(outcome(argv))
        repeated = [outcome(argv) for argv in calls + calls]
        assert repeated == fresh + fresh
        assert [code for code, _, _ in fresh] == [1, 2, 0, 1]

    def test_sweep_attaches_oracle(self):
        code, text = self.run(
            "sweep", "--file", str(DATA / "box3_10pct.json"),
            "--scales", "0.05,0.15", "--properties", "semimonotone",
            "--oracle-budget", "100", "--format", "json",
        )
        assert code == 1
        rows = json.loads(text)
        for row in rows:
            oracle = row["report"]["oracle"]
            assert oracle is not None and oracle["budget"] == 100
            assert oracle["consistent"] is True

    def test_failed_certificate_verification_exit_three(self, monkeypatch,
                                                         capsys):
        import lcpbox.strong as strong

        monkeypatch.setattr(strong, "verify_certificate",
                            lambda box, verdict, config=None: False)
        code, _ = self.run("check", "--file", str(DATA / "box3_15pct.json"),
                           "--properties", "column-sufficient")
        assert code == 3
        assert "failed re-verification" in capsys.readouterr().err
        with pytest.raises(lb.CertificateVerificationError):
            lb.check_property(parse_matrix_file(DATA / "box3_15pct.json"),
                              "column-sufficient")

    def test_negative_verdict_without_realization_exit_three(self, monkeypatch,
                                                             capsys):
        import lcpbox.strong as strong

        def bare(box, config=None):
            return strong.PropertyVerdict("r0", False, "general:index-systems",
                                          {"I": (0,)}, 0.0)

        monkeypatch.setitem(strong._DISPATCH, "r0", bare)
        code, _ = self.run("check", "--file", str(DATA / "box3_10pct.json"),
                           "--properties", "r0")
        assert code == 3
        assert "failed re-verification" in capsys.readouterr().err
