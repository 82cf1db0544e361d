"""Tests of the benchmark itself: each output check can fail, tracing
changes no output, and the traced counters agree with the reports.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from checks import check_report, witness_error
from tracer import COUNTED, PER_LAYER, TIMED, Tracer
from workloads import PROPERTIES, make_workload, write_inputs

cli = run.import_lcpbox()
ROOT = Path(__file__).resolve().parent.parent


def _small(name: str, count: int, seed: int = 3):
    workload = make_workload(name, seed)
    return dataclasses.replace(workload, boxes=workload.boxes[:count])


def _outputs(workload, tmp_path):
    paths = write_inputs(workload, tmp_path)
    _times, codes, texts = run.run_pass(cli, workload, paths)
    return codes, texts


@pytest.fixture(scope="module")
def crossval(tmp_path_factory):
    workload = _small("crossval-3x3", 60)
    codes, texts = _outputs(workload, tmp_path_factory.mktemp("crossval"))
    return workload, codes, [json.loads(t) for t in texts]


@pytest.fixture(scope="module")
def general(tmp_path_factory):
    workload = _small("general-n5to7", 2)
    codes, texts = _outputs(workload, tmp_path_factory.mktemp("general"))
    return workload, codes, [json.loads(t) for t in texts]


def _negatives(crossval):
    workload, codes, reports = crossval
    for box, report in zip(workload.boxes, reports):
        for v in report["properties"]:
            if not v["holds"]:
                yield box, v


def test_reports_pass_the_checks(crossval, general):
    for workload, codes, reports in (crossval, general):
        for box, code, report in zip(workload.boxes, codes, reports):
            assert check_report(box, report, code, workload) == []
    assert sum(1 for _ in _negatives(crossval)) > 200


def _flip_one_sign(prop, cert, A):
    if prop == "principally-nondegenerate":
        i = cert["support"][0] - 1
        A[i, i] = -A[i, i] if A[i, i] else 1.0
    elif prop == "column-sufficient" and len(cert["x"]) < 2:
        return False  # -z is a witness whenever z is
    else:
        k = int(np.argmax(np.abs(cert["x"])))
        cert["x"][k] = -cert["x"][k]
    return True


def _negate_witness(prop, cert, A):
    if prop not in ("semimonotone", "r0", "r"):
        return False  # no x, or -z is a witness whenever z is
    cert["x"] = [-v for v in cert["x"]]
    return True


def _negate_realization(prop, cert, A):
    if prop not in ("semimonotone", "column-sufficient"):
        return False  # the witness may also fit -A
    A *= -1.0
    return True


@pytest.mark.parametrize("mutate,props", [
    (_flip_one_sign, PROPERTIES),
    (_negate_witness, ("semimonotone", "r0", "r")),
    (_negate_realization, ("semimonotone", "column-sufficient")),
])
def test_altered_witness_is_rejected(crossval, mutate, props):
    rejected = {prop: 0 for prop in props}
    for _box, v in _negatives(crossval):
        cert = json.loads(json.dumps(v["certificate"]))
        A = np.asarray(cert["realization"])
        assert witness_error(v["property"], cert, A) is None
        if mutate(v["property"], cert, A):
            assert witness_error(v["property"], cert, A) is not None, v
            rejected[v["property"]] += 1
    assert all(rejected.values()), rejected


@pytest.mark.parametrize("prop,cert,A,error", [
    ("semimonotone", {"I": [1], "x": [1.0]}, [[-1, 0], [0, 1]], None),
    ("semimonotone", {"I": [1], "x": [-1.0]}, [[1, 0], [0, 1]],
     "x has a negative entry"),
    ("semimonotone", {"I": [1], "x": [1.0]}, [[1, 0], [0, 1]],
     "A_II x is not negative"),
    ("column-sufficient", {"I": [1], "J": [], "x": [1.0]}, [[-1, 0], [0, 1]], None),
    ("column-sufficient", {"I": [1, 2], "J": [], "x": [1.0, 1.0]},
     [[-1, 0], [0, 1]], "z * Az has a positive entry"),
    ("column-sufficient", {"I": [1], "J": [2], "x": [1.0, 1.0]},
     [[0, 0], [0, 0]], "z * Az has no negative entry"),
    ("r0", {"I": [1], "x": [1.0]}, [[0, 1], [0, 1]], None),
    ("r0", {"I": [1], "x": [0.0]}, [[0, 1], [0, 1]], "witness z is zero"),
    ("r0", {"I": [1], "x": [-1.0]}, [[0, 1], [0, 1]],
     "z or w = Az + q is negative"),
    ("r0", {"I": [1], "x": [1.0]}, [[0, 0], [-1, 0]],
     "z or w = Az + q is negative"),
    ("r0", {"I": [1], "x": [1.0]}, [[1, 0], [0, 0]],
     "z and w = Az + q are not complementary"),
    ("r", {"I": [1], "x": [1.0], "t": 1.0}, [[-1, 0], [0, 1]], None),
    ("r", {"I": [1], "x": [1.0], "t": -1.0}, [[1, 0], [0, 1]], "t is negative"),
    ("principally-nondegenerate", {"support": [1]}, [[0, 1], [1, 1]], None),
    ("principally-nondegenerate", {"support": [1]}, [[1, 1], [1, 1]],
     "det A_SS = 1.000e+00 is not at the zero level"),
    ("semimonotone", {"I": [1]}, [[-1, 0], [0, 1]], "certificate has no witness"),
])
def test_each_witness_condition_can_fail(prop, cert, A, error):
    assert witness_error(prop, cert, np.array(A, dtype=float)) == error


def test_realization_outside_the_box_is_rejected(crossval):
    workload, codes, reports = crossval
    k = next(i for i, c in enumerate(codes) if c == 1)
    report = json.loads(json.dumps(reports[k]))
    box = workload.boxes[k]
    v = next(v for v in report["properties"] if not v["holds"])
    v["certificate"]["realization"][0][0] = float(box.upper[0, 0]) + 1e-6
    errors = check_report(box, report, codes[k], workload)
    assert errors == [f"{v['property']}: realization outside the box"]


def test_strongly_h_box_with_a_false_verdict_is_rejected(general):
    workload, codes, reports = general
    report = json.loads(json.dumps(reports[0]))
    report["properties"][2]["holds"] = False
    errors = check_report(workload.boxes[0], report, 1, workload)
    assert "a strongly H box with a positive diagonal has a False verdict" in errors


def test_exit_code_must_match_the_verdicts(general):
    workload, codes, reports = general
    assert check_report(workload.boxes[0], reports[0], 1, workload) == [
        "exit code 1 but all_hold=True"]


def test_contradicting_cross_validation_is_rejected(crossval):
    workload, codes, reports = crossval
    report = json.loads(json.dumps(reports[0]))
    report["oracle"]["entries"][0]["status"] = "contradiction"
    errors = check_report(workload.boxes[0], report, codes[0], workload)
    assert errors == [f"{PROPERTIES[0]}: cross-validation contradicts the verdict"]


@pytest.mark.parametrize("name,count", [
    ("crossval-3x3", 40), ("general-n5to7", 2), ("sampled-4x4", 4)])
def test_tracing_changes_no_output(name, count, tmp_path):
    workload = _small(name, count)
    paths = write_inputs(workload, tmp_path)
    _t, codes, texts = run.run_pass(cli, workload, paths)
    tracer = Tracer()
    tracer.install()
    try:
        _t, traced_codes, traced_texts = run.run_pass(cli, workload, paths)
    finally:
        tracer.uninstall()
    assert traced_codes == codes
    assert ([run._ELAPSED.sub("", t) for t in traced_texts]
            == [run._ELAPSED.sub("", t) for t in texts])
    metrics = tracer.metrics()
    assert list(metrics) == [name for name, _u, _b in PER_LAYER]
    verdicts = sum(len(json.loads(t)["properties"]) for t in texts)
    assert metrics["strong.verdicts"] == verdicts
    assert (metrics["strong.fast_verdicts"] + metrics["strong.general_verdicts"]
            == verdicts)
    negatives = sum(not v["holds"] for t in texts
                    for v in json.loads(t)["properties"])
    assert metrics["strong.verify_certificate.calls"] == negatives
    if workload.oracle_budget is None:
        assert metrics["oracle.falsify.calls"] == 0
    else:
        samples = sum(e["samples"] for t in texts
                      for e in json.loads(t)["oracle"]["entries"])
        assert metrics["oracle.realizations"] == samples


def test_tracer_replaces_every_binding_and_restores_it():
    import lcpbox.cli  # noqa: F401

    modules = [m for n, m in sys.modules.items() if n.startswith("lcpbox")]
    originals = {id(getattr(sys.modules[mod], fn))
                 for mod, fn, _name in TIMED + COUNTED}
    before = {(m.__name__, a) for m in modules for a, v in vars(m).items()
              if id(v) in originals}
    assert ("lcpbox.strong", "solve_feasibility") in before
    assert ("lcpbox.pointclasses", "solve_feasibility") in before
    tracer = Tracer()
    tracer.install()
    try:
        assert not [a for m in modules for a, v in vars(m).items()
                    if id(v) in originals]
    finally:
        tracer.uninstall()
    after = {(m.__name__, a) for m in modules for a, v in vars(m).items()
             if id(v) in originals}
    assert after == before


def test_benchmark_json_lists_the_tracer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == {
        "crossval-3x3", "general-n5to7", "sampled-4x4"}


def test_metrics_of_a_short_run(tmp_path):
    workload = _small("general-n5to7", 3)
    paths = write_inputs(workload, tmp_path)
    passes, failed, errors = run.measure(cli, workload, paths, seconds=0.0)
    assert (len(passes), failed, errors) == (1, 0, [])
    metrics = run.end_to_end(passes, len(paths), setup_s=0.5)
    assert list(metrics) == ["setup_s", "boxes_per_s", "box_ms_p50",
                             "box_ms_p90", "peak_rss_mb"]
    assert all(value > 0 for value, _unit in metrics.values())


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in ("crossval-3x3", "general-n5to7", "sampled-4x4"):
        a, b, c = (make_workload(name, s).boxes for s in (5, 5, 6))
        assert all(np.array_equal(x.midpoint, y.midpoint) for x, y in zip(a, b))
        assert not all(np.array_equal(x.midpoint, y.midpoint) for x, y in zip(a, c))
        assert len(a) >= 100


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crossval-3x3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
