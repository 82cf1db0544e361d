"""Benchmark of ``lcpbox check`` on seeded interval-box workloads.

    python3 perfbench/run.py --workload crossval-3x3 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the benchmark imports lcpbox from
``src/`` there and nowhere else. It writes the workload's boxes as input
files, then repeats timed passes over them in this one process, one box at
a time through ``lcpbox.cli.run_cli(["check", "--file", ...])``, until
another pass would overrun ``--seconds``. Each pass's outputs go through
the independent checks in ``checks.py``.

With ``--trace 0`` it reports the end-to-end metrics: set-up time, boxes
per second of the median pass, the median and 90th percentile of per-box
time (each box's median over the passes) and peak resident memory. With
``--trace 1`` it wraps lcpbox's layers (``tracer.py``) and reports the
per-layer metrics of the median pass instead. The last line of standard
output is one JSON object: ``correct``, ``attempted`` (boxes times
passes), ``failed`` (exit code 2 or 3, or an exception) and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import check_report  # noqa: E402
from tracer import UNITS, Tracer  # noqa: E402
from workloads import WORKLOAD_NAMES, make_workload, write_inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
_ELAPSED = re.compile(r'"elapsed": [-+0-9.eE]+')


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat") as f:
        ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")


def import_lcpbox():
    """Import lcpbox from this checkout's ``src/``, or exit with an error."""
    src = ROOT / "src"
    if not (src / "lcpbox" / "__init__.py").is_file():
        sys.exit(f"error: no lcpbox sources under {src}")
    sys.path.insert(0, str(src))
    from lcpbox import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: lcpbox was imported from {cli.__file__}, not {src}")
    return cli


def run_pass(cli, workload, paths):
    """One timed pass: per-box seconds, exit codes and report texts."""
    times, codes, texts = [], [], []
    for path in paths:
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            code = cli.run_cli(workload.cli_args(path), out=out)
        except Exception as exc:  # an engine fault counts as a failed box
            print(f"error: {path.name}: {exc!r}", file=sys.stderr)
            code = None
        times.append(time.perf_counter() - t0)
        codes.append(code)
        texts.append(out.getvalue())
    return times, codes, texts


def check_pass(workload, codes, texts, first):
    """Failed boxes and check errors of one pass. Later passes must repeat
    the first pass's outputs apart from the elapsed times."""
    failed, errors = 0, []
    for k, (box, code, text) in enumerate(zip(workload.boxes, codes, texts)):
        if code not in (0, 1):
            failed += 1
            continue
        if first is not None:
            if _ELAPSED.sub("", text) != _ELAPSED.sub("", first[k]):
                errors.append(f"box {k}: output differs from the first pass")
            continue
        errors += [f"box {k}: {e}"
                   for e in check_report(box, json.loads(text), code, workload)]
    return failed, errors


def measure(cli, workload, paths, seconds, tracer=None):
    """Whole passes until another would overrun ``seconds``; returns the
    per-pass records and the totals."""
    passes, failed, errors, first = [], 0, [], None
    t_start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        times, codes, texts = run_pass(cli, workload, paths)
        wall = time.perf_counter() - t0
        layers = tracer.metrics() if tracer is not None else None
        f, e = check_pass(workload, codes, texts, first)
        failed, errors = failed + f, errors + e
        first = first or texts
        passes.append({"wall": wall, "times": times, "layers": layers})
        elapsed = time.perf_counter() - t_start
        if elapsed + max(p["wall"] for p in passes) > seconds:
            return passes, failed, errors


def end_to_end(passes, n_boxes, setup_s):
    walls = [p["wall"] for p in passes]
    per_box = [statistics.median(ts) for ts in zip(*(p["times"] for p in passes))]
    p50, p90 = (statistics.quantiles(per_box, n=10, method="inclusive")[i]
                for i in (4, 8))
    return {
        "setup_s": (setup_s, "s"),
        "boxes_per_s": (n_boxes / statistics.median(walls), "1/s"),
        "box_ms_p50": (1e3 * p50, "ms"),
        "box_ms_p90": (1e3 * p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(passes):
    """Each per-layer metric's median over the passes."""
    names = passes[0]["layers"].keys()
    return {name: (statistics.median(p["layers"][name] for p in passes), UNITS[name])
            for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_lcpbox()
    workload = make_workload(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        paths = write_inputs(workload, scratch)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        setup_s = process_age()
        passes, failed, errors = measure(cli, workload, paths, args.seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    n_boxes = len(workload.boxes)
    metrics = (per_layer(passes) if tracer is not None
               else end_to_end(passes, n_boxes, setup_s))
    for e in errors[:20]:
        print(f"check failed: {e}")
    walls = ", ".join(f"{p['wall']:.3f}" for p in passes)
    print(f"{args.workload} seed={args.seed}: {n_boxes} boxes x {len(passes)} "
          f"passes, pass walls {walls} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": n_boxes * len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
    if tracer is not None:
        (OUT_DIR / f"trace-{tag}.json").write_text(json.dumps(
            {"spans": tracer.span_table(), "counters": dict(tracer.counters)},
            indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
