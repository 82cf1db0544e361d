"""Per-layer tracing of lcpbox from outside the program.

:class:`Tracer` replaces each traced public function with a timing
wrapper under every name that binds it in any loaded ``lcpbox`` module
(``strong`` and ``pointclasses``, for example, each import their own
``solve_feasibility``). A wrapper records a span: its name, its duration
and the name of the enclosing span. Spans are aggregated in memory per
(name, parent) pair into calls, total time and self time, where self time
is the duration minus the time covered by child spans. Enumeration
generators are counted per item yielded instead of timed, because their
work interleaves with the caller's.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

from workloads import PROPERTIES

# (name, unit, better) of every per-layer metric. ``.calls`` counts a
# span's calls, ``.self_s`` sums its self time and ``.s`` its total time;
# the other counts are read off arguments, results or generators.
PER_LAYER = (
    ("lp.solve_feasibility.calls", "count", "lower"),
    ("lp.solve_feasibility.self_s", "s", "lower"),
    ("lp.solve_feasibility.us_per_call", "us", "lower"),
    ("lp.feasible_positive_strict.calls", "count", "lower"),
    ("lp.feasible_positive_strict.self_s", "s", "lower"),
    ("lp.lps_per_strict_system", "LPs/call", "lower"),
    ("linalg.batch_det_signs.matrices", "count", "lower"),
    ("linalg.batch_det_signs.self_s", "s", "lower"),
    ("linalg.minor_sign.calls", "count", "lower"),
    ("linalg.minor_sign.self_s", "s", "lower"),
    ("pointclasses.point_check.calls", "count", "lower"),
    ("pointclasses.point_check.self_s", "s", "lower"),
    ("linalg.batch_minor_signs.matrices", "count", "lower"),
    ("linalg.batch_minor_signs.self_s", "s", "lower"),
    ("linalg.spectral_radius_nonneg.calls", "count", "lower"),
    ("linalg.spectral_radius_nonneg.self_s", "s", "lower"),
    ("oracle.falsify.calls", "count", "lower"),
    ("oracle.falsify.self_s", "s", "lower"),
    ("oracle.realizations", "count", "higher"),
    ("oracle.realizations_per_s", "1/s", "higher"),
    ("oracle.counterexamples", "count", "higher"),
    ("strong.verdicts", "count", "higher"),
) + tuple((f"strong.{token}.s", "s", "lower") for token in PROPERTIES) + (
    ("strong.verify_certificate.calls", "count", "lower"),
    ("strong.verify_certificate.s", "s", "lower"),
    ("strong.fast_verdicts", "count", "higher"),
    ("strong.general_verdicts", "count", "lower"),
    ("intervals.subsets", "count", "lower"),
    ("intervals.index_pairs", "count", "lower"),
    ("intervals.sign_vectors", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("io.parse_matrix_file.s", "s", "lower"),
    ("report.run_checks.self_s", "s", "lower"),
    ("report.report_to_json.s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _better in PER_LAYER}

# (module, function, span name) of every timed function. ``check_property``
# spans are named per property token, see ``_span_name``.
TIMED = (
    ("lcpbox.cli", "run_cli", "cli"),
    ("lcpbox.io", "parse_matrix_file", "io.parse_matrix_file"),
    ("lcpbox.report", "run_checks", "report.run_checks"),
    ("lcpbox.report", "report_to_json", "report.report_to_json"),
    ("lcpbox.strong", "check_property", None),
    ("lcpbox.strong", "verify_certificate", "strong.verify_certificate"),
    ("lcpbox.pointclasses", "point_check", "pointclasses.point_check"),
    ("lcpbox.oracle", "falsify", "oracle.falsify"),
    ("lcpbox.lp", "solve_feasibility", "lp.solve_feasibility"),
    ("lcpbox.lp", "feasible_positive_strict", "lp.feasible_positive_strict"),
    ("lcpbox.linalg", "minor_sign", "linalg.minor_sign"),
    ("lcpbox.linalg", "batch_minor_signs", "linalg.batch_minor_signs"),
    ("lcpbox.linalg", "batch_det_signs", "linalg.batch_det_signs"),
    ("lcpbox.linalg", "spectral_radius_nonneg", "linalg.spectral_radius_nonneg"),
)

# (module, generator, counter name) of every counted enumeration.
COUNTED = (
    ("lcpbox.intervals", "nonempty_subsets", "intervals.subsets"),
    ("lcpbox.intervals", "disjoint_index_pairs", "intervals.index_pairs"),
    ("lcpbox.intervals", "sign_vectors", "intervals.sign_vectors"),
)


class Tracer:
    """Installs the wrappers, aggregates spans and counters, and restores
    the original functions on :meth:`uninstall`."""

    def __init__(self):
        self._stack: list[list] = []  # [span name, time covered by children]
        self._replaced: list[tuple[dict, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # (name, parent) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counters: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def _timed(self, fn, name):
        def wrapper(*args, **kwargs):
            frame = [name or _span_name(args, kwargs), 0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, perf_counter() - t0)
            self._observe(frame[0], args, result)
            return result
        return wrapper

    def _close(self, frame: list, dt: float) -> None:
        """Pop the innermost span, charge its duration to its parent and
        aggregate it under (name, parent name)."""
        self._stack.pop()
        parent = None
        if self._stack:
            self._stack[-1][1] += dt
            parent = self._stack[-1][0]
        rec = self.spans.get((frame[0], parent))
        if rec is None:
            rec = self.spans[(frame[0], parent)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[1]

    def _counted(self, fn, name):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counters[name] += 1
                yield item
        return wrapper

    def _observe(self, name: str, args, result) -> None:
        """Counters read off a traced call's arguments or result."""
        if name == "oracle.falsify":
            self.counters["oracle.realizations"] += result.samples
            self.counters["oracle.counterexamples"] += int(result.found)
        elif name in ("linalg.batch_minor_signs", "linalg.batch_det_signs"):
            self.counters[name + ".matrices"] += len(args[0])
        elif name.startswith("strong.") and name != "strong.verify_certificate":
            self.counters["strong.verdicts"] += 1
            kind = result.method.split(":", 1)[0]
            self.counters[f"strong.{kind}_verdicts"] += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import lcpbox.cli  # noqa: F401  (loads every module that is traced)

        modules = [m for name, m in sys.modules.items()
                   if name == "lcpbox" or name.startswith("lcpbox.")]
        targets = [(mod, fn, name, self._timed) for mod, fn, name in TIMED]
        targets += [(mod, fn, name, self._counted) for mod, fn, name in COUNTED]
        for mod, fn, name, make in targets:
            original = getattr(sys.modules[mod], fn)
            wrapper = make(original, name)
            for module in modules:
                namespace = vars(module)
                for attr, value in list(namespace.items()):
                    if value is original:
                        self._replaced.append((namespace, attr, original))
                        namespace[attr] = wrapper

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._replaced):
            namespace[attr] = original
        self._replaced.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything recorded since :meth:`reset`,
        in the order of :data:`PER_LAYER`."""
        calls, total, own = Counter(), Counter(), Counter()
        for (name, _parent), (c, t, s) in self.spans.items():
            calls[name] += c
            total[name] += t
            own[name] += s
        count = self.counters

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "lp.solve_feasibility.us_per_call": 1e6 * ratio(
                total["lp.solve_feasibility"], calls["lp.solve_feasibility"]),
            "lp.lps_per_strict_system": ratio(
                self.spans.get(("lp.solve_feasibility",
                                "lp.feasible_positive_strict"), [0])[0],
                calls["lp.feasible_positive_strict"]),
            "oracle.realizations_per_s": ratio(count["oracle.realizations"],
                                               total["oracle.falsify"]),
        }
        for name, _unit, _better in PER_LAYER:
            if name in out:
                continue
            layer, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls[layer]
            elif kind == "self_s":
                out[name] = own[layer]
            elif kind == "s":
                out[name] = total[layer]
            else:
                out[name] = count[name]
        return {name: out[name] for name, _unit, _better in PER_LAYER}

    def span_table(self) -> list[dict]:
        """The aggregated spans, for the trace file."""
        return [{"name": name, "parent": parent, "calls": c,
                 "total_s": t, "self_s": s}
                for (name, parent), (c, t, s) in sorted(
                    self.spans.items(), key=lambda kv: -kv[1][1])]


def _span_name(args, kwargs) -> str:
    """``strong.<token>`` for ``check_property(box, prop, config)``."""
    prop = args[1] if len(args) > 1 else kwargs["prop"]
    return f"strong.{prop}"
