"""Command-line front end.

Subcommands: ``check`` (strong properties of a box), ``falsify`` (sample
realizations against one property), ``lcp`` (enumerate complementary
solutions), ``qp2lcp`` (convert a QP and check the induced box), ``sweep``
(re-check across radius scales).

Exit codes: 0 all requested strong properties hold; 1 at least one fails
(or the falsifier found a counterexample); 2 usage or input error;
3 enumeration cap exceeded / engine failure (including a certificate that
failed re-verification).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

import numpy as np

from .errors import (
    CertificateVerificationError,
    DimensionCapError,
    FastPathUnavailableError,
)
from .intervals import IntervalMatrix, degenerate, from_midpoint_radius
from .io import ParseError, parse_matrix_file
from .jsontext import dumps
from .lcp import LcpInstance, QpInstance, enumerate_lcp_solutions, qp_to_interval_lcp, qp_to_lcp
from .lp import LpEngineError
from .oracle import cross_validate, falsify
from .pointclasses import PointProperty
from .report import Report, report_to_dict, report_to_json, run_checks
from .strong import ALL_STRONG_PROPERTIES, DEFAULT_CHECK_PROPERTIES, CheckConfig
from .tolerances import RHO_TOL

__all__ = ["main", "run_cli"]

_TOL_ENV = "LCPBOX_TOL"


def _budget(text: str) -> int:
    """A realization budget: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: its defaults are static, and
    ``$LCPBOX_TOL`` is read when a command runs, not here."""
    parser = argparse.ArgumentParser(
        prog="lcpbox",
        description="Robust matrix-class certification for interval matrices "
                    "in linear complementarity problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--file", required=True, help="input JSON file")
        p.add_argument("--format", choices=("json", "text"), default="text")

    def add_check_options(p):
        p.add_argument(
            "--properties",
            help="comma-separated property tokens (default: "
                 + ",".join(DEFAULT_CHECK_PROPERTIES) + ")",
        )
        p.add_argument("--fast-paths", choices=("auto", "off", "only"),
                       default="auto")
        p.add_argument("--tol", type=float, default=None,
                       help="spectral threshold tolerance (default from "
                            f"${_TOL_ENV} or {RHO_TOL})")
        p.add_argument("--cap", type=int, default=None,
                       help="dimension cap of every exponential enumeration "
                            "(default: each enumeration's own cap)")
        p.add_argument("--oracle-budget", type=_budget, default=None,
                       help="also cross-validate verdicts with the falsifier")
        p.add_argument("--seed", type=int, default=0)

    p_check = sub.add_parser("check", help="check strong properties of a box")
    add_common(p_check)
    add_check_options(p_check)

    p_falsify = sub.add_parser("falsify", help="search for a counterexample")
    add_common(p_falsify)
    p_falsify.add_argument("--property", required=True)
    p_falsify.add_argument("--budget", type=_budget, default=1000)
    p_falsify.add_argument("--seed", type=int, default=0)

    p_lcp = sub.add_parser("lcp", help="enumerate complementary solutions")
    add_common(p_lcp)
    p_lcp.add_argument("--q", required=True,
                       help='right-hand side, e.g. "10,9,1,1" '
                            '(use --q=-1,-1 for negative leading values)')

    p_qp = sub.add_parser("qp2lcp", help="convert a QP and check the box")
    add_common(p_qp)
    p_qp.add_argument("--radb-scale", type=float, default=None,
                      help="radius of B as a fraction of |B|")
    p_qp.add_argument("--radc-scale", type=float, default=None,
                      help="radius of C as a fraction of |C|")
    add_check_options(p_qp)

    p_sweep = sub.add_parser("sweep", help="re-check across radius scales")
    add_common(p_sweep)
    p_sweep.add_argument("--scales", required=True,
                         help='comma-separated factors, e.g. "0.05,0.10,0.15"')
    add_check_options(p_sweep)

    return parser


def _default_tol(args) -> float:
    if getattr(args, "tol", None) is not None:
        return args.tol
    env = os.environ.get(_TOL_ENV)
    if env is not None:
        try:
            return float(env)
        except ValueError as exc:
            raise ParseError(f"${_TOL_ENV} is not a number: {env!r}") from exc
    return RHO_TOL


def _config_from_args(args) -> CheckConfig:
    return CheckConfig(rho_tol=_default_tol(args), fast_paths=args.fast_paths,
                       cap=args.cap)


def _properties_from_args(args) -> tuple[str, ...]:
    if args.properties:
        tokens = tuple(t.strip() for t in args.properties.split(",") if t.strip())
        if not tokens:
            raise ParseError("--properties lists no property token")
        for t in tokens:
            if t not in ALL_STRONG_PROPERTIES:
                raise ParseError(
                    f"unknown property token {t!r}; choose from "
                    + ", ".join(ALL_STRONG_PROPERTIES)
                )
        return tokens
    return DEFAULT_CHECK_PROPERTIES


def _as_box(parsed) -> IntervalMatrix:
    if isinstance(parsed, IntervalMatrix):
        return parsed
    if isinstance(parsed, np.ndarray):
        return degenerate(parsed)
    raise ParseError("this subcommand needs a matrix or interval-matrix file")


def _print_report_text(report: Report, out) -> None:
    print(f"box: n={report.n}  digest={report.digest[:16]}...", file=out)
    width = max(len(v.property) for v in report.verdicts)
    for v in report.verdicts:
        status = "holds " if v.holds else "FAILS "
        flags = " [boundary]" if v.boundary else ""
        print(f"  strong {v.property:<{width}}  {status} via {v.method}{flags}",
              file=out)
        for note in v.notes:
            print(f"    note: {note}", file=out)
        if not v.holds and v.certificate is not None:
            cert = v.certificate
            parts = []
            if "I" in cert:
                parts.append("I={" + ",".join(str(i + 1) for i in cert["I"]) + "}")
            if "J" in cert:
                parts.append("J={" + ",".join(str(j + 1) for j in cert["J"]) + "}")
            if "support" in cert:
                parts.append(
                    "support={" + ",".join(str(i + 1) for i in cert["support"]) + "}"
                )
            if "entry" in cert:
                i, j = cert["entry"]
                parts.append(f"entry=({i + 1},{j + 1})")
            if "x" in cert:
                parts.append("x=" + np.array2string(np.asarray(cert["x"]),
                                                    precision=6))
            if "t" in cert:
                parts.append(f"t={cert['t']:.6g}")
            if "rho" in cert:
                parts.append(f"rho={cert['rho']:.9g}")
            if parts:
                print("    certificate: " + "  ".join(parts), file=out)
    print(f"elapsed: {report.elapsed:.3f}s", file=out)


def _emit_report(report: Report, fmt: str, out) -> None:
    if fmt == "json":
        print(report_to_json(report), file=out)
    else:
        _print_report_text(report, out)


def _attach_oracle(report: Report, box: IntervalMatrix, args) -> None:
    if args.oracle_budget is not None:
        consistency = cross_validate(box, report.verdicts,
                                     budget=args.oracle_budget, seed=args.seed)
        report.oracle = {
            "budget": args.oracle_budget,
            "seed": args.seed,
            "entries": [
                {
                    "property": e.property,
                    "strong_holds": e.strong_holds,
                    "status": e.status,
                    "samples": e.samples,
                }
                for e in consistency.entries
            ],
            "consistent": consistency.consistent,
        }


def _cmd_check(args, out) -> int:
    config = _config_from_args(args)
    properties = _properties_from_args(args)
    box = _as_box(parse_matrix_file(args.file))
    report = run_checks(box, properties, config)
    _attach_oracle(report, box, args)
    _emit_report(report, args.format, out)
    return 0 if report.all_hold else 1


def _cmd_falsify(args, out) -> int:
    parsed = parse_matrix_file(args.file)
    box = _as_box(parsed)
    if args.property not in {p.value for p in PointProperty}:
        raise ParseError(f"unknown property token {args.property!r}")
    outcome = falsify(box, args.property, budget=args.budget, seed=args.seed)
    if args.format == "json":
        payload = {
            "property": args.property,
            "verdict": outcome.verdict,
            "samples": outcome.samples,
            "counterexample": None
            if outcome.counterexample is None
            else {
                "matrix": np.asarray(outcome.counterexample["matrix"]).tolist(),
                "kind": outcome.counterexample["kind"],
            },
        }
        print(dumps(payload), file=out)
    else:
        print(f"property {args.property}: {outcome.verdict} "
              f"({outcome.samples} realizations examined)", file=out)
        if outcome.counterexample is not None:
            print("counterexample realization:", file=out)
            print(np.array2string(np.asarray(outcome.counterexample["matrix"]),
                                  precision=6), file=out)
    return 1 if outcome.found else 0


def _cmd_lcp(args, out) -> int:
    parsed = parse_matrix_file(args.file)
    if isinstance(parsed, QpInstance):
        A = qp_to_lcp(parsed).A
    elif isinstance(parsed, IntervalMatrix):
        if not parsed.is_degenerate:
            raise ParseError("lcp needs a single matrix, not a proper box")
        A = parsed.midpoint
    else:
        A = parsed
    try:
        q = np.array([float(v) for v in args.q.split(",")])
    except ValueError as exc:
        raise ParseError(f"could not parse --q: {exc}") from exc
    enum = enumerate_lcp_solutions(LcpInstance(A, q))
    if args.format == "json":
        payload = {
            "solutions": [
                {
                    "z": sol.z.tolist(),
                    "y": sol.y.tolist(),
                    "basis": [i + 1 for i in sol.basis],
                }
                for sol in enum.solutions
            ],
            "singular_supports": [
                [i + 1 for i in S] for S in enum.singular_supports
            ],
        }
        print(dumps(payload), file=out)
    else:
        print(f"{len(enum.solutions)} solution(s) found", file=out)
        for sol in enum.solutions:
            basis = "{" + ",".join(str(i + 1) for i in sol.basis) + "}"
            print(f"  z={np.array2string(sol.z, precision=6)}  "
                  f"y={np.array2string(sol.y, precision=6)}  basis={basis}",
                  file=out)
        if enum.singular_supports:
            print(f"  ({len(enum.singular_supports)} singular support(s) skipped)",
                  file=out)
    return 0


def _cmd_qp2lcp(args, out) -> int:
    config = _config_from_args(args)
    properties = _properties_from_args(args)
    parsed = parse_matrix_file(args.file)
    if not isinstance(parsed, QpInstance):
        raise ParseError("qp2lcp needs a QP input file")
    rad_b = parsed.rad_b
    rad_c = parsed.rad_c
    if args.radb_scale is not None:
        rad_b = args.radb_scale * np.abs(parsed.B)
    if args.radc_scale is not None:
        rad_c = args.radc_scale * np.abs(parsed.C)
    box = qp_to_interval_lcp(parsed, rad_b, rad_c)
    report = run_checks(box, properties, config)
    _attach_oracle(report, box, args)
    if args.format == "text":
        print("converted matrix (midpoint):", file=out)
        print(np.array2string(box.midpoint, precision=6), file=out)
    _emit_report(report, args.format, out)
    return 0 if report.all_hold else 1


def _cmd_sweep(args, out) -> int:
    config = _config_from_args(args)
    properties = _properties_from_args(args)
    try:
        scales = [float(s) for s in args.scales.split(",") if s.strip()]
    except ValueError as exc:
        raise ParseError(f"could not parse --scales: {exc}") from exc
    if not scales:
        raise ParseError("--scales must list at least one factor")
    parsed = parse_matrix_file(args.file)
    rows = []
    worst = 0
    for scale in scales:
        if isinstance(parsed, QpInstance):
            box = qp_to_interval_lcp(parsed, scale * np.abs(parsed.B),
                                     scale * np.abs(parsed.C))
        else:
            base = parsed.midpoint if isinstance(parsed, IntervalMatrix) else parsed
            box = from_midpoint_radius(base, scale * np.abs(base))
        report = run_checks(box, properties, config)
        _attach_oracle(report, box, args)
        worst = max(worst, 0 if report.all_hold else 1)
        rows.append((scale, report))
    if args.format == "json":
        payload = [
            {"scale": scale, "report": report_to_dict(report)}
            for scale, report in rows
        ]
        print(dumps(payload), file=out)
    else:
        for scale, report in rows:
            holding = [v.property for v in report.verdicts if v.holds]
            print(f"scale {scale:g}: "
                  + (", ".join(holding) if holding else "(none hold)"), file=out)
    return worst


_COMMANDS = {
    "check": _cmd_check,
    "falsify": _cmd_falsify,
    "lcp": _cmd_lcp,
    "qp2lcp": _cmd_qp2lcp,
    "sweep": _cmd_sweep,
}


def run_cli(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args, out)
    except (DimensionCapError, FastPathUnavailableError, LpEngineError,
            CertificateVerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run_cli(argv)


if __name__ == "__main__":
    sys.exit(main())
