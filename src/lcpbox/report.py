"""Report assembly, JSON serialization and schema validation.

Certificates serialize with 1-based index sets so reports read naturally;
internally everything stays 0-based. Serialization is lossless for floats
(shortest round-trip repr via the json module), so a report round-trips
bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .intervals import IntervalMatrix
from .strong import (
    ALL_STRONG_PROPERTIES,
    CheckConfig,
    PropertyVerdict,
    check_property,
)

__all__ = [
    "Report",
    "box_digest",
    "run_checks",
    "report_to_dict",
    "report_to_json",
    "report_from_json",
    "validate_report",
    "SCHEMA_ID",
]

SCHEMA_ID = "lcpbox-report/1"

# Certificate keys holding 0-based index data, converted to 1-based on
# serialization.
_INDEX_SET_KEYS = ("I", "J", "support", "basis")
_INDEX_SCALAR_KEYS = ("strict_row",)
_INDEX_PAIR_KEYS = ("entry",)


@dataclass
class Report:
    """Verdicts for one box plus the configuration that produced them."""

    n: int
    digest: str
    lower: np.ndarray
    upper: np.ndarray
    verdicts: list[PropertyVerdict]
    config: dict
    elapsed: float
    oracle: dict | None = None

    @property
    def all_hold(self) -> bool:
        return all(v.holds for v in self.verdicts)


def box_digest(box: IntervalMatrix) -> str:
    payload = json.dumps(
        {"lower": box.lower.tolist(), "upper": box.upper.tolist()},
        separators=(",", ":"),
    ).encode()
    return hashlib.sha256(payload).hexdigest()


def run_checks(box: IntervalMatrix, properties=None,
               config: CheckConfig | None = None) -> Report:
    """Run the requested strong checks and assemble a report."""
    config = config if config is not None else CheckConfig()
    tokens = tuple(properties) if properties is not None else ALL_STRONG_PROPERTIES
    t0 = time.perf_counter()
    verdicts = [check_property(box, token, config) for token in tokens]
    return Report(
        n=box.n,
        digest=box_digest(box),
        lower=box.lower.copy(),
        upper=box.upper.copy(),
        verdicts=verdicts,
        config=asdict(config),
        elapsed=time.perf_counter() - t0,
    )


def _serialize_value(key: str, value):
    if key in _INDEX_SET_KEYS:
        return [int(i) + 1 for i in value]
    if key in _INDEX_SCALAR_KEYS:
        return None if value is None else int(value) + 1
    if key in _INDEX_PAIR_KEYS:
        return [int(value[0]) + 1, int(value[1]) + 1]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _serialize_certificate(cert: dict | None) -> dict | None:
    if cert is None:
        return None
    return {k: _serialize_value(k, v) for k, v in sorted(cert.items())}


def _verdict_dict(v: PropertyVerdict) -> dict:
    return {
        "property": v.property,
        "holds": v.holds,
        "method": v.method,
        "boundary": v.boundary,
        "notes": list(v.notes),
        "elapsed": v.elapsed,
        "certificate": _serialize_certificate(v.certificate),
    }


def report_to_dict(report: Report) -> dict:
    return {
        "schema": SCHEMA_ID,
        "input": {
            "n": report.n,
            "digest": report.digest,
            "lower": np.asarray(report.lower).tolist(),
            "upper": np.asarray(report.upper).tolist(),
        },
        "config": report.config,
        "properties": [_verdict_dict(v) for v in report.verdicts],
        "oracle": report.oracle,
        "elapsed": report.elapsed,
    }


def report_to_json(report: Report) -> str:
    return json.dumps(report_to_dict(report), indent=2)


def report_from_json(text: str) -> dict:
    data = json.loads(text)
    validate_report(data)
    return data


def _fail(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"report schema violation: {message}")


def validate_report(data: dict) -> None:
    """Structural validation against the published report shape."""
    _fail(isinstance(data, dict), "top level must be an object")
    _fail(data.get("schema") == SCHEMA_ID, f"schema must be {SCHEMA_ID!r}")
    inp = data.get("input")
    _fail(isinstance(inp, dict), "input section missing")
    _fail(isinstance(inp.get("n"), int) and inp["n"] >= 1, "input.n must be a positive int")
    for key in ("lower", "upper"):
        mat = inp.get(key)
        _fail(isinstance(mat, list) and len(mat) == inp["n"], f"input.{key} must be n rows")
        _fail(all(isinstance(row, list) and len(row) == inp["n"] for row in mat),
              f"input.{key} rows must have n entries")
    _fail(isinstance(inp.get("digest"), str), "input.digest must be a string")
    _fail(isinstance(data.get("config"), dict), "config section missing")
    props = data.get("properties")
    _fail(isinstance(props, list), "properties must be a list")
    for p in props:
        _fail(isinstance(p, dict), "each property entry must be an object")
        for key, typ in (("property", str), ("holds", bool), ("method", str),
                         ("boundary", bool), ("elapsed", float)):
            _fail(isinstance(p.get(key), typ), f"property field {key} has wrong type")
        _fail(isinstance(p.get("notes"), list), "property notes must be a list")
        cert = p.get("certificate")
        _fail(cert is None or isinstance(cert, dict), "certificate must be object or null")
        if not p["holds"]:
            _fail(cert is not None, "failed property must carry a certificate")
    _fail(data.get("oracle") is None or isinstance(data["oracle"], dict),
          "oracle section must be object or null")
    _fail(isinstance(data.get("elapsed"), float), "elapsed must be a float")
