"""Structured check results and deterministic JSON reports."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import chain


def worst_of(reduce, start: float, quantities: dict) -> tuple[float, str | None]:
    """``reduce`` (the builtin max or min) over ``start`` and the values of
    each named quantity, in order: (the result, None).  The builtins skip a
    NaN that does not come first, so a NaN statistic could read as a pass;
    here a NaN in any quantity gives (nan, "<its name> is NaN")."""
    pools = {name: list(values) for name, values in quantities.items()}
    for name, values in pools.items():
        if any(v != v for v in values):
            return math.nan, f"{name} is NaN"
    return reduce([start, *chain.from_iterable(pools.values())]), None


def _jsonable(obj):
    """JSON-ready copy of a report value; a dataclass record becomes the dict
    of its fields, less a ``reasons`` field that holds none."""
    if is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)
                if f.name != "reasons" or getattr(obj, f.name)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if hasattr(obj, "tolist"):  # numpy scalars and arrays
        return _jsonable(obj.tolist())
    return obj


@dataclass
class CheckResult:
    """One check's outcome.  A runner decides the first seven fields;
    ``cli.run_check`` adds the name, the inequality and the runtime."""

    passed: bool
    margin_min: float
    tolerance: float
    values: object = field(default_factory=dict)  # a report record or a dict
    sweep: dict = field(default_factory=dict)
    empirical_constants: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)  # name -> {"columns": [...], "rows": [[...]]}
    name: str = ""
    inequality: str = ""  # the inequality being tested, verbatim
    runtime_s: float = 0.0

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("passed", "series")}
        return _jsonable({**d, "verdict": self.verdict})


@dataclass
class Report:
    manifest: dict
    tool_version: str
    seed: int
    timestamp: str
    checks: list

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self, include_volatile: bool = True) -> dict:
        d = {
            "manifest": _jsonable(self.manifest),
            "tool_version": self.tool_version,
            "seed": self.seed,
            "checks": [c.to_dict() for c in self.checks],
            "all_pass": self.all_pass,
        }
        if include_volatile:
            d["timestamp"] = self.timestamp
        else:
            for c in d["checks"]:
                c.pop("runtime_s", None)
        return d

    def to_json(self, include_volatile: bool = True) -> str:
        return json.dumps(self.to_dict(include_volatile), sort_keys=True, indent=2) + "\n"


def canonical_json(report: Report) -> str:
    """Deterministic serialization: timestamp and runtimes stripped."""
    return report.to_json(include_volatile=False)
