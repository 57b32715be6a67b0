"""Structured check results, the one verdict rule and deterministic JSON
reports.  Every PASS/FAIL is ``judge``'s over named (margin, tolerance)
criteria, so a verdict always equals margin_min >= -tolerance; a margin that
already nets out its allowance (kernel-check's residuals, coulomb's relative
error) takes tolerance 0."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
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


def judge(criteria: dict) -> tuple[bool, float, float, str | None]:
    """The verdict of named criteria, name -> (margin, tolerance), each
    holding when margin >= -tolerance: (passed, margin, tolerance, None) of
    the binding criterion, the one with the least slack margin + tolerance.
    A NaN slack binds and fails with "<name> is NaN"; no criteria is a PASS
    at margin inf and tolerance 0."""
    margin, tolerance = math.inf, 0.0
    for name, (m, tol) in criteria.items():
        if math.isnan(m + tol):
            return False, m, tol, f"{name} is NaN"
        if m + tol < margin + tolerance:
            margin, tolerance = m, tol
    return margin >= -tolerance, margin, tolerance, None


class Judged:
    """A layer record whose ``criteria`` property decides ``passed`` by ``judge``."""

    passed = property(lambda self: judge(self.criteria)[0])


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
    """One check's outcome.  A runner gives the criteria and the four fields
    after them, ``cli.run_check`` the name, inequality and runtime; passed,
    margin_min, tolerance and a NaN reason for a record without reasons are
    ``judge``'s."""

    criteria: dict = field(default_factory=dict)  # name -> (margin, tolerance)
    values: object = field(default_factory=dict)  # a report record or a dict
    sweep: dict = field(default_factory=dict)
    empirical_constants: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)  # name -> {"columns": [...], "rows": [[...]]}
    name: str = ""
    inequality: str = ""  # the inequality being tested, verbatim
    runtime_s: float = 0.0
    passed: bool = field(init=False)
    margin_min: float = field(init=False)
    tolerance: float = field(init=False)

    def __post_init__(self):
        self.passed, self.margin_min, self.tolerance, reason = judge(self.criteria)
        values = self.values
        if reason and not (values.get("reasons") if isinstance(values, dict) else getattr(values, "reasons", None)):
            self.values = {**(values if isinstance(values, dict) else asdict(values)), "reasons": [reason]}

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("passed", "series", "criteria")}
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
