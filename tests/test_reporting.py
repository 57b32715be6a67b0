import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from heatkato.reporting import CheckResult, _jsonable, worst_of


@dataclass
class _Leaf:
    x: float
    pair: tuple


@dataclass
class _Record:
    n: object
    leaf: _Leaf
    rows: list
    table: dict


def test_a_record_serializes_field_by_field():
    rec = _Record(
        np.int64(3),
        _Leaf(math.nan, (math.inf, -math.inf)),
        [_Leaf(np.float64(0.5), ())],
        {"norms": np.array([1.0, 2.0])},
    )
    got = _jsonable(rec)
    assert got == _jsonable(asdict(rec))
    assert got == {
        "n": 3,
        "leaf": {"x": "nan", "pair": ["inf", "-inf"]},
        "rows": [{"x": 0.5, "pair": []}],
        "table": {"norms": [1.0, 2.0]},
    }
    json.dumps(got, allow_nan=False)


def test_check_result_dict_carries_the_record_and_a_verdict():
    rec = _Leaf(np.float64(0.25), (1, 2))
    d = CheckResult(np.True_, 0.5, 0.0, rec, series={"s": {"columns": [], "rows": []}}, name="x").to_dict()
    assert d["values"] == {"x": 0.25, "pair": [1, 2]} and d["verdict"] == "PASS"
    assert "series" not in d and "passed" not in d
    assert CheckResult(False, -math.inf, 0.0).verdict == "FAIL"


def test_worst_of_reduces_in_order_and_names_a_nan():
    assert worst_of(max, 0.0, {"a": [1.0, 3.0], "b": iter([2.0])}) == (3.0, None)
    assert worst_of(min, math.inf, {}) == (math.inf, None)
    assert max([0.0, math.nan, 1.0]) == 1.0  # what the builtin alone gives
    value, reason = worst_of(max, 0.0, {"a": [1.0], "b": [2.0, np.float64("nan")]})
    assert math.isnan(value) and reason == "b is NaN"
