"""Golden reports: the canonical JSON of fixed runs must not change.

Each file under ``tests/golden/`` holds ``reporting.canonical_json`` of one
report at seed 0: every entry of the three built-in batteries, the two
checks that no battery runs, and one case per model the batteries leave
out or touch only in part.  A refactor that keeps verdicts, margins and
values bit-identical leaves these files untouched.  To regenerate after an
intended change, run ``python tests/test_golden_reports.py [case ...]``; with
no case named it rewrites them all, and it prints every JSON path that moved
in the files it rewrites.  A mismatch lists the same paths, with their old and
new values, so the change can be reported field by field.
"""

import json
import sys
from pathlib import Path

import pytest

from heatkato import cli
from heatkato.reporting import canonical_json

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    f"{battery}-{i}": (entry["manifold"], entry["checks"], entry.get("params", {}))
    for battery, entries in cli.BATTERIES.items()
    for i, entry in enumerate(entries)
}
CASES["kato-norm-euclidean3"] = ("euclidean:3", ["kato-norm"], {})
CASES["holder-check-torus2"] = ("torus:2:6.2832", ["holder-check"], {})
# the default windowed potential's norm on a non-compact radial model's y-grid
CASES["holder-check-euclidean3"] = ("euclidean:3", ["holder-check"], {})
# one case per model class the batteries leave out or touch only in part
CASES["sphere2"] = (
    "sphere2",
    ["kernel-check", "holder-check", "heat-bound", "kato-exponential"],
    {"kato-exponential": {"n_paths": "500"}},
)
CASES["hyperbolic3"] = (
    "hyperbolic3",
    ["kernel-check", "kato-norm", "holder-check", "kato-exponential"],
    {"kato-exponential": {"n_paths": "500"}},
)
CASES["kernel-check-torus2"] = ("torus:2:6.2832", ["kernel-check"], {})
CASES["product-euclidean1-circle"] = ("product(euclidean:1,circle)", ["kernel-check", "control-pair"], {})


def _report(case: str) -> str:
    manifold, checks, params = CASES[case]
    manifest = cli.ExperimentManifest(
        manifold=manifold, checks=list(checks), params={k: dict(v) for k, v in params.items()}
    )
    return canonical_json(cli.run_manifest(manifest))


def _moved(old, new, path=""):
    """One line per JSON path whose value differs: old -> new, with the
    relative change of numbers."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = sorted(set(old) | set(new))
        return [line for k in keys for line in _moved(old.get(k), new.get(k), f"{path}.{k}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [line for i, (a, b) in enumerate(zip(old, new)) for line in _moved(a, b, f"{path}[{i}]")]
    if old == new and type(old) is type(new):
        return []
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    rel = f" (relative {(new - old) / abs(old):+.3g})" if numbers and old else ""
    return [f"{path or '.'}: {old!r} -> {new!r}{rel}"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case):
    got, want = _report(case), (GOLDEN / f"{case}.json").read_text()
    moved = "" if got == want else "\n".join(_moved(json.loads(want), json.loads(got))) or "formatting only"
    assert got == want, f"{case}.json moved:\n{moved}"


def test_every_golden_file_has_a_case():
    # an orphaned file would silently stop being checked
    assert sorted(p.stem for p in GOLDEN.iterdir()) == sorted(CASES)


if __name__ == "__main__":
    cases = sys.argv[1:] or sorted(CASES)
    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases {unknown}; the cases are {sorted(CASES)}")
    GOLDEN.mkdir(exist_ok=True)
    for case in cases:
        path, got = GOLDEN / f"{case}.json", _report(case)
        if path.exists() and path.read_text() != got:
            print(f"{case}.json moved:")
            for line in _moved(json.loads(path.read_text()), json.loads(got)) or ["formatting only"]:
                print(f"  {line}")
        path.write_text(got)
