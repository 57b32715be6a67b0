"""Self-tests of the benchmark (not part of heatkato's test suite).

    python3 -m pytest -q bench/test_bench.py

Each smoke run uses ``--tiny`` sizes, so the whole file takes about two minutes.
"""

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = ("kato-closed", "paths-fk", "cli-batteries")

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))


def bench(workload, seed, trace, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_known_answers_hold_on_two_seeds(workload, seed):
    result = last_json(bench(workload, seed, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_reports_every_layer(workload):
    from tracer import PER_LAYER

    result = last_json(bench(workload, 5, 1))
    assert result["correct"], "traced and untraced digests differ, or a task failed"
    assert list(result["metrics"]) == [name for name, _ in PER_LAYER]


def test_wrappers_restore_module_attributes():
    from tracer import TARGETS, Tracer

    def originals():
        return [getattr(importlib.import_module(mod), attr) for _, mod, attr, _ in TARGETS]

    before = originals()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert all(a is not b for a, b in zip(originals(), before))
            raise RuntimeError("leave the block early")
    assert all(a is b for a, b in zip(originals(), before))


def test_spans_nest_and_self_time_excludes_children():
    from heatkato import geometry as G
    from heatkato import heat_kernel as HK
    from heatkato import potentials as P
    from tracer import Tracer

    e3 = G.euclidean(3)
    eng = HK.make_engine(e3)
    o = G.base_point(e3)
    with Tracer() as tracer:
        tracer.task = "coulomb"
        P.coulomb(eng, o, G.make_point(e3, [1.0, 0.0, 0.0]), tol=1e-8)
    layers = tracer.layers()
    assert layers["scipy.quad"]["calls"] >= 1
    assert layers["heat_kernel.eval_radial"]["points"] >= layers["heat_kernel.eval_radial"]["calls"]
    quad = layers["scipy.quad"]
    assert 0.0 < quad["self_s"] < quad["total_s"]
    assert all(span[5] == "coulomb" for span in tracer.spans)


def test_integration_warnings_are_counted_per_layer():
    from heatkato import kato
    from tracer import Tracer

    with Tracer() as tracer:
        kato.quad(lambda x: 1.0 / x, 0.0, 1.0)
    count, first = tracer.quad_warnings["kato"]
    assert count == 1 and first
    assert tracer.layers()["scipy.quad"]["calls"] == 1


def test_nominal_pass_scales_each_task_by_the_loop_around_it():
    from reference import NOMINAL_S
    from run import nominal_pass_s

    slow = 2.0 * NOMINAL_S  # the machine ran at half speed
    p = {"task_s": {"a": 2.0, "b": 1.5}, "ref_s": [NOMINAL_S, NOMINAL_S, slow]}
    assert nominal_pass_s(p) == pytest.approx(2.0 + 1.5 / 1.5)


def test_metric_names_and_benchmark_file():
    from tracer import PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    assert layer == [name for name, _ in PER_LAYER]
    assert "setup_s" in e2e
    names = e2e + layer + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("kato-closed", 1, 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
