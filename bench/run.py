"""heatkato benchmark: one workload, timed end to end, or traced layer by layer.

    python3 bench/run.py --workload kato-closed --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; heatkato is imported from its ``src``.  A
pass runs every task of the workload once.  With ``--trace 0`` passes repeat
while another one fits in ``--seconds`` (three at least) and the end-to-end
metrics are printed (wall_s, setup_s, peak_rss_mb), timed at nominal speed
(see reference.py); with ``--trace 1`` one untraced and one traced pass give
the per-layer metrics.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (environment, per-task times, digests, integration warnings) go to
``.bench_out/result-<workload>-<seed>-trace<0|1>.json`` in the checkout and
spans of a traced run to ``.bench_out/spans-<workload>-<seed>.jsonl``.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

from reference import at_nominal_speed, reference_s

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("kato-closed", "paths-fk", "cli-batteries")
CLI_WORKLOAD = "cli-batteries"  # its tasks are CLI processes started from this process
SETUP_REPEATS = 3
NPROC = len(os.sched_getaffinity(0))  # before pin_threads
MIN_PASSES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> None:
    """One BLAS/OpenMP thread in every process the benchmark starts, and all of
    them on one CPU, so that the reference loop times the CPU the work ran on."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": NPROC,
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Run:
    """One benchmark invocation: passes, set-up samples and the failures seen."""

    def __init__(self, args):
        self.args = args
        self.out_dir = OUT / f"{args.workload}-{args.seed}"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.env = child_env()
        self.passes: list[dict] = []
        self.setup_samples: list[float] = []  # at nominal speed
        self.setup_raw: list[float] = []  # as timed
        self.failures: list[dict] = []
        self.attempted = 0
        self.cli = None  # (workloads module, context, tasks) for the CLI workload

    def fail(self, what: str, error: str) -> None:
        self.attempted += 1
        self.failures.append({"task": what, "error": error})

    def child(self, *flags: str) -> dict | None:
        """A fresh process that sets the workload up and, unless --setup-only, runs one pass."""
        a = self.args
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "pass", a.workload, str(a.seed), *flags]
        if a.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, env=self.env, cwd=self.out_dir, capture_output=True, text=True,
                              timeout=170)
        if proc.returncode != 0:
            self.fail("setup" if "--setup-only" in flags else "pass",
                      f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.add_setup(result["setup_s"], result["setup_ref_s"])
        return result

    def add_setup(self, seconds: float, ref_s: float) -> None:
        self.setup_raw.append(seconds)
        self.setup_samples.append(at_nominal_speed(seconds, ref_s))

    def one_pass(self, traced: bool) -> None:
        spans = OUT / f"spans-{self.args.workload}-{self.args.seed}.jsonl"
        if self.cli is None:
            result = self.child(*(["--spans", str(spans)] if traced else []))
            if result is None:
                return
        else:
            workloads, ctx, tasks = self.cli
            tracer = None
            if traced:
                from tracer import Tracer

                tracer = ctx.tracer = Tracer()
            result = workloads.run_pass(tasks, tracer)
            ctx.tracer = None
            if tracer is not None:
                result["layers"] = tracer.summary()
                result["child_import_s"] = [c["import_s"] for c in tracer.children]
                tracer.dump(spans)
        result["traced"] = traced
        self.passes.append(result)
        self.attempted += result["attempted"]
        self.failures += result["failures"]

    def setup_cli(self) -> None:
        """Cold starts of ``heatkato list-batteries`` are this workload's set-up."""
        sys.path.insert(0, str(ROOT / "src"))
        import workloads

        ctx = workloads.Context(self.args.seed, self.args.tiny, self.out_dir, self.env)
        for _ in range(SETUP_REPEATS):
            ref_before = reference_s()
            t0 = perf_counter()
            try:
                workloads.list_batteries_cold_start(ctx)
            except Exception as exc:  # noqa: BLE001 - count it and go on
                self.fail("list-batteries", f"{type(exc).__name__}: {exc}")
                continue
            seconds = perf_counter() - t0
            self.add_setup(seconds, 0.5 * (ref_before + reference_s()))
            self.attempted += 1
        self.cli = (workloads, ctx, workloads.WORKLOADS[CLI_WORKLOAD](ctx))


def nominal_pass_s(p: dict) -> float:
    """A pass at nominal speed: each task's time scaled with the reference loop
    timed just before and just after it (see reference.py)."""
    return sum(at_nominal_speed(seconds, 0.5 * (p["ref_s"][i] + p["ref_s"][i + 1]))
               for i, seconds in enumerate(p["task_s"].values()))


def end_to_end(run: Run) -> dict:
    nan = float("nan")
    return {
        "wall_s": {"value": statistics.median(map(nominal_pass_s, run.passes)) if run.passes else nan,
                   "unit": "s"},
        "setup_s": {"value": statistics.median(run.setup_samples) if run.setup_samples else nan, "unit": "s"},
        # the largest child: a pass process, or a CLI process for cli-batteries
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "unit": "MB"},
    }


def per_layer(run: Run) -> dict:
    import tracer

    plain = [p for p in run.passes if not p["traced"]]
    traced = [p for p in run.passes if p["traced"]]
    if not plain or not traced:
        return {name: {"value": float("nan"), "unit": tracer.unit_of(name)} for name, _ in tracer.PER_LAYER}
    summary = traced[0]["layers"]
    imports = traced[0].get("child_import_s") or [0.0]
    return tracer.per_layer_metrics(summary["layers"], summary["quad_warnings"], statistics.median(imports),
                                    traced[0]["pass_s"] - plain[0]["pass_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes; not a benchmark")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "heatkato" / "__init__.py").is_file():
        print(f"bench: no heatkato sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    pin_threads()
    run = Run(args)
    if args.workload == CLI_WORKLOAD:
        run.setup_cli()

    # Another pass starts only if it should end within --seconds, judged by the
    # median pass so far (set-up included), so a run never overshoots by a pass.
    t_run = perf_counter()
    durations = []
    while True:
        t0 = perf_counter()
        run.one_pass(traced=False)
        durations.append(perf_counter() - t0)
        if args.trace or (len(durations) >= MIN_PASSES
                          and perf_counter() - t_run + statistics.median(durations) > args.seconds):
            break
    if args.trace:
        run.one_pass(traced=True)
    while not args.trace and run.cli is None and len(run.setup_samples) < SETUP_REPEATS:
        if run.child("--setup-only") is None:
            break
        run.attempted += 1

    metrics = per_layer(run) if args.trace else end_to_end(run)
    same_digest = len({p["digest10"] for p in run.passes}) == 1
    correct = not run.failures and same_digest and all(m["value"] == m["value"] for m in metrics.values())
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "environment": environment(), "metrics": metrics, "correct": correct,
        "fail_frac": len(run.failures) / max(run.attempted, 1), "attempted": run.attempted,
        "failures": run.failures, "setup_samples": run.setup_samples, "setup_raw_s": run.setup_raw,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in run.passes],
        "layers": next((p["layers"] for p in run.passes if p["traced"]), None),
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    env = result["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, nproc {env['nproc']}, BLAS/OpenMP threads 1")
    print(f"# as timed: passes_s={[round(p['pass_s'], 3) for p in run.passes]} "
          f"setup_s={[round(s, 3) for s in run.setup_raw]}")
    print(f"# at nominal speed: passes_s={[round(nominal_pass_s(p), 3) for p in run.passes]} "
          f"setup_s={[round(s, 3) for s in run.setup_samples]}")
    print(f"# digest={run.passes[0]['digest'][:16] if run.passes else None} same_digest={same_digest}")
    for f in run.failures:
        print(f"# FAILED {f['task']}: {f['error']}")
    print(f"fail_frac {result['fail_frac']:.6g} (failed {len(run.failures)} of {run.attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1), "failed": len(run.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
