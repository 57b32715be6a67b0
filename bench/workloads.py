"""The three benchmark workloads: their set-up, their tasks and each task's check.

A workload's ``setup(ctx)`` builds the models, engines, potentials and
operators its tasks reuse and returns the task list.  A task returns its
numeric outputs (verdicts, margins, estimates) as a flat dict, which feeds the
digest, and raises ``CheckFailed`` when an output is wrong.  The seed picks
sample points, offsets and Monte-Carlo seeds; no expected verdict depends on
it.  ``ctx.tiny`` shrinks every size for the self-tests only.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from heatkato import cli
from heatkato import geometry as G
from heatkato import heat_kernel as HK
from heatkato import kato as K
from heatkato import potentials as P
from heatkato import semigroup as SG
from heatkato import stochastics as S
from reference import reference_s

BENCH_DIR = Path(__file__).resolve().parent


class CheckFailed(Exception):
    """A task ran but its output is not the known answer."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Context:
    seed: int
    tiny: bool
    out_dir: Path  # scratch space inside the checkout
    env: dict  # environment for child processes
    tracer: object = None  # set only while a traced pass runs


@dataclass
class Task:
    name: str
    run: Callable[[dict], dict]  # pass-local state -> numeric outputs


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# kato-closed: closed-form kernels, time in kato / potentials / quadrature;
# then the cheap series and image-sum tasks (series_tasks)


def setup_kato_closed(ctx: Context) -> list[Task]:
    rng = np.random.default_rng([ctx.seed, 1])
    e3, e2, h3 = G.euclidean(3), G.euclidean(2), G.hyperbolic3()
    eng3, eng2, engh = HK.make_engine(e3), HK.make_engine(e2), HK.make_engine(h3)
    c3 = G.random_point(e3, rng, 1.0)
    c2 = G.random_point(e2, rng, 1.0)
    ch = G.random_point(h3, rng, 0.5)
    ts = np.logspace(-3, math.log10(0.5), 3 if ctx.tiny else 6)
    rs = np.logspace(-2.5, -0.5, 3 if ctx.tiny else 5)
    radial = {beta: P.RadialPower(e3, c3, beta) for beta in (0.5, 1.5, 2.0)}
    indicator = P.Indicator(e3, G.BallWindow(c3, 1.0))
    # (label, engine, potential, known Kato verdict, compare with classical h_m)
    verdicts = [
        ("coulomb_e3", eng3, P.make_coulomb_potential(e3, c3), True, False),
        ("radial0.5_e3", eng3, radial[0.5], True, True),
        ("radial1.5_e3", eng3, radial[1.5], True, True),
        ("radial2_e3", eng3, radial[2.0], False, True),
        ("indicator_e3", eng3, indicator, True, True),
        ("radial1_h3", engh, P.RadialPower(h3, ch, 1.0), True, False),
        ("radial1_e2", eng2, P.RadialPower(e2, c2, 1.0), True, False),
    ]
    if ctx.tiny:
        verdicts = [v for v in verdicts if v[0] in ("radial0.5_e3", "radial2_e3")]
    tasks = []
    for label, eng, w, expected, classical in verdicts:
        tasks.append(Task(f"is_kato.{label}", _is_kato_task(label, eng, w, ts, expected)))
    for label, eng, w, expected, classical in verdicts:
        if classical:
            tasks.append(Task(f"classical_is_kato.{label}", _classical_task(label, e3, w, rs, expected)))

    control = K.control_pair_from_on_diag(eng3)
    window = G.BallWindow(c3, 1.5)
    holder_w = P.Windowed(e3, P.RadialPower(e3, c3, 0.35), window)
    ss = np.logspace(-3, 0, 4 if ctx.tiny else 10)
    xs = [c3, G.exp_map(e3, c3, 0.8 * _unit(rng, 3))]
    for q in (1.6,) if ctx.tiny else (1.6, 2.0, 5.0):
        tasks.append(Task(f"holder.q{q:g}", _holder_task(eng3, control, holder_w, q, ss, xs)))

    direction = _unit(rng, 3)
    for r in (1.0,) if ctx.tiny else (0.1, 1.0, 10.0):
        y = G.make_point(e3, c3.coords + r * direction)
        tasks.append(Task(f"coulomb.r{r:g}", _coulomb_task(eng3, c3, y)))
    return tasks + series_tasks(ctx)


def _is_kato_task(label, eng, w, ts, expected):
    def run(state):
        curve, verdict = K.is_kato(eng, w, ts)
        state[label] = verdict.passed
        require(verdict.passed == expected, f"is_kato gave {verdict.passed}, known {expected}")
        if label == "coulomb_e3":
            require(abs(verdict.gamma - 0.5) <= 0.1, f"Coulomb decay exponent {verdict.gamma}")
        return {"passed": verdict.passed, "gamma": verdict.gamma, "decay_ratio": verdict.decay_ratio,
                "N": [float(v) for v in curve.values]}
    return run


def _classical_task(label, model, w, rs, expected):
    def run(state):
        _, vals, verdict = K.classical_is_kato(model, w, rs)
        require(verdict == expected, f"classical_is_kato gave {verdict}, known {expected}")
        if label in state:
            require(verdict == state[label], "classical_is_kato disagrees with is_kato")
        return {"passed": verdict, "values": [float(v) for v in vals]}
    return run


def _holder_task(eng, control, w, q, ss, xs):
    def run(state):
        rep = K.holder_bound_check(eng, control, w, q, ss, xs)
        require(rep.passed, f"Holder bound margin {rep.min_margin} below -{rep.tolerance}")
        return {"margin": rep.min_margin, "tolerance": rep.tolerance}
    return run


def _coulomb_task(eng, x, y):
    def run(state):
        d = G.distance(eng.model, x, y)
        got = P.coulomb(eng, x, y, tol=1e-8)
        exact = 1.0 / (4.0 * math.pi * d)
        rel = abs(got.value - exact) / exact
        require(rel < 1e-6, f"Coulomb relative error {rel:.3g} at r={d:g}")
        return {"value": got.value, "rel_err": rel}
    return run


def series_tasks(ctx: Context) -> list[Task]:
    """The kato code fed an image-sum kernel (``holder-check`` on a flat torus,
    as the CLI runs it by default) and the series / image-sum kernels' own
    consistency checks: cheap here, so a change that speeds the closed-form
    path but costs these shows.  The same check on ``sphere2`` costs 6-8 s a
    pass and is left out."""
    rng = np.random.default_rng([ctx.seed, 2])
    tasks = [Task("holder_check.torus:2:6.2832", _manifest_task("torus:2:6.2832", ctx))]
    specs = ["circle"] if ctx.tiny else ["sphere2", "torus:2:6.2832", "circle", "product(euclidean:1,circle)"]
    ts = [0.2] if ctx.tiny else [0.05, 0.2, 0.7]
    for spec in specs:
        model = G.parse_manifold(spec)
        eng = HK.make_engine(model)
        pts = [G.random_point(model, rng, 1.0) for _ in range(2 if ctx.tiny else 4)]
        tasks.append(Task(f"consistency.{spec}", _consistency_task(eng, ts, pts)))
    return tasks


def _manifest_task(spec, ctx):
    # the in-process equivalent of `heatkato holder-check --manifold <spec> --seed <seed>`
    manifest = cli.ExperimentManifest(manifold=spec, checks=["holder-check"], seed=ctx.seed)

    def run(state):
        report = cli.run_manifest(manifest)
        (check,) = report.checks
        require(check.passed, f"holder-check {check.verdict}, margin {check.margin_min}")
        return {"margin": check.margin_min, "tolerance": check.tolerance}
    return run


def _consistency_task(eng, ts, pts):
    closed = eng.method is HK.Method.CLOSED_FORM or (
        eng.method is HK.Method.PRODUCT_RULE
        and all(f.method is HK.Method.CLOSED_FORM for f in eng.factors)
    )

    def run(state):
        rep = HK.check_consistency(eng, ts, pts)
        require(rep.ck_residual < (1e-6 if closed else 1e-4), f"Chapman-Kolmogorov residual {rep.ck_residual}")
        require(rep.mass_defect < 1e-6, f"mass defect {rep.mass_defect}")
        sym_tol = 0.0 if closed else max(rep.truncation_bound, 1e-13)
        require(rep.symmetry_residual <= sym_tol, f"symmetry residual {rep.symmetry_residual}")
        return {"mass_defect": rep.mass_defect, "ck_residual": rep.ck_residual,
                "symmetry_residual": rep.symmetry_residual}
    return run


# ---------------------------------------------------------------------------
# paths-fk: path sampling, Feynman-Kac and Lanczos


def setup_paths_fk(ctx: Context) -> list[Task]:
    rng = np.random.default_rng([ctx.seed, 3])
    mc_seeds = [int(v) for v in rng.integers(0, 2**31, size=3)]
    n_paths = 2000 if ctx.tiny else 20000
    n_grid = 4096 if ctx.tiny else 8192
    circle = G.circle()
    w = P.cosine_potential(circle)
    op = SG.discretize(circle, n_grid, w)
    node = int(rng.integers(n_grid))  # start on a grid node so the spectral value is exact there
    start = G.circle_point(2.0 * math.pi * node / n_grid)
    fk_times = (0.25, 0.5, 1.0)
    state_key = "circle_ensemble"

    def simulate_circle(state):
        ens = S.simulate(circle, start, 1.0, 2e-3, n_paths, seed=mc_seeds[0])
        state[state_key] = ens
        return {"mean_cos": float(ens.chart_at(len(ens.record_times) - 1)[:, 0].mean())}

    def fk_at(t):
        def run(state):
            est = S.feynman_kac(state[state_key].truncated(t), w)
            exact = float(SG.semigroup_apply(op, t, np.ones(op.size))[node])
            require(abs(est.value - exact) < 4.0 * est.std_error,
                    f"Feynman-Kac {est.value} vs spectral {exact} (stderr {est.std_error})")
            return {"mc": est.value, "stderr": est.std_error, "spectral": exact}
        return run

    s2 = G.sphere2()
    s2_start = G.random_point(s2, rng)
    s2_t = 0.25 if ctx.tiny else 0.5

    def sphere_decay(state):
        state.pop(state_key, None)  # free the circle ensemble first
        ens = S.simulate(s2, s2_start, s2_t, 1e-3, n_paths, seed=mc_seeds[1], record_times=[s2_t])
        cos_d = ens.chart_at(len(ens.record_times) - 1) @ s2_start.coords
        mean, se = float(cos_d.mean()), float(cos_d.std(ddof=1) / math.sqrt(n_paths))
        require(abs(mean - math.exp(-s2_t)) < 4.0 * se, f"E[cos d] = {mean} vs e^-t (stderr {se})")
        return {"mean_cos_d": mean, "stderr": se}

    e2 = G.euclidean(2)
    e2_start = G.random_point(e2, rng, 0.5)

    def fdd_plane(state):
        ens = S.simulate(e2, e2_start, 0.5, 1e-3, n_paths, seed=mc_seeds[2], record_times=[0.5])
        x0 = e2_start.coords
        rep = S.fdd_check(ens, [0.5], [
            [lambda ch: ch[:, 0]],
            [lambda ch: np.exp(-np.sum((ch - x0) ** 2, axis=1))],
        ])
        require(rep.max_abs_z < 4.0, f"fdd max |z| = {rep.max_abs_z}")
        return {"z": [float(z) for z in rep.z_scores]}

    return (
        [Task("simulate.circle", simulate_circle)]
        + [Task(f"feynman_kac.t{t:g}", fk_at(t)) for t in fk_times]
        + [Task("simulate.sphere2_decay", sphere_decay), Task("fdd.euclidean2", fdd_plane)]
    )


# ---------------------------------------------------------------------------
# cli-batteries: what users type, each command in its own process


def cli_command(argv: list[str], trace_file: Path | None = None) -> list[str]:
    """The child command line: plain ``python -m heatkato.cli`` untraced, or the
    benchmark's wrapper around ``cli.main`` when ``trace_file`` is given."""
    if trace_file is None:
        return [sys.executable, "-m", "heatkato.cli", *argv]
    return [sys.executable, str(BENCH_DIR / "child.py"), "cli", str(trace_file), *argv]


def run_cli(ctx: Context, argv: list[str], label: str) -> subprocess.CompletedProcess:
    trace_file = None
    if ctx.tracer is not None:
        trace_file = ctx.out_dir / f"child-trace-{label}.json"
        trace_file.unlink(missing_ok=True)
    proc = subprocess.run(cli_command(argv, trace_file), env=ctx.env, cwd=ctx.out_dir,
                          capture_output=True, text=True, timeout=170)
    if trace_file is not None and trace_file.exists():
        ctx.tracer.merge_child(json.loads(trace_file.read_text()), label)
    return proc


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items() if k not in ("runtime_s", "timestamp")}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def _cli_task(ctx: Context, label: str, argv: list[str], report: Path):
    def run(state):
        report.unlink(missing_ok=True)
        proc = run_cli(ctx, argv, label)
        require(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        data = _strip_volatile(json.loads(report.read_text()))
        require(data["all_pass"], "report says some check FAILED")
        return {"report": data}
    return run


def list_batteries_cold_start(ctx: Context) -> None:
    """One ``heatkato list-batteries`` launch, checked; timed by the caller."""
    proc = run_cli(ctx, ["list-batteries"], "list-batteries")
    require(proc.returncode == 0, f"list-batteries exit code {proc.returncode}")
    require(proc.stdout.split() == sorted(cli.BATTERIES), f"list-batteries printed {proc.stdout!r}")


def setup_cli_batteries(ctx: Context) -> list[Task]:
    seed = str(ctx.seed)
    if ctx.tiny:
        runs = [("run-battery.stochastic", ["run-battery", "stochastic", "--seed", seed])]
        manifest_checks, manifest_model = "coulomb", "euclidean:3"
    else:
        runs = [(f"run-battery.{b}", ["run-battery", b, "--seed", seed])
                for b in ("paper-core", "semigroup", "stochastic")]
        manifest_checks, manifest_model = "fk-verify, mvi-sweep", "euclidean:3"
    tasks = []
    for label, argv in runs:
        report = ctx.out_dir / f"{label}.json"
        tasks.append(Task(label, _cli_task(ctx, label, argv + ["--out", report.name], report)))
    manifest = ctx.out_dir / "manifest.txt"
    report = ctx.out_dir / "manifest-report.json"
    manifest.write_text(f"manifold = {manifest_model}\nchecks = {manifest_checks}\n"
                        f"seed = {seed}\nout = {report.name}\n")
    tasks.append(Task("run.manifest", _cli_task(ctx, "run.manifest", ["run", manifest.name], report)))
    return tasks


# workload name -> set-up; the reason for each workload is in BENCHMARK.json and
# bench/README.md.  cli-batteries runs its tasks as child processes.
WORKLOADS = {
    "kato-closed": setup_kato_closed,
    "paths-fk": setup_paths_fk,
    "cli-batteries": setup_cli_batteries,
}


def run_pass(tasks: list[Task], tracer=None) -> dict:
    """Every task once.  A task that raises or fails its check is recorded as a
    failure and the pass goes on."""
    state: dict = {}
    outputs, times, failures = {}, {}, []
    ref = [reference_s()]  # the machine's speed before each task and after the last
    for task in tasks:
        if tracer is not None:
            tracer.task = task.name
        t0 = perf_counter()
        try:
            outputs[task.name] = task.run(state)
        except Exception as exc:  # noqa: BLE001 - one failed task must not stop the run
            outputs[task.name] = None
            failures.append({"task": task.name, "error": f"{type(exc).__name__}: {exc}",
                             "traceback": traceback.format_exc(limit=4)})
        times[task.name] = perf_counter() - t0
        ref.append(reference_s())
    pass_s = sum(times.values())
    if tracer is not None:
        tracer.task = None
    return {"pass_s": pass_s, "attempted": len(tasks), "failures": failures, "task_s": times,
            "ref_s": ref, "digest": digest(outputs), "digest10": digest(_round(outputs, 10))}


def digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True, default=repr).encode()).hexdigest()


def _round(obj, digits: int):
    """Floats rounded to ``digits`` significant digits, for a digest that
    ignores last-bit noise (eigsh starts from a random vector)."""
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round(v, digits) for v in obj]
    return obj
