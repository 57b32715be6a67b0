"""Spans around the public functions of each heatkato layer, recorded from outside.

``Tracer.install()`` replaces module attributes with timing wrappers and
``restore()`` puts the originals back.  A bare-name call inside a module looks
the name up in the module's globals, so it goes through the wrapper too.  Each
span records its name, start, end, parent span and task id, plus work units
counted from the call's arguments; spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import warnings
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.integrate import IntegrationWarning


def _arg(index: int, name: str):
    def get(args, kwargs):
        return args[index] if len(args) > index else kwargs[name]
    return get


def _rows(index, name):
    get = _arg(index, name)
    return lambda a, k: {"rows": len(get(a, k))}


def _points(index, name, size=len):
    get = _arg(index, name)
    return lambda a, k: {"points": int(size(get(a, k)))}


def _path_steps(a, k):
    model, t, h, n = _arg(0, "model")(a, k), _arg(2, "t")(a, k), _arg(3, "h")(a, k), _arg(4, "N")(a, k)
    from heatkato.stochastics import _is_flat

    steps = int(n) * int(round(t / h))
    return {"path_steps": steps, "flat_path_steps" if _is_flat(model) else "curved_path_steps": steps}


def _op_size(a, k):
    return {"size": int(_arg(0, "op")(a, k).size)}


# (span name, module, attribute, units from the arguments)
TARGETS = [
    ("geometry.exp_many", "heatkato.geometry", "exp_many", _rows(1, "xs")),
    ("geometry.tangent_from_normals", "heatkato.geometry", "tangent_from_normals", _rows(1, "xs")),
    ("geometry.build_grid", "heatkato.geometry", "build_grid", None),
    ("geometry.distance_many", "heatkato.geometry", "distance_many", _rows(2, "ys")),
    ("heat_kernel.eval_radial", "heatkato.heat_kernel", "eval_radial", _points(2, "d", np.size)),
    ("heat_kernel.eval_many", "heatkato.heat_kernel", "eval_many", _points(3, "ys")),
    ("heat_kernel.kernel_mass", "heatkato.heat_kernel", "kernel_mass", None),
    ("quadrature.two_point_integral", "heatkato.quadrature", "two_point_integral", None),
    ("quadrature.radial_integral", "heatkato.quadrature", "radial_integral", None),
    ("scipy.quad", "heatkato.geometry", "quad", None),
    ("scipy.quad", "heatkato.kato", "quad", None),
    ("scipy.quad", "heatkato.potentials", "quad", None),
    ("potentials.lq_norm", "heatkato.potentials", "lq_norm", None),
    ("potentials.evaluate_many", "heatkato.potentials", "evaluate_many", _points(1, "ys")),
    ("kato.smoothed_abs", "heatkato.kato", "smoothed_abs", None),
    ("kato.dirichlet_ground_energy", "heatkato.kato", "dirichlet_ground_energy", None),
    ("stochastics.simulate", "heatkato.stochastics", "simulate", _path_steps),
    ("stochastics.path_generator", "heatkato.stochastics", "path_generator", None),
    ("stochastics.feynman_kac", "heatkato.stochastics", "feynman_kac", None),
    ("semigroup.semigroup_apply", "heatkato.semigroup", "semigroup_apply", _op_size),
    ("semigroup.q_norm", "heatkato.semigroup", "q_norm", None),
    ("mvi.mvi_sweep", "heatkato.mvi", "mvi_sweep", None),
    ("mvi.heat_bound_sweep", "heatkato.mvi", "heat_bound_sweep", None),
    ("cli.run_manifest", "heatkato.cli", "run_manifest", None),
    ("cli.validate_manifest", "heatkato.cli", "validate_manifest", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent id, task id, units]
        self.task: str | None = None
        self.quad_warnings: dict[str, list] = {}  # caller module -> [count, first message]
        self.children: list[dict] = []  # layer summaries merged from traced child processes
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def install(self) -> "Tracer":
        for name, modname, attr, units in TARGETS:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            wrapper = self._wrap(name, original, units)
            if name == "scipy.quad":
                wrapper = self._count_warnings(modname.rsplit(".", 1)[1], wrapper)
            setattr(module, attr, wrapper)
        return self

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, name, fn, units):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), name, 0.0, 0.0, stack[-1][0] if stack else None, self.task,
                    units(args, kwargs) if units else None]
            spans.append(span)
            stack.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
        return wrapper

    def _count_warnings(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", IntegrationWarning)
                result = fn(*args, **kwargs)
            for w in caught:
                if issubclass(w.category, IntegrationWarning):
                    entry = self.quad_warnings.setdefault(layer, [0, str(w.message).strip()])
                    entry[0] += 1
                else:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result
        return wrapper

    # -- results ------------------------------------------------------------

    def merge_child(self, summary: dict, task: str) -> None:
        summary["task"] = task
        self.children.append(summary)
        for layer, (count, first) in summary["quad_warnings"].items():
            entry = self.quad_warnings.setdefault(layer, [0, first])
            entry[0] += count

    def layers(self) -> dict:
        """Per span name: calls, summed units, self_s and total_s, plus merged children.

        Self time is a span's duration minus the time its child spans cover.
        calls, units and total_s count only the outermost span of each name, so
        a recursive call (evaluate_many walking a potential tree) is counted once.
        """
        covered = defaultdict(float)
        for span in self.spans:
            if span[4] is not None:
                covered[span[4]] += span[3] - span[2]
        out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            _, name, start, end, parent, _, units = span
            agg = out[name]
            agg["self_s"] += (end - start) - covered[span[0]]
            if self._has_ancestor_named(span, name):
                continue
            agg["calls"] += 1
            agg["total_s"] += end - start
            for unit, n in (units or {}).items():
                agg[unit] += n
                if unit.endswith("_path_steps"):
                    agg[unit.replace("path_steps", "s")] += end - start
        for child in self.children:
            for name, agg in child["layers"].items():
                for key, value in agg.items():
                    out[name][key] += value
        return {name: dict(agg) for name, agg in out.items()}

    def _has_ancestor_named(self, span, name) -> bool:
        parent = span[4]
        while parent is not None:
            anc = self.spans[parent]
            if anc[1] == name:
                return True
            parent = anc[4]
        return False

    def summary(self) -> dict:
        return {"layers": self.layers(),
                "quad_warnings": {k: list(v) for k, v in self.quad_warnings.items()}}

    def dump(self, path: Path) -> None:
        """Write the spans, one JSON array per line after a header naming the
        fields, then one line per merged child summary."""
        with path.open("w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "task", "units"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for child in self.children:
                fh.write(json.dumps({"child": child}) + "\n")


# (metric name, better) reported by a traced run, in BENCHMARK.json order
PER_LAYER = [
    ("geometry.exp_many.rows", "lower"),
    ("geometry.exp_many.self_s", "lower"),
    ("geometry.tangent_from_normals.self_s", "lower"),
    ("geometry.build_grid.calls", "lower"),
    ("geometry.build_grid.self_s", "lower"),
    ("geometry.distance_many.rows", "lower"),
    ("geometry.distance_many.self_s", "lower"),
    ("heat_kernel.eval_radial.calls", "lower"),
    ("heat_kernel.eval_radial.points", "lower"),
    ("heat_kernel.eval_radial.self_s", "lower"),
    ("heat_kernel.eval_many.points", "lower"),
    ("heat_kernel.eval_many.self_s", "lower"),
    ("heat_kernel.kernel_mass.calls", "lower"),
    ("heat_kernel.kernel_mass.self_s", "lower"),
    ("quadrature.two_point_integral.calls", "lower"),
    ("quadrature.two_point_integral.self_s", "lower"),
    ("quadrature.radial_integral.calls", "lower"),
    ("quadrature.radial_integral.self_s", "lower"),
    ("scipy.quad.calls", "lower"),
    ("scipy.quad.self_s", "lower"),
    ("scipy.quad.warnings", "lower"),
    ("potentials.lq_norm.calls", "lower"),
    ("potentials.lq_norm.self_s", "lower"),
    ("potentials.evaluate_many.points", "lower"),
    ("potentials.evaluate_many.self_s", "lower"),
    ("kato.smoothed_abs.calls", "lower"),
    ("kato.smoothed_abs.total_s", "lower"),
    ("kato.dirichlet_ground_energy.calls", "lower"),
    ("kato.dirichlet_ground_energy.self_s", "lower"),
    ("stochastics.simulate.path_steps", "lower"),
    ("stochastics.simulate.self_s", "lower"),
    ("stochastics.simulate.path_steps_per_s_flat", "higher"),
    ("stochastics.simulate.path_steps_per_s_curved", "higher"),
    ("stochastics.path_generator.calls", "lower"),
    ("stochastics.path_generator.self_s", "lower"),
    ("stochastics.feynman_kac.self_s", "lower"),
    ("semigroup.semigroup_apply.calls", "lower"),
    ("semigroup.semigroup_apply.size", "lower"),
    ("semigroup.semigroup_apply.self_s", "lower"),
    ("semigroup.q_norm.calls", "lower"),
    ("semigroup.q_norm.self_s", "lower"),
    ("mvi.mvi_sweep.total_s", "lower"),
    ("mvi.heat_bound_sweep.total_s", "lower"),
    ("cli.import_s", "lower"),
    ("cli.run_manifest.total_s", "lower"),
    ("cli.validate_manifest.self_s", "lower"),
    ("trace.overhead_s", "lower"),
]


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s_flat") or metric.endswith("_per_s_curved"):
        return "1/s"
    return "s" if metric.endswith("_s") else "count"


def per_layer_metrics(layers: dict, quad_warnings: dict, import_s: float, overhead_s: float) -> dict:
    """Every PER_LAYER metric from a layer summary; an idle layer reads 0."""
    values = {"cli.import_s": import_s, "trace.overhead_s": overhead_s,
              "scipy.quad.warnings": sum(count for count, _ in quad_warnings.values())}
    sim = layers.get("stochastics.simulate", {})
    for kind in ("flat", "curved"):
        secs = sim.get(f"{kind}_s", 0.0)
        values[f"stochastics.simulate.path_steps_per_s_{kind}"] = sim.get(f"{kind}_path_steps", 0) / secs if secs else 0.0
    out = {}
    for metric, _ in PER_LAYER:
        if metric in values:
            value = values[metric]
        else:
            name, quantity = metric.rsplit(".", 1)
            value = layers.get(name, {}).get(quantity, 0)
        out[metric] = {"value": value, "unit": unit_of(metric)}
    return out
