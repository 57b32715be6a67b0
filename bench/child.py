"""Child processes started by bench/run.py; each prints one JSON line.

    python bench/child.py pass <workload> <seed> [--tiny] [--setup-only] [--spans <file>]
        imports heatkato from the checkout's src, builds the workload's
        fixtures (timed as setup_s, with the reference loop's time after it
        as setup_ref_s), then runs every task once (pass_s);
        with --spans the pass runs under the tracer and writes its spans
    python bench/child.py cli <summary.json> <heatkato arguments...>
        runs heatkato's CLI ``main`` under the tracer, writes the layer summary,
        with the CLI's import time, to <summary.json> and the spans, all with
        the summary file's stem as task id, to <summary>.spans.jsonl
"""

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def one_pass(workload: str, seed: int, flags: list[str]) -> int:
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    ctx = workloads.Context(seed, "--tiny" in flags, Path.cwd(), {})
    tasks = workloads.WORKLOADS[workload](ctx)
    setup_s = perf_counter() - t0
    from reference import reference_s

    setup_ref_s = reference_s()
    if "--setup-only" in flags:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0
    if "--spans" not in flags:
        result = workloads.run_pass(tasks)
    else:
        from tracer import Tracer

        with Tracer() as tracer:
            result = workloads.run_pass(tasks, tracer)
        result["layers"] = tracer.summary()
        tracer.dump(Path(flags[flags.index("--spans") + 1]))
    result["setup_s"] = setup_s
    result["setup_ref_s"] = setup_ref_s
    print(json.dumps(result))
    return 0


def traced_cli(summary_path: str, argv: list[str]) -> int:
    t0 = perf_counter()
    from heatkato import cli

    import_s = perf_counter() - t0
    from tracer import Tracer

    path = Path(summary_path)
    tracer = Tracer()
    tracer.task = path.stem
    try:
        with tracer:
            rc = cli.main(argv)
    finally:
        summary = tracer.summary()
        summary["import_s"] = import_s
        path.write_text(json.dumps(summary))
        tracer.dump(path.with_suffix(".spans.jsonl"))
    return rc


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "pass":
        sys.exit(one_pass(rest[0], int(rest[1]), rest[2:]))
    sys.exit(traced_cli(rest[0], rest[1:]))
