"""One measured run of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 \
        --root DIR --out FILE [--spans FILE]
    python3 perfbench/child.py --baseline --out FILE

Set-up time runs from just before ``import sddelab`` until the
workload's warm-up is done.  The timed body then runs every item once;
checks follow, outside the timed region and outside any tracing.  The
record (times, peak memory, failures, environment and, when traced,
layer metrics) is written as JSON to ``--out``.  With ``--baseline``
the process times the rows of the ROADMAP baseline table instead.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """Library versions and the BLAS build, as this process sees them."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def run_workload(args) -> dict:
    t0 = time.perf_counter()
    import sddelab  # noqa: F401  (first import of the package: set-up time starts above)

    import reference
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    root = Path(args.root)
    wl.warm_up(root / "warmup")
    setup_s = time.perf_counter() - t0

    items = wl.items(args.seed, root / "body")
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
    with tracer or contextlib.nullcontext():
        c0, w0 = cpu_seconds(), time.perf_counter()
        outcomes = workloads.run_items(items)
        wall_s, cpu_s = time.perf_counter() - w0, cpu_seconds() - c0
    rss_mb = peak_rss_mb()

    for out in outcomes:
        if out.error:
            out.problems.append(out.error)
    wl.check(args.seed, root / "body", outcomes)
    wl.check_reference(args.seed, root / "body", outcomes, reference.load())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_mb,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "failures": [
            {"item": o.name, "code": o.code, "problems": o.problems}
            for o in outcomes if o.failed
        ],
        "env": environment(),
    }
    if tracer is not None:
        from tracing import layer_metrics

        record["layers"] = layer_metrics(tracer, wall_s)
        if args.spans:
            tracer.write_spans(args.spans)
    return record


def run_baseline() -> dict:
    import baseline

    return {"baseline": baseline.measure(), "env": environment()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)
    record = run_baseline() if args.baseline else run_workload(args)
    Path(args.out).write_text(json.dumps(record) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
