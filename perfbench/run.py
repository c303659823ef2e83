"""sddelab benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload study|solve|drivers \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  Each measured run is a fresh child process
(``child.py``) that sets up, warms up, runs the workload body once and
checks its outputs.  Children run one after another, never in
parallel, with the BLAS thread count pinned to 1.  Children are started
until the next one would end after ``--seconds``, and at least
MIN_CHILDREN run.

--trace 0 reports the end-to-end metrics: medians over the children of
set-up time, body wall time, body CPU time and peak resident memory.
--trace 1 alternates untraced and traced children, then times the
ROADMAP baseline rows in one more child, and reports the per-layer
metrics: medians over the traced children, the tracing overhead (traced
minus untraced body wall time) and the baseline rows.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An attempted
item is one CLI invocation or one bulk draw; it fails on a nonzero exit,
an escaped exception or a failed check.  Logs, the full result with
every child's record and the machine description, and the spans of
traced children go to ``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUT = CHECKOUT / ".perfbench_out"
WORKLOADS = ("study", "solve", "drivers")
MIN_CHILDREN = 3
MIN_PAIRS = 2  # traced runs: two traced children, so counts can be compared
#: no child is started after this many seconds, and a child still
#: running at DEADLINE_S is killed, so a run always ends within 180 s.
LAST_START_S = 120.0
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(CHECKOUT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts children one at a time and collects their records."""

    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.log = open(OUT / f"{self.tag}.log", "w", encoding="utf-8")
        self.env = child_env()
        self.records: list[dict] = []
        self.lost = 0  # children that ended without a record
        self.durations: list[float] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def close(self) -> None:
        self.log.close()

    def spawn(self, extra: list[str], index: int) -> dict | None:
        root = OUT / f"{self.tag}-{index}"
        out = OUT / f"{self.tag}-{index}.json"
        shutil.rmtree(root, ignore_errors=True)
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--out", str(out), *extra]
        self.log.write(f"$ {' '.join(cmd)}\n")
        self.log.flush()
        t = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=CHECKOUT, env=self.env, stdout=self.log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, timeout=max(1.0, DEADLINE_S - self.elapsed()),
            )
            ok = proc.returncode == 0
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            self.log.write("child killed at the deadline\n")
            ok = False
        self.durations.append(time.monotonic() - t)
        shutil.rmtree(root, ignore_errors=True)
        if not ok or not out.is_file():
            self.lost += 1
            return None
        record = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        return record

    def workload_child(self, trace: int, index: int) -> dict | None:
        a = self.args
        extra = ["--workload", a.workload, "--seed", str(a.seed), "--trace", str(trace),
                 "--root", str(OUT / f"{self.tag}-{index}")]
        if trace:
            extra += ["--spans", str(OUT / f"{self.tag}-spans-{index}.jsonl")]
        record = self.spawn(extra, index)
        if record is not None:
            self.records.append(record)
        return record

    def may_start(self, done: int, minimum: int, group: int = 1) -> bool:
        """Start another group of `group` children, `done` groups so far?"""
        if self.elapsed() >= LAST_START_S:
            return False
        if done < minimum:
            return True
        estimate = group * statistics.median(self.durations)
        return self.elapsed() + estimate <= self.args.seconds


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe(name: str, values: list[float]) -> str:
    q1, q3 = quartiles(values)
    return (f"{name}: median {statistics.median(values):.6g} {unit_of(name)} "
            f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


def print_shares(layers: dict, wall_s: float) -> None:
    """Self time of each layer as a share of the traced body wall time."""
    shares = {k[len("layer."):-len(".self_s")]: v / wall_s
              for k, v in layers.items() if k.startswith("layer.")}
    print("layer self-time shares of the traced wall time:")
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12s} {share:7.1%}")
    euler = layers["solver.euler.self_s"] / wall_s
    norm_family = shares["norms"] + shares["singular"]
    fbm_csv = (layers["fbm.busy_s"] + layers["grids.csv_write.busy_s"]
               + layers["grids.csv_read.busy_s"]) / wall_s
    print(f"  groups: euler {euler:.1%}, norms+_singular {norm_family:.1%}, "
          f"fbm+csv {fbm_csv:.1%}")
    print(f"  top-level spans cover {layers['trace.top_s']:.4f} s of {wall_s:.4f} s "
          f"traced wall (gap {layers['trace.gap_s']:.4f} s, "
          f"{layers['trace.gap_s'] / wall_s:.2%}: item dispatch and output capture "
          "in the benchmark itself)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sddelab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (CHECKOUT / "src" / "sddelab" / "__init__.py").is_file():
        print(f"error: no sddelab sources under {CHECKOUT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner(args)
    try:
        untraced, traced, baseline = [], [], None
        schedule = (0, 1) if args.trace else (0,)
        minimum = MIN_PAIRS if args.trace else MIN_CHILDREN
        index = 0
        while runner.may_start(index // len(schedule), minimum, group=len(schedule)):
            for trace in schedule:
                record = runner.workload_child(trace, index)
                index += 1
                if record is not None:
                    (traced if trace else untraced).append(record)
        if args.trace and runner.elapsed() < LAST_START_S:
            baseline = runner.spawn(["--baseline"], index)
    finally:
        runner.close()

    if not untraced or (args.trace and (not traced or baseline is None)):
        print(f"error: children failed; see {OUT / (runner.tag + '.log')}", file=sys.stderr)
        return 1

    records = runner.records
    attempted = sum(r["attempted"] for r in records) + runner.lost
    failed = sum(r["failed"] for r in records) + runner.lost
    problems = [f for r in records for f in r["failures"]]
    env = {**machine(), **records[0]["env"]}
    print("machine: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for i, r in enumerate(records):
        print(f"child {i} ({'traced' if r['traced'] else 'untraced'}): "
              f"setup {r['setup_s']:.4f} s, wall {r['wall_s']:.4f} s, "
              f"cpu {r['cpu_s']:.4f} s, peak rss {r['peak_rss_mb']:.1f} MB, "
              f"{r['attempted'] - r['failed']}/{r['attempted']} items ok")
    for p in problems:
        print(f"FAILED {p['item']} (exit {p['code']}): {'; '.join(p['problems'])}")
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.4g}")

    metrics: dict[str, float] = {}
    correct = failed == 0
    if args.trace:
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        for key in layers:
            if unit_of(key) not in ("count", "bytes"):
                continue
            seen = {r["layers"][key] for r in traced}
            if len(seen) > 1:
                correct = False
                print(f"FAILED count {key} differs between traced children: {sorted(seen)}")
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        untraced_wall = statistics.median(r["wall_s"] for r in untraced)
        metrics.update(layers)
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        metrics.update(baseline["baseline"])
        print_shares(layers, traced_wall)
        print(f"traced wall {traced_wall:.4f} s vs untraced {untraced_wall:.4f} s "
              f"(n={len(traced)}/{len(untraced)})")
    else:
        for key in END_TO_END_UNITS:
            values = [r[key] for r in untraced]
            metrics[key] = statistics.median(values)
            print(describe(key, values))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    (OUT / f"result-{runner.tag}.json").write_text(
        json.dumps({**result, "env": env, "children": records}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
