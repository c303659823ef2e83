"""Spans around calls into sddelab, recorded from outside the package.

A `Tracer` rebinds every public function of the layer modules, in every
loaded ``sddelab`` module that holds a reference to it, to a wrapper
that records one span per call: name, start, end, parent span and run
id.  Spans stay in memory until the run ends.  Nothing under ``src/``
changes, and `Tracer.restore` puts every original object back, so an
untraced call never passes through a wrapper.

Besides spans, a few calls feed counters (paths drawn, Euler steps,
Picard iterations, anchored pairs, bytes written, read and digested),
and the coefficient callables of the presets are wrapped by a bare
counter, because a span per coefficient evaluation would cost more than
the evaluation.

This module imports only the standard library, so that importing it
before ``sddelab`` does not move numpy's import cost out of set-up time.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

PACKAGE = "sddelab"

#: modules of src/sddelab that are traced as layers.  ``config`` and
#: ``presets`` are left out on purpose: config resolution counts as CLI
#: work, and presets only build coefficient sets.
LAYERS = (
    "fbm",
    "solver",
    "norms",
    "_singular",
    "integrate",
    "grids",
    "manifest",
    "convergence",
    "cli",
)

#: preset coefficient callables counted (not timed) as solver.coef_calls.
COEFFICIENT_CALLABLES = (
    "_sigma_additive",
    "_sigma_linear",
    "_sigma_sine",
    "_drift_zero",
    "_drift_minus_x",
    "_drift_sup",
)

# span tuple fields
NAME, START, END, PARENT, RUN = range(5)


def _file_size(file) -> int:
    if isinstance(file, (str, bytes)) or hasattr(file, "__fspath__"):
        try:
            return os.path.getsize(file)
        except OSError:
            return 0
    return 0


def _tri(n: int) -> int:
    return n * (n + 1) // 2 if n > 0 else 0


def _n_dim(values) -> tuple[int, int]:
    """(number of steps, number of components) of a node-value array."""
    shape = values.shape
    return shape[0] - 1, (shape[1] if len(shape) > 1 else 1)


# ----------------------------------------------------------------- hooks #
# A pre-hook sees the bound arguments before the call and may return a
# span name that replaces the default; a post-hook also sees the result.
# Both run outside the span's interval.


def _pre_generate_fbm(tr, a):
    tr.counts["fbm.paths"] += a["cfg"].dim


def _pre_sample_fbm_batch(tr, a):
    tr.counts["fbm.paths"] += a["count"]


def _pre_solve_euler(tr, a):
    tr.counts["solver.euler.steps"] += a["cfg"].grid.n_main


def _post_solve_picard(tr, a, result):
    tr.counts["solver.picard.iterations"] += result.iterations


def _main_pairs(path) -> int:
    n, d = path.grid.n_main, path.dim
    return _tri(n) * d


def _pre_lambda_alpha(tr, a):
    g = a["g"]
    key = (hashlib.blake2b(g.values.tobytes(), digest_size=16).hexdigest(),
           g.grid.h, g.grid.n_history, float(a["alpha"]))
    tr.lambda_inputs.add(key)
    tr.counts["norms.pair_evals"] += _main_pairs(g)


def _pre_norm_1ma(tr, a):
    tr.counts["norms.pair_evals"] += _main_pairs(a["g"])


def _pre_norm_holder(tr, a):
    f, r = a["f"], a["r"]
    grid = f.grid
    steps = grid.n_nodes - 1
    if r is not None:
        steps = grid.n_main + int(round(r / grid.h))
    tr.counts["norms.pair_evals"] += _tri(steps) * f.dim


def _pre_bii(tr, a):
    n, d = _n_dim(a["values"])
    tr.counts["norms.pair_evals"] += _tri(n - a["start"]) * d
    return "_singular.backward_increment_integrals:" + ("scalar" if d == 1 else "vector")


def _post_write_csv(tr, a, result):
    tr.counts["grids.csv_write.bytes"] += _file_size(a["file"])


def _pre_read_csv(tr, a):
    tr.counts["grids.csv_read.bytes"] += _file_size(a["file"])


def _pre_sha256(tr, a):
    tr.counts["manifest.digested_bytes"] += _file_size(a["path"])


PRE_HOOKS = {
    "fbm.generate_fbm": _pre_generate_fbm,
    "fbm.sample_fbm_batch": _pre_sample_fbm_batch,
    "solver.solve_euler": _pre_solve_euler,
    "norms.lambda_alpha": _pre_lambda_alpha,
    "norms.norm_1ma_infty_T": _pre_norm_1ma,
    "norms.norm_holder": _pre_norm_holder,
    "_singular.backward_increment_integrals": _pre_bii,
    "grids.read_path_csv": _pre_read_csv,
    "manifest.sha256_file": _pre_sha256,
}

POST_HOOKS = {
    "solver.solve_picard": _post_solve_picard,
    "grids.write_path_csv": _post_write_csv,
}


class Tracer:
    """In-memory span recorder that installs itself by rebinding names.

    Use as a context manager: entering installs the wrappers, leaving
    restores every rebound name, also when the body raised.
    """

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.lambda_inputs: set = set()
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers
    def _span_wrapper(self, name: str, fn):
        pre, post = PRE_HOOKS.get(name), POST_HOOKS.get(name)
        sig = inspect.signature(fn) if (pre or post) else None
        spans, stack, run_id = self.spans, self._stack, self.run_id
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            span_name = name
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
                if pre is not None:
                    span_name = pre(tracer, bound) or name
            idx = len(spans)
            spans.append([span_name, clock(), None, stack[-1] if stack else -1, run_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][END] = clock()
                stack.pop()
            if post is not None:
                post(tracer, bound, result)
            return result

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------ install/restore
    def _targets(self):
        """(original, wrapper) pairs for every traced callable."""
        pairs = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    pairs.append((obj, self._span_wrapper(f"{layer}.{attr}", obj)))
        presets = sys.modules[f"{PACKAGE}.presets"]
        for attr in COEFFICIENT_CALLABLES:
            fn = getattr(presets, attr)
            pairs.append((fn, self._count_wrapper("solver.coef_calls", fn)))
        return pairs

    def install(self) -> None:
        importlib.import_module(PACKAGE)
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        wrappers = {id(orig): wrapped for orig, wrapped in self._targets()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapped = wrappers.get(id(obj))
                if wrapped is not None:
                    self._rebound.append((mod, attr, obj))
                    setattr(mod, attr, wrapped)
        # InitialSegment.from_function is a classmethod: wrap the function
        # and rebind the descriptor on the class itself.
        cls = sys.modules[f"{PACKAGE}.grids"].InitialSegment
        descriptor = cls.__dict__["from_function"]
        wrapped = self._span_wrapper("grids.InitialSegment.from_function", descriptor.__func__)
        self._rebound.append((cls, "from_function", descriptor))
        setattr(cls, "from_function", classmethod(wrapped))

    def restore(self) -> None:
        while self._rebound:
            owner, attr, original = self._rebound.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ---------------------------------------------------------------- output
    def write_spans(self, path) -> None:
        """One JSON object per span: id, name, start, end, parent, run."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "start": start, "end": end,
                    "parent": parent, "run": run,
                }) + "\n")


# ------------------------------------------------------------- arithmetic #


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it covered by child spans."""
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(span)
    out = []
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = union_length(
            (max(c[START], start), min(c[END], end))
            for c in children.get(idx, ())
            if c[END] > start and c[START] < end
        )
        out.append((end - start) - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def busy(spans, names) -> float:
    """Wall time inside any span whose name is in `names` (nesting counted once)."""
    return union_length((s[START], s[END]) for s in spans if s[NAME] in names)


def calls(spans, names) -> int:
    return sum(1 for s in spans if s[NAME] in names)


def self_sum(spans, selfs, names) -> float:
    return sum(t for s, t in zip(spans, selfs) if s[NAME] in names)


BII = "_singular.backward_increment_integrals"
CSV_WRITE = {"grids.write_path_csv"}
CSV_READ = {"grids.read_path_csv"}


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced workload body.

    `*.busy_s` is wall time inside the named public calls, `*.self_s`
    excludes child spans, and plain names are counts.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    c = tracer.counts
    lam_calls = calls(spans, {"norms.lambda_alpha"})
    m = {
        "fbm.calls": calls(spans, {"fbm.generate_fbm", "fbm.sample_fbm_batch"}),
        "fbm.paths": c["fbm.paths"],
        "fbm.busy_s": busy(spans, {s[NAME] for s in spans if layer_of(s[NAME]) == "fbm"}),
        "solver.euler.calls": calls(spans, {"solver.solve_euler"}),
        "solver.euler.steps": c["solver.euler.steps"],
        "solver.euler.self_s": self_sum(spans, selfs, {"solver.solve_euler"}),
        "solver.coef_calls": c["solver.coef_calls"],
        "solver.picard.calls": calls(spans, {"solver.solve_picard"}),
        "solver.picard.iterations": c["solver.picard.iterations"],
        "solver.picard.self_s": self_sum(spans, selfs, {"solver.solve_picard"}),
        "solver.a_priori.busy_s": busy(spans, {"solver.a_priori_record"}),
        "norms.report.calls": calls(spans, {"norms.compute_norm_report"}),
        "norms.report.busy_s": busy(spans, {"norms.compute_norm_report"}),
        "norms.lambda_alpha.calls": lam_calls,
        "norms.lambda_alpha.busy_s": busy(spans, {"norms.lambda_alpha"}),
        "norms.lambda_alpha.useful_ratio": (
            len(tracer.lambda_inputs) / lam_calls if lam_calls else 0.0
        ),
        "norms.alpha_infty.busy_s": busy(spans, {"norms.norm_alpha_infty"}),
        "norms.alpha_lambda.calls": calls(spans, {"norms.norm_alpha_lambda"}),
        "norms.alpha_lambda.busy_s": busy(spans, {"norms.norm_alpha_lambda"}),
        "norms.holder.busy_s": busy(spans, {"norms.norm_holder"}),
        "norms.norm_1ma.busy_s": busy(spans, {"norms.norm_1ma_infty_T"}),
        "norms.alpha_1.busy_s": busy(spans, {"norms.norm_alpha_1"}),
        "norms.delta_r.busy_s": busy(spans, {"norms.delta_r"}),
        "norms.pair_evals": c["norms.pair_evals"],
        "singular.bii.calls": calls(spans, {BII + ":scalar", BII + ":vector"}),
        "singular.bii.scalar_s": busy(spans, {BII + ":scalar"}),
        "singular.bii.vector_s": busy(spans, {BII + ":vector"}),
        "integrate.young.calls": calls(spans, {"integrate.young_integral"}),
        "integrate.young.busy_s": busy(spans, {"integrate.young_integral"}),
        "grids.csv_write.busy_s": busy(spans, CSV_WRITE),
        "grids.csv_write.bytes": c["grids.csv_write.bytes"],
        "grids.csv_read.busy_s": busy(spans, CSV_READ),
        "grids.csv_read.bytes": c["grids.csv_read.bytes"],
        "grids.segment.busy_s": busy(
            spans, {"grids.make_grid", "grids.InitialSegment.from_function"}
        ),
        "manifest.record.busy_s": busy(spans, {"manifest.record_run"}),
        "manifest.verify.busy_s": busy(spans, {"manifest.verify_outputs"}),
        "manifest.digested_bytes": c["manifest.digested_bytes"],
        "convergence.study.self_s": self_sum(
            spans, selfs, {"convergence.lp_convergence_study"}
        ),
        "convergence.gates.busy_s": busy(
            spans, {"convergence.rate_fit", "convergence.evaluate_convergence_gates"}
        ),
        "cli.self_s": self_sum(spans, selfs, {"cli.main"}),
    }
    per_layer = Counter()
    for span, t in zip(spans, selfs):
        per_layer[layer_of(span[NAME])] += t
    for layer in LAYERS:
        m[f"layer.{layer.lstrip('_')}.self_s"] = per_layer[layer]
    top = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    m["trace.spans"] = len(spans)
    m["trace.top_s"] = top
    m["trace.gap_s"] = wall_s - top
    return m
