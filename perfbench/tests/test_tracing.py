"""Tests of the benchmark's tracing: self-time arithmetic, restoring every
rebound name, and counts that repeat exactly across traced runs.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
import sys

import pytest

import sddelab
from sddelab.grids import InitialSegment

import tracing
import workloads
from tracing import Tracer, busy, layer_metrics, self_times, union_length


def span(name, start, end, parent=-1):
    return [name, start, end, parent, "t"]


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert union_length([(1.0, 2.0), (1.2, 1.5)]) == pytest.approx(1.0)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        span("cli.main", 0.0, 10.0),            # 0
        span("solver.solve_euler", 1.0, 3.0, 0),  # 1
        span("norms.lambda_alpha", 1.5, 2.5, 1),  # 2, grandchild of 0
        span("norms.norm_holder", 2.0, 5.0, 0),   # 3, overlaps span 1
        span("grids.make_grid", 9.5, 11.0, 0),    # 4, runs past its parent
        span("cli.main", 12.0, 13.0),           # 5, second top-level span
    ]
    selfs = self_times(spans)
    # parent 0: children cover [1, 5] and [9.5, 10] -> 4.5 of 10
    assert selfs[0] == pytest.approx(5.5)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.5)
    assert selfs[5] == pytest.approx(1.0)
    assert busy(spans, {"cli.main"}) == pytest.approx(11.0)


def test_self_times_of_nested_spans_sum_to_top_level_time():
    tracer = Tracer("t")
    tracer.spans = [
        span("cli.main", 0.0, 4.0),
        span("solver.solve_picard", 0.5, 3.5, 0),
        span("norms.lambda_alpha", 0.75, 1.0, 1),
        span("norms.compute_norm_report", 2.0, 3.0, 1),
        span("norms.lambda_alpha", 2.5, 2.75, 3),
        span("fbm.sample_fbm_batch", 5.0, 6.0),
    ]
    m = layer_metrics(tracer, wall_s=6.5)
    layer_total = sum(v for k, v in m.items() if k.startswith("layer."))
    assert layer_total == pytest.approx(5.0)
    assert m["trace.top_s"] == pytest.approx(5.0)
    assert m["trace.gap_s"] == pytest.approx(1.5)
    assert m["norms.lambda_alpha.calls"] == 2
    assert m["norms.lambda_alpha.busy_s"] == pytest.approx(0.5)
    assert m["norms.report.busy_s"] == pytest.approx(1.0)
    assert m["solver.picard.self_s"] == pytest.approx(3.0 - 0.25 - 1.0)
    assert m["cli.self_s"] == pytest.approx(1.0)


def _sddelab_bindings():
    """Identity of every attribute of every loaded sddelab module."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "sddelab" or name.startswith("sddelab.")):
            for attr, obj in vars(mod).items():
                snap[(name, attr)] = id(obj)
    snap[("InitialSegment", "from_function")] = id(InitialSegment.__dict__["from_function"])
    return snap


def test_tracer_rebinds_and_then_restores_every_name():
    before = _sddelab_bindings()
    originals = (sddelab.lambda_alpha, sddelab.solver.lambda_alpha, sddelab.cli.main)
    tracer = Tracer("t")
    with tracer:
        assert sddelab.lambda_alpha is not originals[0]
        assert sddelab.solver.lambda_alpha is sddelab.norms.lambda_alpha
        assert sddelab.cli.main is not originals[2]
        assert sddelab.presets._sigma_sine.__wrapped__ is not None
        changed = {k for k, v in _sddelab_bindings().items() if before.get(k) != v}
        assert len(changed) > 50
    assert _sddelab_bindings() == before
    assert (sddelab.lambda_alpha, sddelab.solver.lambda_alpha, sddelab.cli.main) == originals


def test_tracer_restores_after_an_exception():
    before = _sddelab_bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer("t"):
            1 / 0
    assert _sddelab_bindings() == before


def test_spans_nest_under_their_caller():
    grid = sddelab.make_grid(1.0, 8)
    path = sddelab.generate_fbm(grid, sddelab.FbmConfig(hurst=0.75))
    with Tracer("run-7") as tracer:
        sddelab.compute_norm_report(path, 0.3)
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "norms.compute_norm_report"
    top = [s for s in tracer.spans if s[tracing.PARENT] < 0]
    assert len(top) == 1
    lam = [s for s in tracer.spans if s[tracing.NAME] == "norms.lambda_alpha"]
    assert len(lam) == 1 and lam[0][tracing.PARENT] == 0
    assert {s[tracing.RUN] for s in tracer.spans} == {"run-7"}
    # one lambda_alpha sweep and one 1ma sweep over n = 8: 36 pairs each;
    # holder over 9 nodes: 36; four increment integrals over 8 lags: 36 each
    assert tracer.counts["norms.pair_evals"] == 7 * 36


COUNTS = ("solver.coef_calls", "solver.picard.iterations",
          "norms.lambda_alpha.calls", "norms.pair_evals")


def _small_items(root):
    return [
        workloads.cli_item("converge", [
            "converge", "--outdir", str(root / "converge"), "--n-main", "256",
            "--n-seeds", "30", "--k-min", "2", "--k-max", "8", "--seed", "3"]),
        workloads.cli_item("picard", [
            "solve", "--outdir", str(root / "picard"), "--n-main", "256",
            "--preset", "hereditary-sup", "--seed", "5"]),
        workloads.cli_item("euler", [
            "solve", "--outdir", str(root / "euler"), "--n-main", "256",
            "--scheme", "euler", "--seed", "5"]),
    ]


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    results = []
    for run in range(2):
        tracer = Tracer(f"run-{run}")
        with tracer:
            outcomes = workloads.run_items(_small_items(tmp_path / str(run)))
        assert [o.code for o in outcomes] == [0, 0, 0]
        m = layer_metrics(tracer, wall_s=1.0)
        results.append({k: m[k] for k in COUNTS})
    assert all(v > 0 for v in results[0].values())
    assert results[0] == results[1]
