#!/usr/bin/env python3
"""Reach probe: the functions of src/sddelab that no CLI run enters.

Runs every subcommand of the CLI, each run followed by its ``rerun``, under
a ``sys.setprofile`` hook.  The hook is installed before ``import sddelab``,
so what runs at import (a decorator such as ``_singular._non_finite_rule``)
counts as reached.  A unit is a function, method or lambda of a module under
src/sddelab, named ``module.qualname``; comprehensions belong to the unit
they sit in, and units of one name (two lambdas of one scope) are reached
together.  Every unit that no run entered must be in ALLOWED, which gives
the reason it stays although no run needs it, such as a criterion contract,
a test oracle or a failure path.

Exits 1 when an unreached unit is not in ALLOWED, when a unit in ALLOWED is
reached, or when it no longer exists; 0 otherwise.  A run's outputs go to a
temporary directory that is removed afterwards.

    python tools/reach.py
"""
from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "sddelab"

_CRITERION_5 = "criterion 5: the Nualart-Rascanu and sigma-increment audits of solved paths"
_CRITERION_8 = "criterion 8: Fernique integrability of the driver functional"
_HYPOTHESES = "validate_hypotheses: spot checks of a coefficient set's declared constants"
_A_PRIORI = "the a-priori growth bound fitted over a batch of solves (tests/test_solver.py)"
_PATH_API = "library path API that the tests and criteria build and read paths with"

#: unit -> why it stays although no CLI run enters it
ALLOWED: dict[str, str] = {
    "_singular.holder_seminorm.<locals>.swept": "the full sweep of a non-finite or overflowing row",
    "_singular.lag_sups": "holder_seminorm's every-lag reference: its non-finite sweep and oracle",
    "solver.DivergenceError.__init__": "the failure of a diverging solve, which exits 1",
    "_singular.backward_profile_integrals": _CRITERION_5,
    "_singular.iterated_increment_integrals": _CRITERION_5,
    "integrate._scalar_rows": _CRITERION_5,
    "integrate.nr_bounds_rows": _CRITERION_5,
    "integrate.NrBoundsReport.ok": _CRITERION_5,
    "integrate.sigma_increment_rows": _CRITERION_5,
    "integrate.SigmaIncrementReport.ok": _CRITERION_5,
    "convergence.fernique_statistics": _CRITERION_8,
    "convergence.FerniqueRecord.all_finite": _CRITERION_8,
    "convergence.pathwise_convergence_study": "the paper's almost-sure limit along one driver",
    "fbm.fbm_covariance": "criterion 1: the exact law the sampled covariance is checked against",
    "fbm.sample_fbm_batch": "criterion 1's bulk draws and the benchmark's drivers workload",
    "norms.weyl_derivative": "the pointwise oracle that Lambda_alpha must dominate",
    "grids.TimeGrid.index_of": "weyl_derivative's lookup of its two node times",
    "grids.SamplePath.sup_norm": "the sup-norm oracle of the magnitude rule",
    "solver.validate_hypotheses": _HYPOTHESES,
    "solver.validate_hypotheses.<locals>.norm": _HYPOTHESES,
    "solver.validate_hypotheses.<locals>.rows": _HYPOTHESES,
    "solver._quotient": _HYPOTHESES,
    "solver.ClauseReport.ok": _HYPOTHESES,
    "solver.HypothesisReport.ok": _HYPOTHESES,
    "solver.HypothesisReport.violations": _HYPOTHESES,
    "solver.CoefficientSet.b0_at": _HYPOTHESES,
    "presets._sigma_additive_dx": _HYPOTHESES,
    "presets._sigma_linear_dx": _HYPOTHESES,
    "presets._sigma_sine_dx": _HYPOTHESES,
    "solver.a_priori_bound_report": _A_PRIORI,
    "solver.FittedBound.admits": _A_PRIORI,
    "solver.APrioriRecord.base": _A_PRIORI,
    "solver.APrioriRecord.z": _A_PRIORI,
    "grids.SamplePath.from_function": _PATH_API,
    "grids.SamplePath.main_values": _PATH_API,
    "grids.SamplePath.history_values": _PATH_API,
    "grids.InitialSegment.r": _PATH_API,
    "grids.InitialSegment.times": _PATH_API,
}

_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def units() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) of every unit under PACKAGE -> its unit name."""
    found: dict[tuple[str, int, str], str] = {}

    def walk(code, module: str, prefix: str) -> None:
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            if const.co_name in _COMPREHENSIONS:
                walk(const, module, prefix)
                continue
            qualname = prefix + const.co_name
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                key = (const.co_filename, const.co_firstlineno, const.co_name)
                found[key] = f"{module}.{qualname}"
                walk(const, module, qualname + ".<locals>.")
            else:
                walk(const, module, qualname + ".")

    for file in sorted(PACKAGE.glob("*.py")):
        walk(compile(file.read_text(encoding="utf-8"), str(file), "exec"), file.stem, "")
    return found


def runs(tmp: Path) -> list[list[str]]:
    """Every subcommand once per kind of input, each followed by its rerun."""
    n = ["--n-main", "256"]
    config = tmp / "solve.cfg"
    config.write_text("alpha = 0.32\nseed = 5\neta = ramp\n", encoding="utf-8")
    fbm1, fbm2 = tmp / "fbm1" / "path.csv", tmp / "fbm2" / "path.csv"
    plan = {
        "fbm1": ["fbm", *n],
        "fbm2": ["fbm", *n, "--dim", "2", "--r", "0.25"],
        "fbm-cholesky": ["fbm", *n, "--method", "exact-cholesky"],
        "norms": ["norms", *n, "--r", "0.25", "--delta", "0.8"],
        "norms-input": ["norms", "--input", str(fbm2)],
        "norms-short": ["norms", "--n-main", "32"],  # rows below the pruning crossovers
        "integrate": ["integrate", *n],
        "integrate-input": ["integrate", "--f-input", str(fbm1), "--g-input", str(fbm2)],
        "integrate-scalar-input": ["integrate", "--f-input", str(fbm1), "--g-input", str(fbm1)],
        "solve-config": ["solve", *n, "--config", str(config)],
        "converge-sine": ["converge", *n, "--n-seeds", "30", "--k-max", "5"],
        "converge-hereditary": ["converge", *n, "--n-seeds", "30", "--k-max", "5",
                                "--preset", "hereditary-sup"],
    }
    presets = ("additive", "linear", "sine", "hereditary-sup")
    for preset, eta in zip(presets, ("constant", "ramp", "zero", "constant")):
        for scheme in ("euler", "picard"):
            plan[f"solve-{preset}-{scheme}"] = [
                "solve", *n, "--preset", preset, "--scheme", scheme, "--eta", eta]
    argvs = []
    for name, argv in plan.items():
        argvs.append(argv + ["--outdir", str(tmp / name)])
        again = tmp / (name + "-again")
        argvs.append(["rerun", "--manifest", str(tmp / name), "--outdir", str(again)])
    return argvs


def main() -> int:
    for var in [var for var in os.environ if var.startswith("SDDELAB_")]:
        del os.environ[var]  # the runs resolve their config from flags and files only
    entered: set = set()

    def probe(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.path.insert(0, str(SRC))
    sys.setprofile(probe)
    try:
        from sddelab import cli

        with tempfile.TemporaryDirectory() as tmp:
            argvs = runs(Path(tmp))
            for argv in argvs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = cli.main(argv)
                if code not in (cli.EXIT_OK, cli.EXIT_GATE):
                    print(f"reach: {' '.join(argv)} exited {code}:\n{out.getvalue()}")
                    return 1
    finally:
        sys.setprofile(None)

    found = units()
    reached = {
        found[key] for key in
        ((code.co_filename, code.co_firstlineno, code.co_name) for code in entered)
        if key in found
    }
    unreached = set(found.values()) - reached
    problems = [f"unreached and not allowed: {u}" for u in sorted(unreached - set(ALLOWED))]
    problems += [f"allowed but reached: {u}" for u in sorted(reached & set(ALLOWED))]
    problems += [f"allowed but gone: {u}" for u in sorted(set(ALLOWED) - set(found.values()))]
    for line in problems:
        print(f"reach: {line}")
    print(f"reach: {len(argvs)} CLI runs; {len(found)} units, {len(reached)} reached, "
          f"{len(unreached)} unreached, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
