"""The three benchmark workloads: their items, warm-up and correctness checks.

An item is one CLI invocation (``sddelab.cli.main``) or one bulk draw
(``sample_fbm_batch``).  A workload turns its seed into the CLI
arguments of its items; the program sees only those arguments.  Checks
run after the timed body and outside any tracing.

study    ``converge`` on preset sine, the paper's delay-to-zero study.
         Euler stepping and the scalar norms dominate.
solve    four ``solve`` runs at the CLI defaults with the full report:
         picard on sine, linear and hereditary-sup, euler on
         hereditary-sup.  The norm family and certificate report
         dominate, and it is the only workload on the hereditary drift.
drivers  driver traffic without a solve: bulk covariance draws, a chain
         of large fbm/integrate/rerun commands through CSV files, and
         ``norms`` on a two-component path (the vector norm branch).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import sddelab
from sddelab import (
    FbmConfig,
    InitialSegment,
    SolverConfig,
    coefficient_preset,
    eta_preset,
    fbm_covariance,
    generate_fbm,
    make_grid,
    read_path_csv,
    solve_euler,
)
from sddelab import cli

import reference

#: seed whose outputs were recorded in reference.json.
DEFAULT_SEED = 0

HURST = 0.75  # CLI default
ALPHA = 0.3  # CLI default

#: criterion-1 lattice of the bulk covariance check.
LATTICE = np.array([32, 64, 128, 192, 256])
DRAW_HURSTS = (0.6, 0.75, 0.9)
#: The bulk draws use one fixed fBm seed, as criterion 1 does.  The
#: 3-SE entrywise check over 3 x 15 covariance entries raises a false
#: alarm for a few percent of independent draw sets, so a draw seed that
#: followed the workload seed would report failures that are not defects.
DRAW_SEED = 0


@dataclass
class Outcome:
    """What one item did: exit code (None if it raised), captured output."""

    name: str
    code: int | None
    text: str = ""
    error: str = ""
    data: object = None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.error) or bool(self.problems)


@dataclass
class Item:
    name: str
    run: Callable[[], tuple[int, str, object]]


def derive_seeds(workload: str, seed: int, count: int) -> list[int]:
    """CLI master seeds for a workload, a pure function of its seed."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(1 << 31) for _ in range(count)]


def cli_item(name: str, argv: list[str]) -> Item:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
        return code, buf.getvalue(), None

    return Item(name, run)


def run_items(items: list[Item]) -> list[Outcome]:
    """Run items in order; an escaped exception fails only its own item."""
    outcomes = []
    for item in items:
        try:
            code, text, data = item.run()
            outcomes.append(Outcome(item.name, code, text, data=data))
        except Exception as exc:  # the item fails; the workload goes on
            outcomes.append(Outcome(item.name, None, error=f"{type(exc).__name__}: {exc}"))
    return outcomes


def fill_driver_caches(sizes) -> None:
    """Compute the circulant eigenvalues for every (hurst, n) the body uses."""
    for hurst, n in sizes:
        generate_fbm(make_grid(1.0, n), FbmConfig(hurst=hurst))


class Workload:
    name = ""

    def items(self, seed: int, root: Path, small: bool = False) -> list[Item]:
        raise NotImplementedError

    def cache_sizes(self) -> list[tuple[float, int]]:
        raise NotImplementedError

    def outputs(self) -> list[str]:
        """Output files, relative to the run root, covered by reference.json."""
        raise NotImplementedError

    def check(self, seed: int, root: Path, outcomes: list[Outcome]) -> None:
        """Append problems to the outcomes whose outputs are wrong."""

    def warm_up(self, root: Path) -> None:
        """A reduced pass over every item, then the full-size lazy caches.

        The reduced items are too small for the study's gates, so their
        exit codes are not checked; an escaped exception still stops.
        """
        for outcome in run_items(self.items(DEFAULT_SEED, root, small=True)):
            if outcome.error:
                raise RuntimeError(f"warm-up item {outcome.name}: {outcome.error}")
        fill_driver_caches(self.cache_sizes())

    def check_reference(self, seed: int, root: Path, outcomes: list[Outcome],
                        refs: dict) -> None:
        """At the default seed, outputs must match the recorded reference."""
        if seed != DEFAULT_SEED:
            return
        by_name = {o.name: o for o in outcomes}
        for rel in self.outputs():
            problem = reference.compare(root / rel, refs[self.name][rel])
            if problem:
                by_name[rel.split("/", 1)[0]].problems.append(f"{rel}: {problem}")


# --------------------------------------------------------------- study #


class Study(Workload):
    name = "study"
    n_main, n_seeds, k_min, k_max = 512, 30, 2, 8

    def items(self, seed, root, small=False):
        (s,) = derive_seeds(self.name, seed, 1)
        n_main, k_min, k_max = (16, 1, 4) if small else (self.n_main, self.k_min, self.k_max)
        return [cli_item("converge", [
            "converge", "--outdir", str(root / "converge"), "--preset", "sine",
            "--n-main", str(n_main), "--n-seeds", str(self.n_seeds),
            "--k-min", str(k_min), "--k-max", str(k_max), "--seed", str(s),
        ])]

    def cache_sizes(self):
        return [(HURST, self.n_main)]

    def outputs(self):
        return ["converge/samples.csv", "converge/summary.csv", "converge/plot_convergence.py"]

    def check(self, seed, root, outcomes):
        (out,) = outcomes
        if out.code == 0:
            rows = (root / "converge" / "samples.csv").read_text().count("\n") - 1
            want = self.n_seeds * (self.k_max - self.k_min + 1)
            if rows != want:
                out.problems.append(f"samples.csv has {rows} rows, expected {want}")
        elif out.code is not None:
            out.problems.append(f"converge exited {out.code} (3 means a gate failed)")


# --------------------------------------------------------------- solve #


class Solve(Workload):
    name = "solve"
    n_main, r = 2048, 0.25
    runs = (
        ("picard", "sine"),
        ("picard", "linear"),
        ("picard", "hereditary-sup"),
        ("euler", "hereditary-sup"),
    )

    def _dir(self, scheme, preset):
        return f"{scheme}-{preset}"

    def items(self, seed, root, small=False):
        seeds = derive_seeds(self.name, seed, len(self.runs))
        n_main = 64 if small else self.n_main
        return [
            cli_item(self._dir(scheme, preset), [
                "solve", "--outdir", str(root / self._dir(scheme, preset)),
                "--preset", preset, "--scheme", scheme,
                "--n-main", str(n_main), "--seed", str(s),
            ])
            for (scheme, preset), s in zip(self.runs, seeds)
        ]

    def cache_sizes(self):
        return [(HURST, self.n_main)]

    def outputs(self):
        return [f"{self._dir(*run)}/{name}" for run in self.runs
                for name in ("solution.csv", "record.json")]

    def check(self, seed, root, outcomes):
        """Every solve agrees with a library Euler solve on the same driver.

        The discrete Picard fixed point is the Euler path.  Picard stops
        once its lambda-weighted residual is below picard_tol, which
        bounds the unweighted distance by e^(lambda T) * picard_tol; the
        CLI's own Euler run must match the library bit for bit.
        """
        seeds = derive_seeds(self.name, seed, len(self.runs))
        grid = make_grid(1.0, self.n_main, self.r)
        eta = InitialSegment.from_function(eta_preset("constant"), self.r, grid.h)
        cfg = SolverConfig(alpha=ALPHA, grid=grid, hurst=HURST, compute_report=False)
        for (scheme, preset), s, out in zip(self.runs, seeds, outcomes):
            if out.code != 0:
                continue
            folder = root / self._dir(scheme, preset)
            got = read_path_csv(folder / "solution.csv").values
            g = generate_fbm(grid.main_only(), FbmConfig(hurst=HURST, seed=s))
            want = solve_euler(coefficient_preset(preset), eta, g, cfg).path.values
            dev = float(np.max(np.abs(got - want)))
            if scheme == "euler":
                if dev != 0.0:
                    out.problems.append(f"euler path differs from solve_euler by {dev:.3e}")
                continue
            record = json.loads((folder / "record.json").read_text())
            config = json.loads((folder / "manifest.jsonl").read_text().splitlines()[-1])["config"]
            tol = math.exp(record["lam"] * grid.t_end) * config["picard_tol"]
            if not record["converged"] or dev > tol:
                out.problems.append(
                    f"picard vs euler deviation {dev:.3e} exceeds {tol:.3e} "
                    f"(converged={record['converged']})"
                )


# ------------------------------------------------------------- drivers #


class Drivers(Workload):
    name = "drivers"
    draw_paths, draw_n = 8192, 256
    big_n, norms_n = 32768, 1024

    def items(self, seed, root, small=False):
        s1, s2, s3 = derive_seeds(self.name, seed, 3)
        paths = 64 if small else self.draw_paths
        big = 16 if small else self.big_n
        norms_n = 16 if small else self.norms_n
        grid = make_grid(1.0, self.draw_n)
        items = []
        for hurst in DRAW_HURSTS:
            def draw(hurst=hurst):
                # looked up on the package at call time, so a traced run sees it
                batch = sddelab.sample_fbm_batch(
                    grid, FbmConfig(hurst=hurst, seed=DRAW_SEED), paths)
                lattice = batch[:, LATTICE].copy()
                return 0, "", lattice

            items.append(Item(f"draw-H{hurst:g}", draw))
        fbm1, fbm2, fbm3 = root / "fbm-dim1", root / "fbm-dim2", root / "fbm-norms"
        items += [
            cli_item("fbm-dim1", ["fbm", "--outdir", str(fbm1), "--n-main", str(big),
                                  "--dim", "1", "--seed", str(s1)]),
            cli_item("fbm-dim2", ["fbm", "--outdir", str(fbm2), "--n-main", str(big),
                                  "--dim", "2", "--seed", str(s2)]),
            cli_item("integrate", ["integrate", "--outdir", str(root / "integrate"),
                                   "--n-main", str(big), "--seed", str(s1),
                                   "--f-input", str(fbm1 / "path.csv"),
                                   "--g-input", str(fbm2 / "path.csv")]),
            cli_item("rerun", ["rerun", "--manifest", str(fbm2),
                               "--outdir", str(root / "rerun")]),
            cli_item("fbm-norms", ["fbm", "--outdir", str(fbm3), "--n-main", str(norms_n),
                                   "--dim", "2", "--seed", str(s3)]),
            cli_item("norms", ["norms", "--outdir", str(root / "norms"),
                               "--input", str(fbm3 / "path.csv"), "--seed", str(s3)]),
        ]
        return items

    def cache_sizes(self):
        return [(h, self.draw_n) for h in DRAW_HURSTS] + [
            (HURST, self.big_n), (HURST, self.norms_n)]

    def outputs(self):
        return ["fbm-dim1/path.csv", "fbm-dim2/path.csv", "integrate/integral.csv",
                "rerun/path.csv", "fbm-norms/path.csv", "norms/norms.csv"]

    def check(self, seed, root, outcomes):
        by_name = {o.name: o for o in outcomes}
        times = LATTICE / float(self.draw_n)
        for hurst in DRAW_HURSTS:
            out = by_name[f"draw-H{hurst:g}"]
            if out.code != 0:
                continue
            V = out.data
            n = V.shape[0]
            C = fbm_covariance(times[:, None], times[None, :], hurst)
            se = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C**2) / n)
            z = float(np.max(np.abs(V.T @ V / n - C) / se))
            if not z <= 3.0:
                out.problems.append(f"H={hurst:g}: covariance off by {z:.2f} SE")
        rerun = by_name["rerun"]
        if rerun.code == 0:
            manifest = (root / "fbm-dim2" / "manifest.jsonl").read_text().splitlines()
            n_out = len(json.loads(manifest[-1])["outputs"])
            if (f"all {n_out} outputs byte-identical" not in rerun.text
                    or "MISMATCH" in rerun.text):
                rerun.problems.append("rerun did not report every output byte-identical")
        integ = by_name["integrate"]
        if integ.code == 0:
            vals = read_path_csv(root / "integrate" / "integral.csv").values
            if vals.shape != (self.big_n + 1, 2) or not np.isfinite(vals).all():
                integ.problems.append(f"integral.csv has shape {vals.shape} or non-finite values")
        norms = by_name["norms"]
        if norms.code == 0:
            row = (root / "norms" / "norms.csv").read_text().splitlines()[1]
            if not all(math.isfinite(float(v)) for v in row.split(",")):
                norms.problems.append(f"norms.csv holds a non-finite value: {row}")


WORKLOADS = {w.name: w for w in (Study(), Solve(), Drivers())}
