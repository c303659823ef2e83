"""Command-line front end.

Subcommands: ``fbm`` (simulate a driver path), ``norms`` (measure the
norm family of a path), ``integrate`` (pathwise integral with a bound
certificate), ``solve`` (one delay equation run), ``converge`` (the
delay-to-zero Monte Carlo study), and ``rerun`` (re-execute a manifest
line and verify byte-identical outputs).

Exit codes: 0 success, 1 runtime failure (out of memory included; an
``exact-cholesky`` n_main whose 24 n^2-byte factor exceeds physical
memory is refused before allocating), 2 usage or configuration error
(a malformed manifest record included), 3 statistical gates failed.
Every file a run writes lives under its configured ``outdir``, written
atomically, and each run appends a line to that ``manifest.jsonl``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .config import SCHEMAS, ConfigError, build_run, check_recorded_config, resolve_config
from .convergence import (
    default_delays,
    evaluate_convergence_gates,
    lp_convergence_study,
    rate_fit,
)
from .fbm import generate_fbm
from .grids import InitialSegment, atomic_open, float_text, read_path_csv, write_path_csv
from .integrate import young_integral
from .manifest import _jsonable, read_manifest, record_run, verify_outputs
from .norms import compute_norm_report
from .solver import DivergenceError, solve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_GATE = 3


def _run_fbm(cfg: dict, run: SimpleNamespace, outdir: Path) -> tuple[list[Path], int]:
    path = generate_fbm(run.grid, run.fbm)
    out = outdir / "path.csv"
    write_path_csv(path, out)
    print(
        f"fbm: H={cfg['hurst']:g}, n={cfg['n_main']}, dim={cfg['dim']}, "
        f"seed={cfg['seed']} -> {out}"
    )
    return [out], EXIT_OK


def _run_norms(cfg: dict, run: SimpleNamespace, outdir: Path) -> tuple[list[Path], int]:
    path = read_path_csv(cfg["input"]) if cfg["input"] else generate_fbm(run.grid, run.fbm)
    report = compute_norm_report(path, cfg["alpha"], lam=cfg["lam"], delta=cfg["delta"])
    out = outdir / "norms.csv"
    columns = (
        ("alpha", report.alpha),
        ("lambda", report.lam),
        ("norm_alpha_infty", report.norm_alpha_infty),
        ("holder", report.norm_holder),
        ("alpha_lambda", report.norm_alpha_lambda),
        ("Lambda_alpha", report.lambda_alpha),
        ("Delta_r", report.delta_r),
        ("norm_1ma", report.norm_1ma),
        ("norm_alpha_1", report.norm_alpha_1),
    )
    with atomic_open(out) as fh:
        fh.write(",".join(name for name, _ in columns) + "\n")
        fh.write(",".join(float_text(value) for _, value in columns) + "\n")
    print(
        f"norms: alpha={report.alpha:g} |f|_a={report.norm_alpha_infty:.6g} "
        f"Lambda_a={report.lambda_alpha:.6g} -> {out}"
    )
    return [out], EXIT_OK


def _run_integrate(cfg: dict, run: SimpleNamespace, outdir: Path) -> tuple[list[Path], int]:
    if cfg["f_input"]:
        f = read_path_csv(cfg["f_input"])
        g = read_path_csv(cfg["g_input"])
    else:
        f = g = generate_fbm(run.grid, run.fbm)
    scalar = f.dim == 1 and g.dim == 1
    result = young_integral(f, g, alpha=cfg["alpha"] if scalar else None)
    out = outdir / "integral.csv"
    write_path_csv(result.path, out)
    outputs = [out]
    if result.certificate is not None:
        cert = result.certificate
        cert_path = outdir / "certificate.json"
        with atomic_open(cert_path) as fh:
            fh.write(json.dumps(dataclasses.asdict(cert), sort_keys=True, indent=2) + "\n")
        outputs.append(cert_path)
        status = "satisfied" if cert.satisfied else "VIOLATED"
        print(
            f"certificate: |I(T)| = {cert.measured:.6g} vs "
            f"Lambda_alpha * |f|_{{alpha,1}} = {cert.bound:.6g} ({status})"
        )
    print(f"integrate: wrote {out}")
    return outputs, EXIT_OK


def _run_solve(cfg: dict, run: SimpleNamespace, outdir: Path) -> tuple[list[Path], int]:
    driver = generate_fbm(run.grid.main_only(), run.fbm)
    eta = InitialSegment.from_function(run.eta, cfg["r"], run.grid.h)
    bundle = solve(run.coeffs, eta, driver, run.solver)
    out = outdir / "solution.csv"
    write_path_csv(bundle.path, out)
    record = {
        "preset": cfg["preset"],
        "scheme_used": bundle.scheme_used,
        "iterations": bundle.iterations,
        "converged": bundle.converged,
        "lam": bundle.lam,
        "lam_formula": bundle.lam_formula,
        "residuals": list(bundle.residuals),
        "norms": dataclasses.asdict(bundle.norm_report),
        "a_priori": dataclasses.asdict(bundle.a_priori),
        "regime": dataclasses.asdict(bundle.regime),
    }
    rec_path = outdir / "record.json"
    with atomic_open(rec_path) as fh:
        fh.write(json.dumps(_jsonable(record), sort_keys=True, indent=2) + "\n")
    tail = f"{bundle.iterations} iterations, lam={bundle.lam:g}" if bundle.lam else "direct"
    print(f"solve[{cfg['preset']}]: {bundle.scheme_used} ({tail}) -> {out}")
    if not bundle.converged:
        print(
            f"solve: iteration did not reach tol={cfg['picard_tol']:g} within "
            f"{cfg['picard_max_iter']} steps",
            file=sys.stderr,
        )
        return [out, rec_path], EXIT_ERROR
    return [out, rec_path], EXIT_OK


_PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Log-log view of the delay ladder written next to this script."""
import csv
from collections import defaultdict

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

with open("summary.csv", newline="") as fh:
    rows = list(csv.DictReader(fh))
series = defaultdict(list)
for row in rows:
    series[float(row["p"])].append(
        (float(row["r"]), float(row["mean"]), float(row["stderr"]))
    )
fig, ax = plt.subplots(figsize=(5.0, 3.6))
for p, pts in sorted(series.items()):
    pts.sort()
    r = [a for a, _, _ in pts]
    mean = [b for _, b, _ in pts]
    err = [c for _, _, c in pts]
    ax.errorbar(r, mean, yerr=err, marker="o", capsize=2, label=f"p = {p:g}")
ax.set_xscale("log")
ax.set_yscale("log")
ax.set_xlabel("delay r")
ax.set_ylabel("mean distance to the undelayed solution")
ax.legend()
fig.tight_layout()
fig.savefig("convergence.png", dpi=150)
print("wrote convergence.png")
'''


def _run_converge(cfg: dict, run: SimpleNamespace, outdir: Path) -> tuple[list[Path], int]:
    delays = default_delays(cfg["horizon"], range(cfg["k_min"], cfg["k_max"] + 1))
    report = lp_convergence_study(
        run.coeffs,
        run.eta,
        run.fbm,
        cfg["alpha"],
        delays,
        p_list=(1.0, 2.0),
        n_seeds=cfg["n_seeds"],
        T=cfg["horizon"],
        n_main=cfg["n_main"],
    )
    fit = rate_fit(report)
    gates = evaluate_convergence_gates(report, fit)

    samples = outdir / "samples.csv"
    with atomic_open(samples) as fh:
        fh.write("seed,r,dist_alpha,dist_sup,Lambda_alpha\n")
        for i, seed in enumerate(report.seeds):
            lam_i = report.lambda_alpha_samples[i]
            for j, r in enumerate(report.delays):
                fh.write(
                    f"{seed},{float_text(r)},{float_text(report.dist_alpha[i, j])},"
                    f"{float_text(report.dist_sup[i, j])},{float_text(lam_i)}\n"
                )
    summary = outdir / "summary.csv"
    with atomic_open(summary) as fh:
        fh.write("r,p,mean,stderr\n")
        for j, r in enumerate(report.delays):
            for i, p in enumerate(report.p_list):
                fh.write(
                    f"{float_text(r)},{p:g},{float_text(report.lp_means[i, j])},"
                    f"{float_text(report.lp_stderr[i, j])}\n"
                )
    plot = outdir / "plot_convergence.py"
    with atomic_open(plot) as fh:
        fh.write(_PLOT_SCRIPT)

    print(
        f"converge[{cfg['preset']}]: {cfg['n_seeds']} seeds, "
        f"delays {delays[0]:g} .. {delays[-1]:g}"
    )
    print("gates: " + gates.describe())
    outputs = [samples, summary, plot]
    return outputs, EXIT_OK if gates.ok else EXIT_GATE


_EXECUTORS = {
    "fbm": _run_fbm,
    "norms": _run_norms,
    "integrate": _run_integrate,
    "solve": _run_solve,
    "converge": _run_converge,
}


def _execute(subcommand: str, cfg: dict) -> int:
    """Run the objects build_run builds from cfg and record the run in the manifest."""
    outdir = Path(cfg["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    outputs, code = _EXECUTORS[subcommand](cfg, build_run(subcommand, cfg), outdir)
    duration = time.perf_counter() - start
    record_run(outdir, subcommand, cfg, cfg["seed"], __version__, duration, outputs)
    return code


def _run_rerun(args: argparse.Namespace) -> int:
    try:
        records = read_manifest(args.manifest)
    except (TypeError, ValueError) as exc:  # a line that is not a JSON run record
        raise ConfigError(f"malformed record in {args.manifest}: {exc}") from None
    if not records:
        raise ConfigError(f"no records in {args.manifest}")
    try:
        record = records[args.index]
    except IndexError:
        raise ConfigError(
            f"manifest has {len(records)} records; index {args.index} is out of range"
        ) from None
    if record.version != __version__:
        print(f"rerun: recorded version {record.version} differs from {__version__}",
              file=sys.stderr)
    check_recorded_config(record.subcommand, record.config)
    if not isinstance(record.outputs, dict):
        raise ConfigError(f"recorded outputs must map names to digests, got {record.outputs!r}")
    _execute(record.subcommand, dict(record.config, outdir=args.outdir))
    mismatches = verify_outputs(Path(args.outdir), record)
    for name in sorted(record.outputs):
        status = "MISMATCH" if name in mismatches else "ok"
        print(f"rerun: {name}: {status}")
    if mismatches:
        print(
            f"rerun: {len(mismatches)} of {len(record.outputs)} outputs differ",
            file=sys.stderr,
        )
        return EXIT_ERROR
    print(f"rerun: all {len(record.outputs)} outputs byte-identical")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sddelab",
        description="Delay equations driven by rough paths: simulate, solve, study.",
    )
    parser.add_argument("--version", action="version", version=f"sddelab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    briefs = {
        "fbm": "simulate a fractional Brownian driver path to CSV",
        "norms": "evaluate the norm family of a path",
        "integrate": "pathwise integral with a bound certificate",
        "solve": "solve one delay equation on a simulated driver",
        "converge": "delay-to-zero Monte Carlo study with gates",
    }
    for name, schema in SCHEMAS.items():
        p = sub.add_parser(name, help=briefs[name])
        p.add_argument("--config", default=None, help="flat key=value config file")
        for key, opt in schema.items():
            p.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                default=None,
                metavar=opt.kind.upper().replace("MAYBE_", ""),
                help=f"{opt.help} (default: {opt.default})",
            )
    rerun = sub.add_parser(
        "rerun", help="re-execute a manifest line and verify its outputs"
    )
    rerun.add_argument("--manifest", required=True, help="manifest.jsonl or its directory")
    rerun.add_argument(
        "--index", type=int, default=-1, help="record to replay (default: last)"
    )
    rerun.add_argument("--outdir", required=True, help="fresh directory to rerun into")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        if args.subcommand == "rerun":
            return _run_rerun(args)
        flags = {
            key: getattr(args, key) for key in SCHEMAS[args.subcommand]
        }
        cfg = resolve_config(args.subcommand, args.config, flags)
        return _execute(args.subcommand, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, DivergenceError, MemoryError) as exc:
        # GridError is a ValueError; MemoryError comes from e.g. a dense factor
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
