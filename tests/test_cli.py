"""Command-line behavior: precedence, exit codes, outputs, reruns."""

import json
import math
import os

import numpy as np
import pytest

from sddelab import (
    FbmConfig,
    SolverConfig,
    cli,
    coefficient_preset,
    compute_norm_report,
    eta_preset,
    fbm,
    make_grid,
    read_path_csv,
)
from sddelab.cli import main
from sddelab.config import (
    SCHEMAS,
    ConfigError,
    build_run,
    check_recorded_config,
    parse_config_file,
    resolve_config,
)
from sddelab.manifest import read_manifest, sha256_file, verify_outputs


def run(args):
    return main([str(a) for a in args])


# --- config resolution ----------------------------------------------------


def test_precedence_default_env_file_flag(tmp_path, monkeypatch):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("alpha = 0.35\nn_main = 1024\n")
    monkeypatch.setenv("SDDELAB_ALPHA", "0.31")
    monkeypatch.setenv("SDDELAB_SEED", "7")
    resolved = resolve_config("norms", None, {})
    assert resolved["alpha"] == 0.31  # env beats the default
    assert resolved["seed"] == 7
    resolved = resolve_config("norms", str(cfg_file), {})
    assert resolved["alpha"] == 0.35  # file beats env
    assert resolved["n_main"] == 1024
    resolved = resolve_config("norms", str(cfg_file), {"alpha": "0.4"})
    assert resolved["alpha"] == 0.4  # flag beats file


def test_config_file_comments_and_blank_lines(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("# full-line comment\n\nhurst = 0.8  # trailing comment\n")
    assert parse_config_file(str(f)) == {"hurst": "0.8"}


def test_config_file_rejects_duplicates_and_bad_lines(tmp_path):
    dup = tmp_path / "dup.cfg"
    dup.write_text("alpha = 0.3\nalpha = 0.4\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(dup))
    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("alpha 0.3\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(noeq))


def test_unknown_file_key_is_an_error(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("alpha = 0.3\nwibble = 2\n")
    with pytest.raises(ConfigError, match="wibble"):
        resolve_config("norms", str(f), {})


def test_foreign_env_key_is_ignored_but_junk_errors(monkeypatch):
    monkeypatch.setenv("SDDELAB_PRESET", "sine")  # a solve key, not an fbm key
    assert "preset" not in resolve_config("fbm", None, {})
    monkeypatch.setenv("SDDELAB_BOGUS", "1")
    with pytest.raises(ConfigError, match="SDDELAB_BOGUS"):
        resolve_config("fbm", None, {})


def test_type_coercion_failures_are_config_errors():
    with pytest.raises(ConfigError, match="alpha"):
        resolve_config("norms", None, {"alpha": "fast"})
    with pytest.raises(ConfigError, match="n_main"):
        resolve_config("norms", None, {"n_main": "2.5"})


def test_optional_weight_accepts_none():
    assert resolve_config("solve", None, {"lam": "none"})["lam"] is None
    assert resolve_config("solve", None, {"lam": "3.5"})["lam"] == 3.5
    with pytest.raises(ConfigError):
        resolve_config("solve", None, {"lam": "0.5"})  # must be >= 1


def test_exponent_constraint_names_the_interval(capsys, tmp_path):
    code = run(["solve", "--alpha", "0.2", "--hurst", "0.75",
                "--outdir", tmp_path / "x"])
    assert code == 2
    err = capsys.readouterr().err
    assert "(0.25, 0.5)" in err
    assert "alpha" in err and "hurst" in err
    assert not (tmp_path / "x").exists()


#: the grid and SolverConfig of each subcommand, built by hand from the README's defaults
_GRID, _SOLVE_GRID = make_grid(1.0, 4096), make_grid(1.0, 4096, 0.25)
BUILT_AT_DEFAULTS = {
    "fbm": (_GRID, None),
    "norms": (_GRID, SolverConfig(alpha=0.3, grid=_GRID, lam=1.0, hurst=0.75)),
    "integrate": (_GRID, SolverConfig(alpha=0.3, grid=_GRID, hurst=0.75)),
    "solve": (_SOLVE_GRID, SolverConfig(
        alpha=0.3, grid=_SOLVE_GRID, scheme="picard", lam=None, picard_tol=1e-8,
        picard_max_iter=50, hurst=0.75,
    )),
    "converge": (_GRID, SolverConfig(alpha=0.3, grid=_GRID, hurst=0.75)),
}


@pytest.mark.parametrize("subcommand", list(BUILT_AT_DEFAULTS))
def test_build_run_at_the_defaults_builds_the_documented_objects(subcommand):
    run = build_run(subcommand, resolve_config(subcommand, None, {}, environ={}))
    grid, solver = BUILT_AT_DEFAULTS[subcommand]
    assert run.fbm == FbmConfig(hurst=0.75, dim=1, seed=0, method="circulant")
    assert run.grid == grid
    assert run.solver == solver
    has_presets = "preset" in SCHEMAS[subcommand]
    assert run.coeffs == (coefficient_preset("sine") if has_presets else None)
    assert run.eta is (eta_preset("constant") if has_presets else None)


@pytest.mark.parametrize("subcommand, flags, solver", [
    ("norms", {"input": "unread.csv"}, SolverConfig(alpha=0.3, grid=None, lam=1.0)),
    ("integrate", {"f_input": "f.csv", "g_input": "g.csv"}, SolverConfig(alpha=0.3, grid=None)),
])
def test_build_run_with_a_path_input_builds_no_driver(subcommand, flags, solver):
    run = build_run(subcommand, resolve_config(subcommand, None, flags, environ={}))
    assert run.fbm is None and run.grid is None
    assert run.solver == solver  # no hurst: the path's H is unknown


def test_converge_requires_step_aligned_delays():
    with pytest.raises(ConfigError, match="divisible"):
        resolve_config("converge", None, {"n_main": "100", "k_max": "5"})


def test_converge_with_fewer_than_four_delays_is_refused_up_front(capsys, tmp_path):
    # k = 2..4 gives three delays and the rate fit takes four: refuse before the study
    out = tmp_path / "c"
    assert run(["converge", "--outdir", out, "--n-main", 16, "--n-seeds", 30,
                "--k-max", 4]) == 2
    assert "k_max >= k_min + 3" in capsys.readouterr().err
    assert not out.exists()
    # rerun refuses a recorded three-delay run through the same check
    assert run(["converge", "--outdir", out, "--n-main", 16, "--n-seeds", 30,
                "--k-min", 1, "--k-max", 4]) == 0
    manifest = out / "manifest.jsonl"
    line = json.loads(manifest.read_text())
    line["config"]["k_min"] = 2
    manifest.write_text(json.dumps(line) + "\n")
    capsys.readouterr()
    assert run(["rerun", "--manifest", out, "--outdir", tmp_path / "again"]) == 2
    assert "k_max >= k_min + 3" in capsys.readouterr().err
    assert not (tmp_path / "again").exists()


def test_off_grid_delay_is_a_config_error(capsys, tmp_path):
    code = run(["solve", "--r", "0.3", "--n-main", "256", "--outdir", tmp_path / "x"])
    assert code == 2
    assert "not aligned" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


#: one inadmissible value per rule, under each subcommand that has the key
REFUSED = [
    *[[sub, *flags] for sub in ("fbm", "norms", "integrate", "solve", "converge") for flags in (
        ["--seed", -1], ["--horizon", 0], ["--n-main", 1], ["--hurst", 1], ["--method", "bogus"])],
    *[[sub, *flags] for sub in ("norms", "integrate", "solve", "converge") for flags in (
        ["--alpha", 0.5], ["--alpha", 0.2, "--hurst", 0.75])],
    *[[sub, *flags] for sub in ("fbm", "norms", "solve") for flags in (
        ["--r", -0.25], ["--r", 0.3, "--n-main", 256])],
    *[[sub, "--lam", 0.5] for sub in ("norms", "solve")],
    *[[sub, *flags] for sub in ("solve", "converge") for flags in (
        ["--preset", "bogus"], ["--eta", "bogus"])],
    ["fbm", "--dim", 0],
    ["norms", "--delta", 0],
    ["norms", "--delta", 1.5],
    ["norms", "--alpha", 0.4, "--delta", 0.5],  # delta/(1+delta) = 1/3 < alpha
    ["solve", "--picard-tol", 0],
    ["solve", "--picard-max-iter", 0],
    ["solve", "--scheme", "rk4"],
    ["converge", "--n-seeds", 29],
    ["converge", "--k-min", 0],
    ["converge", "--k-min", 3, "--k-max", 5],
    ["converge", "--n-main", 100, "--k-max", 5],
    ["integrate", "--f-input", "only-one.csv"],
    # a path input is refused before it is read, so the file need not exist
    *[["norms", "--input", "unread.csv", *flags] for flags in (
        ["--alpha", 0.5], ["--lam", 0.5], ["--alpha", 0.4, "--delta", 0.5])],
]


@pytest.mark.parametrize("argv", REFUSED, ids=[" ".join(map(str, argv)) for argv in REFUSED])
def test_an_inadmissible_value_exits_2_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert run(argv + ["--outdir", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()  # so no manifest line either


def test_rerun_refuses_a_recorded_config_by_the_same_rules(tmp_path, capsys):
    first = tmp_path / "first"
    assert run(["norms", "--outdir", first, "--n-main", 64]) == 0
    manifest = first / "manifest.jsonl"
    line = json.loads(manifest.read_text())
    line["config"].update(alpha=0.4, delta=0.5)
    manifest.write_text(json.dumps(line) + "\n")
    with pytest.raises(ConfigError, match="delta"):
        check_recorded_config("norms", line["config"])
    capsys.readouterr()
    assert run(["rerun", "--manifest", first, "--outdir", tmp_path / "again"]) == 2
    assert "delta/(1+delta)" in capsys.readouterr().err
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["norms", "--lam", "inf"], id="norms-lam-inf"),
    pytest.param(["norms", "--lam", "nan"], id="norms-lam-nan"),
    pytest.param(["fbm", "--horizon", "inf"], id="fbm-horizon-inf"),
    pytest.param(["solve", "--r", "inf"], id="solve-r-inf"),
    pytest.param(["norms", "--r", "inf"], id="norms-r-inf"),
    pytest.param(["solve", "--picard-tol", "inf"], id="solve-picard-tol-inf"),
    pytest.param(["converge", "--hurst", "nan"], id="converge-hurst-nan"),
])
def test_a_non_finite_option_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert run(argv + ["--n-main", 64, "--outdir", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "finite" in err[0], err
    assert not out.exists()


# --- subcommand runs ------------------------------------------------------


def test_usage_errors_exit_2(tmp_path):
    assert run(["norms", "--no-such-flag", "1"]) == 2
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


def test_fbm_run_and_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = set(os.listdir(tmp_path))
    assert run(["fbm", "--outdir", "out", "--n-main", 64, "--seed", 3]) == 0
    after = set(os.listdir(tmp_path))
    assert after - before == {"out"}  # nothing written outside the outdir
    assert sorted(os.listdir("out")) == ["manifest.jsonl", "path.csv"]
    (record,) = read_manifest("out")
    assert record.subcommand == "fbm"
    assert record.config["n_main"] == 64
    assert record.config["seed"] == 3
    assert record.outputs["path.csv"] == sha256_file("out/path.csv")
    assert verify_outputs("out", record) == {}


def test_fbm_is_deterministic_across_directories(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["fbm", "--outdir", a, "--n-main", 64]) == 0
    assert run(["fbm", "--outdir", b, "--n-main", 64]) == 0
    assert (a / "path.csv").read_bytes() == (b / "path.csv").read_bytes()


def test_norms_csv_has_the_pinned_header(tmp_path):
    out = tmp_path / "n"
    assert run(["norms", "--outdir", out, "--n-main", 128]) == 0
    header, row = (out / "norms.csv").read_text().splitlines()
    assert header == (
        "alpha,lambda,norm_alpha_infty,holder,alpha_lambda,"
        "Lambda_alpha,Delta_r,norm_1ma,norm_alpha_1"
    )
    values = [float(v) for v in row.split(",")]
    assert len(values) == 9
    assert values[0] == 0.3


def test_norms_reads_an_external_path(tmp_path):
    src = tmp_path / "src"
    assert run(["fbm", "--outdir", src, "--n-main", 128, "--seed", 5]) == 0
    out = tmp_path / "n"
    assert run(["norms", "--outdir", out, "--input", src / "path.csv"]) == 0
    assert (out / "norms.csv").exists()


@pytest.mark.parametrize("extra", [[], ["--n-main", 1], ["--horizon", 0]])
def test_a_path_input_reads_no_driver_key(tmp_path, extra):
    # alpha = 0.2 is admissible for the H = 0.9 path, not for the default hurst
    src = tmp_path / "src"
    assert run(["fbm", "--outdir", src, "--hurst", 0.9, "--n-main", 256]) == 0
    path_csv = src / "path.csv"
    out = tmp_path / "n"
    assert run(["norms", "--outdir", out, "--input", path_csv, "--alpha", 0.2, *extra]) == 0
    row = (out / "norms.csv").read_text().splitlines()[1]
    report = compute_norm_report(read_path_csv(path_csv), 0.2)
    library = [report.alpha, report.lam, report.norm_alpha_infty, report.norm_holder,
               report.norm_alpha_lambda, report.lambda_alpha, report.delta_r,
               report.norm_1ma, report.norm_alpha_1]
    assert [float(v) for v in row.split(",")] == library
    check_recorded_config("norms", read_manifest(out)[0].config)
    both = ["--f-input", path_csv, "--g-input", path_csv, "--alpha", 0.2, *extra]
    assert run(["integrate", "--outdir", tmp_path / "i", *both]) == 0


@pytest.mark.parametrize("dim,k", [(1, -700), (2, 990)])
def test_norms_of_a_path_scaled_by_a_power_of_two_scale_exactly(tmp_path, dim, k):
    src = tmp_path / "src"
    assert run(["fbm", "--outdir", src, "--n-main", 128, "--seed", 5, "--dim", dim]) == 0
    lines = (src / "path.csv").read_text().splitlines()
    scaled = [lines[0]]
    for line in lines[1:]:  # the time column is kept as written; %.17g round-trips the values
        t, *xs = line.split(",")
        scaled.append(",".join([t] + [f"{math.ldexp(float(x), k):.17g}" for x in xs]))
    (tmp_path / "scaled.csv").write_text("\n".join(scaled) + "\n")
    tables = []
    for name in ["src/path.csv", "scaled.csv"]:
        out = tmp_path / f"n-{name[:3]}"
        assert run(["norms", "--outdir", out, "--input", tmp_path / name]) == 0
        header, row = (out / "norms.csv").read_text().splitlines()
        tables.append(dict(zip(header.split(","), row.split(","))))
    plain, big = tables
    assert "nan" not in big.values()
    for column in ["norm_alpha_infty", "holder", "alpha_lambda", "Lambda_alpha", "Delta_r", "norm_1ma", "norm_alpha_1"]:
        assert float(big[column]) == math.ldexp(float(plain[column]), k), column


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_norms_rejects_a_non_finite_input_path(tmp_path, capsys, token):
    src = tmp_path / "src"
    assert run(["fbm", "--outdir", src, "--n-main", 128, "--seed", 5]) == 0
    lines = (src / "path.csv").read_text().splitlines()
    t, _x = lines[40].split(",")
    lines[40] = f"{t},{token}"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "n"
    assert run(["norms", "--outdir", out, "--input", bad]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "norms.csv").exists()


@pytest.mark.parametrize("body", ["", "0,1\n0.5,2,7\n1,3\n", "0,1\n0.5,abc\n1,3\n"])
def test_norms_rejects_a_malformed_input_csv_with_exit_1(tmp_path, capsys, body):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x_1\n" + body)
    out = tmp_path / "n"
    assert run(["norms", "--outdir", out, "--input", bad]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: path CSV")
    assert not (out / "norms.csv").exists()


@pytest.mark.parametrize("text", [
    pytest.param("t,x_1,x_2\n0,1\n0.5,2\n1,3\n", id="header-wider-than-rows"),
    pytest.param("t,x_1\n1,1\n0.5,2\n0,3\n", id="decreasing-times"),
    pytest.param("t,x_1\n0,1\n0.25,2\n1,3\n", id="non-uniform"),
    pytest.param("t,x_1\n0.1,1\n0.2,2\n0.3,3\n", id="no-node-at-zero"),
])
def test_norms_refuses_an_input_csv_that_is_no_grid_with_exit_1(tmp_path, capsys, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    out = tmp_path / "n"
    assert run(["norms", "--outdir", out, "--input", bad]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: path CSV")
    assert not (out / "norms.csv").exists()


def test_integrate_writes_certificate(tmp_path):
    out = tmp_path / "i"
    assert run(["integrate", "--outdir", out, "--n-main", 128]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["satisfied"] is True
    assert cert["measured"] <= cert["bound"] * (1 + 1e-9)
    assert (out / "integral.csv").exists()


def test_solve_outputs_solution_and_record(tmp_path):
    out = tmp_path / "s"
    assert run([
        "solve", "--outdir", out, "--n-main", 256, "--preset", "sine",
        "--r", 0.25, "--seed", 2,
    ]) == 0
    rec = json.loads((out / "record.json").read_text())
    assert rec["scheme_used"] == "picard"
    assert rec["converged"] is True
    assert rec["lam"] >= 1.0
    assert rec["lam_formula"] >= rec["lam"]
    assert rec["norms"]["alpha"] == 0.3
    assert rec["regime"]["pathwise"] is True
    assert rec["a_priori"]["measured"] > 0
    header = (out / "solution.csv").read_text().splitlines()[0]
    assert header == "t,x_1"


def test_integrate_of_a_scalar_path_against_a_two_component_driver(tmp_path):
    for dim in (1, 2):
        assert run(["fbm", "--outdir", tmp_path / f"d{dim}", "--n-main", 128,
                    "--dim", dim, "--seed", 4]) == 0
    out = tmp_path / "i"
    assert run(["integrate", "--outdir", out, "--f-input", tmp_path / "d1" / "path.csv",
                "--g-input", tmp_path / "d2" / "path.csv"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["integral.csv", "manifest.jsonl"]
    integral = read_path_csv(out / "integral.csv")
    assert integral.values.shape == (129, 2)
    assert (out / "integral.csv").read_text().splitlines()[0] == "t,x_1,x_2"


def test_a_picard_solve_that_stops_at_its_iteration_cap_exits_1(tmp_path, capsys):
    out = tmp_path / "s"
    assert run(["solve", "--outdir", out, "--n-main", 64, "--picard-max-iter", 1]) == 1
    err = capsys.readouterr().err
    assert err == "solve: iteration did not reach tol=1e-08 within 1 steps\n"
    rec = json.loads((out / "record.json").read_text())
    assert rec["converged"] is False and len(rec["residuals"]) == 1
    (record,) = read_manifest(out)
    assert sorted(record.outputs) == ["record.json", "solution.csv"]
    for name, digest in record.outputs.items():
        assert sha256_file(out / name) == digest


def test_solve_euler_scheme_selected_by_flag(tmp_path):
    out = tmp_path / "se"
    assert run([
        "solve", "--outdir", out, "--n-main", 128, "--scheme", "euler",
    ]) == 0
    rec = json.loads((out / "record.json").read_text())
    assert rec["scheme_used"] == "euler"
    assert rec["iterations"] == 0


def test_converge_outputs_and_gate_exit(tmp_path):
    out = tmp_path / "c"
    code = run([
        "converge", "--outdir", out, "--n-main", 256, "--n-seeds", 30,
        "--k-min", 2, "--k-max", 5,
    ])
    assert code == 0
    samples = (out / "samples.csv").read_text().splitlines()
    assert samples[0] == "seed,r,dist_alpha,dist_sup,Lambda_alpha"
    assert len(samples) == 1 + 30 * 4  # header + seeds x delays
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "r,p,mean,stderr"
    assert len(summary) == 1 + 4 * 2
    script = (out / "plot_convergence.py").read_text()
    compile(script, "plot_convergence.py", "exec")  # valid python


def test_converge_runs_a_hereditary_preset_and_reruns_it(tmp_path):
    first = tmp_path / "first"
    assert run([
        "converge", "--preset", "hereditary-sup", "--outdir", first,
        "--n-main", 512, "--n-seeds", 30,
    ]) == 0
    again = tmp_path / "again"
    assert run(["rerun", "--manifest", first, "--outdir", again]) == 0
    for name in ("samples.csv", "summary.csv", "plot_convergence.py"):
        assert (first / name).read_bytes() == (again / name).read_bytes()


def test_converge_gate_failure_exits_3(tmp_path, monkeypatch):
    import sddelab.cli as cli
    from sddelab import ConvergenceReport

    # A nearly flat ladder: every gate should reject it.
    delays = (0.25, 0.125, 0.0625, 0.03125)
    rng = np.random.default_rng(0)
    dist = np.outer(1.0 + 0.2 * rng.random(8), np.asarray(delays) ** 0.05)
    means = np.stack([dist.mean(axis=0), (dist**2).mean(axis=0)])
    flat = ConvergenceReport(
        delays=delays,
        alpha=0.3,
        p_list=(1.0, 2.0),
        seeds=tuple(range(8)),
        dist_alpha=dist,
        dist_sup=dist * 0.5,
        lambda_alpha_samples=np.ones(8),
        lp_means=means,
        lp_stderr=np.zeros_like(means),
        dominating=dist.max(axis=1),
    )

    def fake_study(*args, **kwargs):
        return flat

    monkeypatch.setattr(cli, "lp_convergence_study", fake_study)
    code = run([
        "converge", "--outdir", tmp_path / "c", "--n-main", 256,
        "--n-seeds", 30, "--k-min", 2, "--k-max", 5,
    ])
    assert code == 3


def test_rerun_reproduces_bytes(tmp_path):
    first = tmp_path / "first"
    assert run(["solve", "--outdir", first, "--n-main", 128, "--seed", 9]) == 0
    again = tmp_path / "again"
    assert run(["rerun", "--manifest", first, "--outdir", again]) == 0
    for name in ("solution.csv", "record.json"):
        assert (first / name).read_bytes() == (again / name).read_bytes()


def test_rerun_detects_tampering(tmp_path):
    first = tmp_path / "first"
    assert run(["fbm", "--outdir", first, "--n-main", 64]) == 0
    (record,) = read_manifest(first)
    (first / "path.csv").write_text("t,x_1\n0,0\n")
    mismatches = verify_outputs(first, record)
    assert "path.csv" in mismatches


def test_rerun_of_a_changed_digest_names_the_output_and_exits_1(tmp_path, capsys):
    first = tmp_path / "first"
    assert run(["norms", "--outdir", first, "--n-main", 64]) == 0
    manifest = first / "manifest.jsonl"
    line = json.loads(manifest.read_text())
    line["outputs"]["norms.csv"] = "0" * 64
    manifest.write_text(json.dumps(line) + "\n")
    capsys.readouterr()
    assert run(["rerun", "--manifest", first, "--outdir", tmp_path / "again"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "rerun: norms.csv: MISMATCH"
    assert err == "rerun: 1 of 1 outputs differ\n"


def test_rerun_of_a_manifest_without_records_is_a_usage_error(tmp_path, capsys):
    first = tmp_path / "first"
    first.mkdir()
    (first / "manifest.jsonl").write_text("\n")
    assert run(["rerun", "--manifest", first, "--outdir", tmp_path / "again"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: no records")
    assert not (tmp_path / "again").exists()


def test_rerun_bad_index_is_a_usage_error(tmp_path):
    first = tmp_path / "first"
    assert run(["fbm", "--outdir", first, "--n-main", 64]) == 0
    assert run(["rerun", "--manifest", first, "--index", 5,
                "--outdir", tmp_path / "x"]) == 2


def _drop(mapping, key):
    del mapping[key]


@pytest.mark.parametrize("spoil", [
    pytest.param(lambda line: line.update(subcommand="bogus"), id="unknown-subcommand"),
    pytest.param(lambda line: _drop(line["config"], "seed"), id="config-without-seed"),
    pytest.param(lambda line: _drop(line, "created"), id="record-without-created"),
    pytest.param(lambda line: line["config"].update(n_main="64"), id="string-n-main"),
    pytest.param(lambda line: line.update(outputs=["path.csv"]), id="outputs-as-a-list"),
])
def test_rerun_of_a_malformed_record_is_a_usage_error(tmp_path, capsys, spoil):
    first = tmp_path / "first"
    assert run(["fbm", "--outdir", first, "--n-main", 64]) == 0
    manifest = first / "manifest.jsonl"
    line = json.loads(manifest.read_text())
    spoil(line)
    manifest.write_text(json.dumps(line) + "\n")
    capsys.readouterr()
    assert run(["rerun", "--manifest", first, "--outdir", tmp_path / "again"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "again").exists()


def test_rerun_flags_a_version_mismatch_but_exits_on_digests(tmp_path, capsys):
    first = tmp_path / "first"
    assert run(["fbm", "--outdir", first, "--n-main", 64]) == 0
    manifest = first / "manifest.jsonl"
    line = json.loads(manifest.read_text())
    line["version"] = "0.0.0-old"
    manifest.write_text(json.dumps(line) + "\n")
    capsys.readouterr()
    assert run(["rerun", "--manifest", first, "--outdir", tmp_path / "again"]) == 0
    err = capsys.readouterr().err
    assert f"rerun: recorded version 0.0.0-old differs from {cli.__version__}" in err


def test_out_of_memory_exits_1_with_an_error_line(tmp_path, capsys, monkeypatch):
    def no_memory(hurst, n):
        raise MemoryError("Unable to allocate the dense factor")

    monkeypatch.setattr(fbm, "_cholesky_factor", no_memory)
    code = run(["fbm", "--outdir", tmp_path / "o", "--n-main", 64,
                "--method", "exact-cholesky"])
    assert code == 1
    assert capsys.readouterr().err == "error: Unable to allocate the dense factor\n"
    assert not (tmp_path / "o" / "path.csv").exists()


def test_an_oversized_cholesky_factor_is_refused_before_allocating(tmp_path, capsys):
    # 24 n^2 bytes at n = 2^21 is about 105 TB, above any physical memory
    code = run(["fbm", "--outdir", tmp_path / "o", "--n-main", 2097152,
                "--method", "exact-cholesky"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: exact-cholesky at n = 2097152 needs")
    assert not (tmp_path / "o" / "path.csv").exists()


def test_a_failing_output_writer_keeps_the_earlier_file(tmp_path, monkeypatch):
    out = tmp_path / "o"
    assert run(["norms", "--outdir", out, "--n-main", 64]) == 0
    before = (out / "norms.csv").read_bytes()
    fmt, count = cli.float_text, []

    def failing(x):  # the header is written, then the fourth value fails
        count.append(x)
        if len(count) > 3:
            raise OSError("device full")
        return fmt(x)

    monkeypatch.setattr(cli, "float_text", failing)
    assert run(["norms", "--outdir", out, "--n-main", 64, "--seed", 3]) == 1
    assert (out / "norms.csv").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["manifest.jsonl", "norms.csv"]
