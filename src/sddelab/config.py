"""Layered run configuration for the command-line tools.

Four sources, lowest to highest precedence: built-in defaults,
environment variables with the ``SDDELAB_`` prefix, a flat ``key=value``
config file, and command-line flags.  Every key is declared per
subcommand; unknown keys in a config file are an error, and so are
``SDDELAB_``-prefixed variables that match no declared key anywhere.
A resolved or recorded config is checked by building the objects its
run builds (validate_config), so each admissibility rule has one home
and a refused config raises ConfigError before any output is made.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Mapping

from .fbm import FbmConfig
from .grids import make_grid
from .norms import check_delta_window
from .presets import coefficient_preset, eta_preset
from .solver import SolverConfig

ENV_PREFIX = "SDDELAB_"


class ConfigError(ValueError):
    """An unknown key or an inadmissible value in some config source."""


@dataclass(frozen=True)
class Option:
    """One declared key: its value kind, default, and one-line help."""

    kind: str  # "int" | "float" | "str" | "maybe_float"
    default: Any
    help: str = ""


_COMMON = {
    "outdir": Option("str", "sddelab-out", "directory all outputs are written under"),
    "seed": Option("int", 0, "master seed; every stream is derived from it"),
}

_DRIVER = {
    "hurst": Option("float", 0.75, "Hurst index of the driving path"),
    "horizon": Option("float", 1.0, "right endpoint T of the time interval"),
    "n_main": Option("int", 4096, "number of steps on [0, T]"),
    "method": Option("str", "circulant", "fBm sampler: exact-cholesky or circulant"),
}

SCHEMAS: dict[str, dict[str, Option]] = {
    "fbm": {
        **_COMMON,
        **_DRIVER,
        "r": Option("float", 0.0, "history length; the path is 0 on [-r, 0]"),
        "dim": Option("int", 1, "number of independent components"),
    },
    "norms": {
        **_COMMON,
        **_DRIVER,
        "alpha": Option("float", 0.3, "singularity exponent of the norm family"),
        "lam": Option("float", 1.0, "exponential weight of the discounted norm"),
        "delta": Option("float", 1.0, "power inside the increment functional"),
        "r": Option("float", 0.0, "history length of the simulated path"),
        "input": Option("str", "", "path CSV to measure; empty simulates fBm"),
    },
    "integrate": {
        **_COMMON,
        **_DRIVER,
        "alpha": Option("float", 0.3, "exponent used for the bound certificate"),
        "f_input": Option("str", "", "integrand CSV; empty integrates the driver against itself"),
        "g_input": Option("str", "", "driver CSV; empty simulates fBm"),
    },
    "solve": {
        **_COMMON,
        **_DRIVER,
        "alpha": Option("float", 0.3, "exponent the solver contracts in"),
        "r": Option("float", 0.25, "delay of the diffusion argument"),
        "preset": Option("str", "sine", "coefficient preset name"),
        "eta": Option("str", "constant", "initial-segment preset name"),
        "scheme": Option("str", "picard", "euler or picard"),
        "lam": Option("maybe_float", None, "weight of the stopping norm; empty picks one"),
        "picard_tol": Option("float", 1e-8, "stopping tolerance on the weighted residual"),
        "picard_max_iter": Option("int", 50, "iteration cap before giving up"),
    },
    "converge": {
        **_COMMON,
        **_DRIVER,
        "alpha": Option("float", 0.3, "exponent of the distance norm"),
        "preset": Option("str", "sine", "coefficient preset name"),
        "eta": Option("str", "constant", "initial-segment preset name"),
        "n_seeds": Option("int", 100, "independent driver paths in the study"),
        "k_min": Option("int", 2, "largest delay is T * 2^-k_min"),
        "k_max": Option("int", 8, "smallest delay is T * 2^-k_max"),
    },
}

_ALL_KEYS = frozenset(k for schema in SCHEMAS.values() for k in schema)


def _coerce(name: str, opt: Option, raw: Any) -> Any:
    if not isinstance(raw, str):
        return raw
    s = raw.strip()
    try:
        if opt.kind == "int":
            return int(s)
        if opt.kind == "float":
            return float(s)
        if opt.kind == "maybe_float":
            return None if s.lower() in ("", "none") else float(s)
    except ValueError:
        raise ConfigError(f"key {name!r} expects a {opt.kind}, got {raw!r}") from None
    return s


def parse_config_file(path: str) -> dict[str, str]:
    """Read ``key = value`` lines; ``#`` comments and blank lines are skipped."""
    pairs: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
            key, value = text.split("=", 1)
            key = key.strip()
            if key in pairs:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            pairs[key] = value.strip()
    return pairs


def resolve_config(
    subcommand: str,
    config_file: str | None = None,
    flags: Mapping[str, Any] | None = None,
    environ: Mapping[str, str] | None = None,
) -> dict[str, Any]:
    """Merge the four sources for one subcommand and validate the result."""
    if subcommand not in SCHEMAS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    schema = SCHEMAS[subcommand]
    resolved = {name: opt.default for name, opt in schema.items()}

    env = os.environ if environ is None else environ
    for var, raw in env.items():
        if not var.startswith(ENV_PREFIX):
            continue
        name = var[len(ENV_PREFIX):].lower()
        if name in schema:
            resolved[name] = _coerce(name, schema[name], raw)
        elif name not in _ALL_KEYS:
            raise ConfigError(f"environment variable {var} matches no known key")

    if config_file is not None:
        for name, raw in parse_config_file(config_file).items():
            if name not in schema:
                raise ConfigError(
                    f"unknown key {name!r} in {config_file} for subcommand {subcommand!r}"
                )
            resolved[name] = _coerce(name, schema[name], raw)

    for name, raw in (flags or {}).items():
        if raw is None:
            continue
        if name not in schema:
            raise ConfigError(f"unknown flag {name!r} for subcommand {subcommand!r}")
        resolved[name] = _coerce(name, schema[name], raw)

    validate_config(subcommand, resolved)
    return resolved


def check_recorded_config(subcommand: str, cfg: Any) -> None:
    """Reject a recorded run whose subcommand, keys or value types leave its schema."""
    kinds = {"int": int, "float": (int, float), "str": str, "maybe_float": (int, float, type(None))}
    _require(subcommand in tuple(SCHEMAS), f"unknown subcommand {subcommand!r}")
    schema = SCHEMAS[subcommand]
    odd = sorted(set(cfg) ^ set(schema)) if isinstance(cfg, dict) else sorted(schema)
    _require(not odd, f"recorded {subcommand} config misses or adds the keys {odd}")
    for name, opt in schema.items():
        ok = isinstance(cfg[name], kinds[opt.kind]) and not isinstance(cfg[name], bool)
        _require(ok, f"recorded key {name!r} expects a {opt.kind}, got {cfg[name]!r}")
    validate_config(subcommand, cfg)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def validate_config(subcommand: str, cfg: Mapping[str, Any]) -> None:
    """Reject inadmissible values by building the objects a run builds.

    Each rule lives with the object that uses it: FbmConfig, make_grid,
    SolverConfig (for every subcommand with an alpha), delta_r's window
    and the presets, whose ValueError becomes a ConfigError; a path input
    replaces the driver, so it skips FbmConfig and make_grid.  Stated here
    are only finiteness (a NaN lam or an infinite picard_tol passes those
    objects), the integrate input pairing and the delay ladder of converge.
    """
    for name, opt in SCHEMAS[subcommand].items():
        if opt.kind in ("float", "maybe_float") and cfg[name] is not None:
            _require(math.isfinite(cfg[name]), f"{name} must be finite, got {cfg[name]}")
    try:
        grid = hurst = None  # a read path's H is unknown: alpha only in (0, 1/2)
        if not (cfg.get("input") or cfg.get("f_input") or cfg.get("g_input")):
            hurst = cfg["hurst"]
            FbmConfig(hurst=hurst, dim=cfg.get("dim", 1), seed=cfg["seed"], method=cfg["method"])
            grid = make_grid(cfg["horizon"], cfg["n_main"], cfg.get("r", 0.0))
        if "alpha" in cfg:
            solver_keys = ("scheme", "lam", "picard_tol", "picard_max_iter")
            SolverConfig(
                alpha=cfg["alpha"], grid=grid, hurst=hurst,
                **{key: cfg[key] for key in solver_keys if key in cfg},
            )
        if "delta" in cfg:
            check_delta_window(cfg["alpha"], cfg["delta"])
        if "preset" in cfg:
            coefficient_preset(cfg["preset"])
            eta_preset(cfg["eta"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if subcommand == "integrate":
        _require(
            bool(cfg["f_input"]) == bool(cfg["g_input"]),
            "provide both f_input and g_input, or neither",
        )
    if subcommand == "converge":
        _require(cfg["n_seeds"] >= 30, f"n_seeds must be >= 30, got {cfg['n_seeds']}")
        _require(
            1 <= cfg["k_min"] and cfg["k_max"] - cfg["k_min"] >= 3,
            "need 1 <= k_min and k_max >= k_min + 3 (the rate fit takes at least "
            f"4 delays), got k_min={cfg['k_min']}, k_max={cfg['k_max']}",
        )
        _require(
            cfg["n_main"] % (1 << cfg["k_max"]) == 0,
            f"n_main = {cfg['n_main']} must be divisible by 2^k_max = {1 << cfg['k_max']} "
            "so every delay is a whole number of steps",
        )
