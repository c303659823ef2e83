"""Named coefficient sets and initial segments used by the CLI and studies.

All presets are scalar (d = m = 1).  Sigma acts elementwise on a batch
of states, and every drift reads a PathWindow over the batch; the
pointwise drifts read only its front value (see CoefficientSet).  Each
CoefficientSet carries the constants under which its hypotheses hold:

* ``additive``       sigma = 1,      b = 0
* ``linear``         sigma = x,      b = -x
* ``sine``           sigma = sin x,  b = -x
* ``hereditary-sup`` sigma = sin x,  b = sup of the past values
"""
from __future__ import annotations

import numpy as np

from .integrate import PathWindow
from .solver import CoefficientSet

__all__ = ["coefficient_preset", "eta_preset", "COEFFICIENT_PRESETS", "ETA_PRESETS"]


def _sigma_additive(t: float, x: np.ndarray) -> np.ndarray:
    return np.ones(np.shape(x) + (1,))


def _sigma_additive_dx(t: float, x: np.ndarray) -> np.ndarray:
    return np.zeros(np.shape(x) + (1,))


def _sigma_linear(t: float, x: np.ndarray) -> np.ndarray:
    return x[..., None]


def _sigma_linear_dx(t: float, x: np.ndarray) -> np.ndarray:
    return np.ones(np.shape(x) + (1,))


def _sigma_sine(t: float, x: np.ndarray) -> np.ndarray:
    return np.sin(x)[..., None]


def _sigma_sine_dx(t: float, x: np.ndarray) -> np.ndarray:
    return np.cos(x)[..., None]


def _drift_zero(t: float, window: PathWindow) -> np.ndarray:
    return np.zeros(np.shape(window.current))


def _drift_minus_x(t: float, window: PathWindow) -> np.ndarray:
    return -window.current


def _drift_sup(t: float, window: PathWindow) -> np.ndarray:
    return window.sup()


def _make_additive() -> CoefficientSet:
    return CoefficientSet(
        sigma=_sigma_additive,
        drift=_drift_zero,
        sigma_dx=_sigma_additive_dx,
        m0=0.0, mn=0.0, beta=1.0, delta=1.0,
        l0=0.0, ln=0.0, b0=None, k0=1.0, gamma=0.0, rho=2.0,
        name="additive",
    )


def _make_linear() -> CoefficientSet:
    return CoefficientSet(
        sigma=_sigma_linear,
        drift=_drift_minus_x,
        sigma_dx=_sigma_linear_dx,
        m0=1.0, mn=0.0, beta=1.0, delta=1.0,
        l0=1.0, ln=1.0, b0=None, k0=1.0, gamma=1.0, rho=2.0,
        name="linear",
    )


def _make_sine() -> CoefficientSet:
    return CoefficientSet(
        sigma=_sigma_sine,
        drift=_drift_minus_x,
        sigma_dx=_sigma_sine_dx,
        m0=1.0, mn=1.0, beta=1.0, delta=1.0,
        l0=1.0, ln=1.0, b0=None, k0=0.5, gamma=0.0, rho=2.0,
        name="sine",
    )


def _make_hereditary_sup() -> CoefficientSet:
    return CoefficientSet(
        sigma=_sigma_sine,
        drift=_drift_sup,
        sigma_dx=_sigma_sine_dx,
        m0=1.0, mn=1.0, beta=1.0, delta=1.0,
        l0=1.0, ln=1.0, b0=None, k0=0.5, gamma=0.0, rho=2.0,
        name="hereditary-sup",
    )


COEFFICIENT_PRESETS = {
    "additive": _make_additive,
    "linear": _make_linear,
    "sine": _make_sine,
    "hereditary-sup": _make_hereditary_sup,
}


def coefficient_preset(name: str) -> CoefficientSet:
    try:
        return COEFFICIENT_PRESETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown coefficient preset {name!r}; "
            f"choose from {sorted(COEFFICIENT_PRESETS)}"
        ) from None


def _eta_constant(t: float) -> float:
    return 1.0


def _eta_ramp(t: float) -> float:
    return 1.0 + t


def _eta_zero(t: float) -> float:
    return 0.0


ETA_PRESETS = {
    "constant": _eta_constant,
    "ramp": _eta_ramp,
    "zero": _eta_zero,
}


def eta_preset(name: str):
    try:
        return ETA_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown eta preset {name!r}; choose from {sorted(ETA_PRESETS)}"
        ) from None
