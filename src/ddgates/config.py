"""Experiment configs and calibration artifacts, on the standard library alone.

Parses and validates the config JSON, renders and loads calibration
artifacts, and resolves the configured noise to the model the engines take.
A calibration artifact that the noise names loads with the config, so the
config holds its OUNoiseSpec, and a missing or malformed one fails there.
Nothing here imports numpy, so every command parses and resolves its config
without it, and `ddgates calibrate` runs without it.

Config JSON schema (all times in seconds)::

    {
      "noise": {"kind": "ou", "sigma": 4000.0, "tau_c_s": 1.5e-4,
                "dt_s": 1.5e-5, "sigma_static": 2000.0}
            | {"kind": "spin_bath", "couplings": [2.0e4, 3.1e4],
               "bath_couplings": [[0.0, 2.5e4], [2.5e4, 0.0]],
               "system_offset": 0.0}
            | {"kind": "targets", "t2_star_s": 3.7e-4, "t2_hahn_s": 7.5e-4}
            | {"kind": "calibration", "path": "calibration.json"},
      "gates": ["H", "NOT", "PI8", "NOOP"],
      "schemes": ["simple", "simple_padded", "bb1", "xy4", "xy8", "kdd"],
      "tau_grid_s": [3e-6, 1e-5, 3e-5],
      "epsilon": 0.01
    }

Any other key, at the top level or in "noise", raises ConfigError naming it,
and so does a numeric field given as a boolean or a string, or a string
field ("path") given as anything but a string.  The one
exception is the Monte-Carlo "realizations" and "seed" of earlier versions:
they are accepted at the top level and ignored, so those configs still load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .ou import CalibrationResult, OUNoiseSpec, calibrate_to_targets

GATES = ("H", "NOT", "PI8", "NOOP")
SCHEMES = ("simple", "simple_padded", "bb1", "xy4", "xy8", "kdd")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class CompileError(RuntimeError):
    """Raised when a schedule cannot be built or fails its target check."""


@dataclass(frozen=True)
class CalibrationTargets:
    """Noise given as decay-time targets to be calibrated before use."""

    t2_star_s: float
    t2_hahn_s: float


@dataclass(frozen=True)
class ExperimentConfig:
    noise: object
    gates: tuple[str, ...]
    schemes: tuple[str, ...]
    tau_grid: tuple[float, ...]
    epsilon: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(self, "tau_grid", tuple(float(t) for t in self.tau_grid))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if not self.gates or not self.schemes or not self.tau_grid:
            raise ConfigError("gates, schemes, and tau_grid must be non-empty")
        for g in self.gates:
            if g not in GATES:
                raise ConfigError(f"unknown gate {g!r}; expected one of {GATES}")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}; expected one of {SCHEMES}")
        if any(t <= 0 or not math.isfinite(t) for t in self.tau_grid):
            raise ConfigError("tau_grid entries must be positive and finite")
        if not abs(self.epsilon) < 0.5:
            raise ConfigError("epsilon must lie in (-0.5, 0.5)")


# The keys the config and each noise kind read, and the legacy keys that are accepted and ignored.
_CONFIG_KEYS = {"noise", "gates", "schemes", "tau_grid_s", "epsilon"}
_LEGACY_KEYS = {"realizations", "seed"}
_NOISE_KEYS = {
    "ou": {"kind", "sigma", "tau_c_s", "dt_s", "sigma_static"},
    "spin_bath": {"kind", "couplings", "bath_couplings", "system_offset"},
    "targets": {"kind", "t2_star_s", "t2_hahn_s"},
    "calibration": {"kind", "path"},
}


def _reject_unknown_keys(keys, known: set, where: str) -> None:
    for key in keys:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {where}; expected one of {sorted(known)}")


# The Python types of each kind of JSON value; a boolean, an int to Python, is none of them.
_JSON_KINDS = {"a number": (int, float), "an integer": int, "a string": str, "an object": dict}


def json_value(value, kind: str, field: str):
    """value if it is of kind, a key of _JSON_KINDS; else a ConfigError naming field."""
    if isinstance(value, bool) or not isinstance(value, _JSON_KINDS[kind]):
        raise ConfigError(f"{field} must be {kind}, got {value!r}")
    return value


def _number(value, key: str) -> float:
    """A JSON number as a float; float() would also take a boolean or a numeric string."""
    return float(json_value(value, "a number", key))


def _parse_noise(d: dict):
    kind = d.get("kind")
    if isinstance(kind, str) and kind in _NOISE_KEYS:
        _reject_unknown_keys(d, _NOISE_KEYS[kind], f"noise of kind {kind!r}")
    if kind == "ou":
        return OUNoiseSpec(
            sigma=_number(d["sigma"], "sigma"),
            tau_c=_number(d["tau_c_s"], "tau_c_s"),
            dt=_number(d["dt_s"], "dt_s"),
            sigma_static=_number(d.get("sigma_static", 0.0), "sigma_static"),
        )
    if kind == "spin_bath":
        from .noise import SpinBathSpec  # here, so that calibrate and OU configs load no bath module

        couplings = tuple(_number(b, "couplings") for b in d["couplings"])
        return SpinBathSpec(
            n_bath=len(couplings),
            couplings=couplings,
            bath_couplings=[[_number(v, "bath_couplings") for v in row] for row in d["bath_couplings"]],
            system_offset=_number(d.get("system_offset", 0.0), "system_offset"),
        )
    if kind == "targets":
        return CalibrationTargets(_number(d["t2_star_s"], "t2_star_s"), _number(d["t2_hahn_s"], "t2_hahn_s"))
    if kind == "calibration":
        return load_calibration(json_value(d["path"], "a string", "path"))
    raise ConfigError(f"unknown noise kind {kind!r}")


def config_from_dict(d: dict) -> ExperimentConfig:
    try:
        _reject_unknown_keys((k for k in d if k not in _LEGACY_KEYS), _CONFIG_KEYS, "the config")
        json_value(d["noise"], "an object", "noise")
        for key in ("gates", "schemes", "tau_grid_s"):
            if not isinstance(d[key], (list, tuple)):
                raise ConfigError(f"{key} must be a list, got {d[key]!r}")
        optional = {"epsilon": _number(d["epsilon"], "epsilon")} if "epsilon" in d else {}
        return ExperimentConfig(
            noise=_parse_noise(d["noise"]),
            gates=d["gates"],
            schemes=d["schemes"],
            tau_grid=[_number(t, "tau_grid_s") for t in d["tau_grid_s"]],
            **optional,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return config_from_dict(doc)


# Schema 1 also held the seed of the Monte-Carlo fit; both schemas load alike.
CALIBRATION_SCHEMA = 2


def calibration_artifact_text(targets: CalibrationTargets, result: CalibrationResult) -> str:
    doc = {
        "schema": CALIBRATION_SCHEMA,
        "targets": {"t2_star_s": targets.t2_star_s, "t2_hahn_s": targets.t2_hahn_s},
        "params": {
            "kind": "ou",
            "sigma": result.params.sigma,
            "tau_c_s": result.params.tau_c,
            "dt_s": result.params.dt,
            "sigma_static": result.params.sigma_static,
        },
        "fitted": {
            "t2_star_s": result.fitted_t2_star,
            "t2_hahn_s": result.fitted_t2_hahn,
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def load_calibration(path: str) -> OUNoiseSpec:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        schema = doc.get("schema", 1)
        if schema not in (1, CALIBRATION_SCHEMA):
            raise ValueError(f"unknown schema {schema!r}")
        if doc["params"].get("kind") != "ou":
            raise ValueError(f"params must be of kind 'ou', got {doc['params'].get('kind')!r}")
        return _parse_noise(doc["params"])
    except (OSError, json.JSONDecodeError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot load calibration artifact {path}: {exc}") from exc


def run_calibration(cfg: ExperimentConfig) -> CalibrationResult:
    """Calibrate the configured targets; `calibration_artifact_text` renders the result.

    Deterministic per targets: reruns give byte-identical artifacts.
    """
    if not isinstance(cfg.noise, CalibrationTargets):
        raise ConfigError("run_calibration requires noise of kind 'targets'")
    return calibrate_to_targets(cfg.noise.t2_star_s, cfg.noise.t2_hahn_s)


def resolve_noise(cfg: ExperimentConfig):
    """The configured noise as an OUNoiseSpec or a SpinBathSpec: targets are calibrated, the rest is as loaded."""
    if isinstance(cfg.noise, CalibrationTargets):
        return calibrate_to_targets(cfg.noise.t2_star_s, cfg.noise.t2_hahn_s).params
    return cfg.noise
