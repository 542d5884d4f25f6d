"""Config-driven experiment harness.

Composes the compiler, noise models, simulators, and tomography into the
headline experiments: noise calibration, gate compilation across protection
schemes, fidelity sweeps versus gate time, and the reference-gate benchmark.
Results are deterministic CSV/JSON: one root seed, per-cell streams spawned
from sorted (gate, scheme, tau) indices, so any job count gives identical
bytes.

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
      "epsilon": 0.01,
      "realizations": 10000,
      "seed": 1
    }
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import io
import itertools
import json
import math
import multiprocessing
import numbers
import os
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .compiler import (
    DD_KINDS,
    GATE_ROTATIONS,
    CompileError,
    apply_amplitude_error,
    bb1_expand,
    check_tau,
    decompose_gate,
    gate_target,
    hard_pulse_schedule,
    protected_bb1_gate,
    pulse_count,
)
from .noise import (
    CalibrationResult,
    OUNoiseSpec,
    SpinBathSpec,
    bath_frame,
    calibrate_to_targets,
)
from .simulate import channel_operators
from .tomography import chi_from_operators, gate_fidelity

GATES = ("H", "NOT", "PI8", "NOOP")
SCHEMES = ("simple", "simple_padded", "bb1", "xy4", "xy8", "kdd")

# Published reference gate times and fidelities for the XY-8 benchmark.
REFERENCE_GATE_TIMES_S = {"H": 1.6e-3, "NOT": 0.6e-3, "PI8": 2.2e-3}
REFERENCE_FIDELITIES = {"H": 0.985, "NOT": 0.995, "PI8": 0.955}

_STDERR_BATCHES = 10


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class CalibrationTargets:
    """Noise given as decay-time targets to be calibrated before use."""

    t2_star_s: float
    t2_hahn_s: float


@dataclass(frozen=True)
class CalibrationFileRef:
    """Noise given as the path of a persisted calibration artifact."""

    path: str


@dataclass(frozen=True)
class ExperimentConfig:
    noise: object
    gates: tuple[str, ...]
    schemes: tuple[str, ...]
    tau_grid: tuple[float, ...]
    epsilon: float = 0.01
    realizations: int = 10000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(self, "tau_grid", tuple(float(t) for t in self.tau_grid))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        for name in ("realizations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
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
        if self.realizations < 1:
            raise ConfigError("realizations must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not abs(self.epsilon) < 0.5:
            raise ConfigError("epsilon must lie in (-0.5, 0.5)")


@dataclass(frozen=True)
class ResultRow:
    """One simulated (gate, scheme, tau) cell.  Its fields, in order, are the
    CSV columns; a field in seconds is written as <name>_s."""

    gate: str
    scheme: str
    tau: float = dataclasses.field(metadata={"unit": "s"})
    gate_time: float = dataclasses.field(metadata={"unit": "s"})
    pulse_count: int
    fidelity: float
    fidelity_stderr: float
    seed: int
    error: str = ""


_COLUMN_TYPES = tuple(typing.get_type_hints(ResultRow).values())
CSV_FIELDS = tuple(
    f"{f.name}_{f.metadata['unit']}" if f.metadata else f.name for f in dataclasses.fields(ResultRow)
)


def _parse_noise(d: dict):
    kind = d.get("kind")
    if kind == "ou":
        return OUNoiseSpec(
            sigma=float(d["sigma"]),
            tau_c=float(d["tau_c_s"]),
            dt=float(d["dt_s"]),
            sigma_static=float(d.get("sigma_static", 0.0)),
        )
    if kind == "spin_bath":
        couplings = tuple(float(b) for b in d["couplings"])
        return SpinBathSpec(
            n_bath=len(couplings),
            couplings=couplings,
            bath_couplings=np.array(d["bath_couplings"], dtype=float),
            system_offset=float(d.get("system_offset", 0.0)),
        )
    if kind == "targets":
        return CalibrationTargets(float(d["t2_star_s"]), float(d["t2_hahn_s"]))
    if kind == "calibration":
        return CalibrationFileRef(str(d["path"]))
    raise ConfigError(f"unknown noise kind {kind!r}")


def config_from_dict(d: dict) -> ExperimentConfig:
    try:
        if not isinstance(d["noise"], dict):
            raise ConfigError(f"noise must be an object, got {d['noise']!r}")
        for key in ("gates", "schemes", "tau_grid_s"):
            if not isinstance(d[key], (list, tuple)):
                raise ConfigError(f"{key} must be a list, got {d[key]!r}")
        optional = {key: d[key] for key in ("epsilon", "realizations", "seed") if key in d}
        return ExperimentConfig(
            noise=_parse_noise(d["noise"]),
            gates=d["gates"],
            schemes=d["schemes"],
            tau_grid=d["tau_grid_s"],
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
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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


def run_calibration(cfg: ExperimentConfig, out_path: str | None = None) -> CalibrationResult:
    """Calibrate the configured targets; persist the artifact when out_path is given.

    Deterministic per targets: reruns write byte-identical artifacts.
    """
    if not isinstance(cfg.noise, CalibrationTargets):
        raise ConfigError("run_calibration requires noise of kind 'targets'")
    result = calibrate_to_targets(cfg.noise.t2_star_s, cfg.noise.t2_hahn_s)
    if out_path is not None:
        text = calibration_artifact_text(cfg.noise, result)
        Path(out_path).write_text(text, encoding="utf-8")
    return result


def resolve_noise(cfg: ExperimentConfig):
    """Turn the configured noise into a concrete simulator model."""
    if isinstance(cfg.noise, (OUNoiseSpec, SpinBathSpec)):
        return cfg.noise
    if isinstance(cfg.noise, CalibrationTargets):
        return calibrate_to_targets(cfg.noise.t2_star_s, cfg.noise.t2_hahn_s).params
    if isinstance(cfg.noise, CalibrationFileRef):
        return load_calibration(cfg.noise.path)
    raise ConfigError(f"unsupported noise entry {type(cfg.noise).__name__}")


def build_schedule(gate: str, scheme: str, tau: float):
    """Compile one (gate, scheme) cell at inter-pulse delay tau."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if not 0 < tau < math.inf:  # every scheme writes tau into its label
        raise CompileError(f"tau must be positive and finite, got {tau!r}")
    rotations = decompose_gate(gate)
    target = gate_target(gate)
    label = f"{gate}:{scheme}:tau={tau:.6g}"
    if scheme == "simple":
        return hard_pulse_schedule(rotations, target, label)
    if scheme == "simple_padded":
        # Pad to the XY-8 protected duration so gate times compare like for like;
        # tau sets that duration, so it gets the decoupling schemes' range check.
        check_tau(tau)
        pad_to = len(rotations) * 5 * 8 * tau if rotations else 8 * tau
        return hard_pulse_schedule(rotations, target, label, pad_to=pad_to)
    if scheme == "bb1":
        expanded = [c for r in rotations for c in bb1_expand(r)]
        return hard_pulse_schedule(expanded, target, label)
    schedule = protected_bb1_gate(rotations, DD_KINDS[scheme], tau)
    return dataclasses.replace(schedule, label=label)


def simulate_cell(
    gate: str,
    scheme: str,
    tau: float,
    noise_model,
    epsilon: float,
    realizations: int,
    seed: int,
) -> ResultRow:
    """Compile, inject the amplitude error, simulate, and score one cell.

    Compile or simulation failures yield a NaN-sentinel diagnostic row rather
    than raising, so long sweeps survive single-cell failures.
    """
    try:
        schedule = build_schedule(gate, scheme, tau)
        if epsilon:
            schedule = apply_amplitude_error(schedule, epsilon)
        ops = channel_operators(schedule, noise_model, realizations, seed)
        chi_ideal = chi_from_operators(schedule.target_gate[None])
        fidelity = gate_fidelity(chi_from_operators(ops), chi_ideal)
        stderr = 0.0
        n_batches = min(_STDERR_BATCHES, realizations)
        # Noiseless and quantum-bath channels are exact: no sampling error.
        if isinstance(noise_model, OUNoiseSpec) and n_batches > 1:
            batch_f = np.array([
                gate_fidelity(chi_from_operators(batch), chi_ideal)
                for batch in np.array_split(ops, n_batches)
            ])
            # Centred on the first batch, identical batches give exactly 0.
            stderr = float(np.std(batch_f - batch_f[0], ddof=1) / math.sqrt(n_batches))
        return ResultRow(gate=gate, scheme=scheme, tau=tau, gate_time=schedule.total_duration,
                         pulse_count=pulse_count(schedule), fidelity=fidelity,
                         fidelity_stderr=stderr, seed=seed)
    except (CompileError, ValueError) as exc:
        return ResultRow(gate=gate, scheme=scheme, tau=tau, gate_time=math.nan, pulse_count=0,
                         fidelity=math.nan, fidelity_stderr=math.nan, seed=seed, error=str(exc))


def _cell_seed(root_seed: int, gate_index: int, scheme_index: int, tau_index: int) -> int:
    ss = np.random.SeedSequence(
        entropy=root_seed, spawn_key=(gate_index, scheme_index, tau_index)
    )
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _set_blas_threads(n: int) -> int | None:
    """Set the thread count of the OpenBLAS bundled with numpy; return the old
    count, or None if this numpy build exposes no thread control."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        before = get()
        set_(n)
        return before
    return None


def run_cells(cfg: ExperimentConfig, cells, jobs: int = 1) -> list[ResultRow]:
    """Simulate (gate, scheme, tau, seed) cells under cfg's noise, one row per
    cell in cell order; any jobs gives the same rows.

    Cells run with one BLAS thread, here and in every pool worker, and the
    caller's count is restored afterwards.  This keeps jobs >= 2 from running
    more BLAS threads than there are cores, and guards the byte contract
    against the caller's thread setting.  No more workers start than there
    are cores.
    """
    noise_model = resolve_noise(cfg)
    tasks = [(gate, scheme, tau, noise_model, cfg.epsilon, cfg.realizations, seed)
             for gate, scheme, tau, seed in cells]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    before = _set_blas_threads(1)
    if before is None:
        print("warning: cannot set numpy's OpenBLAS thread count; cells run on its default",
              file=sys.stderr)
    try:
        if isinstance(noise_model, SpinBathSpec):
            bath_frame(noise_model)  # built once here, at one BLAS thread, so that forked workers inherit it
        if workers <= 1:
            return list(itertools.starmap(simulate_cell, tasks))
        with multiprocessing.Pool(workers, initializer=_set_blas_threads, initargs=(1,)) as pool:
            return pool.starmap(simulate_cell, tasks, chunksize=1)
    finally:
        if before is not None:
            _set_blas_threads(before)


def run_sweep(cfg: ExperimentConfig, jobs: int = 1) -> list[ResultRow]:
    """Simulate the full (gate, scheme, tau) cross product, sorted, deterministic."""
    axes = [enumerate(sorted(dict.fromkeys(a))) for a in (cfg.gates, cfg.schemes, cfg.tau_grid)]
    cells = [(gate, scheme, tau, _cell_seed(cfg.seed, gi, si, ti))
             for (gi, gate), (si, scheme), (ti, tau) in itertools.product(*axes)]
    return run_cells(cfg, cells, jobs)


def run_table1(cfg: ExperimentConfig) -> tuple[list[ResultRow], dict]:
    """Benchmark the rotation gates at their reference times with XY-8.

    tau is chosen so the protected schedule duration equals the reference gate
    time: tau = duration / (rotations * 5 * 8).  Returns the rows plus a report
    placing simulated fidelities beside the reference values.
    """
    gates = [g for g in sorted(dict.fromkeys(cfg.gates)) if g in REFERENCE_GATE_TIMES_S]
    if not gates:
        raise ConfigError("run_table1 requires at least one of H, NOT, PI8 in gates")
    rows = run_cells(cfg, [
        (gate, "xy8", REFERENCE_GATE_TIMES_S[gate] / (len(GATE_ROTATIONS[gate]) * 5 * 8),
         _cell_seed(cfg.seed, gi, 0, 0))
        for gi, gate in enumerate(gates)
    ])
    report = {}
    for row in rows:
        entry = dict(zip(CSV_FIELDS, dataclasses.astuple(row)))
        del entry["gate"], entry["scheme"], entry["seed"]  # keyed by gate; the scheme is xy8
        entry["reference_gate_time_s"] = REFERENCE_GATE_TIMES_S[row.gate]
        entry["reference_fidelity"] = REFERENCE_FIDELITIES[row.gate]
        report[row.gate] = entry
    return rows, report


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    # str() of a float is its shortest round-trip repr, so rows_from_csv is exact.
    writer.writerows([str(t(v)) for t, v in zip(_COLUMN_TYPES, dataclasses.astuple(row))] for row in rows)
    return buf.getvalue()


def rows_from_csv(text: str) -> list[ResultRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != CSV_FIELDS:
        raise ValueError(f"unexpected CSV header {header}")
    return [ResultRow(*(t(v) for t, v in zip(_COLUMN_TYPES, rec))) for rec in reader]


def summarize_rows(rows) -> dict:
    """Per (gate, scheme) min/median/max fidelity over cells that produced one."""
    grouped: dict[str, dict[str, list[float]]] = {}
    for row in rows:
        if row.error or not math.isfinite(row.fidelity):
            continue
        grouped.setdefault(row.gate, {}).setdefault(row.scheme, []).append(row.fidelity)
    summary: dict[str, dict[str, dict[str, float]]] = {}
    for gate, per_scheme in grouped.items():
        summary[gate] = {}
        for scheme, values in per_scheme.items():
            # np.median would import numpy.ma, about 13 ms in a fresh process.
            values, half = sorted(values), len(values) // 2
            median = values[half] if len(values) % 2 else (values[half - 1] + values[half]) / 2
            summary[gate][scheme] = {"min": values[0], "median": median, "max": values[-1]}
    return summary


def emit_report(rows, csv_path: str | None = None, summary_path: str | None = None):
    """Render rows to CSV text and a JSON summary; write them when paths are given."""
    if not rows:
        raise ValueError("emit_report requires at least one row")
    csv_text = rows_to_csv(rows)
    summary = summarize_rows(rows)
    summary_text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    if csv_path is not None:
        Path(csv_path).write_text(csv_text, encoding="utf-8")
    if summary_path is not None:
        Path(summary_path).write_text(summary_text, encoding="utf-8")
    return csv_text, summary
