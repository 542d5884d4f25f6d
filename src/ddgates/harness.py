"""Config-driven experiment harness.

Composes the compiler, noise models, simulators, and tomography into the
headline experiments: gate compilation across protection schemes, fidelity
sweeps versus gate time, and the reference-gate benchmark.  Results are
deterministic CSV/JSON: every engine is exact and the sweep's rows are sorted
by (gate, scheme, tau), so any job count gives identical bytes.  The config,
its noise resolution and the calibration artifacts live in `config`, which
needs no numpy; their names are re-exported here.
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
import os
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .compiler import (
    DD_KINDS,
    GATE_ROTATIONS,
    apply_amplitude_error,
    bb1_expand,
    check_tau,
    decompose_gate,
    gate_target,
    hard_pulse_schedule,
    protected_bb1_gate,
    pulse_count,
)
from .config import (  # those harness does not use are re-exported for its callers
    GATES,
    SCHEMES,
    CalibrationFileRef,
    CalibrationTargets,
    CompileError,
    ConfigError,
    ExperimentConfig,
    calibration_artifact_text,
    config_from_dict,
    load_calibration,
    load_config,
    resolve_noise,
    run_calibration,
)
from .noise import SpinBathSpec, bath_frame
from .tomography import process_fidelity

# Published reference gate times and fidelities for the XY-8 benchmark.
REFERENCE_GATE_TIMES_S = {"H": 1.6e-3, "NOT": 0.6e-3, "PI8": 2.2e-3}
REFERENCE_FIDELITIES = {"H": 0.985, "NOT": 0.995, "PI8": 0.955}


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
    error: str = ""


_COLUMN_TYPES = tuple(typing.get_type_hints(ResultRow).values())
CSV_FIELDS = tuple(
    f"{f.name}_{f.metadata['unit']}" if f.metadata else f.name for f in dataclasses.fields(ResultRow)
)


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


def simulate_cell(gate: str, scheme: str, tau: float, noise_model, epsilon: float) -> ResultRow:
    """Compile, inject the amplitude error, simulate, and score one cell.

    Every noise model's channel is exact, so fidelity_stderr is 0.  Compile or
    simulation failures yield a NaN-sentinel diagnostic row rather than raising,
    so long sweeps survive single-cell failures.
    """
    try:
        schedule = build_schedule(gate, scheme, tau)
        if epsilon:
            schedule = apply_amplitude_error(schedule, epsilon)
        return ResultRow(gate=gate, scheme=scheme, tau=tau, gate_time=schedule.total_duration,
                         pulse_count=pulse_count(schedule), fidelity=process_fidelity(schedule, noise_model),
                         fidelity_stderr=0.0)
    except (CompileError, ValueError) as exc:
        return ResultRow(gate=gate, scheme=scheme, tau=tau, gate_time=math.nan, pulse_count=0,
                         fidelity=math.nan, fidelity_stderr=math.nan, error=str(exc))


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
    """Simulate (gate, scheme, tau) cells under cfg's noise, one row per cell
    in cell order; any jobs gives the same rows.

    Cells run with one BLAS thread, here and in every pool worker, and the
    caller's count is restored afterwards.  This keeps jobs >= 2 from running
    more BLAS threads than there are cores, and guards the byte contract
    against the caller's thread setting.  No more workers start than there
    are cores.
    """
    noise_model = resolve_noise(cfg)
    tasks = [(gate, scheme, tau, noise_model, cfg.epsilon) for gate, scheme, tau in cells]
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
    axes = [sorted(dict.fromkeys(a)) for a in (cfg.gates, cfg.schemes, cfg.tau_grid)]
    return run_cells(cfg, list(itertools.product(*axes)), jobs)


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
        (gate, "xy8", REFERENCE_GATE_TIMES_S[gate] / (len(GATE_ROTATIONS[gate]) * 5 * 8)) for gate in gates
    ])
    report = {}
    for row in rows:
        entry = dict(zip(CSV_FIELDS, dataclasses.astuple(row)))
        del entry["gate"], entry["scheme"]  # keyed by gate; the scheme is xy8
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
