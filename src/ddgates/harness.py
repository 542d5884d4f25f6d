"""Config-driven experiment harness.

Runs the experiments on the compiler's schedules, the noise models, the
simulators and tomography: the exact free-induction and Hahn-echo decay curves
of either noise model, fidelity sweeps versus gate time across protection
schemes, and the reference-gate benchmark.  It builds no schedule: `compiler`
turns each cell, and each decay-curve delay, into one.  Results are
deterministic CSV/JSON: every engine is exact and the sweep's rows are sorted
by (gate, scheme, tau), so any job count gives identical bytes.  Nothing here
writes a file: `cli` renders and writes what it returns.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import math
import multiprocessing
import os
import typing
from dataclasses import dataclass

import numpy as np

from .compiler import (  # simulate_cell calls build_schedule and apply_amplitude_error by these bindings
    XY8,
    apply_amplitude_error,
    build_schedule,
    decompose_gate,
    gate_target,
    hard_pulse_schedule,
    protected_gate_time,
    pulse_count,
)
from .config import CompileError, ConfigError, ExperimentConfig, resolve_noise
from .config import (  # unused here; tests/test_acceptance.py imports these from harness
    CalibrationTargets,
    calibration_artifact_text,
    load_calibration,
)
from .noise import SpinBathSpec
from .ou import OUNoiseSpec, ou_coherence
from .simulate import bath_frame, channel_gram
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


def _decay_curve(noise, delays, echo: bool):
    """(delay, 2|rho_01|) of a +x state after each delay, refocused by a pi_x at its middle if echo: OU
    `ou_coherence`, or for the bath `channel_gram` of (t/2, t/2) or (t/2, pi_x, t/2); exact."""
    delays = np.asarray(delays, dtype=float)
    if delays.ndim != 1:
        raise ValueError(f"delays must be one-dimensional, got shape {delays.shape}")
    if not np.all(np.isfinite(delays)):
        raise ValueError(f"delays must be finite, got {delays[~np.isfinite(delays)][0]}")
    if delays.size == 0 or delays[0] < 0 or np.any(np.diff(delays) <= 0):
        raise ValueError("delays must be non-negative and increasing")
    if isinstance(noise, OUNoiseSpec):
        coh = ou_coherence(noise, delays.tolist(), echo)
    elif isinstance(noise, SpinBathSpec):
        gate = "NOT" if echo else "NOOP"  # a pi_x at the middle of each delay, or nothing
        grams = (channel_gram(hard_pulse_schedule(decompose_gate(gate), gate_target(gate), "decay", pad_to=t), noise)
                 for t in delays.tolist())
        coh = [float(abs(g.reshape(2, 2, 2, 2)[0, :, 1, :].sum())) for g in grams]  # 2|rho_01|, rho = G |+><+|
    else:
        raise TypeError(f"unsupported noise model {type(noise).__name__}")
    return list(zip(delays.tolist(), coh))


def fid_decay_curve(noise, delays):
    """Exact free-induction coherence of an initial +x state at each delay."""
    return _decay_curve(noise, delays, echo=False)


def hahn_decay_curve(noise, delays):
    """Exact coherence at each delay with an ideal pi_x refocusing pulse at delay/2."""
    return _decay_curve(noise, delays, echo=True)


def run_cells(cfg: ExperimentConfig, cells, jobs: int = 1) -> list[ResultRow]:
    """Simulate (gate, scheme, tau) cells under cfg's noise, one row per cell
    in cell order; any jobs gives the same rows.

    No more workers start than there are usable cores.  Forked workers run on
    the BLAS threads this process has: `cli.main` starts numpy on one.
    """
    noise_model = resolve_noise(cfg)
    tasks = [(gate, scheme, tau, noise_model, cfg.epsilon) for gate, scheme, tau in cells]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(tasks), cores)
    if isinstance(noise_model, SpinBathSpec):
        bath_frame(noise_model)  # built once here, so that forked workers inherit it
    if workers <= 1:
        return list(itertools.starmap(simulate_cell, tasks))
    with multiprocessing.Pool(workers) as pool:
        return pool.starmap(simulate_cell, tasks, chunksize=1)


def run_sweep(cfg: ExperimentConfig, jobs: int = 1) -> list[ResultRow]:
    """Simulate the full (gate, scheme, tau) cross product, sorted, deterministic."""
    axes = [sorted(dict.fromkeys(a)) for a in (cfg.gates, cfg.schemes, cfg.tau_grid)]
    return run_cells(cfg, list(itertools.product(*axes)), jobs)


def run_table1(cfg: ExperimentConfig) -> tuple[list[ResultRow], dict]:
    """Benchmark the rotation gates at their reference times with XY-8.

    tau is chosen so the protected schedule duration equals the reference gate
    time, by `protected_gate_time`.  Returns the rows plus a report
    placing simulated fidelities beside the reference values.
    """
    gates = [g for g in sorted(dict.fromkeys(cfg.gates)) if g in REFERENCE_GATE_TIMES_S]
    if not gates:
        raise ConfigError("run_table1 requires at least one of H, NOT, PI8 in gates")
    rows = run_cells(cfg, [(gate, "xy8", REFERENCE_GATE_TIMES_S[gate] / protected_gate_time(gate, XY8, 1.0))
                           for gate in gates])
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

