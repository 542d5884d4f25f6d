"""Config-driven experiment harness.

Runs the experiments on the compiler's schedules, the noise models, the
simulators and tomography: the exact free-induction and Hahn-echo decay curves
of either noise model, fidelity sweeps versus gate time across protection
schemes, and the reference-gate benchmark.  It builds no schedule: `compiler`
turns each cell, and each decay-curve delay, into one.  Results are
deterministic CSV/JSON: every engine is exact and the sweep's rows are sorted
by (gate, scheme, tau), so any job count gives identical bytes.  Above one job,
`run_cells` forks its workers on Linux and runs serially elsewhere; an error a
worker's cell raises reaches the caller as at one job, from the worker's
traceback.  Nothing here writes a file: `cli` renders and writes what it returns.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import math
import os
import pickle
import sys
import typing
from dataclasses import dataclass

import numpy as np

from .compiler import (  # simulate_cell calls build_schedule and apply_amplitude_error by these bindings
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
from .simulate import bath_frame, channel_gram, channel_output
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
    `ou_coherence`, or for the bath `channel_output` of (t/2, t/2) or (t/2, pi_x, t/2); exact."""
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
        plus = np.full((2, 2), 0.5)  # |+><+|, exactly
        scheds = (hard_pulse_schedule(decompose_gate(gate), gate_target(gate), "decay", pad_to=t)
                  for t in delays.tolist())
        coh = [2 * float(abs(channel_output(channel_gram(s, noise), plus)[0, 1])) for s in scheds]  # 2|rho_01|
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

    Above one job, on Linux, `_fork_cells` runs them on forked workers, no more
    than there are usable cores; elsewhere they run here, serially, as fork is
    not safe under macOS's system libraries.  Workers run on the BLAS threads
    this process has: `cli.main` starts numpy on one.
    """
    noise_model = resolve_noise(cfg)
    tasks = [(gate, scheme, tau, noise_model, cfg.epsilon) for gate, scheme, tau in cells]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(tasks), cores)
    if isinstance(noise_model, SpinBathSpec):
        bath_frame(noise_model)  # built once here, so that forked workers inherit it
    if workers <= 1 or sys.platform != "linux":
        return list(itertools.starmap(simulate_cell, tasks))
    return _fork_cells(tasks, workers)


def _fork_cells(tasks, workers: int) -> list[ResultRow]:
    """simulate_cell(*task) for each task on `workers` forked children; this process computes no cell.

    A child takes the next index from one shared pipe when it finishes a cell, and writes each
    (index, row, None) frame on its own pipe.  One index is dealt per row that comes in, so the
    shared pipe never fills.  An exception simulate_cell raises in a child is raised here, from an
    exception whose text is the child's traceback (one this process could not rebuild arrives as a
    RuntimeError naming it); a child that ends without reporting raises ChildProcessError naming
    its exit status or signal.  Every child is killed and reaped before this returns or raises.
    """
    import select  # these two load only where workers fork, so a serial run's process does not grow
    import signal

    rows: list = [None] * len(tasks)
    deal_r, deal_w = os.pipe()
    fds = [deal_r, deal_w]
    children = {}  # the read end of each child's result pipe -> its pid
    poller = select.poll()
    try:
        for _ in range(workers):
            result_r, result_w = os.pipe()
            fds += (result_r, result_w)
            pid = os.fork()
            if pid == 0:
                _work(tasks, deal_r, deal_w, result_w)
            os.close(fds.pop())  # result_w: the child's alone, so its pipe ends when the child does
            children[result_r] = pid
            poller.register(result_r, select.POLLIN)
        for index in range(workers):  # a 4-byte write is atomic, so a child reads whole indices
            os.write(deal_w, index.to_bytes(4, "little"))
        for received in range(len(tasks)):
            fd = poller.poll()[0][0]
            try:
                index, row, trace = pickle.loads(_read(fd, int.from_bytes(_read(fd, 4), "little")))
            except EOFError:  # the child's end closed before its frame did: it died
                code = os.waitstatus_to_exitcode(os.waitpid(children.pop(fd), 0)[1])
                how = (f"was killed by signal {-code} ({signal.strsignal(-code)})" if code < 0
                       else f"exited with status {code}")
                raise ChildProcessError(f"a --jobs worker {how} without reporting its cell") from None
            if trace is not None:
                raise row from Exception(trace)
            rows[index] = row
            if workers + received < len(tasks):
                os.write(deal_w, (workers + received).to_bytes(4, "little"))
    finally:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
    return rows


def _work(tasks, deal_r: int, deal_w: int, out: int) -> typing.NoReturn:
    """A forked child's loop: simulate each task whose index it reads from deal_r, and write its
    (index, row, None) or (index, exception, traceback) frame on out.  It leaves by os._exit, so it
    never returns into the caller's code and never flushes the caller's buffered output."""
    status = 1
    try:
        os.close(deal_w)  # so that deal_r reads end of file once the parent is gone
        with open(out, "wb") as frames:
            while record := os.read(deal_r, 4):
                index = int.from_bytes(record, "little")
                try:
                    frame = pickle.dumps((index, simulate_cell(*tasks[index]), None))
                except Exception as exc:  # raised again by the parent, as at one job
                    frame = pickle.dumps((index, *_portable(exc)))
                frames.write(len(frame).to_bytes(4, "little") + frame)
                frames.flush()
        status = 0
    finally:
        os._exit(status)


def _portable(exc: Exception) -> tuple[Exception, str]:
    """(exc, its formatted traceback), exc replaced by a RuntimeError naming its type and message
    if it does not survive a pickle round trip, as the parent could not rebuild it."""
    import traceback  # loads only in a worker whose cell raised

    trace = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError("".join(traceback.format_exception_only(type(exc), exc)).strip())
    return exc, trace


def _read(fd: int, size: int) -> bytes:
    """size bytes from fd; EOFError if its write end closes first."""
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


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
    rows = run_cells(cfg, [(gate, "xy8", REFERENCE_GATE_TIMES_S[gate] / protected_gate_time(gate, "xy8", 1.0))
                           for gate in gates])
    report = {}
    for row in rows:
        # JSON has no NaN: a failed cell's NaN sentinels are written as null.
        entry = {k: None if isinstance(v, float) and not math.isfinite(v) else v
                 for k, v in zip(CSV_FIELDS, dataclasses.astuple(row))}
        del entry["gate"], entry["scheme"]  # keyed by gate; the scheme is xy8
        entry["reference_gate_time_s"] = REFERENCE_GATE_TIMES_S[row.gate]
        entry["reference_fidelity"] = REFERENCE_FIDELITIES[row.gate]
        report[row.gate] = entry
    return rows, report


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    # csv writes a float, numpy's included, as its shortest round-trip repr, so parsing back is exact.
    writer.writerows(dataclasses.astuple(row) for row in rows)
    return buf.getvalue()


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

