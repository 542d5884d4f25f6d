#!/usr/bin/env python3
"""Benchmark of the ddgates command line, run as a user runs it.

Usage:
    python3 perfbench/run.py --workload sweep_ou --seed 1 --seconds 10 --trace 0

Workloads (the seed becomes the config seed; the program sees only the config):
    sweep_ou    README grid (4 gates x 6 schemes x 3 taus, 10k realizations) against
                the committed 370/750 us calibration artifact, `sweep --jobs 2`.
    sweep_bath  the same grid against an exact 6-spin bath, `sweep --jobs 1`.
    calibrate   `calibrate` to 370/750 us and to 540/750 us (one tau_c halving, so
                2x longer trajectories), each at CALIBRATE_SEEDS config seeds
                derived from --seed: how much root finding a fit needs depends
                on its Monte-Carlo noise, so one pass averages over seeds.

--trace 0 times the CLI with tracing off and prints the end-to-end metrics:
    wall_s       median over repeats of the summed wall time, spawn to exit, of one
                 pass's CLI processes
    setup_s      median of SETUP_REPEATS fresh interpreters importing ddgates.cli,
                 loading the config and (sweeps) resolving the noise
    peak_rss_mb  median over repeats of the peak RSS of the largest process among
                 the CLI process and its pool workers (what `time -v` reports)
The workload is repeated until --seconds have passed (at least once).

--trace 1 prints the per-layer metrics instead.  It runs the workload once
in-process under perfbench/traced.py at --jobs 1, once untraced at --jobs 1
and, for sweeps, once at --jobs 2, which gives the jobs-2 speed-up and CPU
use.  The tracing overhead is the traced calls times the cost of one wrapper
call, measured by traced.py.  The BLAS library and thread
environment are printed as found; the benchmark sets neither.

Every output is checked against perfbench/reference/ (see check.py).  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
failed/attempted is the failed fraction: rows or fits that report an error,
are not finite or miss the reference tolerance, plus failed identity checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import traced

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
INPUTS = BENCH_DIR / "inputs"
REFERENCE = BENCH_DIR / "reference"
WORK_ROOT = ROOT / ".perfbench"

# A run must end within 180 s; children get what is left of this budget.
RUN_BUDGET_S = 165.0
SETUP_REPEATS = 7
# The untraced and --jobs 2 diagnostic runs of --trace 1 are cut here.  sweep_bath
# at --jobs 2 oversubscribes the cores (2 workers x 2 BLAS threads) and has taken
# up to 119 s against 8 s at --jobs 1.
DIAGNOSTIC_CAP_S = 75.0

WORKLOADS = ("sweep_ou", "sweep_bath", "calibrate")
SWEEP_JOBS = {"sweep_ou": 2, "sweep_bath": 1}
CALIBRATION_TARGETS = ((3.7e-4, 7.5e-4), (5.4e-4, 7.5e-4))
CALIBRATE_SEEDS = 4
CALIBRATION_ARTIFACT = INPUTS / "calibration_370_750_seed1.json"
SPIN_BATH = INPUTS / "spin_bath_6.json"
GRID = {
    "gates": ["H", "NOT", "PI8", "NOOP"],
    "schemes": ["simple", "simple_padded", "bb1", "xy4", "xy8", "kdd"],
    "tau_grid_s": [3e-6, 1e-5, 3e-5],
    "epsilon": 0.01,
    "realizations": 10000,
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------- workloads


def write_configs(workload: str, seed: int, work: Path, calibrate_seeds: int = CALIBRATE_SEEDS) -> list[Path]:
    """Generate the workload's config files from the seed; one per CLI command.

    calibrate gets every target pair at config seeds seed*CALIBRATE_SEEDS + j,
    j < calibrate_seeds, ordered seed by seed, pair by pair.
    """
    if workload == "calibrate":
        entries = [
            ({"kind": "targets", "t2_star_s": t_star, "t2_hahn_s": t_hahn}, seed * CALIBRATE_SEEDS + j)
            for j in range(calibrate_seeds)
            for t_star, t_hahn in CALIBRATION_TARGETS
        ]
    elif workload == "sweep_ou":
        entries = [({"kind": "calibration", "path": str(CALIBRATION_ARTIFACT)}, seed)]
    else:
        entries = [(json.loads(SPIN_BATH.read_text(encoding="utf-8")), seed)]
    paths = []
    for i, (noise, config_seed) in enumerate(entries):
        path = work / f"config{i}.json"
        path.write_text(json.dumps(dict(GRID, noise=noise, seed=config_seed)), encoding="utf-8")
        paths.append(path)
    return paths


def cli_commands(workload: str, configs: list[Path], work: Path, tag: str, jobs: int):
    """ddgates argument lists for one pass of the workload, each with its output file."""
    if workload == "calibrate":
        return [
            (["calibrate", "--config", str(c), "--out", str(work / f"{tag}-fit{i}.json")],
             work / f"{tag}-fit{i}.json")
            for i, c in enumerate(configs)
        ]
    out = work / f"{tag}.csv"
    argv = ["sweep", "--config", str(configs[0]), "--out", str(out),
            "--summary", str(work / f"{tag}-summary.json"), "--jobs", str(jobs)]
    return [(argv, out)]


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += min(len(failures), attempted)
        for message in failures[:5]:
            print(f"check failed: {message}")


def check_outputs(workload: str, outputs: list[Path], codes: list[int], checked: Checked) -> None:
    """Check one pass of the workload against the references."""
    if workload == "calibrate":
        reference = json.loads((REFERENCE / "calibrate.json").read_text(encoding="utf-8"))
        pairs = reference["pairs"]
        for p, pair in enumerate(pairs):
            texts = []
            for out, code in list(zip(outputs, codes))[p::len(pairs)]:
                if code != 0 or not out.exists():
                    checked.add(1, [f"calibrate exited {code}"])
                else:
                    texts.append(out.read_text(encoding="utf-8"))
            if texts:
                checked.add(len(texts) + (len(texts) > 1), check.check_fits(texts, pair))
        return
    reference = (REFERENCE / f"{workload}_seed1.csv").read_text(encoding="utf-8")
    n_rows = reference.count("\n") - 1
    out, code = outputs[0], codes[0]
    if code != 0 or not out.exists():
        checked.add(n_rows, [f"sweep exited {code}"] * n_rows)
        return
    exact = workload == "sweep_bath"
    checked.add(n_rows, check.check_sweep(out.read_text(encoding="utf-8"), reference, exact))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------- processes


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    capped: bool
    stderr: str


class Runner:
    """Starts python children inside the run's time budget and reaps all of them.

    Wall time is measured from spawn to reaping.  CPU time and peak RSS come
    from wait4, so they cover the child and every descendant it reaped (the
    pool workers): CPU time is summed, peak RSS is that of the largest process.
    """

    def __init__(self, budget_s: float, work: Path):
        self.deadline = time.monotonic() + budget_s
        self.work = work
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def python(self, args: list[str], cap_s: float | None = None) -> Child:
        timeout = self.remaining() if cap_s is None else min(cap_s, self.remaining())
        if timeout <= 1.0:
            raise BenchError("run budget exhausted")
        killed = threading.Event()
        with open(self.work / "child-stderr.txt", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=ROOT, env=self.env, start_new_session=True,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            timer = threading.Timer(timeout, _kill_group, (proc.pid, killed))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            _kill_group(proc.pid)  # pool workers left behind by a crash
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        if killed.is_set() and cap_s is None:
            raise BenchError(f"{' '.join(args[:3])} did not finish within the run budget")
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     proc.returncode, killed.is_set(), stderr)

    def ddgates(self, argv: list[str], cap_s: float | None = None) -> Child:
        child = self.python(["-m", "ddgates", *argv], cap_s)
        if child.code != 0 and not child.capped:
            print(f"ddgates {argv[0]} exited {child.code}: {child.stderr.strip()[-500:]}")
        return child


def _kill_group(pgid: int, killed: threading.Event | None = None) -> None:
    """SIGKILL a process group and wait until none of its members is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    if killed is not None:
        killed.set()
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


# ---------------------------------------------------------------- trace 0


def end_to_end(workload: str, seed: int, seconds: float, runner: Runner, work: Path, checked: Checked):
    configs = write_configs(workload, seed, work)
    resolve = "0" if workload == "calibrate" else "1"
    probe = [str(BENCH_DIR / "setup_probe.py"), str(configs[0]), resolve]
    runner.python(probe)  # untimed: compiles bytecode and warms the file cache
    setups = []
    for _ in range(SETUP_REPEATS):
        child = runner.python(probe)
        if child.code != 0:
            raise BenchError(f"set-up probe exited {child.code}: {child.stderr.strip()[-500:]}")
        setups.append(child.wall_s)

    walls, peaks, digests = [], [], set()
    end = time.monotonic() + seconds
    jobs = SWEEP_JOBS.get(workload, 1)
    while True:
        commands = cli_commands(workload, configs, work, f"e2e{len(walls)}", jobs)
        children = [runner.ddgates(argv) for argv, _ in commands]
        outputs = [out for _, out in commands]
        check_outputs(workload, outputs, [c.code for c in children], checked)
        digests.update(sha256(out) for out in outputs if out.exists())
        walls.append(sum(c.wall_s for c in children))
        peaks.append(max(c.peak_rss_mb for c in children))
        # Stop when the time is used, or when one more pass could overrun the budget.
        if time.monotonic() >= end or runner.remaining() < 2.0 * max(walls):
            break
    if workload != "calibrate":
        # Bath bytes may differ in the last bits with BLAS threading; check.py covers them.
        if workload == "sweep_ou" and len(digests) > 1:
            checked.add(1, ["repeated sweeps at one seed wrote different CSV bytes"])
        kept = ""
        if seed == 1:
            same = digests == {sha256(REFERENCE / f"{workload}_seed1.csv")}
            kept = f" ({'same' if same else 'not the same'} bytes as the seed-1 reference)"
        print(f"csv sha256 {', '.join(sorted(digests))}{kept}")
    print(f"repeats {len(walls)}, wall_s per repeat {[round(w, 3) for w in walls]}")
    print(f"setup_s samples {[round(s, 4) for s in setups]}")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }


# ---------------------------------------------------------------- trace 1


def layer_metrics(table: dict) -> dict:
    """Per-layer metrics that come from the spans alone."""

    def total(name):
        return table[name]["total"] if name in table else 0.0

    def own(name):
        return table[name]["self"] if name in table else 0.0

    def calls(name):
        return table[name]["calls"] if name in table else 0

    def count(name, key, agg="counts"):
        return table[name][agg].get(key, 0) if name in table else 0

    cells = table.get("harness.simulate_cell", {}).get("durations", [])
    sample_s = total("noise.sample_ou_ensemble")
    normals = count("noise.sample_ou_ensemble", "normals")
    return {
        "harness.resolve_noise_s": (total("harness.resolve_noise"), "s"),
        "harness.cells_s": (sum(cells, 0.0), "s"),
        "harness.simulate_cell_self_s": (own("harness.simulate_cell"), "s"),
        "harness.cell_s_p50": (statistics.median(cells) if cells else 0.0, "s"),
        "harness.cell_s_p85": (statistics.quantiles(cells, n=20, method="inclusive")[16] if cells else 0.0, "s"),
        "harness.report_s": (total("harness.emit_report"), "s"),
        "compiler.build_s": (total("harness.build_schedule") + total("compiler.apply_amplitude_error"), "s"),
        "compiler.events": (count("harness.build_schedule", "events"), "count"),
        "compiler.hard_pulses": (count("harness.build_schedule", "hard_pulses"), "count"),
        "noise.sample_s": (sample_s, "s"),
        "noise.rows_sampled": (count("noise.sample_ou_ensemble", "rows"), "count"),
        "noise.normals": (normals, "count"),
        "noise.normals_per_s": (normals / sample_s if sample_s else 0.0, "1/s"),
        "noise.sample_bytes": (count("noise.sample_ou_ensemble", "bytes", "max"), "B"),
        "noise.phase_rows_s": (total("noise.ou_phase_rows"), "s"),
        "noise.decay_curve_s": (total("noise.fid_decay_curve") + total("noise.hahn_decay_curve"), "s"),
        "noise.decay_curve_calls": (calls("noise.fid_decay_curve") + calls("noise.hahn_decay_curve"), "count"),
        "simulate.ou_propagators_self_s": (own("simulate.ou_propagators"), "s"),
        "simulate.event_realizations": (count("simulate.ou_propagators", "event_realizations"), "count"),
        "simulate.bath_propagator_s": (total("simulate.bath_propagator"), "s"),
        "core.hermitian_expm_s": (total("core.hermitian_expm"), "s"),
        "core.hermitian_expm_calls": (calls("core.hermitian_expm"), "count"),
        "tomography.chi_s": (total("tomography.chi_reconstruct") + total("simulate.average_channel_output"), "s"),
        "tomography.chi_calls": (calls("tomography.chi_reconstruct"), "count"),
        "tomography.process_fidelity_self_s": (own("tomography.process_fidelity"), "s"),
    }


def _calibration_rel_error(artifacts: list[Path]) -> float:
    worst = 0.0
    for path in artifacts:
        doc = json.loads(path.read_text(encoding="utf-8"))
        for key in ("t2_star_s", "t2_hahn_s"):
            worst = max(worst, abs(doc["fitted"][key] / doc["targets"][key] - 1.0))
    return worst


def per_layer(workload: str, seed: int, runner: Runner, work: Path, checked: Checked):
    configs = write_configs(workload, seed, work, calibrate_seeds=1)
    traced_cmds = cli_commands(workload, configs, work, "traced", 1)
    plain_cmds = cli_commands(workload, configs, work, "jobs1", 1)

    records = []
    for i, (argv, _) in enumerate(traced_cmds):
        trace_file = work / f"spans{i}.json"
        child = runner.python([str(BENCH_DIR / "traced.py"), "--out", str(trace_file), "--", *argv])
        if child.code != 0 or not trace_file.exists():
            print(f"traced run exited {child.code}: {child.stderr.strip()[-500:]}")
        records.append(json.loads(trace_file.read_text(encoding="utf-8")) if trace_file.exists() else None)
    traced_outputs = [out for _, out in traced_cmds]
    check_outputs(workload, traced_outputs, [r["exit_code"] if r else 1 for r in records], checked)

    # Diagnostic runs outside the timed ones: cut, not failed, when they overrun.
    plain = [runner.ddgates(argv, cap_s=DIAGNOSTIC_CAP_S) for argv, _ in plain_cmds]
    plain_outputs = [out for _, out in plain_cmds]
    plain_wall = sum(c.wall_s for c in plain)
    plain_capped = any(c.capped for c in plain)
    if plain_capped:
        print(f"untraced --jobs 1 run cut at {plain_wall:.1f} s: the speed-up is a bound")
    else:
        check_outputs(workload, plain_outputs, [c.code for c in plain], checked)
        for a, b in zip(traced_outputs, plain_outputs):
            if workload != "sweep_bath" and a.exists() and b.exists():
                checked.add(1, [] if sha256(a) == sha256(b) else [f"traced {a.name} differs from untraced"])

    speedup, cpu_per_wall = 0.0, 0.0
    if workload == "calibrate":
        cpu_per_wall = sum(c.cpu_s for c in plain) / plain_wall
    else:
        (argv, out), = cli_commands(workload, configs, work, "jobs2", 2)
        jobs2 = runner.ddgates(argv, cap_s=DIAGNOSTIC_CAP_S)
        speedup = plain_wall / jobs2.wall_s
        cpu_per_wall = jobs2.cpu_s / jobs2.wall_s
        state = f"cut at {jobs2.wall_s:.1f} s, so the speed-up is an upper bound" if jobs2.capped else "complete"
        print(f"jobs diagnostic: jobs1 {plain_wall:.3f} s, jobs2 {jobs2.wall_s:.3f} s ({state}), "
              f"jobs2 cpu {jobs2.cpu_s:.3f} s")
        if not jobs2.capped:
            check_outputs(workload, [out], [jobs2.code], checked)
            if workload == "sweep_ou" and not plain_capped:
                same = out.exists() and plain_outputs[0].exists() and sha256(out) == sha256(plain_outputs[0])
                print(f"jobs1 and jobs2 CSV byte-identical: {same}")
                checked.add(1, [] if same else ["jobs1 and jobs2 CSVs differ"])

    good = [r for r in records if r]
    for r in good:
        if r["missing"]:
            print(f"not traced (absent in this version): {', '.join(r['missing'])}")
    if good:
        print(f"environment as found: {json.dumps(good[0]['environment'], sort_keys=True)}")
    table = traced.span_table([r["spans"] for r in good])
    metrics = layer_metrics(table)
    rel_error = 0.0
    if workload == "calibrate":  # the sweeps fit nothing: they load an artifact or a bath
        rel_error = _calibration_rel_error([o for o in traced_outputs if o.exists()])
    metrics.update({
        "cli.import_s": (statistics.median(r["import_s"] for r in good) if good else 0.0, "s"),
        "cli.tracing_overhead_s": (sum(r["overhead_s"] for r in good), "s"),
        "cli.traced_calls": (sum(len(r["spans"]) for r in good), "count"),
        "harness.jobs2_speedup": (speedup, "x"),
        "harness.cpu_per_wall": (cpu_per_wall, "s/s"),
        "noise.calibration_rel_error": (rel_error, "1"),
    })
    print(f"tracing overhead: {metrics['cli.tracing_overhead_s'][0]:.4f} s estimated for "
          f"{metrics['cli.traced_calls'][0]} wrapper calls, in "
          f"{sum(r['run_s'] for r in good):.3f} s of traced commands")
    cells_s = metrics["harness.cells_s"][0]
    if cells_s:
        print("self time per layer inside cells (s): " + ", ".join(
            f"{name} {table[name]['self']:.3f}" for name in sorted(table)
            if name not in ("harness.resolve_noise", "cli.emit_report", "harness.emit_report")
        ))
    return metrics


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ddgates benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "ddgates" / "cli.py").is_file():
        print(f"error: no ddgates sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(RUN_BUDGET_S, work)
    checked = Checked()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} nproc {os.cpu_count()}")
    try:
        if args.trace:
            metrics = per_layer(args.workload, args.seed, runner, work, checked)
            for path in sorted(work.glob("spans*.json")):
                shutil.copy(path, WORK_ROOT / f"{args.workload}-seed{args.seed}-{path.name}")
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds, runner, work, checked)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"failed_fraction {checked.failed / max(checked.attempted, 1)!r} "
          f"({checked.failed} of {checked.attempted})")
    result = {
        "correct": checked.failed == 0 and checked.attempted > 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
