"""Command-line front end.

Subcommands: calibrate, compile, simulate, sweep, table1.  Exit codes:
0 on success, 1 on invalid arguments or configuration, 2 on a runtime
failure (calibration targets out of reach, failed cell, a `--jobs` worker that
died, unwritable output).
A command that reads a config loads it on the standard library alone: this
module imports only the config layer, so a bad config fails before numpy
loads, and `calibrate` never loads it.  The other commands import the compiler
and the engines, and with them numpy, once their config has loaded.  `main`
sets OPENBLAS_NUM_THREADS=1 first, so numpy starts on one BLAS thread: only
the CLI sets process state.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .config import (
    GATES,
    SCHEMES,
    CompileError,
    ConfigError,
    calibration_artifact_text,
    load_config,
    resolve_noise,  # unused here; perfbench/setup_probe.py times cli.resolve_noise
    run_calibration,
)
from .ou import CalibrationError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddgates",
        description="Compile and simulate dynamically protected single-qubit gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="fit noise parameters to decay-time targets")
    cal.add_argument("--config", required=True, help="experiment config JSON")
    cal.add_argument("--out", help="path for the calibration artifact JSON")
    cal.set_defaults(func=cmd_calibrate)

    comp = sub.add_parser("compile", help="compile one gate schedule to JSON")
    comp.add_argument("--gate", required=True, choices=GATES)
    comp.add_argument("--scheme", required=True, choices=SCHEMES)
    comp.add_argument("--tau", type=float, default=1e-5, help="inter-pulse delay in seconds")
    comp.add_argument("--epsilon", type=float, default=0.0, help="fractional pulse amplitude error")
    comp.add_argument("--out", help="write the schedule JSON here instead of stdout")
    comp.set_defaults(func=cmd_compile)

    sim = sub.add_parser("simulate", help="simulate one (gate, scheme, tau) cell")
    sim.add_argument("--config", required=True, help="experiment config JSON")
    sim.add_argument("--gate", required=True, choices=GATES)
    sim.add_argument("--scheme", required=True, choices=SCHEMES)
    sim.add_argument("--tau", type=float, required=True)
    sim.add_argument("--epsilon", type=float, help="override the config amplitude error")
    sim.add_argument("--out", help="write the result CSV here instead of stdout")
    sim.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="simulate the configured gate/scheme/tau grid")
    sweep.add_argument("--config", required=True, help="experiment config JSON")
    sweep.add_argument("--out", help="write the results CSV here instead of stdout")
    sweep.add_argument("--summary", help="write a JSON fidelity summary here")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes, forked on Linux (elsewhere the cells run serially), at most one "
                            "per usable core; results are identical for any value")
    sweep.set_defaults(func=cmd_sweep)

    table = sub.add_parser("table1", help="benchmark H, NOT, PI8 at their reference gate times")
    table.add_argument("--config", required=True, help="experiment config JSON")
    table.add_argument("--out", help="write the benchmark report JSON here instead of stdout")
    table.add_argument("--csv", help="also write the raw result rows CSV here")
    table.set_defaults(func=cmd_table1)

    return parser


def _write_or_print(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8")


def _exit_code(rows) -> int:
    """2 after reporting the failed cells on stderr, 0 if every cell ran."""
    failed = [row for row in rows if row.error]
    if not failed:
        return 0
    print(f"{len(failed)} of {len(rows)} cells failed; first: {failed[0].error}", file=sys.stderr)
    return 2


def cmd_calibrate(args) -> int:
    cfg = load_config(args.config)
    result = run_calibration(cfg)
    if args.out:
        _write_or_print(calibration_artifact_text(cfg.noise, result), args.out)
    print(f"sigma = {result.params.sigma!r} rad/s")
    print(f"tau_c = {result.params.tau_c!r} s")
    print(f"sigma_static = {result.params.sigma_static!r} rad/s")
    print(f"fitted T2* = {result.fitted_t2_star!r} s")
    print(f"fitted T2 (echo) = {result.fitted_t2_hahn!r} s")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_compile(args) -> int:
    from .compiler import apply_amplitude_error, build_schedule, schedule_to_json

    schedule = build_schedule(args.gate, args.scheme, args.tau)
    if args.epsilon:
        schedule = apply_amplitude_error(schedule, args.epsilon)
    _write_or_print(schedule_to_json(schedule), args.out)
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.epsilon is not None:
        cfg = dataclasses.replace(cfg, epsilon=args.epsilon)
    from .harness import rows_to_csv, run_cells

    rows = run_cells(cfg, [(args.gate, args.scheme, args.tau)])
    _write_or_print(rows_to_csv(rows), args.out)
    return _exit_code(rows)


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = load_config(args.config)
    from .harness import rows_to_csv, run_sweep, summarize_rows

    rows = run_sweep(cfg, jobs=args.jobs)
    if args.summary:
        summary = json.dumps(summarize_rows(rows), sort_keys=True, indent=2, allow_nan=False)
        _write_or_print(summary + "\n", args.summary)
    _write_or_print(rows_to_csv(rows), args.out)
    for path in filter(None, (args.out, args.summary)):
        print(f"wrote {path}", file=sys.stderr)  # stdout carries only the CSV
    return _exit_code(rows)


def cmd_table1(args) -> int:
    cfg = load_config(args.config)
    from .harness import rows_to_csv, run_table1

    rows, report = run_table1(cfg)
    if args.csv:
        _write_or_print(rows_to_csv(rows), args.csv)
    _write_or_print(json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n", args.out)
    return _exit_code(rows)


def main(argv=None) -> int:
    if "numpy" not in sys.modules:  # OpenBLAS reads it once, as numpy loads; a host that loaded numpy keeps its count
        os.environ["OPENBLAS_NUM_THREADS"] = "1"  # so no thread server starts, here or in a forked --jobs worker
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConfigError, CompileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CalibrationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
