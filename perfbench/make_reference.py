#!/usr/bin/env python3
"""Regenerate the benchmark's committed inputs and correctness references.

Usage: python3 perfbench/make_reference.py

Writes, from the current sources:
    inputs/spin_bath_6.json               noise entry of default_spin_bath(6)
    inputs/calibration_370_750_seed1.json `ddgates calibrate` to 370/750 us at seed 1
    reference/sweep_ou_seed1.csv          sweep_ou at seed 1
    reference/sweep_bath_seed1.csv        sweep_bath at seed 1
    reference/calibrate.json              both calibrate target pairs fitted at
                                          config seeds 1..FIT_SEEDS; check.py
                                          takes their mean and spread

Run it only when a change of results is intended, and say why in CHANGES.md:
the references are what later versions are checked against.  Takes about
four minutes on 2 cores.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

# Config seeds 1..FIT_SEEDS give the reference mean and standard deviation of each fit.
FIT_SEEDS = 10


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from ddgates.noise import default_spin_bath

    bath = default_spin_bath(6)
    run.INPUTS.mkdir(exist_ok=True)
    run.REFERENCE.mkdir(exist_ok=True)
    run.SPIN_BATH.write_text(json.dumps({
        "kind": "spin_bath",
        "couplings": list(bath.couplings),
        "bath_couplings": bath.bath_couplings.tolist(),
        "system_offset": bath.system_offset,
    }, indent=2) + "\n", encoding="utf-8")

    work = run.WORK_ROOT / "make-reference"
    work.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(3600.0, work)
    try:
        fits = {}
        for seed in range(1, FIT_SEEDS + 1):
            for i, (t_star, t_hahn) in enumerate(run.CALIBRATION_TARGETS):
                config = work / "calibrate.json"
                noise = {"kind": "targets", "t2_star_s": t_star, "t2_hahn_s": t_hahn}
                config.write_text(json.dumps(dict(run.GRID, noise=noise, seed=seed)), encoding="utf-8")
                out = work / f"fit{i}-seed{seed}.json"
                run_checked(runner, ["calibrate", "--config", str(config), "--out", str(out)])
                if seed == 1 and i == 0:
                    shutil.copy(out, run.CALIBRATION_ARTIFACT)
                fits.setdefault(i, {})[seed] = json.loads(out.read_text(encoding="utf-8"))["fitted"]
        pairs = []
        for i, (t_star, t_hahn) in enumerate(run.CALIBRATION_TARGETS):
            pairs.append({
                "targets": {"t2_star_s": t_star, "t2_hahn_s": t_hahn},
                "fits_by_seed": {str(s): f for s, f in sorted(fits[i].items())},
            })
        (run.REFERENCE / "calibrate.json").write_text(
            json.dumps({"pairs": pairs}, indent=2) + "\n", encoding="utf-8")

        for workload in ("sweep_ou", "sweep_bath"):
            configs = run.write_configs(workload, 1, work)
            (argv, out), = run.cli_commands(workload, configs, work, workload, run.SWEEP_JOBS[workload])
            run_checked(runner, argv)
            shutil.copy(out, run.REFERENCE / f"{workload}_seed1.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def run_checked(runner: run.Runner, argv: list[str]) -> None:
    child = runner.ddgates(argv)
    if child.code != 0:
        raise SystemExit(f"ddgates {' '.join(argv)} failed: {child.stderr}")
    print(f"{child.wall_s:7.2f} s  ddgates {' '.join(argv[:1] + argv[-2:])}", flush=True)


if __name__ == "__main__":
    raise SystemExit(main())
