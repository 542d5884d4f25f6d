"""Config-driven experiments: fidelity-vs-gate-time sweeps and the
reference-time benchmark, reproducible to the byte.

Everything here is also reachable from the command line:

    ddgates sweep  --config cfg.json --out results.csv --jobs 4
    ddgates table1 --config cfg.json --out report.json
"""

import os

# As the `ddgates` command does: set before numpy loads, so that the jobs=2
# sweep's forked workers each run on one BLAS thread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from ddgates import ExperimentConfig, OUNoiseSpec, run_sweep, run_table1
from ddgates.harness import rows_to_csv, summarize_rows

noise = OUNoiseSpec(sigma=4335.4, tau_c=1.5e-4, dt=1.5e-5, sigma_static=2361.9)
cfg = ExperimentConfig(
    noise=noise,
    gates=("NOT",),
    schemes=("simple_padded", "xy4", "xy8"),
    tau_grid=(7.5e-6, 1.5e-5, 3.0e-5),
    epsilon=0.01,
)

print("Sweep: NOT gate, three schemes, three delays (each cell's noise-averaged channel, exact)")
rows = run_sweep(cfg, jobs=2)
print(rows_to_csv(rows))

summary = summarize_rows(rows)
for scheme, stats in sorted(summary["NOT"].items()):
    print(f"  {scheme:14s} median F = {stats['median']:.4f}   "
          f"range [{stats['min']:.4f}, {stats['max']:.4f}]")

print("\nBenchmark at the published gate times (XY-8):")
bench_cfg = ExperimentConfig(
    noise=noise, gates=("H", "NOT", "PI8"), schemes=("xy8",),
    tau_grid=(1e-5,), epsilon=0.01,
)
_, report = run_table1(bench_cfg)
print(f"  {'gate':5s} {'time (ms)':>9s} {'pulses':>7s} {'simulated F':>12s} {'reference F':>12s}")
for gate, entry in sorted(report.items()):
    print(f"  {gate:5s} {entry['gate_time_s'] * 1e3:9.2f} {entry['pulse_count']:7d} "
          f"{entry['fidelity']:12.4f} {entry['reference_fidelity']:12.3f}")
print("\nEvery channel is exact: the CSV is the same bytes at any worker count and on\n"
      "every rerun.")
