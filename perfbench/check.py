"""Correctness checks of ddgates outputs against the committed references.

The references in perfbench/reference/ were made by perfbench/make_reference.py.
Each check returns one message per failed row or fit; an empty list passes.

- Spin-bath rows are exact (no sampling): fidelities must match to 1e-12.
  Bytes are not compared, because BLAS threading moves the last bits.
- OU rows are Monte-Carlo estimates: a row at any seed must lie within
  Z_ROW combined standard errors of the seed-1 reference row, so a change of
  sampler that alters the bytes on purpose still passes.
- Calibration fits are compared with the mean of the reference fits (one
  per config seed, N of them) in units of their standard deviation sd: each
  fit must lie within Z_FIT * sd * sqrt(1 + 1/N) of that mean, and the mean
  of n fits to one target pair within Z_FIT * sd * sqrt(1/n + 1/N).
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics

Z_ROW = 6.0
Z_FIT = 5.0
EXACT_TOL = 1e-12
GATE_TIME_RTOL = 1e-12


def _rows(csv_text: str) -> dict:
    return {
        (rec["gate"], rec["scheme"], float(rec["tau_s"])): rec
        for rec in csv.DictReader(io.StringIO(csv_text))
    }


def check_sweep(csv_text: str, reference_text: str, exact: bool) -> list[str]:
    """Compare every row of a sweep CSV with the reference CSV; one message per bad row."""
    rows = _rows(csv_text)
    reference = _rows(reference_text)
    failures = [f"unexpected row {key}" for key in rows.keys() - reference.keys()]
    for key, ref in reference.items():
        row = rows.get(key)
        if row is None:
            failures.append(f"missing row {key}")
            continue
        fidelity = float(row["fidelity"])
        stderr = float(row["fidelity_stderr"])
        gate_time = float(row["gate_time_s"])
        ref_time = float(ref["gate_time_s"])
        if row["error"]:
            failures.append(f"{key}: error {row['error']!r}")
        elif not (math.isfinite(fidelity) and math.isfinite(stderr)):
            failures.append(f"{key}: fidelity {fidelity} stderr {stderr} not finite")
        elif row["pulse_count"] != ref["pulse_count"]:
            failures.append(f"{key}: pulse_count {row['pulse_count']} != {ref['pulse_count']}")
        elif abs(gate_time - ref_time) > GATE_TIME_RTOL * abs(ref_time):
            failures.append(f"{key}: gate_time {gate_time!r} != {ref_time!r}")
        else:
            ref_fidelity = float(ref["fidelity"])
            if exact:
                tol = EXACT_TOL
            else:
                tol = Z_ROW * math.hypot(stderr, float(ref["fidelity_stderr"])) + EXACT_TOL
            if abs(fidelity - ref_fidelity) > tol:
                failures.append(
                    f"{key}: fidelity {fidelity!r} vs reference {ref_fidelity!r} (tol {tol:.3g})"
                )
    return failures


def fit_z(values: list[float], reference_fits: list[float]) -> float:
    """Distance of the mean of `values` from the mean of the reference fits,
    in standard errors of that difference."""
    sd = statistics.stdev(reference_fits)
    se = sd * math.sqrt(1.0 / len(values) + 1.0 / len(reference_fits))
    return abs(statistics.fmean(values) - statistics.fmean(reference_fits)) / se


def check_fits(artifact_texts: list[str], reference: dict) -> list[str]:
    """Compare calibration artifacts for one target pair of reference/calibrate.json.

    Each fit is checked alone and, when there are several, so is their mean:
    one message per failed fit or mean, len(artifact_texts) + 1 checks in all
    (one when there is a single fit).
    """
    fits = [json.loads(text)["fitted"] for text in artifact_texts]
    groups = [[f] for f in fits] + ([fits] if len(fits) > 1 else [])
    failures = []
    for group in groups:
        problems = []
        for key in ("t2_star_s", "t2_hahn_s"):
            values = [float(f[key]) for f in group]
            if not all(math.isfinite(v) for v in values):
                problems.append(f"{key} not finite")
                continue
            z = fit_z(values, [f[key] for f in reference["fits_by_seed"].values()])
            if z > Z_FIT:
                problems.append(f"{key} {statistics.fmean(values)!r} is {z:.1f} standard errors"
                                " from the reference mean")
        if problems:
            what = "fit" if len(group) == 1 else f"mean of {len(group)} fits"
            failures.append(f"{what}: " + "; ".join(problems))
    return failures
