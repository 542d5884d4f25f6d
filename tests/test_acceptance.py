"""Acceptance gate: ten headline criteria, one test (and one verdict line) each.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion.  Criteria with runtime budgets measure their own wall time.
"""

import json
import math
import time

import numpy as np
import pytest

from ddgates.cli import main as cli_main
from ddgates.compiler import (
    DD_KINDS,
    XY4,
    apply_amplitude_error,
    bb1_expand,
    cycle_pulse_count,
    dd_cycle,
    decompose_gate,
    gate_target,
    hard_pulse_schedule,
    protected_bb1_gate,
    pulse_count,
    verify_schedule,
)
from ddgates.core import IDENTITY_2, SIGMA_X, SIGMA_Z, embed_system, rotation_unitary
from ddgates.harness import REFERENCE_GATE_TIMES_S, build_schedule, simulate_cell
from ddgates.noise import SpinBathSpec, calibrate_to_targets
from ddgates.simulate import bath_channel_output, bath_propagator, ideal_propagator
from ddgates.tomography import (
    CHI_BASIS,
    TOMO_INPUT_STATES,
    ChannelSamples,
    chi_reconstruct,
    gate_fidelity,
    ideal_channel_samples,
    simulate_channel,
)

GATES = ("H", "NOT", "PI8", "NOOP")
SOUNDNESS_SCHEMES = ("simple", "bb1", "xy4", "xy8", "kdd")
DD_SCHEMES = ("xy4", "xy8", "kdd")
CALIBRATION_TARGETS = (370e-6, 750e-6)


@pytest.fixture(scope="module")
def calibrated():
    t0 = time.perf_counter()
    result = calibrate_to_targets(*CALIBRATION_TARGETS)
    return result, time.perf_counter() - t0


def test_criterion_01_compiler_soundness_grid():
    t0 = time.perf_counter()
    for gate in GATES:
        for scheme in SOUNDNESS_SCHEMES:
            for tau in (3e-6, 1e-5, 3e-5):
                fidelity = verify_schedule(build_schedule(gate, scheme, tau))
                assert fidelity >= 1 - 1e-9, (gate, scheme, tau, fidelity)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_02_pulse_count_anchors():
    assert pulse_count(build_schedule("PI8", "kdd", 1e-5)) == 330
    assert pulse_count(build_schedule("H", "xy8", 1e-5)) == 100
    assert pulse_count(build_schedule("NOT", "xy8", 1e-5)) == 50


def test_criterion_03_bb1_amplitude_error_scaling():
    t0 = time.perf_counter()
    target = gate_target("NOT")
    rotations = decompose_gate("NOT")
    bare = hard_pulse_schedule(rotations, target, "bare")
    composite = hard_pulse_schedule(
        [c for r in rotations for c in bb1_expand(r)], target, "composite"
    )
    epsilons = 10.0 ** np.array([-3.0, -2.5, -2.0, -1.5])
    slopes = {}
    for name, sched in (("bare", bare), ("composite", composite)):
        reference = ideal_propagator(sched, honor_amplitude=True)
        errors = [
            np.max(np.abs(
                ideal_propagator(apply_amplitude_error(sched, eps), honor_amplitude=True)
                - reference
            ))
            for eps in epsilons
        ]
        slopes[name] = np.polyfit(np.log10(epsilons), np.log10(errors), 1)[0]
    assert 0.9 <= slopes["bare"] <= 1.1, slopes
    assert slopes["composite"] >= 2.7, slopes
    assert time.perf_counter() - t0 < 1.0


def test_criterion_04_xy4_refocuses_static_dephasing():
    t0 = time.perf_counter()
    couplings = (1.0e5, 7.0e4, 4.0e4)
    spec = SpinBathSpec(n_bath=3, couplings=couplings, bath_couplings=np.zeros((3, 3)))
    identity_full = embed_system(IDENTITY_2, 3)
    for tau in (1e-6, 3e-6, 1e-5):  # max coupling x tau = 0.1, 0.3, 1.0
        assert max(couplings) * tau <= 1.0 + 1e-12
        u = bath_propagator(dd_cycle(XY4, tau), spec)
        assert gate_fidelity(u, identity_full) >= 1 - 1e-10, tau
    assert time.perf_counter() - t0 < 1.0


def test_criterion_05_first_order_decoupling_slope():
    t0 = time.perf_counter()
    spec = SpinBathSpec(
        n_bath=2, couplings=(2.0e4, 3.1e4),
        bath_couplings=np.array([[0.0, 2.5e4], [2.5e4, 0.0]]),
    )
    taus = np.geomspace(2e-6, 2e-5, 8)
    rotations = decompose_gate("NOT")
    infidelities = []
    for tau in taus:
        sched = protected_bb1_gate(rotations, XY4, float(tau))
        u = bath_propagator(sched, spec)
        outputs = tuple(bath_channel_output(u, rho, 2) for rho in TOMO_INPUT_STATES)
        chi = chi_reconstruct(ChannelSamples(outputs))
        chi_ideal = chi_reconstruct(ideal_channel_samples(sched.target_gate))
        infidelities.append(1.0 - gate_fidelity(chi, chi_ideal))
    slope = np.polyfit(np.log10(taus), np.log10(infidelities), 1)[0]
    assert slope >= 1.8, (slope, infidelities)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_06_calibration_hits_decay_targets(calibrated, tmp_path):
    result, elapsed = calibrated
    target_star, target_hahn = CALIBRATION_TARGETS
    assert abs(result.fitted_t2_star - target_star) / target_star <= 0.05
    assert abs(result.fitted_t2_hahn - target_hahn) / target_hahn <= 0.05
    assert elapsed < 120.0
    # round trip: persisted artifact reloads to the identical noise spec
    from ddgates.harness import CalibrationTargets, calibration_artifact_text, load_calibration

    text = calibration_artifact_text(CalibrationTargets(*CALIBRATION_TARGETS), result)
    again = calibration_artifact_text(CalibrationTargets(*CALIBRATION_TARGETS), result)
    assert text == again
    path = tmp_path / "calibration.json"
    path.write_text(text, encoding="utf-8")
    assert load_calibration(str(path)) == result.params


def test_criterion_07_protection_hierarchy_at_reference_times(calibrated):
    t0 = time.perf_counter()
    noise = calibrated[0].params
    epsilon = 0.01
    rows = {}
    for gate in ("H", "NOT", "PI8"):
        n_rot = len(decompose_gate(gate))
        reference_time = REFERENCE_GATE_TIMES_S[gate]
        tau_xy8 = reference_time / (n_rot * 5 * 8)
        for scheme in ("simple_padded",) + DD_SCHEMES:
            if scheme == "simple_padded":
                center = tau_xy8
            else:
                center = reference_time / (n_rot * 5 * cycle_pulse_count(DD_KINDS[scheme]))
            for tau_index, tau in enumerate((0.5 * center, center, 2.0 * center)):
                row = simulate_cell(gate, scheme, tau, noise, epsilon)
                assert row.error == "", (gate, scheme, tau, row.error)
                rows[(gate, scheme, tau_index)] = row

    for gate in ("H", "NOT", "PI8"):
        def median_fidelity(scheme):
            return float(np.median([rows[(gate, scheme, i)].fidelity for i in range(3)]))

        padded_median = median_fidelity("simple_padded")
        for scheme in DD_SCHEMES:
            assert padded_median < median_fidelity(scheme), (gate, scheme)
            center_row = rows[(gate, scheme, 1)]  # reference gate time
            assert center_row.fidelity >= 0.93, (gate, scheme, center_row.fidelity)
            assert center_row.fidelity_stderr < 0.005, (gate, scheme)
        xy8_center = rows[(gate, "xy8", 1)]
        assert xy8_center.fidelity >= 0.95, (gate, xy8_center.fidelity)
    assert time.perf_counter() - t0 < 900.0


def test_criterion_08_tomography_reference_matrices():
    chi_identity = chi_reconstruct(ideal_channel_samples(IDENTITY_2))
    assert np.allclose(chi_identity.entries, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-10)

    chi_not = chi_reconstruct(ideal_channel_samples(SIGMA_X))
    assert np.allclose(chi_not.entries, np.diag([0.0, 1.0, 0.0, 0.0]), atol=1e-10)

    hadamard = (SIGMA_X + SIGMA_Z) / math.sqrt(2.0)
    coefficients = np.array([np.trace(e.conj().T @ hadamard) / 2 for e in CHI_BASIS])
    chi_expected = np.outer(coefficients, coefficients.conj())
    chi_h = chi_reconstruct(ideal_channel_samples(hadamard))
    assert np.allclose(chi_h.entries, chi_expected, atol=1e-10)

    for gate in GATES:
        sched = build_schedule(gate, "simple", 1e-5)
        chi = chi_reconstruct(simulate_channel(sched, None))
        assert chi.trace_preservation_residual() < 1e-8, gate


def test_criterion_09_fidelity_metric_properties():
    rng = np.random.default_rng(909)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        f = gate_fidelity(a, b)
        assert abs(f - gate_fidelity(b, a)) < 1e-12
        assert abs(f - gate_fidelity(np.exp(1.3j) * a, b)) < 1e-12
        assert abs(f - gate_fidelity(a, 2.75 * b)) < 1e-12
    assert gate_fidelity(IDENTITY_2, SIGMA_X) < 1e-12
    for theta in np.linspace(0.0, 2.0 * math.pi, 25):
        r_z = np.diag([np.exp(-0.5j * theta), np.exp(+0.5j * theta)])
        assert abs(gate_fidelity(IDENTITY_2, r_z) - abs(math.cos(theta / 2.0))) < 1e-12


def test_criterion_10_sweep_csv_identical_across_job_counts(tmp_path):
    config = {
        "noise": {"kind": "ou", "sigma": 4335.354, "tau_c_s": 1.5e-4,
                  "dt_s": 1.5e-5, "sigma_static": 2361.947},
        "gates": ["NOT", "H"],
        "schemes": ["simple", "simple_padded", "xy8"],
        "tau_grid_s": [7.5e-6, 1.5e-5],
        "epsilon": 0.01,
        "realizations": 120,
        "seed": 17,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out_serial = tmp_path / "serial.csv"
    out_parallel = tmp_path / "parallel.csv"
    assert cli_main(["sweep", "--config", str(cfg_path), "--jobs", "1",
                     "--out", str(out_serial)]) == 0
    assert cli_main(["sweep", "--config", str(cfg_path), "--jobs", "3",
                     "--out", str(out_parallel)]) == 0
    assert out_serial.read_bytes() == out_parallel.read_bytes()
