import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddgates.compiler import (
    XY8,
    apply_amplitude_error,
    build_schedule,
    decompose_gate,
    gate_target,
    hard_pulse_schedule,
    protected_bb1_gate,
)
from ddgates.core import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, rotation_unitary
from ddgates.config import GATES, SCHEMES
from ddgates.noise import SpinBathSpec, default_spin_bath
from ddgates.ou import OUNoiseSpec, calibrate_to_targets
from ddgates.simulate import (
    STATIC_NODES,
    bath_propagator,
    channel_gram,
    hermite_nodes,
    ideal_propagator,
    ou_moment,
)
import ddgates.tomography as tomography
from ddgates.tomography import (
    CHI_BASIS,
    TOMO_INPUT_STATES,
    ChannelSamples,
    ChiMatrix,
    chi_from_gram,
    chi_reconstruct,
    gate_fidelity,
    ideal_channel_samples,
    process_fidelity,
    simulate_channel,
)
from helpers import channel_operators, gram_of_operators, operators_of_gram, reference_bath_channel_output


def chi_of_unitary(u):
    """Direct expansion oracle: chi = c c^dag with c_m = Tr(E_m^dag u) / 2."""
    c = np.array([np.trace(e.conj().T @ u) / 2 for e in CHI_BASIS])
    return np.outer(c, c.conj())


def apply_chi(chi, rho):
    out = np.zeros((2, 2), dtype=complex)
    for m, em in enumerate(CHI_BASIS):
        for n, en in enumerate(CHI_BASIS):
            out += chi[m, n] * em @ rho @ en.conj().T
    return out


def test_input_states_are_informationally_complete_densities():
    assert len(TOMO_INPUT_STATES) == 4
    for rho in TOMO_INPUT_STATES:
        assert abs(np.trace(rho) - 1) < 1e-14
        assert np.allclose(rho, rho.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(rho).min() > -1e-14
    mats = np.array([r.reshape(4) for r in TOMO_INPUT_STATES])
    assert np.linalg.matrix_rank(mats) == 4


def test_the_tomography_transfer_matrix_is_invertible_and_importing_runs_no_lapack():
    # The fixed input set is informationally complete, so linear inversion has one solution.
    assert np.linalg.matrix_rank(tomography._TRANSFER) == 16
    # Importing the package builds the matrix but factors nothing: no LAPACK call at import.
    code = ("import numpy.linalg as la\n"
            "def refuse(*_, **__):\n"
            "    raise AssertionError('LAPACK at import')\n"
            "for name in ('matrix_rank', 'svd', 'solve', 'eigh', 'eigvalsh', 'inv', 'qr'):\n"
            "    setattr(la, name, refuse)\n"
            "import ddgates.cli, ddgates.harness, ddgates.tomography\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_chi_basis_operators_match_labels():
    assert np.allclose(CHI_BASIS[0], IDENTITY_2)
    assert np.allclose(CHI_BASIS[1], SIGMA_X)
    assert np.allclose(CHI_BASIS[2], 1j * SIGMA_Y)
    assert np.allclose(CHI_BASIS[3], SIGMA_Z)


def test_chi_reconstruct_matches_expansion_oracle():
    rng = np.random.default_rng(404)
    for _ in range(12):
        u = rotation_unitary(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        chi = chi_reconstruct(ideal_channel_samples(u))
        assert np.allclose(chi.entries, chi_of_unitary(u), atol=1e-10)


def test_chi_of_unitary_channel_is_rank_one_unit_trace():
    rng = np.random.default_rng(7)
    for _ in range(6):
        u = rotation_unitary(rng.uniform(0, 2 * math.pi), rng.uniform(0.2, 2 * math.pi))
        chi = chi_reconstruct(ideal_channel_samples(u))
        w = np.linalg.eigvalsh(chi.entries)
        assert abs(np.trace(chi.entries) - 1) < 1e-9
        assert w[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(w[:-1])) < 1e-9


def test_linear_inversion_round_trip_random_kraus_channel():
    rng = np.random.default_rng(11)
    for _ in range(8):
        # random two-operator Kraus channel
        k1 = rotation_unitary(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi))
        k2 = rotation_unitary(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi))
        p = rng.uniform(0.1, 0.9)
        kraus = [math.sqrt(p) * k1, math.sqrt(1 - p) * k2]
        chi_true = np.zeros((4, 4), dtype=complex)
        for k in kraus:
            c = np.array([np.trace(e.conj().T @ k) / 2 for e in CHI_BASIS])
            chi_true += np.outer(c, c.conj())
        outputs = tuple(
            sum(k @ rho @ k.conj().T for k in kraus) for rho in TOMO_INPUT_STATES
        )
        chi = chi_reconstruct(ChannelSamples(outputs))
        assert np.allclose(chi.entries, chi_true, atol=1e-10)
        # and applying the reconstructed chi reproduces the channel action
        rho_test = np.array([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]])
        out_direct = sum(k @ rho_test @ k.conj().T for k in kraus)
        assert np.allclose(apply_chi(chi.entries, rho_test), out_direct, atol=1e-10)


def test_chi_diagnostics_on_exact_channel():
    chi = chi_reconstruct(ideal_channel_samples(gate_target("H")))
    assert chi.hermiticity_defect() < 1e-12
    assert chi.trace_preservation_residual() < 1e-12
    assert chi.min_eigenvalue() > -1e-12


def test_monte_carlo_chi_is_trace_preserving_at_any_ensemble_size():
    # the simulated channel averages the conjugations by its operators, so trace
    # preservation holds at machine precision
    noise = OUNoiseSpec(sigma=4e3, tau_c=1.5e-4, dt=1.5e-5, sigma_static=2e3)
    sched = hard_pulse_schedule(decompose_gate("NOT"), gate_target("NOT"), "n", pad_to=3e-4)
    chi = chi_reconstruct(simulate_channel(sched, noise))
    assert chi.trace_preservation_residual() < 1e-12


def test_channel_samples_validation():
    good = ideal_channel_samples(IDENTITY_2)
    assert len(good.outputs) == 4
    with pytest.raises(ValueError):
        ChannelSamples(tuple(np.eye(2, dtype=complex) for _ in range(3)))
    bad = (np.eye(2, dtype=complex) * 3.0,) + tuple(good.outputs[1:])
    with pytest.raises(ValueError):
        ChannelSamples(bad)


_NAN = np.full((2, 2), np.nan)
_NAN_COHERENCE = np.array([[0.5, np.nan], [np.nan, 0.5]])


@pytest.mark.parametrize("call, message", [
    (lambda: ChannelSamples((_NAN,) + ideal_channel_samples(IDENTITY_2).outputs[1:]), "non-finite"),
    (lambda: ChannelSamples((_NAN_COHERENCE,) + ideal_channel_samples(IDENTITY_2).outputs[1:]), "non-finite"),
    (lambda: ChannelSamples((np.diag([np.inf, 0.0]),) + ideal_channel_samples(IDENTITY_2).outputs[1:]), "non-finite"),
    (lambda: gate_fidelity(_NAN, IDENTITY_2), "non-finite"),
    (lambda: gate_fidelity(IDENTITY_2, np.diag([np.inf, 1.0])), "non-finite"),
    (lambda: gate_fidelity(np.zeros((0, 0)), np.zeros((0, 0))), "zero-norm"),
], ids=["nan_output", "nan_coherence", "inf_output", "nan_gate", "inf_gate", "empty_gate"])
def test_tomography_rejects_non_finite_or_empty_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_fully_dephasing_channel_fidelity_to_identity():
    # dephasing kills the off-diagonal inputs' coherences
    outputs = (
        TOMO_INPUT_STATES[0],
        TOMO_INPUT_STATES[1],
        np.eye(2, dtype=complex) / 2,
        np.eye(2, dtype=complex) / 2,
    )
    chi = chi_reconstruct(ChannelSamples(outputs))
    assert np.allclose(chi.entries, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-12)
    chi_id = chi_reconstruct(ideal_channel_samples(IDENTITY_2))
    assert gate_fidelity(chi, chi_id) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_gate_fidelity_properties():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert gate_fidelity(a, b) == pytest.approx(gate_fidelity(b, a), abs=1e-14)
    assert gate_fidelity(np.exp(0.7j) * a, b) == pytest.approx(gate_fidelity(a, b), abs=1e-14)
    assert gate_fidelity(3.7 * a, b) == pytest.approx(gate_fidelity(a, b), abs=1e-14)
    assert gate_fidelity(a, a) == pytest.approx(1.0, abs=1e-12)
    assert gate_fidelity(IDENTITY_2, SIGMA_X) == 0.0
    with pytest.raises(ValueError):
        gate_fidelity(np.zeros((2, 2)), IDENTITY_2)


def test_gate_fidelity_accepts_chi_matrices():
    chi_a = chi_reconstruct(ideal_channel_samples(SIGMA_X))
    chi_b = chi_reconstruct(ideal_channel_samples(SIGMA_X))
    assert gate_fidelity(chi_a, chi_b) == pytest.approx(1.0, abs=1e-12)


def test_process_fidelity_noiseless_matches_propagator_overlap():
    sched = hard_pulse_schedule(decompose_gate("H"), gate_target("H"), "h")
    f_proc = process_fidelity(sched, None)
    f_prop = gate_fidelity(ideal_propagator(sched), sched.target_gate)
    assert f_proc == pytest.approx(1.0, abs=1e-9)
    assert f_proc == pytest.approx(f_prop, abs=1e-6)


def test_process_fidelity_of_the_gram_matrix_is_the_overlap_of_the_chis_on_the_readme_grid():
    # chi = V G V^dag / 2 with V = T / sqrt(2) unitary, and the overlap is invariant under a common
    # unitary similarity and under scale: scoring G directly moves each cell by rounding alone.
    models = (None, calibrate_to_targets(3.7e-4, 7.5e-4).params, default_spin_bath(6))
    for gate in GATES:
        for scheme in SCHEMES:
            for tau in (3e-6, 1e-5, 3e-5):
                sched = apply_amplitude_error(build_schedule(gate, scheme, tau), 0.01)
                u = sched.target_gate.reshape(-1)
                ideal = chi_from_gram(np.outer(u, u.conj()))
                for model in models:
                    via_chi = gate_fidelity(chi_from_gram(channel_gram(sched, model)), ideal)
                    cell = (gate, scheme, tau, type(model).__name__)
                    assert abs(process_fidelity(sched, model) - via_chi) <= 4.4e-16, cell


def test_chi_fidelity_is_squared_propagator_overlap():
    # for unitary-vs-unitary comparisons the chi metric squares the overlap
    sched = apply_amplitude_error(
        hard_pulse_schedule(decompose_gate("NOT"), gate_target("NOT"), "n"), 0.08
    )
    u = ideal_propagator(sched, honor_amplitude=True)
    f_prop = gate_fidelity(u, sched.target_gate)
    chi_u = chi_reconstruct(ideal_channel_samples(u))
    chi_t = chi_reconstruct(ideal_channel_samples(sched.target_gate))
    assert gate_fidelity(chi_u, chi_t) == pytest.approx(f_prop**2, abs=1e-10)


def test_simulate_channel_dispatches_models():
    sched = hard_pulse_schedule(decompose_gate("NOT"), gate_target("NOT"), "n")
    samples = simulate_channel(sched, None)
    assert np.allclose(chi_reconstruct(samples).entries, chi_of_unitary(-1j * SIGMA_X), atol=1e-10)
    with pytest.raises(TypeError):
        simulate_channel(sched, object())


def _oracle_cases():
    h = hard_pulse_schedule(decompose_gate("H"), gate_target("H"), "h")
    u = ideal_propagator(h, honor_amplitude=True)
    yield "noiseless_H", h, None, [u @ rho @ u.conj().T for rho in TOMO_INPUT_STATES]

    # The OU channel is the mean of K rho K^dag over the operators of the eigenpairs of its Gram matrix.
    ou = OUNoiseSpec(sigma=4e3, tau_c=1.5e-4, dt=1.5e-5, sigma_static=2e3)
    not_xy8 = apply_amplitude_error(protected_bb1_gate(decompose_gate("NOT"), XY8, 1.5e-5), 0.01)
    x, w = hermite_nodes(STATIC_NODES)
    ks = operators_of_gram(ou_moment(not_xy8, ou, ou.sigma_static * x, w))
    yield "ou_NOT_xy8", not_xy8, ou, [sum(k @ rho @ k.conj().T for k in ks) / len(ks) for rho in TOMO_INPUT_STATES]

    bath = SpinBathSpec(
        n_bath=2, couplings=(2.5e4, 1.5e4),
        bath_couplings=np.array([[0.0, 2.0e4], [2.0e4, 0.0]]), system_offset=1.0e3,
    )
    u_full = bath_propagator(not_xy8, bath)
    yield "bath_NOT_xy8", not_xy8, bath, [reference_bath_channel_output(u_full, rho, 2) for rho in TOMO_INPUT_STATES]


@pytest.mark.parametrize("case", list(_oracle_cases()), ids=lambda c: c[0])
def test_chi_from_operators_matches_linear_inversion(case):
    # The chi of G, and the chi of the operators the engines returned before G, via their Gram matrix.
    _, sched, noise, outputs = case
    oracle = chi_reconstruct(ChannelSamples(tuple(outputs)))
    assert np.max(np.abs(chi_from_gram(channel_gram(sched, noise)).entries - oracle.entries)) < 1e-12
    chi = chi_from_gram(gram_of_operators(channel_operators(sched, noise)))
    assert np.max(np.abs(chi.entries - oracle.entries)) < 1e-12


@pytest.mark.parametrize("case", list(_oracle_cases()), ids=lambda c: c[0])
def test_simulate_channel_outputs_match_the_oracle_outputs(case):
    # The bath against its dense propagator's partial trace, OU against its Gram matrix's eigenpairs.
    _, sched, noise, outputs = case
    for got, want in zip(simulate_channel(sched, noise).outputs, outputs):
        assert np.max(np.abs(got - want)) <= 1e-12


def _u2(gphase, t, x, y):
    a = math.cos(t) * np.exp(1j * x)
    b = math.sin(t) * np.exp(1j * y)
    return np.exp(1j * gphase) * np.array([[a, -np.conj(b)], [b, np.conj(a)]])


_ANGLE = st.floats(-math.pi, math.pi, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_ANGLE, _ANGLE, _ANGLE, _ANGLE), min_size=1, max_size=50))
def test_chi_from_operators_is_a_channel_for_any_unitary_ensemble(params):
    # chi_from_gram of the Gram matrix of any mixture of unitaries.
    chi = chi_from_gram(gram_of_operators(np.array([_u2(*p) for p in params])))
    assert chi.hermiticity_defect() <= 1e-12
    assert chi.trace_preservation_residual() <= 1e-12
    assert chi.min_eigenvalue() >= -1e-12
