import math

import numpy as np
import pytest
import scipy.linalg

from ddgates.compiler import (
    XY4,
    apply_amplitude_error,
    dd_cycle,
    decompose_gate,
    gate_target,
    hard_pulse_schedule,
    protected_bb1_gate,
)
from ddgates.core import DEFAULT_MAX_SPINS, IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, embed_system
from ddgates.noise import OUNoiseSpec, SpinBathSpec, sample_ou_ensemble, total_hamiltonian
from ddgates.simulate import (
    _segment_unitaries,
    average_channel_output,
    bath_channel_output,
    bath_propagator,
    ideal_propagator,
    ou_propagators,
)


def test_ideal_propagator_not_gate():
    sched = hard_pulse_schedule(decompose_gate("NOT"), gate_target("NOT"), "n")
    assert np.allclose(ideal_propagator(sched), -1j * SIGMA_X, atol=1e-14)


def test_ideal_propagator_amplitude_flag():
    sched = hard_pulse_schedule(decompose_gate("NOT"), gate_target("NOT"), "n")
    scaled = apply_amplitude_error(sched, 0.05)
    u_ignore = ideal_propagator(scaled, honor_amplitude=False)
    u_honor = ideal_propagator(scaled, honor_amplitude=True)
    assert np.allclose(u_ignore, -1j * SIGMA_X, atol=1e-14)
    expected = scipy.linalg.expm(-0.5j * 1.05 * math.pi * SIGMA_X)
    assert np.allclose(u_honor, expected, atol=1e-12)


def test_segment_unitaries_match_expm():
    rng = np.random.default_rng(55)
    delta = rng.normal(scale=5e3, size=6)
    wx, wy, dur = 2.1e4, -1.3e4, 3.7e-5
    batch = _segment_unitaries(wx, wy, delta, dur)
    for i, d in enumerate(delta):
        h = 0.5 * (wx * SIGMA_X + wy * SIGMA_Y + d * SIGMA_Z)
        assert np.allclose(batch[i], scipy.linalg.expm(-1j * h * dur), atol=1e-11)
    # zero generator edge case
    assert np.allclose(_segment_unitaries(0.0, 0.0, np.zeros(2), 1e-5), np.eye(2), atol=1e-15)


def _oracle_ou_propagator(schedule, spec, delta_row):
    """Step-by-step expm rebuild of one realization, sharing only the trajectory."""
    n_steps = delta_row.size - 1

    def phase_integral(t0, t1):
        # piecewise-constant trajectory, last value extended beyond the grid
        total = 0.0
        for k in range(n_steps + 1):
            lo = k * spec.dt
            hi = (k + 1) * spec.dt if k < n_steps else max(t1, lo)
            ov = min(t1, hi) - max(t0, lo)
            if ov > 0:
                total += delta_row[k] * ov
        return total

    u = np.eye(2, dtype=complex)
    t = 0.0
    for ev in schedule.events:
        if ev.kind == "delay":
            phi = phase_integral(t, t + ev.duration)
            u = scipy.linalg.expm(-0.5j * phi * SIGMA_Z) @ u
        else:
            angle = ev.rotation.angle * ev.amplitude_scale
            axis = math.cos(ev.rotation.phase) * SIGMA_X + math.sin(ev.rotation.phase) * SIGMA_Y
            if ev.duration == 0.0:
                u = scipy.linalg.expm(-0.5j * angle * axis) @ u
            else:
                k_mid = min(int((t + ev.duration / 2) / spec.dt), n_steps)
                h = 0.5 * ((angle / ev.duration) * axis + delta_row[k_mid] * SIGMA_Z)
                u = scipy.linalg.expm(-1j * h * ev.duration) @ u
        t += ev.duration
    return u


def test_ou_propagators_match_stepwise_oracle():
    spec = OUNoiseSpec(sigma=5e3, tau_c=1.5e-4, dt=1.5e-5, sigma_static=2e3)
    # tau deliberately off the dt grid to exercise interval splitting
    sched = apply_amplitude_error(protected_bb1_gate(decompose_gate("H"), XY4, 1.7e-5), 0.03)
    n = 3
    props = ou_propagators(sched, spec, n, seed=606)
    from ddgates.noise import _step_count

    n_steps = _step_count(sched.total_duration, spec.dt)
    delta = sample_ou_ensemble(spec, n_steps, n, seed=606)
    for r in range(n):
        expected = _oracle_ou_propagator(sched, spec, delta[r])
        assert np.allclose(props[r], expected, atol=1e-10)


def test_ou_propagators_zero_noise_reduce_to_ideal():
    spec = OUNoiseSpec(sigma=0.0, tau_c=1e-4, dt=1e-5, sigma_static=0.0)
    sched = apply_amplitude_error(dd_cycle(XY4, 1.3e-5), 0.02)
    props = ou_propagators(sched, spec, 4, seed=1)
    ideal = ideal_propagator(sched, honor_amplitude=True)
    for r in range(4):
        assert np.allclose(props[r], ideal, atol=1e-12)


def test_ou_propagators_static_delay_phase():
    spec = OUNoiseSpec(sigma=1e-9, tau_c=1e-4, dt=1e-5, sigma_static=3e3)
    total = 7.3e-5
    sched = hard_pulse_schedule([], np.eye(2, dtype=complex), "idle", pad_to=total)
    n = 5
    props = ou_propagators(sched, spec, n, seed=9)
    from ddgates.noise import _step_count

    delta = sample_ou_ensemble(spec, _step_count(total, spec.dt), n, seed=9)
    for r in range(n):
        phi = delta[r, 0] * total  # static part dominates; row is constant
        expected = np.diag([np.exp(-0.5j * phi), np.exp(+0.5j * phi)])
        assert np.allclose(props[r], expected, atol=1e-9)


def test_ou_propagators_are_unitary():
    spec = OUNoiseSpec(sigma=6e3, tau_c=2e-4, dt=2e-5, sigma_static=1e3)
    sched = protected_bb1_gate(decompose_gate("PI8"), XY4, 2.1e-5)
    props = ou_propagators(sched, spec, 8, seed=3)
    eye = np.eye(2)
    for u in props:
        assert np.allclose(u @ u.conj().T, eye, atol=1e-10)


def test_ou_propagators_deterministic_per_seed():
    spec = OUNoiseSpec(sigma=4e3, tau_c=1.5e-4, dt=1.5e-5)
    sched = dd_cycle(XY4, 1e-5)
    a = ou_propagators(sched, spec, 6, seed=77)
    b = ou_propagators(sched, spec, 6, seed=77)
    c = ou_propagators(sched, spec, 6, seed=78)
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def _oracle_bath_propagator(schedule, spec):
    h_noise = total_hamiltonian(spec)
    sx = SIGMA_X / 2
    sy = SIGMA_Y / 2
    u = np.eye(h_noise.shape[0], dtype=complex)
    for ev in schedule.events:
        if ev.kind == "delay":
            u = scipy.linalg.expm(-1j * h_noise * ev.duration) @ u
        else:
            angle = ev.rotation.angle * ev.amplitude_scale
            if ev.duration == 0.0:
                axis = math.cos(ev.rotation.phase) * SIGMA_X + math.sin(ev.rotation.phase) * SIGMA_Y
                u = embed_system(scipy.linalg.expm(-0.5j * angle * axis), spec.n_bath) @ u
            else:
                omega = angle / ev.duration
                h_ctrl = omega * (math.cos(ev.rotation.phase) * sx + math.sin(ev.rotation.phase) * sy)
                u = scipy.linalg.expm(-1j * (embed_system(h_ctrl, spec.n_bath) + h_noise) * ev.duration) @ u
    return u


def test_bath_propagator_matches_expm_oracle():
    spec = SpinBathSpec(
        n_bath=2, couplings=(2.5e4, 1.5e4),
        bath_couplings=np.array([[0.0, 2.0e4], [2.0e4, 0.0]]),
        system_offset=1.0e3,
    )
    sched = apply_amplitude_error(protected_bb1_gate(decompose_gate("NOT"), XY4, 5e-6), -0.04)
    u = bath_propagator(sched, spec)
    expected = _oracle_bath_propagator(sched, spec)
    assert np.allclose(u, expected, atol=1e-9)
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-10)


def test_bath_propagator_rejects_oversized_bath():
    n = DEFAULT_MAX_SPINS  # one more spin than the limit, counting the system
    spec = SpinBathSpec(n_bath=n, couplings=(1.0,) * n, bath_couplings=np.zeros((n, n)))
    with pytest.raises(ValueError):
        bath_propagator(dd_cycle(XY4, 1e-5), spec)


def test_average_channel_output_identity_and_tp():
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    eye_batch = np.broadcast_to(np.eye(2, dtype=complex), (10, 2, 2))
    assert np.allclose(average_channel_output(eye_batch, rho), rho, atol=1e-14)

    rng = np.random.default_rng(14)
    props = np.array([scipy.linalg.expm(-1j * 0.5 * (
        rng.normal() * SIGMA_X + rng.normal() * SIGMA_Y + rng.normal() * SIGMA_Z
    )) for _ in range(10)])
    out = average_channel_output(props, rho)
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.allclose(out, out.conj().T, atol=1e-12)
    evals = np.linalg.eigvalsh(out)
    assert evals.min() > -1e-12


def test_bath_channel_output_reduces_correctly():
    spec = SpinBathSpec(
        n_bath=2, couplings=(3.0e4, 2.0e4), bath_couplings=np.zeros((2, 2))
    )
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    u = np.eye(8, dtype=complex)
    assert np.allclose(bath_channel_output(u, rho, 2), rho, atol=1e-14)
    # refocused cycle acts as the identity channel on any input
    u_cycle = bath_propagator(dd_cycle(XY4, 4e-6), spec)
    assert np.allclose(bath_channel_output(u_cycle, rho, 2), rho, atol=1e-12)
