import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import ddgates.noise as noise
import ddgates.simulate as simulate

from ddgates.compiler import (
    DD_KINDS,
    XY4,
    PulseEvent,
    RotationSpec,
    Schedule,
    apply_amplitude_error,
    dd_cycle,
    decompose_gate,
    gate_target,
    hard_pulse_schedule,
    protected_bb1_gate,
)
from ddgates.core import DEFAULT_MAX_SPINS, IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, hermitian_expm
from ddgates.harness import GATES, SCHEMES, build_schedule
from ddgates.noise import (
    OUNoiseSpec,
    SpinBathSpec,
    _step_count,
    calibrate_to_targets,
    default_spin_bath,
    ou_trajectory,
    phase_variance,
)
from ddgates.simulate import (
    _pulse_cayley_klein,
    average_channel_output,
    bath_channel_output,
    bath_propagator,
    ideal_propagator,
    ou_propagators,
)
from helpers import oracle_bath_propagator, total_hamiltonian, trajectory


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


def test_pulse_cayley_klein_matches_expm():
    rng = np.random.default_rng(55)
    # ordinary detunings, detunings far above the drive, and an exact zero
    delta = np.concatenate([rng.normal(scale=5e3, size=6), [3e7, -8e8, 0.0]])
    for phase, angle, dur in ((-0.55, 0.91, 3.7e-5), (2.3, 0.0, 1e-5)):
        soft = PulseEvent("soft_gate_half", dur, RotationSpec(phase, angle / 1.03), 1.03)
        axis = math.cos(phase) * SIGMA_X + math.sin(phase) * SIGMA_Y
        # the whole half, and a piece of it at the same drive rate
        for length in (dur, 0.37 * dur):
            alpha, beta = _pulse_cayley_klein(soft, delta, length)
            for i, d in enumerate(delta):
                h = 0.5 * (angle / dur * axis + d * SIGMA_Z)
                u = np.array([[alpha[i], -np.conj(beta[i])], [beta[i], np.conj(alpha[i])]])
                assert np.allclose(u, scipy.linalg.expm(-1j * h * length), atol=1e-11)
    # zero drive and zero detuning: the identity, exactly
    idle_drive = PulseEvent("soft_gate_half", 1e-5, RotationSpec(0.4, 0.0))
    alpha, beta = _pulse_cayley_klein(idle_drive, np.zeros(2), 1e-5)
    assert np.array_equal(alpha, np.ones(2)) and np.array_equal(beta, np.zeros(2))
    # a hard pulse is instantaneous: no detuning reaches it
    hard = PulseEvent("hard_pulse", 0.0, RotationSpec(0.7, math.pi), 0.98)
    alpha, beta = _pulse_cayley_klein(hard, delta, 0.0)
    axis = math.cos(0.7) * SIGMA_X + math.sin(0.7) * SIGMA_Y
    expected = scipy.linalg.expm(-0.5j * 0.98 * math.pi * axis)
    assert np.allclose([[alpha, -np.conj(beta)], [beta, np.conj(alpha)]], expected, atol=1e-12)


def grid_pieces(t0, t1, dt, n_steps):
    """(k, length) of each piece of [t0, t1] cut at the grid points k dt, 0 < k <= n_steps.

    Piece k lies in grid cell k, [k dt, (k + 1) dt); the last cell, n_steps, has no end.
    """
    cuts = [k * dt for k in range(1, n_steps + 1) if t0 < k * dt < t1]
    edges = [t0, *cuts, t1]
    return [(min(int(0.5 * (lo + hi) / dt), n_steps), hi - lo) for lo, hi in zip(edges, edges[1:]) if hi > lo]


def phase_integral(delta_row, dt, t0, t1):
    """Overlap-by-overlap phase integral of one trajectory row from t0 to t1."""
    return sum(delta_row[k] * length for k, length in grid_pieces(t0, t1, dt, delta_row.size - 1))


def _oracle_ou_propagator(schedule, spec, delta_row):
    """Step-by-step expm rebuild of one realization, sharing only the trajectory.

    Every delay and soft half is cut at the grid points, and each piece is the
    exponential of its drive plus the trajectory value of its grid cell.
    """
    n_steps = delta_row.size - 1
    u = np.eye(2, dtype=complex)
    t = 0.0
    for ev in schedule.events:
        drive = np.zeros((2, 2))
        if ev.kind != "delay":
            angle = ev.rotation.angle * ev.amplitude_scale
            axis = math.cos(ev.rotation.phase) * SIGMA_X + math.sin(ev.rotation.phase) * SIGMA_Y
            if ev.duration == 0.0:
                u = scipy.linalg.expm(-0.5j * angle * axis) @ u
                continue
            drive = (angle / ev.duration) * axis
        for k, length in grid_pieces(t, t + ev.duration, spec.dt, n_steps):
            u = scipy.linalg.expm(-0.5j * length * (drive + delta_row[k] * SIGMA_Z)) @ u
        t += ev.duration
    return u


_PHASE_DT = 1.5e-5
_PHASE_NOISE = OUNoiseSpec(sigma=2e3, tau_c=1.5e-4, dt=_PHASE_DT, sigma_static=1e3)


def _delays(*durations):
    return Schedule(tuple(PulseEvent("delay", d) for d in durations), target_gate=IDENTITY_2, label="delays")


def _walk_phase(sched, rows=5, seed=17):
    """The phase phi of each realization, from U = diag(e^{-i phi / 2}, e^{i phi / 2})."""
    return -2.0 * np.angle(ou_propagators(sched, _PHASE_NOISE, rows, seed)[:, 0, 0])


@pytest.mark.parametrize("t0, t1", [
    (3.2, 3.7),  # both ends inside one cell
    (0.0, 0.4),
    (2.0, 7.0),  # ends exactly on grid points
    (0.0, 12.0),
    (4.6, 12.0),  # t1 on the last grid point
    (4.6, 12.3),  # t1 just past a grid point
    (11.5, 14.5),  # a delay over three cells
    (5.0, 5.0),
], ids=lambda t: f"{t:g}dt")
def test_ou_phase_matches_the_overlap_integral_at_the_grid_edges(t0, t1):
    # A delay cut at t0 and ending at t1: the walk's phase over [0, t1] against the
    # overlap integral of the same trajectory.
    t0, t1 = t0 * _PHASE_DT, t1 * _PHASE_DT
    sched = _delays(t0, t1 - t0)
    n_steps = _step_count(sched.total_duration, _PHASE_DT)
    expected = [phase_integral(row, _PHASE_DT, 0.0, t1) for row in trajectory(_PHASE_NOISE, n_steps, 5, 17)]
    assert np.allclose(_walk_phase(sched), expected, rtol=1e-12, atol=1e-14)


def test_ou_phase_is_additive_over_split_intervals():
    # Cutting a delay, or flushing its phase with a zero-angle hard pulse, moves no phase.
    flush = PulseEvent("hard_pulse", 0.0, RotationSpec(0.3, 0.0))
    splits = np.random.default_rng(18).uniform(0.0, 14.0, (40, 2))
    splits[:4, 0] = [2.0, 5.0, 12.0, 13.0]  # grid points, and the last cells
    for t1, t2 in np.sort(splits, axis=1) * _PHASE_DT:
        whole = _walk_phase(_delays(t2))
        assert np.allclose(_walk_phase(_delays(t1, t2 - t1)), whole, rtol=1e-12, atol=1e-14), (t1, t2)
        flushed = Schedule((PulseEvent("delay", t1), flush, PulseEvent("delay", t2 - t1)), IDENTITY_2, "flush")
        assert np.allclose(_walk_phase(flushed), whole, rtol=1e-12, atol=1e-14), (t1, t2)


# The 540/750 us fit: dt = 7.5 us.
_FIT_540_750 = OUNoiseSpec(sigma=5026.003736999687, tau_c=7.5e-5, dt=7.5e-6, sigma_static=900.2783716509673)


def test_ou_propagators_match_stepwise_oracle():
    # Soft halves of tau / 2 = 8.5 and 11.5 us cross grid points, and tau off the
    # dt grid splits the delays.  Holding one trajectory value over a whole soft
    # half is off by far more than the tolerance.
    spec = _FIT_540_750
    for gate, scheme, tau, epsilon in (("H", "xy4", 1.7e-5, 0.03), ("PI8", "kdd", 2.3e-5, -0.02)):
        sched = apply_amplitude_error(build_schedule(gate, scheme, tau), epsilon)
        n = 3
        props = ou_propagators(sched, spec, n, seed=606)
        delta = trajectory(spec, _step_count(sched.total_duration, spec.dt), n, seed=606)
        for r in range(n):
            assert np.allclose(props[r], _oracle_ou_propagator(sched, spec, delta[r]), atol=1e-10), (gate, r)


@pytest.mark.parametrize("tau", [3e-6, 1e-5, 3e-5], ids=["3us", "10us", "30us"])
@pytest.mark.parametrize(
    "gate, scheme", [("NOOP", "xy4"), ("NOOP", "xy8"), ("NOOP", "kdd"), ("NOT", "simple_padded")]
)
def test_ou_process_fidelity_of_pi_only_cells_matches_the_gaussian_phase(gate, scheme, tau):
    # At epsilon = 0 these cells hold only hard pi pulses about in-plane axes, and
    # each flips the sign of sigma_z.  So U = P exp(-i Phi sigma_z / 2), P the
    # ideal propagator, with the Gaussian phase Phi = sum_j (-1)^(j-1) (phi(t_j) -
    # phi(t_{j-1})) over the pulse times t_j, and the process fidelity
    # |Tr(P^dag U)|^2 / 4 = cos^2(Phi / 2) averages to (1 + exp(-Var(Phi) / 2)) / 2.
    spec = calibrate_to_targets(3.7e-4, 7.5e-4).params
    sched = build_schedule(gate, scheme, tau)
    edges, t = [], 0.0
    for ev in sched.events:
        assert ev.kind == "delay" or (ev.kind == "hard_pulse" and ev.rotation.angle == math.pi), ev
        if ev.kind == "hard_pulse":
            edges.append(t)
        t += ev.duration
    edges.append(t)
    exact = 0.5 * (1.0 + math.exp(-0.5 * phase_variance(spec, edges, (-1.0) ** np.arange(len(edges)))))
    n = 4000
    props = ou_propagators(sched, spec, n, seed=7)
    f = np.abs(np.einsum("ij,rij->r", ideal_propagator(sched).conj(), props)) ** 2 / 4.0
    stderr = np.std(f) / math.sqrt(n)
    assert abs(f.mean() - exact) <= 5.0 * stderr + 1e-12, (f.mean(), exact, stderr)


def test_ou_propagators_zero_noise_reduce_to_ideal():
    spec = OUNoiseSpec(sigma=0.0, tau_c=1e-4, dt=1e-5, sigma_static=0.0)
    sched = apply_amplitude_error(dd_cycle(XY4, 1.3e-5), 0.02)
    props = ou_propagators(sched, spec, 4, seed=1)
    ideal = ideal_propagator(sched, honor_amplitude=True)
    for r in range(4):
        assert np.allclose(props[r], ideal, atol=1e-12)


@pytest.mark.parametrize("scheme", ["xy8", "kdd"])
def test_ou_propagators_of_identical_realizations_are_byte_identical_rows(scheme):
    # Without noise every realization is the same, so every row at every length
    # must hold the same bytes.  numpy's SIMD loops treat the body of a vector and
    # its tail apart, and round an in-place complex product of one element
    # differently, so the lengths cover a lone element, short tails and a long body.
    spec = OUNoiseSpec(sigma=0.0, tau_c=1e-4, dt=1e-5, sigma_static=0.0)
    sched = apply_amplitude_error(build_schedule("H", scheme, 1.3e-5), 0.02)
    assert any(ev.kind == "soft_gate_half" for ev in sched.events)
    row = ou_propagators(sched, spec, 1, seed=4)[0]
    assert np.allclose(row, ideal_propagator(sched, honor_amplitude=True), atol=1e-12)
    for n in (1, 2, 3, 17, 1000):
        assert ou_propagators(sched, spec, n, seed=4).tobytes() == np.tile(row, (n, 1, 1)).tobytes(), n


def test_ou_propagators_static_delay_phase():
    spec = OUNoiseSpec(sigma=1e-9, tau_c=1e-4, dt=1e-5, sigma_static=3e3)
    total = 7.3e-5
    sched = hard_pulse_schedule([], np.eye(2, dtype=complex), "idle", pad_to=total)
    n = 5
    props = ou_propagators(sched, spec, n, seed=9)
    delta = next(ou_trajectory(spec, n, 9, _step_count(total, spec.dt)))
    for r in range(n):
        phi = delta[r] * total  # static part dominates; row is constant
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


@pytest.mark.parametrize("budget", [1, 27, 68, 180, 1 << 20])
def test_ou_propagators_bytes_do_not_depend_on_the_chunk_size(monkeypatch, budget):
    # The normals come in chunks of whole steps, at most _BLOCK_BUDGET normals.
    # 21 rows take 21 normals per step: budgets 1 and 27 give chunks of the
    # one-step minimum (1 is below the row count), 68 gives 3 steps and 180
    # gives 8 (neither divides the 10 steps that 8 idle steps draw), and 1 << 20
    # a single chunk.
    spec = OUNoiseSpec(sigma=5e3, tau_c=1.5e-4, dt=1.5e-5, sigma_static=2e3)
    sched = apply_amplitude_error(protected_bb1_gate(decompose_gate("H"), XY4, 1.3e-5), 0.02)
    idle = hard_pulse_schedule([], np.eye(2, dtype=complex), "idle", pad_to=1.2e-4)
    assert _step_count(idle.total_duration, spec.dt) == 8
    reference = [ou_propagators(s, spec, 21, seed=41).tobytes() for s in (sched, idle)]
    monkeypatch.setattr(noise, "_BLOCK_BUDGET", budget)
    assert [ou_propagators(s, spec, 21, seed=41).tobytes() for s in (sched, idle)] == reference


def test_ou_propagators_memory_does_not_scale_with_steps_times_realizations():
    spec = OUNoiseSpec(sigma=4e3, tau_c=1.5e-4, dt=1.5e-5)
    n = 500
    ou_propagators(dd_cycle(XY4, 1e-5), spec, n, seed=5)  # numpy's one-time set-up is not the walk's
    peaks = []
    for n_steps in (10_000, 40_000):
        idle = hard_pulse_schedule([], np.eye(2, dtype=complex), "idle", pad_to=n_steps * spec.dt)
        tracemalloc.start()
        try:
            props = ou_propagators(idle, spec, n, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert props.shape == (n, 2, 2)
    # One block of normals and about 15 vectors of n complex numbers (the walk's
    # buffers, the trajectory's steps and the output), whatever the length:
    # a 10k-step trajectory of 500 rows alone would take 40 MB.
    assert peaks[0] < 8 * noise._BLOCK_BUDGET + 20 * 16 * n, peaks
    assert peaks[1] < 1.05 * peaks[0], peaks


GATE_CELLS = st.tuples(
    st.sampled_from(GATES),
    st.sampled_from(SCHEMES),
    st.floats(1e-6, 1e-3),
    st.floats(-0.2, 0.2),
)


@settings(max_examples=40, deadline=None)
@given(cell=GATE_CELLS, seed=st.integers(0, 2**32 - 1))
def test_ou_propagators_are_special_unitary_and_exact_without_duration(cell, seed):
    gate, scheme, tau, epsilon = cell
    spec = OUNoiseSpec(sigma=4.4e3, tau_c=1.5e-4, dt=1.5e-5, sigma_static=2.2e3)
    sched = apply_amplitude_error(build_schedule(gate, scheme, tau), epsilon)
    props = ou_propagators(sched, spec, 3, seed)
    assert props.shape == (3, 2, 2)
    assert np.allclose(props @ props.conj().transpose(0, 2, 1), np.eye(2), atol=1e-10)
    assert np.allclose(np.linalg.det(props), 1.0, atol=1e-10)
    if sched.total_duration == 0:
        ideal = ideal_propagator(sched, honor_amplitude=True)
        assert all(np.array_equal(u, ideal) for u in props)


def _two_spin_bath(couplings=(2.5e4, 1.5e4), d=2.0e4, system_offset=1.0e3):
    return SpinBathSpec(
        n_bath=2, couplings=couplings,
        bath_couplings=np.array([[0.0, d], [d, 0.0]]),
        system_offset=system_offset,
    )


def _assert_matches_oracle(sched, spec):
    u = bath_propagator(sched, spec)
    assert np.allclose(u, oracle_bath_propagator(sched, spec), atol=1e-9)
    assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-10)


def test_bath_propagator_matches_expm_oracle():
    not_xy4 = apply_amplitude_error(protected_bb1_gate(decompose_gate("NOT"), XY4, 5e-6), -0.04)
    _assert_matches_oracle(not_xy4, _two_spin_bath())
    # KDD puts hard pulses at many phases, and the BB1 halves repeat their soft keys.
    pi8_kdd = apply_amplitude_error(build_schedule("PI8", "kdd", 4e-6), 0.03)
    _assert_matches_oracle(pi8_kdd, default_spin_bath(n_bath=3, seed=11, system_offset=3.0e3))


@pytest.mark.parametrize(
    "first, second",
    [
        (_two_spin_bath(couplings=(2.5e4, 1.5e4)), _two_spin_bath(couplings=(2.5e4, 1.7e4))),
        (_two_spin_bath(system_offset=1.0e3), _two_spin_bath(system_offset=4.0e3)),
        (_two_spin_bath(d=2.0e4), _two_spin_bath(d=-1.0e4)),
    ],
    ids=["couplings", "system_offset", "bath_couplings"],
)
def test_bath_propagator_frames_follow_every_spec_field(first, second):
    # Back-to-back specs that differ in one field must not reuse each other's frame.
    sched = apply_amplitude_error(protected_bb1_gate(decompose_gate("H"), XY4, 5e-6), 0.02)
    _assert_matches_oracle(sched, first)
    _assert_matches_oracle(sched, second)


def test_bath_soft_halves_differing_in_amplitude_or_duration_do_not_share_an_exponential():
    soft = PulseEvent("soft_gate_half", 4e-6, RotationSpec(0.3, math.pi / 2))
    events = (
        soft,
        PulseEvent("delay", 3e-6),
        PulseEvent("hard_pulse", 0.0, RotationSpec(0.0, math.pi)),
        PulseEvent("delay", 3e-6),
        dataclasses.replace(soft, amplitude_scale=0.9),
        dataclasses.replace(soft, duration=6e-6),
    )
    sched = Schedule(events, target_gate=IDENTITY_2, label="soft-halves")
    _assert_matches_oracle(sched, _two_spin_bath())


_BATH_ROTATIONS = st.builds(
    RotationSpec, st.floats(-10.0, 10.0), st.floats(-4 * math.pi, 4 * math.pi, exclude_min=True)
)


@settings(max_examples=25, deadline=None)
@given(
    rotations=st.lists(_BATH_ROTATIONS, min_size=1, max_size=2),
    kind=st.sampled_from(("xy4", "xy8", "kdd")),
    tau=st.floats(1e-6, 3e-5),
    epsilon=st.floats(-0.2, 0.2),
)
def test_bath_propagator_of_random_protected_gates_matches_oracle(rotations, kind, tau, epsilon):
    sched = apply_amplitude_error(protected_bb1_gate(rotations, DD_KINDS[kind], tau), epsilon)
    _assert_matches_oracle(sched, _two_spin_bath())


@st.composite
def _spin_baths(draw):
    n = draw(st.integers(0, 4))
    rate = st.floats(-8e4, 8e4)
    d = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            d[j, k] = d[k, j] = draw(rate)
    return SpinBathSpec(n, tuple(draw(st.lists(rate, min_size=n, max_size=n))), d, draw(st.floats(-1e4, 1e4)))


@settings(max_examples=20, deadline=None)
@given(spec=_spin_baths(), kind=st.sampled_from(("xy4", "kdd")), tau=st.floats(1e-6, 2e-5),
       epsilon=st.floats(-0.1, 0.1))
def test_bath_propagator_conserves_the_bath_magnetization(spec, kind, tau, epsilon):
    n = spec.n_bath
    # The bath's total S_z on each basis state, from its bits: S_z^k is -1/2 where bit k is set.
    mz = np.array([n / 2 - bin(b).count("1") for b in range(2**n)])
    h, sz_bath = total_hamiltonian(spec), np.kron(IDENTITY_2, np.diag(mz))
    assert np.allclose(h @ sz_bath - sz_bath @ h, 0.0, rtol=0.0, atol=1e-12 * np.abs(h).max())
    sched = apply_amplitude_error(build_schedule("PI8", kind, tau), epsilon)
    u, sector = bath_propagator(sched, spec), np.tile(mz, 2)
    assert np.all(u[sector[:, None] != sector[None, :]] == 0.0)
    assert np.allclose(u, oracle_bath_propagator(sched, spec), atol=1e-9)


def test_bath_soft_halves_exponentiate_once_per_scaled_angle(monkeypatch):
    calls = []

    def counting_expm(h, t):
        calls.append(t)
        return hermitian_expm(h, t)

    simulate._soft_exponential.cache_clear()
    monkeypatch.setattr(simulate, "hermitian_expm", counting_expm)
    spec = default_spin_bath(n_bath=3, seed=5)
    angles = set()
    for kind in ("xy4", "xy8", "kdd"):
        sched = apply_amplitude_error(build_schedule("PI8", kind, 1e-5), 0.01)
        bath_propagator(sched, spec)
        angles |= {ev.rotation.angle * ev.amplitude_scale for ev in sched.events if ev.kind == "soft_gate_half"}
    # -pi/8, pi/16 and pi/8, a quarter of each rotation, and the halves of the pi and 2 pi components,
    # shared by the three cycle kinds.
    assert len(angles) == 5
    assert len(calls) == 5


def test_bath_repeated_runs_differing_in_one_amplitude_scale_stay_apart():
    tau = 5e-6
    hard = [PulseEvent("hard_pulse", 0.0, RotationSpec(p, math.pi)) for p in (0.0, math.pi / 2, 0.0)]
    run = (hard[0], PulseEvent("delay", tau), hard[1], PulseEvent("delay", tau), hard[2])
    scaled = (run[0], run[1], dataclasses.replace(hard[1], amplitude_scale=1.05), run[3], run[4])
    soft = PulseEvent("soft_gate_half", tau / 2, RotationSpec(0.4, math.pi / 4))
    events = (*run, soft, *scaled, soft, *run, soft, *scaled)
    sched = Schedule(events, target_gate=IDENTITY_2, label="repeated-runs")
    _assert_matches_oracle(sched, _two_spin_bath())


def test_bath_propagator_rejects_oversized_bath():
    n = DEFAULT_MAX_SPINS  # one more spin than the limit, counting the system
    with pytest.raises(ValueError):
        spec = SpinBathSpec(n_bath=n, couplings=(1.0,) * n, bath_couplings=np.zeros((n, n)))
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
