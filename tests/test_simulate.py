import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ddgates.simulate as simulate

from ddgates.compiler import (
    DD_KINDS,
    XY4,
    XY8,
    PulseEvent,
    RotationSpec,
    Schedule,
    apply_amplitude_error,
    build_schedule,
    dd_cycle,
    decompose_gate,
    gate_target,
    hard_pulse_schedule,
    protected_bb1_gate,
    protected_gate_time,
    schedule_from_json,
    schedule_to_json,
)
from ddgates.core import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, rotation_unitary
from ddgates.config import GATES, SCHEMES, ExperimentConfig, load_calibration
from ddgates.harness import REFERENCE_GATE_TIMES_S, run_sweep, simulate_cell
from ddgates.noise import DEFAULT_MAX_SPINS, SpinBathSpec, default_spin_bath
from ddgates.ou import OUNoiseSpec, calibrate_to_targets, phase_variance
from ddgates.simulate import (
    bath_average,
    bath_channel_output,
    bath_frame,
    bath_propagator,
    channel_gram,
    channel_output,
    hermite_nodes,
    ideal_propagator,
    ou_moment,
)
from ddgates.tomography import CHI_BASIS, TOMO_INPUT_STATES, chi_from_gram, gate_fidelity, simulate_channel
from helpers import (
    Word,
    channel_operators,
    gram_of_operators,
    oracle_bath_propagator,
    ou_propagators,
    ou_trajectory,
    pulse_cayley_klein,
    reference_bath_channel_output,
    reference_bath_gram,
    reference_ou_moment,
    step_count,
    total_hamiltonian,
    trajectory,
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


@pytest.mark.parametrize("honor_amplitude", [False, True])
def test_ideal_propagator_matches_the_plain_per_event_product(honor_amplitude):
    # Each distinct event's rotation is built once and each recurring run multiplied out once
    # (`_replay`), which re-associates the product: 27 of the 72 cells move, by at most 4.5e-15.
    for gate, scheme, tau in [(g, s, tau) for g in GATES for s in SCHEMES for tau in (3e-6, 1e-5, 3e-5)]:
        sched = apply_amplitude_error(build_schedule(gate, scheme, tau), 0.01)
        u = np.eye(2, dtype=complex)
        for ev in sched.events:
            if ev.kind != "delay":
                scale = ev.amplitude_scale if honor_amplitude else 1.0
                u = rotation_unitary(ev.rotation.phase, ev.rotation.angle * scale) @ u
        u_replayed = ideal_propagator(sched, honor_amplitude=honor_amplitude)
        assert np.max(np.abs(u_replayed - u)) <= 1e-14, (gate, scheme, tau)


def test_replay_returns_the_events_in_order_and_multiplies_each_recurring_run_once():
    # In the word algebra `apply` appends an event and a product is its factors' events in the
    # order they act, so `_replay` must return the schedule's events exactly.
    for gate, scheme, tau in [(g, s, tau) for g in GATES for s in SCHEMES for tau in (3e-6, 1e-5, 3e-5)]:
        sched = apply_amplitude_error(build_schedule(gate, scheme, tau), 0.01)
        assert simulate._replay(sched, Word(), Word(), Word.apply) == sched.events, (gate, scheme, tau)
    # PI8/kdd at 10 us is 15 copies of one 39-event run, cut by 30 soft halves: the run's
    # events are applied once, from the identity, and every soft half once.
    sched = build_schedule("PI8", "kdd", 1e-5)
    applied = []

    def counted(ev, word):
        applied.append(ev)
        return Word.apply(ev, word)

    assert simulate._replay(sched, Word(), Word(), counted) == sched.events
    runs, _ = sched.runs
    assert len(sched.events) == 615 and sorted(len(run) for run in runs) == [0, 39]
    assert len(applied) == 39 + 30
    assert [ev for ev in applied if ev.kind != "soft_gate_half"] == list(max(runs, key=len))


def test_zero_spin_bath_propagator_is_the_ideal_propagator():
    # The bath and ideal engines replay the runs through one interpreter; with no bath spin they agree.
    spec = SpinBathSpec(0, (), np.zeros((0, 0)))
    for gate, scheme, tau in [(g, s, tau) for g in GATES for s in SCHEMES for tau in (3e-6, 1e-5, 3e-5)]:
        sched = apply_amplitude_error(build_schedule(gate, scheme, tau), 0.01)
        u = bath_propagator(sched, spec)
        assert np.max(np.abs(u - ideal_propagator(sched, honor_amplitude=True))) <= 1e-13, (gate, scheme, tau)


def test_pulse_cayley_klein_matches_expm():
    rng = np.random.default_rng(55)
    # ordinary detunings, detunings far above the drive, and an exact zero
    delta = np.concatenate([rng.normal(scale=5e3, size=6), [3e7, -8e8, 0.0]])
    for phase, angle, dur in ((-0.55, 0.91, 3.7e-5), (2.3, 0.0, 1e-5)):
        soft = PulseEvent("soft_gate_half", dur, RotationSpec(phase, angle / 1.03), 1.03)
        axis = math.cos(phase) * SIGMA_X + math.sin(phase) * SIGMA_Y
        # the whole half, and a piece of it at the same drive rate
        for length in (dur, 0.37 * dur):
            alpha, beta = pulse_cayley_klein(soft, delta, length)
            for i, d in enumerate(delta):
                h = 0.5 * (angle / dur * axis + d * SIGMA_Z)
                u = np.array([[alpha[i], -np.conj(beta[i])], [beta[i], np.conj(alpha[i])]])
                assert np.allclose(u, scipy.linalg.expm(-1j * h * length), atol=1e-11)
    # zero drive and zero detuning: the identity, exactly
    idle_drive = PulseEvent("soft_gate_half", 1e-5, RotationSpec(0.4, 0.0))
    alpha, beta = pulse_cayley_klein(idle_drive, np.zeros(2), 1e-5)
    assert np.array_equal(alpha, np.ones(2)) and np.array_equal(beta, np.zeros(2))
    # a hard pulse is instantaneous: no detuning reaches it
    hard = PulseEvent("hard_pulse", 0.0, RotationSpec(0.7, math.pi), 0.98)
    alpha, beta = pulse_cayley_klein(hard, delta, 0.0)
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


_GRID_EDGES = pytest.mark.parametrize("t0, t1", [
    (3.2, 3.7),  # both ends inside one cell
    (0.0, 0.4),
    (2.0, 7.0),  # ends exactly on grid points
    (0.0, 12.0),
    (4.6, 12.0),  # t1 on the last grid point
    (4.6, 12.3),  # t1 just past a grid point
    (11.5, 14.5),  # a delay over three cells
    (5.0, 5.0),
], ids=lambda t: f"{t:g}dt")


@_GRID_EDGES
def test_ou_phase_matches_the_overlap_integral_at_the_grid_edges(t0, t1):
    # A delay cut at t0 and ending at t1: the Monte-Carlo walk's phase over [0, t1]
    # against the overlap integral of the same trajectory.
    t0, t1 = t0 * _PHASE_DT, t1 * _PHASE_DT
    sched = _delays(t0, t1 - t0)
    n_steps = step_count(sched.total_duration, _PHASE_DT)
    expected = [phase_integral(row, _PHASE_DT, 0.0, t1) for row in trajectory(_PHASE_NOISE, n_steps, 5, 17)]
    assert np.allclose(_walk_phase(sched), expected, rtol=1e-12, atol=1e-14)


def _moment(sched, spec=_PHASE_NOISE):
    x, w = hermite_nodes(simulate.STATIC_NODES)
    return ou_moment(sched, spec, spec.sigma_static * x, w)


@_GRID_EDGES
def test_ou_delay_moment_matches_the_gaussian_phase_at_the_grid_edges(t0, t1):
    # A delay turns U to diag(e^{-i phi/2}, e^{i phi/2}), so vec U = (e^{-i phi/2}, 0, 0, e^{i phi/2}):
    # G03 = E[e^{-i phi}], whose real part E[cos phi] is exp(-Var(phi) / 2), Var from the closed-form
    # `phase_variance`, and whose imaginary part -E[sin phi] is 0; G00 = G33 = 1, and the rest is 0.
    t0, t1 = t0 * _PHASE_DT, t1 * _PHASE_DT
    g = _moment(_delays(t0, t1 - t0))
    coherence = math.exp(-0.5 * phase_variance(_PHASE_NOISE, (t1,), (1.0,)))
    assert g[0, 3].real == pytest.approx(coherence, rel=0.0, abs=1e-14)
    assert g[0, 3].imag == pytest.approx(0.0, rel=0.0, abs=1e-14)
    rest = g.copy()
    rest[0, 3] = rest[3, 0] = 0.0
    assert np.allclose(rest, np.diag([1.0, 0.0, 0.0, 1.0]), rtol=0.0, atol=1e-14)


def test_ou_phase_is_additive_over_split_intervals():
    # Cutting a delay, or flushing its phase with a zero-angle hard pulse, moves no
    # phase of a Monte-Carlo realization and no entry of the exact moment.
    flush = PulseEvent("hard_pulse", 0.0, RotationSpec(0.3, 0.0))
    splits = np.random.default_rng(18).uniform(0.0, 14.0, (40, 2))
    splits[:4, 0] = [2.0, 5.0, 12.0, 13.0]  # grid points, and the last cells
    for t1, t2 in np.sort(splits, axis=1) * _PHASE_DT:
        whole = _walk_phase(_delays(t2))
        assert np.allclose(_walk_phase(_delays(t1, t2 - t1)), whole, rtol=1e-12, atol=1e-14), (t1, t2)
        flushed = Schedule((PulseEvent("delay", t1), flush, PulseEvent("delay", t2 - t1)), IDENTITY_2, "flush")
        assert np.allclose(_walk_phase(flushed), whole, rtol=1e-12, atol=1e-14), (t1, t2)
        whole = _moment(_delays(t2))
        for split in (_delays(t1, t2 - t1), flushed):
            assert np.allclose(_moment(split), whole, rtol=0.0, atol=1e-14), (t1, t2)


# The 540/750 us fit: dt = 7.5 us.
_FIT_540_750 = OUNoiseSpec(sigma=5026.003736999687, tau_c=7.5e-5, dt=7.5e-6, sigma_static=900.2783716509673)


def test_ou_propagators_match_stepwise_oracle():
    # The Monte-Carlo oracle against an expm per piece.  Soft halves of tau / 2 = 8.5
    # and 11.5 us cross grid points, and tau off the dt grid splits the delays.
    # Holding one trajectory value over a whole soft half is off by far more than the tolerance.
    spec = _FIT_540_750
    for gate, scheme, tau, epsilon in (("H", "xy4", 1.7e-5, 0.03), ("PI8", "kdd", 2.3e-5, -0.02)):
        sched = apply_amplitude_error(build_schedule(gate, scheme, tau), epsilon)
        n = 3
        props = ou_propagators(sched, spec, n, seed=606)
        delta = trajectory(spec, step_count(sched.total_duration, spec.dt), n, seed=606)
        for r in range(n):
            assert np.allclose(props[r], _oracle_ou_propagator(sched, spec, delta[r]), atol=1e-10), (gate, r)


def _process_fidelity(sched, spec):
    """Tr(chi_ideal chi) of the exact OU channel: vec(U_t)^dag G vec(U_t) / 4, for chi = V G V^dag / 2, V unitary."""
    u = sched.target_gate.reshape(-1)
    return float((u.conj() @ channel_gram(sched, spec) @ u).real / 4)


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
    # The nodes make the exact walk agree to 1.6e-9 (NOT/simple_padded/30 us) and
    # to 1e-14 on the decoupled cells.
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
    assert _process_fidelity(sched, spec) == pytest.approx(exact, rel=0.0, abs=1e-8)


@pytest.mark.parametrize("gate, scheme, tau", [
    ("NOT", "simple_padded", 3e-5), ("H", "simple_padded", 3e-5), ("PI8", "simple_padded", 1e-5),
    ("H", "kdd", 1e-5), ("PI8", "kdd", 3e-5), ("NOT", "xy8", 1e-5), ("NOOP", "xy4", 3e-5), ("H", "xy4", 3e-5),
])
def test_ou_process_fidelity_matches_the_monte_carlo_oracle(gate, scheme, tau):
    # README cells at epsilon = 0.01 against 4000 Monte-Carlo realizations, whose
    # mean |Tr(P^dag U)|^2 / 4 is an unbiased estimate of the exact Tr(chi_ideal chi).
    # Over 40 seeds of these 8 cells the z-score had sd 0.96 and at most |z| = 2.93,
    # so the bound is 4 standard errors.
    spec = calibrate_to_targets(3.7e-4, 7.5e-4).params
    sched = apply_amplitude_error(build_schedule(gate, scheme, tau), 0.01)
    n = 4000
    f = np.abs(np.einsum("ij,rij->r", sched.target_gate.conj(), ou_propagators(sched, spec, n, seed=11))) ** 2 / 4
    assert abs(_process_fidelity(sched, spec) - f.mean()) <= 4.0 * f.std(ddof=1) / math.sqrt(n)


def test_ou_channel_equals_the_uncoupled_bath_over_its_static_offsets():
    # With bath_couplings = 0 each bath basis state b is a static detuning
    # omega_S + sum_k b_k m_k(b), m_k = +-1/2, of weight 2^-n: the exact bath is the walk
    # fed those offsets with no OU part.  The two code paths share nothing.
    bath = SpinBathSpec(5, (2.1e4, -1.3e4, 3.4e4, 0.8e4, 1.7e4), np.zeros((5, 5)), system_offset=1.2e4)
    m = np.array([[0.5 - (b >> (4 - k) & 1) for k in range(5)] for b in range(32)])
    offsets = bath.system_offset + m @ np.array(bath.couplings)
    quiet = OUNoiseSpec(sigma=0.0, tau_c=1.5e-4, dt=1.5e-5)
    for gate, scheme, tau in (("H", "xy4", 7e-6), ("NOT", "kdd", 3e-6), ("PI8", "simple_padded", 2e-6), ("NOOP", "xy8", 1e-5)):
        sched = apply_amplitude_error(build_schedule(gate, scheme, tau), 0.02)
        walk = chi_from_gram(ou_moment(sched, quiet, offsets, np.full(32, 1 / 32))).entries
        chi = chi_from_gram(channel_gram(sched, bath)).entries
        assert np.allclose(walk, chi, rtol=0.0, atol=1e-12), (gate, scheme)


# simple_padded's window is the XY-8 gate time.
_TEN_T2_STAR = [(gate, scheme, 3.7e-3 / protected_gate_time(gate, DD_KINDS.get(scheme, XY8), 1.0))
                for gate in ("H", "NOT", "PI8") for scheme in ("simple_padded", "xy4", "xy8", "kdd")]


def test_doubling_the_nodes_moves_no_cell_by_a_millionth_of_its_noise_loss(monkeypatch):
    # The README grid, the table1 cells and the 10 T2* cells (gate time 3.7 ms) at the README noise:
    # doubling both node counts moves each overlap by less than 1e-6 of the loss the noise causes,
    # F without noise minus F.  Measured at 8 x 32 against 16 x 64: at most 3.1e-7 of it, 9e-8 on
    # PI8/simple_padded at 10 T2*.  The bound is at most 1.1e-4 of every cell's 10k-realization
    # Monte-Carlo stderr, for that stderr is at least 9.7e-3 of the loss (H/simple_padded at 10 T2*).
    spec = calibrate_to_targets(3.7e-4, 7.5e-4).params
    cells = [(g, s, tau) for g in GATES for s in SCHEMES for tau in (3e-6, 1e-5, 3e-5)]
    cells += [(g, "xy8", REFERENCE_GATE_TIMES_S[g] / protected_gate_time(g, XY8, 1.0)) for g in ("H", "NOT", "PI8")]
    nodes = simulate.OU_NODES, simulate.STATIC_NODES
    for gate, scheme, tau in cells + _TEN_T2_STAR:
        sched = apply_amplitude_error(build_schedule(gate, scheme, tau), 0.01)
        ideal = gram_of_operators(sched.target_gate)
        overlaps = []
        for ou_nodes, static_nodes in (nodes, (2 * nodes[0], 2 * nodes[1])):
            monkeypatch.setattr(simulate, "OU_NODES", ou_nodes)
            monkeypatch.setattr(simulate, "STATIC_NODES", static_nodes)
            overlaps.append(gate_fidelity(channel_gram(sched, spec), ideal))
        loss = max(gate_fidelity(channel_gram(sched, None), ideal) - overlaps[0], 0.0)
        bound = 1e-6 * loss if sched.total_duration else 0.0
        assert abs(overlaps[1] - overlaps[0]) <= bound + 1e-13, (gate, scheme, tau, overlaps, bound)


def test_ou_channel_of_zero_noise_is_the_ideal_gate():
    spec = OUNoiseSpec(sigma=0.0, tau_c=1e-4, dt=1e-5, sigma_static=0.0)
    for scheme in ("xy4", "kdd"):
        sched = apply_amplitude_error(build_schedule("H", scheme, 1.3e-5), 0.02)
        chi = chi_from_gram(channel_gram(sched, spec)).entries
        ideal = chi_from_gram(gram_of_operators(ideal_propagator(sched, honor_amplitude=True))).entries
        assert np.allclose(chi, ideal, rtol=0.0, atol=1e-14), scheme


def _moment_of(monkeypatch, g):
    monkeypatch.setattr(simulate, "ou_moment", lambda *args: np.array(g, dtype=complex))
    return channel_gram(dd_cycle(XY4, 1e-5), _PHASE_NOISE)


def test_ou_moment_eigenvalues_negative_by_rounding_pass_into_chi_unclipped(monkeypatch):
    # NOOP/xy4/3 us has shown an eigenvalue of -6.2e-20.  A sum of lambda_m vec B_m vec B_m^dag over
    # the chi basis B_m is the diagonal chi diag(lambda), for T vec B_m = 2 e_m (`chi_from_gram`).
    lam = [0.75, 0.25, -1e-13, 0.0]
    g = _moment_of(monkeypatch, sum(l * np.outer(b.reshape(-1), b.conj().reshape(-1)) for l, b in zip(lam, CHI_BASIS)))
    assert np.allclose(chi_from_gram(g).entries, np.diag(lam), rtol=0.0, atol=1e-15)


def test_ou_moment_with_a_negative_eigenvalue_fails_the_cell(monkeypatch):
    with pytest.raises(ValueError, match="eigenvalue"):
        _moment_of(monkeypatch, np.diag([1.0 + 1e-11, 0.0, 0.0, -1e-11]))
    row = simulate_cell("NOOP", "xy4", 1e-5, _PHASE_NOISE, 0.0)
    assert math.isnan(row.fidelity) and "eigenvalue" in row.error


def test_ou_propagators_zero_noise_reduce_to_ideal():
    spec = OUNoiseSpec(sigma=0.0, tau_c=1e-4, dt=1e-5, sigma_static=0.0)
    sched = apply_amplitude_error(dd_cycle(XY4, 1.3e-5), 0.02)
    props = ou_propagators(sched, spec, 4, seed=1)
    ideal = ideal_propagator(sched, honor_amplitude=True)
    for r in range(4):
        assert np.allclose(props[r], ideal, atol=1e-12)


@pytest.mark.parametrize("scheme", ["xy8", "kdd"])
def test_ou_propagators_of_identical_realizations_are_byte_identical_rows(scheme):
    # Without noise every realization of the Monte-Carlo oracle is the same, so every
    # row at every length must hold the same bytes: the lengths cover a lone element,
    # short tails and a long body of numpy's SIMD loops.
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
    delta = next(ou_trajectory(spec, n, 9, step_count(total, spec.dt)))
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


def test_oracle_ou_propagators_memory_does_not_scale_with_steps_times_realizations():
    # The Monte-Carlo oracle holds a few vectors of n complex numbers, whatever the
    # length: a 2000-step trajectory of 500 rows alone would take 8 MB.
    spec = OUNoiseSpec(sigma=4e3, tau_c=1.5e-4, dt=1.5e-5)
    n = 500
    ou_propagators(dd_cycle(XY4, 1e-5), spec, n, seed=5)  # numpy's one-time set-up is not the walk's
    peaks = []
    for n_steps in (2_000, 8_000):
        idle = hard_pulse_schedule([], np.eye(2, dtype=complex), "idle", pad_to=n_steps * spec.dt)
        tracemalloc.start()
        try:
            props = ou_propagators(idle, spec, n, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert props.shape == (n, 2, 2)
    assert peaks[0] < 20 * 16 * n, peaks
    assert peaks[1] < 1.05 * peaks[0], peaks


def test_ou_moment_memory_does_not_scale_with_steps():
    # The walk holds its node moments and the mixing matrix, whatever the length.
    spec = calibrate_to_targets(3.7e-4, 7.5e-4).params
    peaks = []
    for n_steps in (500, 2000):
        idle = hard_pulse_schedule([], np.eye(2, dtype=complex), "idle", pad_to=n_steps * spec.dt)
        tracemalloc.start()
        try:
            channel_gram(idle, spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.05 * peaks[0], peaks


_README_CELLS = [(g, s, tau) for g in GATES for s in SCHEMES for tau in (3e-6, 1e-5, 3e-5)]


@pytest.mark.parametrize("sigma_static", [None, 0.0], ids=["fit", "no_static"])
def test_ou_moment_matches_the_component_major_reference_walk(sigma_static):
    # Every README-grid cell at epsilon = 0.01 on the 370/750 us fit, at its 32 static nodes
    # and with sigma_static 0 (one static node): the node-major walk, with its hard-pulse
    # matrices, cached delay phases and soft-pulse forms, against the walk it replaced.
    spec = calibrate_to_targets(3.7e-4, 7.5e-4).params
    if sigma_static is not None:
        spec = dataclasses.replace(spec, sigma_static=sigma_static)
    x, w = hermite_nodes(simulate.STATIC_NODES if spec.sigma_static else 1)
    for gate, scheme, tau in _README_CELLS:
        sched = apply_amplitude_error(build_schedule(gate, scheme, tau), 0.01)
        m = ou_moment(sched, spec, spec.sigma_static * x, w)
        assert np.max(np.abs(m - reference_ou_moment(sched, spec, spec.sigma_static * x, w))) <= 1e-14, (gate, scheme, tau)


def test_ou_moment_matches_the_reference_walk_on_a_grid_bound_cell():
    # The 500/500 us fit has sigma_static 0 and dt = 0.16 us, so PI8/kdd at 10 us walks 8 nodes
    # over 19200 grid cells, and its 30 soft halves in 988 pieces.  The two walks round differently:
    # here they part by 9.2e-15, and by 2.8e-14 at 3 us, while a long-double walk of the same nodes
    # is 1.4e-14 to 3.8e-14 from either.
    spec = calibrate_to_targets(5e-4, 5e-4).params
    assert spec.sigma_static == 0.0
    sched = build_schedule("PI8", "kdd", 1e-5)
    assert sched.total_duration / spec.dt > 19000
    x, w = hermite_nodes(1)
    assert np.max(np.abs(ou_moment(sched, spec, 0.0 * x, w) - reference_ou_moment(sched, spec, 0.0 * x, w))) <= 1e-14


def test_ou_moment_builds_one_delay_factor_per_distinct_piece_length(monkeypatch):
    # PI8/kdd at tau = 30 us on the benchmark's 370/750 us fit, whose dt is 15 us: the walk cuts the delays
    # at the grid points into 854 pieces of 145 distinct lengths, each measured from its event's start, a
    # whole grid cell's being dt.  Only the factors' np.exp calls are node-sized; rotation_unitary's are not.
    spec = load_calibration(str(Path(__file__).resolve().parents[1] / "perfbench" / "inputs"
                                / "calibration_370_750_seed1.json"))
    sched = build_schedule("PI8", "kdd", 3e-5)
    t, k, lengths = 0.0, 0, set()
    for ev in sched.events:
        start, stop = t, t + ev.duration
        while True:
            end = min(stop, (k + 1) * spec.dt)
            if ev.kind == "delay":
                lengths.add(spec.dt if t != start and end != stop else
                            (ev.duration if end == stop else end - start) - (t - start))
            if end == stop:
                break
            t, k = end, k + 1
        t = stop
    calls, exp = [], np.exp
    monkeypatch.setattr(np, "exp", lambda a, *args, **kw: calls.append(np.size(a)) or exp(a, *args, **kw))
    channel_gram(sched, spec)
    assert 0 < calls.count(simulate.OU_NODES * simulate.STATIC_NODES) <= len(lengths)


def test_gram_of_moments_is_the_mean_of_vec_u_vec_u_dagger():
    # Mixtures of 1 to 8 random unit quaternions q of random weights: the moments of z = (u, v) =
    # (q0 + i q3, q1 + i q2), arranged into G, against vec U vec U^dag of each U = q0 - i q.sigma.
    rng = np.random.default_rng(29)
    for _ in range(200):
        q = rng.normal(size=(rng.integers(1, 9), 4))
        q /= np.linalg.norm(q, axis=1)[:, None]
        w = rng.dirichlet(np.ones(len(q)))
        u, v = q[:, 0] + 1j * q[:, 3], q[:, 1] + 1j * q[:, 2]
        moments = [w @ m for m in (abs(u) ** 2 - abs(v) ** 2, u * v.conj(), u * u, v * v, u * v)]
        ops = [q0 * IDENTITY_2 - 1j * (q1 * SIGMA_X + q2 * SIGMA_Y + q3 * SIGMA_Z) for q0, q1, q2, q3 in q]
        expected = sum(wk * np.outer(k.reshape(-1), k.conj().reshape(-1)) for wk, k in zip(w, ops))
        assert np.max(np.abs(simulate._gram_of_moments(*moments) - expected)) <= 1e-15


def test_ou_channel_without_noise_is_the_ideal_gram_on_the_readme_grid():
    # sigma = sigma_static = 0: one node at zero detuning, so the walk is the ideal propagator's
    # vec U vec U^dag, soft halves and Mehler mixes included.
    quiet = OUNoiseSpec(sigma=0.0, tau_c=1.5e-4, dt=1.5e-5, sigma_static=0.0)
    for gate, scheme, tau in _README_CELLS:
        sched = apply_amplitude_error(build_schedule(gate, scheme, tau), 0.01)
        assert np.max(np.abs(channel_gram(sched, quiet) - channel_gram(sched, None))) <= 1e-12, (gate, scheme, tau)


def test_hard_turn_is_turn_at_the_pulse_at_every_node():
    # A hard pulse acts alike at every node, so one real 10x10 matrix of the form per event carries it.
    rng = np.random.default_rng(23)
    y = rng.uniform(-1.0, 1.0, size=(256, 10))
    y[:, 1] = 0.0  # Im d
    hard = {ev for epsilon in (0.0, 0.01) for gate, scheme, tau in _README_CELLS
            for ev in apply_amplitude_error(build_schedule(gate, scheme, tau), epsilon).events if ev.kind == "hard_pulse"}
    assert len(hard) == 44
    for ev in hard:
        alpha, beta = pulse_cayley_klein(ev, None, 0.0)
        turned = y @ simulate._turns(np.array([[alpha.real], [alpha.imag], [beta.real], [beta.imag]]))[0]
        expected = simulate._turn(y.view(complex), alpha, beta).view(float)
        assert np.max(np.abs(turned - expected)) <= 1e-15, ev
        assert not turned[:, 1].any(), ev  # Im d stays exactly 0


def test_turn_form_is_turn_of_the_unit_moments_at_any_pulse():
    # `_turn` is a real quadratic form in v = (Re alpha, Im alpha, Re beta, Im beta), so the one form gives
    # it at any unit (alpha, beta), and at every soft piece's `_soft_rotation`, whatever its detuning.
    rng = np.random.default_rng(34)
    v = rng.normal(size=(4, 200))
    v /= np.linalg.norm(v, axis=0)
    cells = [apply_amplitude_error(build_schedule(gate, scheme, tau), 0.01) for gate, scheme, tau in _README_CELLS]
    soft = dict.fromkeys(ev for sched in cells for ev in sched.events if ev.kind == "soft_gate_half")
    assert len(soft) == 45
    delta = np.concatenate((rng.normal(scale=2e4, size=32), [0.0]))
    pieces = [simulate._soft_rotation(ev, delta, rng.uniform(0.0, 1.0) * ev.duration) for ev in soft]
    v = np.concatenate([v, *pieces], axis=1)
    expected = simulate._turn(np.eye(10).view(complex), (v[0] + 1j * v[1])[:, None], (v[2] + 1j * v[3])[:, None])
    assert np.max(np.abs(simulate._turns(v) - expected.view(float))) <= 1e-15


# dt = 1.5 us, so soft halves of tau / 2 cross grid points at every tau drawn.
_SPLIT_NOISE = OUNoiseSpec(sigma=4.4e3, tau_c=1.5e-5, dt=1.5e-6, sigma_static=2.2e3)


@settings(max_examples=40, deadline=None)
@given(gate=st.sampled_from(["H", "NOT", "PI8"]), kind=st.sampled_from(sorted(DD_KINDS)), tau=st.floats(1e-6, 2e-5),
       offset=st.floats(0.0, 1.0), pick=st.integers(0, 10**6), cut=st.floats(0.01, 0.99), soft=st.booleans())
# A 616-event cell whose late soft halves once carried the rounding of their absolute times, 1.1e-13 apart.
@example(gate="PI8", kind="kdd", tau=1.6452621034374657e-05, offset=0.0, pick=143, cut=0.5, soft=True)
def test_ou_moment_is_unchanged_by_splitting_a_delay_or_a_soft_half(gate, kind, tau, offset, pick, cut, soft):
    # A delay split at any point, or a soft half split into two of half its angle and half its
    # duration (the same drive), is the same schedule; a leading delay of `offset` dt moves every
    # event against the grid.  The walk must cut the pieces alike, whatever their lengths.
    spec = _SPLIT_NOISE
    sched = apply_amplitude_error(build_schedule(gate, kind, tau), 0.01)
    events = (PulseEvent("delay", offset * spec.dt), *sched.events)
    which = [i for i, ev in enumerate(events) if ev.kind == ("soft_gate_half" if soft else "delay") and ev.duration > 0]
    i = which[pick % len(which)]
    ev = events[i]
    if soft:
        half = PulseEvent(ev.kind, 0.5 * ev.duration, RotationSpec(ev.rotation.phase, 0.5 * ev.rotation.angle),
                          ev.amplitude_scale)
        parts = (half, half)
    else:
        parts = (PulseEvent("delay", cut * ev.duration), PulseEvent("delay", ev.duration - cut * ev.duration))
    x, w = hermite_nodes(simulate.STATIC_NODES)
    whole = ou_moment(Schedule(events, sched.target_gate, "whole"), spec, spec.sigma_static * x, w)
    split = ou_moment(Schedule((*events[:i], *parts, *events[i + 1:]), sched.target_gate, "split"),
                      spec, spec.sigma_static * x, w)
    assert np.max(np.abs(split - whole)) <= 1e-13


GATE_CELLS = st.tuples(
    st.sampled_from(GATES),
    st.sampled_from(SCHEMES),
    st.floats(1e-6, 1e-3),
    st.floats(-0.2, 0.2),
)


@settings(max_examples=40, deadline=None)
@given(cell=GATE_CELLS)
def test_ou_chi_is_trace_preserving_and_exact_without_duration(cell):
    gate, scheme, tau, epsilon = cell
    spec = OUNoiseSpec(sigma=4.4e3, tau_c=1.5e-4, dt=1.5e-5, sigma_static=2.2e3)
    sched = apply_amplitude_error(build_schedule(gate, scheme, tau), epsilon)
    g = channel_gram(sched, spec)
    assert abs(np.trace(g) - 2.0) <= 1e-13
    chi = chi_from_gram(g)
    assert chi.trace_preservation_residual() <= 1e-12
    assert chi.hermiticity_defect() <= 1e-12 and chi.min_eigenvalue() >= -1e-12
    if sched.total_duration == 0:
        ideal = chi_from_gram(gram_of_operators(ideal_propagator(sched, honor_amplitude=True)))
        assert np.allclose(chi.entries, ideal.entries, rtol=0.0, atol=1e-14)


def test_channel_gram_matches_the_operator_route_on_the_readme_grid():
    # Every README-grid cell at epsilon = 0.01 under each model: the Gram matrix equals the
    # mean of vec K vec K^dag over the operators the engines returned before it (ideal: U;
    # OU: the eigenpairs of the moment; bath: the d^2 blocks), is trace preserving and positive.
    models = (None, calibrate_to_targets(3.7e-4, 7.5e-4).params, default_spin_bath(6))
    for gate in GATES:
        for scheme in SCHEMES:
            for tau in (3e-6, 1e-5, 3e-5):
                sched = apply_amplitude_error(build_schedule(gate, scheme, tau), 0.01)
                for model in models:
                    g = channel_gram(sched, model)
                    cell = (gate, scheme, tau, type(model).__name__)
                    assert np.max(np.abs(g - gram_of_operators(channel_operators(sched, model)))) <= 1e-14, cell
                    assert abs(np.trace(g) - 2.0) <= 1e-13, cell
                    assert np.linalg.eigvalsh(g)[0] >= -1e-12, cell


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
def _spin_baths(draw, max_spins=4):
    n = draw(st.integers(0, max_spins))
    rate = st.floats(-8e4, 8e4)
    d = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            d[j, k] = d[k, j] = draw(rate)
    return SpinBathSpec(n, tuple(draw(st.lists(rate, min_size=n, max_size=n))), d, draw(st.floats(-1e4, 1e4)))


@settings(max_examples=20, deadline=None)
@given(spec=_spin_baths(), gate=st.sampled_from(("H", "NOT", "PI8")), kind=st.sampled_from(("xy4", "kdd")),
       tau=st.floats(1e-6, 2e-5), epsilon=st.floats(-0.1, 0.1))
def test_bath_propagator_conserves_the_bath_magnetization(spec, gate, kind, tau, epsilon):
    n = spec.n_bath
    # The bath's total S_z on each basis state, from its bits: S_z^k is -1/2 where bit k is set.
    mz = np.array([n / 2 - bin(b).count("1") for b in range(2**n)])
    h, sz_bath = total_hamiltonian(spec), np.kron(IDENTITY_2, np.diag(mz))
    assert np.allclose(h @ sz_bath - sz_bath @ h, 0.0, rtol=0.0, atol=1e-12 * np.abs(h).max())
    # Each gate's BB1 soft halves run at several phases, each applied as one phase-shifted product.
    sched = apply_amplitude_error(build_schedule(gate, kind, tau), epsilon)
    u, sector = bath_propagator(sched, spec), np.tile(mz, 2)
    assert np.all(u[sector[:, None] != sector[None, :]] == 0.0)
    assert np.allclose(u, oracle_bath_propagator(sched, spec), atol=1e-9)


def test_bath_soft_halves_exponentiate_once_per_scaled_angle(monkeypatch):
    calls, eigh = [], np.linalg.eigh

    def counting_eigh(a):
        calls.append(a.dtype)
        return eigh(a)

    simulate._PULSES.clear()
    spec = default_spin_bath(n_bath=3, seed=5)
    bath_frame(spec)  # the frame's own eigh calls come before the count
    monkeypatch.setattr(simulate.np.linalg, "eigh", counting_eigh)
    angles = set()
    for kind in ("xy4", "xy8", "kdd"):
        sched = apply_amplitude_error(build_schedule("PI8", kind, 1e-5), 0.01)
        bath_propagator(sched, spec)
        angles |= {ev.rotation.angle * ev.amplitude_scale for ev in sched.events if ev.kind == "soft_gate_half"}
    # -pi/8, pi/16 and pi/8, a quarter of each rotation, and the halves of the pi and 2 pi components,
    # shared by the three cycle kinds; one exponential per angle and stack, the sectors of sizes 1 and 3.
    assert len(angles) == 5
    assert len(bath_frame(spec)) == 2
    assert calls == [np.float64] * 10  # each from one real eigh of its framed generator
    for kind in ("xy4", "xy8", "kdd"):
        bath_propagator(apply_amplitude_error(build_schedule("PI8", kind, 1e-5), 0.01), spec)
    assert len(calls) == 10


def test_bath_soft_half_pulses_are_the_exponentials_of_their_framed_generators():
    # exp(-i G t) by scipy, per sector, of G = diag(w) + (angle / 2t) [[0, link], [link^T, 0]], built
    # here from the frame's arrays alone, for every soft half of PI8/kdd at epsilon 0.01.
    sched = apply_amplitude_error(build_schedule("PI8", "kdd", 1e-5), 0.01)
    keys = {simulate._pulse_key(ev) for ev in sched.events if ev.kind == "soft_gate_half"}
    for n_bath in (3, 6):
        for frame in bath_frame(default_spin_bath(n_bath=n_bath, seed=2024)):
            zero = np.zeros_like(frame.link[0])
            for angle, t in keys:
                pulses = simulate._phase0_pulse(frame, angle, t)
                for s, (w, link) in enumerate(zip(frame.w, frame.link)):
                    g = np.diag(w) + 0.5 * angle / t * np.block([[zero, link], [link.T, zero]])
                    assert np.max(np.abs(pulses[s] - scipy.linalg.expm(-1j * t * g))) <= 1e-13, (n_bath, s, angle)


def test_a_bath_replay_starts_from_its_frame_without_rebuilding_it(monkeypatch):
    # Each stack's start, diag(v0^T, v1^T), is built with its frame; a replay only maps its blocks back.
    spec = default_spin_bath(n_bath=4, seed=9)
    sched = apply_amplitude_error(build_schedule("H", "xy4", 1e-5), 0.01)
    frame_type = type(bath_frame(spec)[0])
    calls = []
    from_frame = frame_type.from_frame
    monkeypatch.setattr(frame_type, "from_frame", lambda frame, xt: calls.append(frame) or from_frame(frame, xt))
    first = channel_gram(sched, spec)
    calls.clear()
    assert np.array_equal(channel_gram(sched, spec), first)
    assert calls == list(bath_frame(spec))
    for frame in bath_frame(spec):
        k = frame.v0.shape[1]
        assert not frame.start.flags.writeable
        assert np.array_equal(frame.start[:, :k, :k], frame.v0.swapaxes(1, 2))
        assert np.array_equal(frame.start[:, k:, k:], frame.v1.swapaxes(1, 2))
        assert not frame.start[:, :k, k:].any() and not frame.start[:, k:, :k].any()


def _cache_kept_its_pulses(run):
    """How many phase-0 pulses the emptied cache holds after run(), asserting that a second run() builds
    none: the cache keeps the same arrays under the same keys."""
    simulate._PULSES.clear()
    run()
    kept = dict(simulate._PULSES)
    run()
    assert simulate._PULSES.keys() == kept.keys()
    assert all(simulate._PULSES[key] is pulse for key, pulse in kept.items())
    return len(kept)


def test_a_second_readme_bath_sweep_adds_no_cache_miss():
    # The README grid on the benchmark's 6-spin bath needs 25 phase-0 pulses, 7 hard scaled angles and
    # 18 soft (angle, duration) pairs, on each of its 4 stacks; the cache holds all 100, so a second
    # sweep in the same process builds none.
    cfg = ExperimentConfig(default_spin_bath(6), GATES, SCHEMES, (3e-6, 1e-5, 3e-5), epsilon=0.01)
    assert _cache_kept_its_pulses(lambda: run_sweep(cfg)) == 100


def test_a_second_pass_of_a_bath_gate_time_curve_adds_no_cache_miss():
    # NOT, H and PI8 x simple_padded, xy4, xy8 and kdd x 30 tau from 1 to 100 us on the 6-spin bath:
    # 184 phase-0 keys on each of the 4 stacks, 10.4 MiB, which the byte budget holds whole.
    spec = default_spin_bath(6)
    cells = [apply_amplitude_error(build_schedule(gate, scheme, float(tau)), 0.01) for gate in ("NOT", "H", "PI8")
             for scheme in ("simple_padded", "xy4", "xy8", "kdd") for tau in np.linspace(1e-6, 1e-4, 30)]
    assert _cache_kept_its_pulses(lambda: [channel_gram(sched, spec) for sched in cells]) == 4 * 184
    assert sum(pulse.nbytes for pulse in simulate._PULSES.values()) <= simulate.PULSE_CACHE_BYTES


def test_the_bath_gram_keeps_its_bytes_when_the_pulse_cache_holds_one_pulse(monkeypatch):
    # A budget below one pulse keeps only the newest: every other key is rebuilt, with the same bytes.
    spec = default_spin_bath(4)
    cells = [apply_amplitude_error(build_schedule(gate, scheme, 1e-5), 0.01)
             for gate in ("H", "PI8") for scheme in ("bb1", "xy4", "kdd")]
    simulate._PULSES.clear()
    grams = [channel_gram(sched, spec) for sched in cells]
    monkeypatch.setattr(simulate, "PULSE_CACHE_BYTES", 1)
    simulate._PULSES.clear()
    for sched, g in zip(cells, grams, strict=True):
        assert np.array_equal(channel_gram(sched, spec), g)
        assert len(simulate._PULSES) == 1


def test_the_frame_cache_holds_the_spec_in_use_and_none_of_the_last_specs_pulses():
    # A new spec's frames replace the last one's, whose pulses leave the cache with them; a spec that
    # returns is rebuilt, with the same bytes.
    a, b = default_spin_bath(3, seed=1), default_spin_bath(3, seed=2)
    sched = apply_amplitude_error(build_schedule("H", "xy4", 1e-5), 0.01)
    first = channel_gram(sched, a)
    gone = bath_frame(a)
    assert any(key[0] in gone for key in simulate._PULSES)
    channel_gram(sched, b)
    assert list(simulate._FRAMES) == [b]
    assert simulate._PULSES and not any(key[0] in gone for key in simulate._PULSES)
    assert np.array_equal(channel_gram(sched, a), first)
    assert list(simulate._FRAMES) == [a]


def test_bath_repeated_runs_differing_in_one_amplitude_scale_stay_apart():
    tau = 5e-6
    hard = [PulseEvent("hard_pulse", 0.0, RotationSpec(p, math.pi)) for p in (0.0, math.pi / 2, 0.0)]
    run = (hard[0], PulseEvent("delay", tau), hard[1], PulseEvent("delay", tau), hard[2])
    scaled = (run[0], run[1], dataclasses.replace(hard[1], amplitude_scale=1.05), run[3], run[4])
    soft = PulseEvent("soft_gate_half", tau / 2, RotationSpec(0.4, math.pi / 4))
    events = (*run, soft, *scaled, soft, *run, soft, *scaled)
    sched = Schedule(events, target_gate=IDENTITY_2, label="repeated-runs")
    _assert_matches_oracle(sched, _two_spin_bath())


@settings(max_examples=15, deadline=None)
@given(gate=st.sampled_from(("H", "NOT", "PI8")), kind=st.sampled_from(("xy4", "xy8", "kdd")),
       tau=st.floats(1e-6, 3e-5), epsilon=st.floats(-0.1, 0.1), data=st.data())
def test_bath_propagator_of_a_schedule_with_a_delay_moved_between_cycles_matches_oracle(gate, kind, tau, epsilon,
                                                                                         data):
    sched = apply_amplitude_error(build_schedule(gate, kind, tau), epsilon)
    records = json.loads(schedule_to_json(sched))
    events = records["events"]
    # An interior delay, between two hard pulses, moves between the soft halves of two adjacent
    # cycles; the hard pulses' phases and the duration are unchanged, so the cycles are still whole.
    interior = [i for i, e in enumerate(events[1:-1], 1)
                if e["kind"] == "delay" and events[i - 1]["kind"] == events[i + 1]["kind"] == "hard_pulse"]
    delay = events.pop(data.draw(st.sampled_from(interior)))
    between = [i for i in range(1, len(events))
               if events[i - 1]["kind"] == events[i]["kind"] == "soft_gate_half"]
    events.insert(data.draw(st.sampled_from(between)), delay)
    for i, e in enumerate(events):
        e["index"] = i
    moved = schedule_from_json(json.dumps(records))
    runs, steps = moved.runs
    # The cycle that lost the delay and the cycles that kept it are two runs, and the moved delay a third.
    assert set(sched.runs[0]) < set(runs) and len(runs) == len(sched.runs[0]) + 2
    assert [ev for i, soft in steps for ev in (*runs[i], soft) if ev is not None] == list(moved.events)
    _assert_matches_oracle(moved, _two_spin_bath())


def test_bath_propagator_rejects_oversized_bath():
    n = DEFAULT_MAX_SPINS  # one more spin than the limit, counting the system
    with pytest.raises(ValueError):
        spec = SpinBathSpec(n_bath=n, couplings=(1.0,) * n, bath_couplings=np.zeros((n, n)))
        bath_propagator(dd_cycle(XY4, 1e-5), spec)


@settings(max_examples=40, deadline=None)
@given(n_bath=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_bath_channel_output_matches_the_partial_trace_reference(n_bath, seed):
    rng = np.random.default_rng(seed)
    dim = 2 ** (n_bath + 1)
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T)
    out = bath_channel_output(u, rho, n_bath)
    assert np.max(np.abs(out - reference_bath_channel_output(u, rho, n_bath))) <= 1e-15


def test_channel_output_is_the_output_of_simulate_channel_and_bath_channel_output():
    # Both apply the one rule output_ac = sum_be G_(ab),(ce) rho_be: the same bytes for each input state.
    bath = _two_spin_bath()
    sched = apply_amplitude_error(build_schedule("H", "xy4", 1e-5), 0.01)
    for model in (None, calibrate_to_targets(3.7e-4, 7.5e-4).params, bath):
        g = channel_gram(sched, model)
        for got, rho in zip(simulate_channel(sched, model).outputs, TOMO_INPUT_STATES, strict=True):
            assert np.array_equal(got, channel_output(g, rho)), type(model).__name__
    u = bath_propagator(sched, bath)
    g = bath_average(u.reshape(1, 2, 4, 2, 4)) / 4
    for rho in (*TOMO_INPUT_STATES, np.full((2, 2), 0.5)):
        assert np.array_equal(bath_channel_output(u, rho, 2), channel_output(g, rho))


@settings(max_examples=40, deadline=None)
@given(n_ops=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_channel_output_of_an_operator_gram_is_the_mean_of_k_rho_k_dag(n_ops, seed):
    rng = np.random.default_rng(seed)
    ks = rng.normal(size=(n_ops, 2, 2)) + 1j * rng.normal(size=(n_ops, 2, 2))
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T)
    want = sum(k @ rho @ k.conj().T for k in ks) / n_ops
    assert np.max(np.abs(channel_output(gram_of_operators(ks), rho) - want)) <= 1e-14


def test_bath_gram_matches_the_dense_einsum_on_the_readme_grid():
    # The README grid at epsilon = 0.01 on the benchmark's 6-spin bath (perfbench/inputs/spin_bath_6.json).
    spec = default_spin_bath(6)
    for gate, scheme, tau in _README_CELLS:
        sched = apply_amplitude_error(build_schedule(gate, scheme, tau), 0.01)
        g, reference = channel_gram(sched, spec), reference_bath_gram(bath_propagator(sched, spec), 6)
        assert np.max(np.abs(g - reference)) <= 1e-15, (gate, scheme, tau)


@settings(max_examples=25, deadline=None)
@example(spec=default_spin_bath(0, seed=3, system_offset=2e3), gate="H", scheme="xy4", tau=1e-5, epsilon=0.01)
@example(spec=default_spin_bath(5, seed=3, system_offset=2e3), gate="PI8", scheme="kdd", tau=1e-5, epsilon=0.01)
@given(spec=_spin_baths(max_spins=5), gate=st.sampled_from(("H", "NOT", "PI8")),
       scheme=st.sampled_from(("bb1", "xy4", "kdd")), tau=st.floats(1e-6, 3e-5), epsilon=st.floats(-0.1, 0.1))
def test_sector_wise_bath_gram_matches_the_dense_einsum(spec, gate, scheme, tau, epsilon):
    # n_bath 0 is one sector of one state; 5 spins are three stacks, of sectors of 1, 5 and 10 states.
    sched = apply_amplitude_error(build_schedule(gate, scheme, tau), epsilon)
    g, reference = channel_gram(sched, spec), reference_bath_gram(bath_propagator(sched, spec), spec.n_bath)
    assert np.max(np.abs(g - reference)) <= 1e-15


def test_bath_gram_forms_no_dense_propagator(monkeypatch):
    spec, sched = default_spin_bath(4), apply_amplitude_error(build_schedule("PI8", "kdd", 1e-5), 0.01)
    reference = reference_bath_gram(bath_propagator(sched, spec), spec.n_bath)

    def dense(*_):
        raise AssertionError("channel_gram built the dense bath propagator")

    monkeypatch.setattr(simulate, "bath_propagator", dense)
    assert np.max(np.abs(channel_gram(sched, spec) - reference)) <= 1e-15


def test_framed_hard_pulses_are_the_phase_0_pulse_turned_to_their_phase():
    # Every README-grid hard event, at epsilon 0 and 0.01, on each stack of the 6-spin bath.
    hard = {ev for epsilon in (0.0, 0.01) for gate, scheme, tau in _README_CELLS
            for ev in apply_amplitude_error(build_schedule(gate, scheme, tau), epsilon).events
            if ev.kind == "hard_pulse"}
    assert len(hard) == 44
    for frame in bath_frame(default_spin_bath(6)):
        for ev in hard:
            expected = frame.pulse(rotation_unitary(ev.rotation.phase, ev.rotation.angle * ev.amplitude_scale))
            assert np.max(np.abs(simulate._framed_pulse(frame, ev) - expected)) <= 1e-15, ev


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
