"""Simulation engines for compiled pulse schedules.

Schedules are consumed structurally: an ordered event list where each event
is a delay, an instantaneous hard pulse, or a finite-duration weak rotation
during which the noise acts concurrently.  Three engines: ideal (no noise),
quantum spin bath (exact, by bath magnetization sector), and classical OU trajectory ensembles
(vectorized over realizations).  `channel_operators` turns any of them into
the operator ensemble whose average is the simulated system channel.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import Counter

import numpy as np

from .core import hermitian_expm, partial_trace_bath, rotation_unitary
from .noise import OUNoiseSpec, SpinBathSpec, _double_angle, _step_count, bath_frame, ou_trajectory


def ideal_propagator(schedule, honor_amplitude: bool = False) -> np.ndarray:
    """Zero-noise system propagator; amplitude scales applied only on request."""
    u = np.eye(2, dtype=complex)
    for ev in schedule.events:
        if ev.kind == "delay":
            continue
        scale = ev.amplitude_scale if honor_amplitude else 1.0
        u = rotation_unitary(ev.rotation.phase, ev.rotation.angle * scale) @ u
    return u


def bath_propagator(schedule, spec: SpinBathSpec) -> np.ndarray:
    """Exact propagator on the system (x) bath space, amplitude scales applied.

    H_noise has no term that flips the system's sigma_z, so it is block diagonal
    over the system's |0>, |1>, and both blocks and every system pulse conserve
    the bath's total S_z, so U is block diagonal over the bath's magnetization
    sectors, and is propagated as `bath_frame`'s padded stack of sector blocks,
    each in the eigenframe of its two blocks: Ut = diag(v0^dag, v1^dag) U.  A delay
    multiplies the rows of Ut by e^{-i w t}, a hard pulse mixes the two row
    blocks through link = v0^dag v1, and a soft half multiplies by the
    exponential of the framed drift-plus-drive generator.  The soft halves cut
    the events into runs of delays and hard pulses; a run that recurs within
    the schedule (the interior of every decoupling cycle) and holds more than
    one hard pulse is multiplied out once and then applied as one product.
    Each soft half's exponential is shared across phases and across calls
    (`_soft_exponential`).  The sector blocks are scattered into the dense
    2d x 2d matrix at the end.
    """
    frame, d = bath_frame(spec), 2**spec.n_bath
    m = frame.v0.shape[1]  # the largest sector
    eye = np.eye(2 * m, dtype=complex)  # broadcasts against the stack
    ut = frame.from_frame(eye).conj().swapaxes(1, 2)  # diag(v0^dag, v1^dag)
    runs, softs, run = [], [], []
    for ev in schedule.events:
        if ev.kind == "soft_gate_half":
            runs.append(tuple(run))
            softs.append(ev)
            run = []
        else:
            run.append(ev)
    runs.append(tuple(run))
    softs.append(None)
    repeats, products = Counter(runs), {}
    for run, soft in zip(runs, softs):
        # One product of the stack costs as much as two hard pulses.
        if repeats[run] > 1 and sum(ev.kind == "hard_pulse" for ev in run) > 1:
            if run not in products:
                products[run] = _apply_run(frame, run, eye)
            ut = products[run] @ ut
        else:
            ut = _apply_run(frame, run, ut)
        if soft is not None:
            # The drive at phase p is P (drive at 0) P^dag with P = diag(I, e^{ip} I),
            # which commutes with the block-diagonal drift.
            p = cmath.exp(1j * soft.rotation.phase)
            ut[:, m:] *= p.conjugate()
            ut = _soft_exponential(frame, soft.rotation.angle * soft.amplitude_scale, soft.duration) @ ut
            ut[:, m:] *= p
    # Padding rows and columns (index -1) land in the extra last row and column, dropped here.
    u = np.zeros((2 * d + 1, 2 * d + 1), dtype=complex)
    u[frame.index[:, :, None], frame.index[:, None, :]] = frame.from_frame(ut)
    return u[:-1, :-1].copy()


def _apply_run(frame, run, xt: np.ndarray) -> np.ndarray:
    """Delays and hard pulses of a run applied in order to a framed Xt."""
    for ev in run:
        if ev.kind == "delay":
            xt = frame.delay(xt, ev.duration)
        else:
            xt = frame.rotate(xt, rotation_unitary(ev.rotation.phase, ev.rotation.angle * ev.amplitude_scale))
    return xt


@functools.lru_cache(maxsize=16)  # 16 x 179 KB for the 7 sectors (M = 20) of a 6-spin bath
def _soft_exponential(frame, angle: float, duration: float) -> np.ndarray:
    """exp(-i G t), t = duration, per sector, of the framed drift diag(w) plus the
    phase-0 drive (angle / t) S_x (x) I, whose framed off-diagonal blocks are
    angle / 2t times link and link^dag."""
    m = frame.link.shape[1]
    g = frame.w[:, :, None] * np.eye(2 * m, dtype=complex)
    half_rate = 0.5 * angle / duration
    g[:, :m, m:], g[:, m:, :m] = half_rate * frame.link, half_rate * frame.link.conj().swapaxes(1, 2)
    u = hermitian_expm(g, duration)
    u.setflags(write=False)
    return u


def _pulse_cayley_klein(ev, delta: np.ndarray, length: float):
    """(alpha, beta) of U = [[alpha, -beta*], [beta, alpha*]] for `length` of a pulse at detunings delta:
    exp(-i length (w cos phase, w sin phase, delta) . sigma / 2), w = angle / duration.
    A hard pulse (duration 0) is its whole rotation, whatever length and delta."""
    angle = ev.rotation.angle * ev.amplitude_scale
    if ev.duration == 0.0:
        return rotation_unitary(ev.rotation.phase, angle)[:, 0]
    half, omega = 0.5 * length, angle / ev.duration
    rate = np.sqrt(omega**2 + delta**2)
    alpha, sin = np.empty(rate.shape, dtype=complex), np.empty_like(rate)
    _double_angle(0.5 * half * rate, alpha.real, sin)  # cos and sin of half * rate
    f = np.divide(sin, rate, out=np.full_like(rate, half), where=rate != 0.0)  # sin(half * rate) / rate
    np.multiply(f, -delta, out=alpha.imag)
    return alpha, f * (-1j * omega * cmath.exp(1j * ev.rotation.phase))


def ou_propagators(schedule, spec: OUNoiseSpec, n_realizations: int, seed: int) -> np.ndarray:
    """System propagators under the OU trajectory ensemble, shape (n, 2, 2).

    Each U = [[a, -b*], [b, a*]] is held as two complex vectors over the
    realizations (Cayley-Klein form), and the schedule is walked once in time,
    cut at every event boundary and every dt grid point, so the trajectory
    (`ou_trajectory` at this seed) is constant on each piece and is advanced one
    step at each grid point.  A delay piece adds delta x length to a running
    phase phi; at the next pulse and at the end, phi multiplies a by
    e^{-i phi/2} and b by e^{+i phi/2}, with e^{-i phi/2} built from tan(phi/4)
    as (1 - q^2 - 2iq) / (1 + q^2).  A pulse [[alpha, -beta*], [beta, alpha*]]
    maps (a, b) to (alpha a - beta* b, beta a + alpha* b): a hard pulse is its
    rotation, computed once per distinct pulse, and a soft-half piece is its
    drive at the piece's constant delta.  Memory is one block of normals and a
    few preallocated vectors, whatever the number of steps.  A zero-duration
    schedule samples nothing: every row is the ideal propagator, amplitude
    scales applied.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    if schedule.total_duration == 0:
        return np.tile(ideal_propagator(schedule, honor_amplitude=True), (n_realizations, 1, 1))
    dt, n = spec.dt, n_realizations
    trajectory = ou_trajectory(spec, n, seed, _step_count(schedule.total_duration, dt))
    delta, k = next(trajectory), 0  # the value on grid cell k, [k dt, (k + 1) dt)
    hard = {ev: _pulse_cayley_klein(ev, None, 0.0) for ev in set(schedule.events) if ev.kind == "hard_pulse"}
    # (a, b) and the spare pair (c, d) that products are written to and then swapped in:
    # numpy rounds an in-place complex product of one element differently.
    a, b = np.ones(n, dtype=complex), np.zeros(n, dtype=complex)
    c, d, e, w = (np.empty(n, dtype=complex) for _ in range(4))
    x, piece = np.zeros(n), np.empty(n)  # x = -phi / 4, summed exactly from pieces scaled by -1/4
    delayed = False  # whether x holds a phase not yet applied

    def rotate(alpha, beta):
        nonlocal a, b, c, d
        np.multiply(alpha, a, out=c)
        np.subtract(c, np.multiply(np.conj(beta), b, out=w), out=c)
        np.multiply(beta, a, out=d)
        np.add(d, np.multiply(np.conj(alpha), b, out=w), out=d)
        a, b, c, d = c, d, a, b

    def apply_phase():
        nonlocal a, b, c, d
        _double_angle(x, e.real, e.imag)  # e = exp(-i phi / 2) = cos 2x + i sin 2x
        x.fill(0.0)
        np.multiply(a, e, out=c)
        np.multiply(b, np.conjugate(e, out=e), out=d)
        a, b, c, d = c, d, a, b

    t = 0.0
    for ev in schedule.events:
        if ev.kind != "delay" and delayed:
            apply_phase()
            delayed = False
        stop = t + ev.duration
        while True:
            end = min(stop, (k + 1) * dt)
            if ev.kind == "delay":
                x += np.multiply(-0.25 * (end - t), delta, out=piece)
                delayed = True
            elif ev.duration == 0.0:
                rotate(*hard[ev])
            elif end > t:
                rotate(*_pulse_cayley_klein(ev, delta, end - t))
            if end == stop:
                break
            # Assign the grid point, never add the piece: rounding could stall the walk.
            t, k, delta = end, k + 1, next(trajectory)
        t = stop
    if delayed:
        apply_phase()
    return np.stack((a, -b.conj(), b, a.conj()), axis=-1).reshape(n_realizations, 2, 2)


def channel_operators(schedule, noise_model, n_realizations: int, seed: int) -> np.ndarray:
    """Operators K, shape (k, 2, 2), whose mean of K rho K^dag is the system channel.

    noise_model None gives the ideal propagator with amplitude scales applied;
    an OUNoiseSpec gives the n_realizations trajectory propagators keyed by
    seed; a SpinBathSpec gives the d^2 system blocks of the exact propagator
    times sqrt(d), d = 2**n_bath, which average the maximally mixed bath
    exactly (n_realizations and seed are unused for both).
    """
    if noise_model is None:
        return ideal_propagator(schedule, honor_amplitude=True)[None]
    if isinstance(noise_model, OUNoiseSpec):
        return ou_propagators(schedule, noise_model, n_realizations, seed)
    if isinstance(noise_model, SpinBathSpec):
        d = 2**noise_model.n_bath
        # Block (j, k) is <j|_bath U |k>_bath; Tr_bath[U (rho x I/d) U^dag] sums
        # its conjugations over (j, k) with weight 1/d.
        blocks = bath_propagator(schedule, noise_model).reshape(2, d, 2, d)
        return math.sqrt(d) * blocks.transpose(1, 3, 0, 2).reshape(d * d, 2, 2)
    raise TypeError(f"unsupported noise model {type(noise_model).__name__}")


def average_channel_output(propagators: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Ensemble-averaged U rho U^dag over a batch of 2x2 propagators, shape (n, 2, 2)."""
    u = np.asarray(propagators)
    return np.einsum("rij,jk,rlk->il", u, rho, u.conj()) / u.shape[0]


def bath_channel_output(u_full: np.ndarray, rho_sys: np.ndarray, n_bath: int) -> np.ndarray:
    """System output state for a maximally mixed bath under a full-space propagator."""
    dim_b = 2**n_bath
    rho0 = np.kron(rho_sys, np.eye(dim_b, dtype=complex) / dim_b)
    return partial_trace_bath(u_full @ rho0 @ u_full.conj().T)
