"""Simulation engines for compiled pulse schedules.

Schedules are consumed structurally: an ordered event list where each event
is a delay, an instantaneous hard pulse, or a finite-duration weak rotation
during which the noise acts concurrently.  Three engines: ideal (no noise),
quantum spin bath (exact, dense), and classical OU trajectory ensembles
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
from .noise import (
    OUNoiseSpec, SpinBathSpec, _double_angle, _grid_point, _step_count, bath_frame, ou_phase,
    sample_ou_ensemble,
)


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
    over the system's |0>, |1>; `bath_frame` diagonalises its two d x d blocks
    once per spec.  U is propagated as Ut = diag(v0^dag, v1^dag) U: a delay
    multiplies the rows of Ut by e^{-i w t}, a hard pulse mixes the two row
    blocks through link = v0^dag v1, and a soft half multiplies by the
    exponential of the framed drift-plus-drive generator.  The soft halves cut
    the events into runs of delays and hard pulses; a run that recurs within
    the schedule (the interior of every decoupling cycle) and holds more than
    one hard pulse is multiplied out once and then applied as one product.
    Each soft half's exponential is shared across phases and across calls
    (`_soft_exponential`).
    """
    frame, d = bath_frame(spec), 2**spec.n_bath
    ut = frame.from_frame(np.eye(2 * d)).conj().T  # diag(v0^dag, v1^dag)
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
        # One 2d x 2d product costs as much as two hard pulses.
        if repeats[run] > 1 and sum(ev.kind == "hard_pulse" for ev in run) > 1:
            if run not in products:
                products[run] = _apply_run(frame, run, np.eye(2 * d, dtype=complex))
            ut = products[run] @ ut
        else:
            ut = _apply_run(frame, run, ut)
        if soft is not None:
            # The drive at phase p is P (drive at 0) P^dag with P = diag(I, e^{ip} I),
            # which commutes with the block-diagonal drift.
            p = cmath.exp(1j * soft.rotation.phase)
            ut[d:] *= p.conjugate()
            ut = _soft_exponential(frame, soft.rotation.angle * soft.amplitude_scale, soft.duration) @ ut
            ut[d:] *= p
    return frame.from_frame(ut)


def _apply_run(frame, run, xt: np.ndarray) -> np.ndarray:
    """Delays and hard pulses of a run applied in order to a framed Xt."""
    for ev in run:
        if ev.kind == "delay":
            xt = frame.delay(xt, ev.duration)
        else:
            xt = frame.rotate(xt, rotation_unitary(ev.rotation.phase, ev.rotation.angle * ev.amplitude_scale))
    return xt


@functools.lru_cache(maxsize=16)  # 16 x 256 KB at a 6-spin bath
def _soft_exponential(frame, angle: float, duration: float) -> np.ndarray:
    """exp(-i G t), t = duration, of the framed drift diag(w) plus the phase-0 drive
    (angle / t) S_x (x) I, whose framed off-diagonal blocks are angle / 2t times
    link and link^dag."""
    d = len(frame.link)
    g = np.diag(frame.w).astype(complex)
    half_rate = 0.5 * angle / duration
    g[:d, d:], g[d:, :d] = half_rate * frame.link, half_rate * frame.link.conj().T
    u = hermitian_expm(g, duration)
    u.setflags(write=False)
    return u


def _pulse_cayley_klein(ev, delta: np.ndarray):
    """(alpha, beta) of a pulse's U = [[alpha, -beta*], [beta, alpha*]] at detunings delta:
    exp(-i d (w cos phase, w sin phase, delta) . sigma / 2), w = angle / d, over duration d > 0."""
    angle = ev.rotation.angle * ev.amplitude_scale
    if ev.duration == 0.0:
        return rotation_unitary(ev.rotation.phase, angle)[:, 0]
    half, omega = 0.5 * ev.duration, angle / ev.duration
    rate = np.sqrt(omega**2 + delta**2)
    f = half * np.sinc(half * rate / math.pi)  # sin(half * rate) / rate, finite at 0
    return np.cos(half * rate) - 1j * f * delta, -1j * f * omega * np.exp(1j * ev.rotation.phase)


# Trajectory elements per chunk of realizations (8 MB per float64 array), whatever the schedule.
_CHUNK_BUDGET = 1 << 20


def ou_propagators(schedule, spec: OUNoiseSpec, n_realizations: int, seed: int) -> np.ndarray:
    """System propagators under the OU trajectory ensemble, shape (n, 2, 2).

    Each U = [[a, -b*], [b, a*]] is held as two complex vectors (Cayley-Klein
    form).  A delay multiplies a by e^{-i phi/2} and b by e^{+i phi/2}, phi its
    phase summed straight from the trajectory rows (`ou_phase`), with e^{-i phi/2}
    built from tan(phi/4) as (1 - q^2 - 2iq) / (1 + q^2); a pulse [[alpha,
    -beta*], [beta, alpha*]] maps (a, b) to (alpha a - beta* b, beta a + alpha* b).
    Realization r is row r of `sample_ou_ensemble` at this seed.  Chunks of at
    most _CHUNK_BUDGET trajectory elements are sampled at their row offsets, so
    the bytes do not depend on the chunk size.  A zero-duration schedule samples
    nothing: every row is the ideal propagator, amplitude scales applied.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    if schedule.total_duration == 0:
        return np.tile(ideal_propagator(schedule, honor_amplitude=True), (n_realizations, 1, 1))
    n_steps = _step_count(schedule.total_duration, spec.dt)
    chunk = max(1, _CHUNK_BUDGET // (n_steps + 2))
    a, b = np.hstack([
        _ou_cayley_klein(schedule, spec, n_steps, min(chunk, n_realizations - start), seed, start)
        for start in range(0, n_realizations, chunk)
    ])
    return np.stack((a, -b.conj(), b, a.conj()), axis=-1).reshape(n_realizations, 2, 2)


def _ou_cayley_klein(schedule, spec: OUNoiseSpec, n_steps: int, rows: int, seed: int, offset: int):
    """Cayley-Klein vectors (a, b) of trajectory rows offset .. offset + rows - 1."""
    dt = spec.dt
    delta = sample_ou_ensemble(spec, n_steps, rows, seed, offset)
    a, b = np.ones(rows, dtype=complex), np.zeros(rows, dtype=complex)
    t = 0.0
    for ev in schedule.events:
        if ev.kind != "delay":
            # A soft half holds the trajectory at its segment midpoint value.
            k_mid = _grid_point(t + ev.duration / 2, dt, n_steps)[0]
            alpha, beta = _pulse_cayley_klein(ev, delta[:, k_mid])
            a, b = alpha * a - np.conj(beta) * b, beta * a + np.conj(alpha) * b
        elif ev.duration:
            # e = exp(-i phi / 2) = cos 2x + i sin 2x at x = -phi / 4.
            x = -0.25 * ou_phase(delta, dt, t, t + ev.duration)
            e = np.empty(rows, dtype=complex)
            _double_angle(x, e.real, e.imag)
            # Not `a *= e`: numpy rounds in-place complex products of short arrays differently.
            a, b = a * e, b * e.conj()
        t += ev.duration
    return a, b


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
