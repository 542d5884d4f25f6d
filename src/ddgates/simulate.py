"""Simulation engines for compiled pulse schedules.

Schedules are consumed structurally: an ordered event list where each event
is a delay, an instantaneous hard pulse, or a finite-duration weak rotation
during which the noise acts concurrently.  Three engines: ideal (no noise),
quantum spin bath (exact, dense), and classical OU trajectory ensembles
(vectorized over realizations).  `channel_operators` turns any of them into
the operator ensemble whose average is the simulated system channel.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    embed_system,
    hermitian_expm,
    partial_trace_bath,
    rotation_unitary,
    spin_half_operators,
)
from .noise import (
    OUNoiseSpec,
    SpinBathSpec,
    _step_count,
    ou_phase_at,
    ou_phase_rows,
    sample_ou_ensemble,
    total_hamiltonian,
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
    """Exact propagator on the system (x) bath space, amplitude scales applied."""
    h_noise = total_hamiltonian(spec)
    w, v = np.linalg.eigh(h_noise)
    v_dag = v.conj().T
    sx, sy, _ = spin_half_operators()
    u = np.eye(h_noise.shape[0], dtype=complex)
    for ev in schedule.events:
        if ev.kind == "delay":
            if ev.duration:
                u = (v * np.exp(-1j * w * ev.duration)) @ v_dag @ u
            continue
        angle = ev.rotation.angle * ev.amplitude_scale
        if ev.duration == 0.0:
            u = embed_system(rotation_unitary(ev.rotation.phase, angle), spec.n_bath) @ u
        else:
            # Finite-duration drive: drift stays active during the rotation.
            omega = angle / ev.duration
            h_ctrl = omega * (
                math.cos(ev.rotation.phase) * sx + math.sin(ev.rotation.phase) * sy
            )
            h_seg = embed_system(h_ctrl, spec.n_bath) + h_noise
            u = hermitian_expm(h_seg, ev.duration) @ u
    return u


def _segment_unitaries(omega_x: float, omega_y: float, delta: np.ndarray, duration: float) -> np.ndarray:
    """Batch 2x2 propagators of H = (omega_x, omega_y, delta) . sigma / 2."""
    a = np.sqrt(omega_x**2 + omega_y**2 + delta**2) * duration
    safe = np.where(a > 0, a, 1.0)
    nx = np.where(a > 0, omega_x * duration / safe, 0.0)
    ny = np.where(a > 0, omega_y * duration / safe, 0.0)
    nz = np.where(a > 0, delta * duration / safe, 0.0)
    c = np.cos(a / 2)
    s = np.sin(a / 2)
    m = np.empty(delta.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = c - 1j * s * nz
    m[..., 1, 1] = c + 1j * s * nz
    m[..., 0, 1] = -1j * s * (nx - 1j * ny)
    m[..., 1, 0] = -1j * s * (nx + 1j * ny)
    return m


def ou_propagators(schedule, spec: OUNoiseSpec, n_realizations: int, seed: int) -> np.ndarray:
    """System propagators under the OU trajectory ensemble, shape (n, 2, 2).

    Delays accumulate the exact phase integral of the piecewise-constant
    trajectory; finite-duration pulses hold the trajectory at its segment
    midpoint value.  Realization r consumes the stream keyed by (seed, r).
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    total = schedule.total_duration
    n_steps = _step_count(total, spec.dt) if total > 0 else 1
    delta = sample_ou_ensemble(spec, n_steps, n_realizations, seed)
    phi = ou_phase_rows(delta, spec.dt)
    u = np.broadcast_to(np.eye(2, dtype=complex), (n_realizations, 2, 2)).copy()
    t = 0.0
    for ev in schedule.events:
        if ev.kind == "delay":
            if ev.duration:
                phase = ou_phase_at(phi, delta, spec.dt, t + ev.duration) - ou_phase_at(
                    phi, delta, spec.dt, t
                )
                u[:, 0, :] *= np.exp(-0.5j * phase)[:, None]
                u[:, 1, :] *= np.exp(+0.5j * phase)[:, None]
        else:
            angle = ev.rotation.angle * ev.amplitude_scale
            if ev.duration == 0.0:
                m = rotation_unitary(ev.rotation.phase, angle)
                u = np.einsum("ij,rjk->rik", m, u)
            else:
                k_mid = min(int((t + ev.duration / 2) / spec.dt), n_steps)
                omega = angle / ev.duration
                m = _segment_unitaries(
                    omega * math.cos(ev.rotation.phase),
                    omega * math.sin(ev.rotation.phase),
                    delta[:, k_mid],
                    ev.duration,
                )
                u = np.matmul(m, u)
        t += ev.duration
    return u


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
