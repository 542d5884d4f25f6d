"""Simulation engines for compiled pulse schedules.

Schedules are consumed structurally: an ordered event list where each event
is a delay, an instantaneous hard pulse, or a finite-duration weak rotation
during which the noise acts concurrently.  Three engines, all exact: ideal (no
noise), quantum spin bath (by bath magnetization sector), and the classical OU
model's noise-averaged moments on Gauss-Hermite nodes.  `channel_operators`
turns any of them into the operators whose average is the system channel.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import Counter

import numpy as np

from .core import hermitian_expm, partial_trace_bath, rotation_unitary
from .noise import OUNoiseSpec, SpinBathSpec, bath_frame


def ideal_propagator(schedule, honor_amplitude: bool = False) -> np.ndarray:
    """Zero-noise system propagator; amplitude scales applied only on request."""
    rotations = {ev: rotation_unitary(ev.rotation.phase,
                                      ev.rotation.angle * (ev.amplitude_scale if honor_amplitude else 1.0))
                 for ev in dict.fromkeys(schedule.events) if ev.kind != "delay"}  # one per distinct event
    u = np.eye(2, dtype=complex)
    for ev in schedule.events:
        if ev.kind != "delay":
            u = rotations[ev] @ u
    return u


def bath_propagator(schedule, spec: SpinBathSpec) -> np.ndarray:
    """Exact propagator on the system (x) bath space, amplitude scales applied.

    H_noise has no term that flips the system's sigma_z, so it is block diagonal
    over the system's |0>, |1>, and both blocks and every system pulse conserve
    the bath's total S_z, so U is block diagonal over the bath's magnetization
    sectors.  It is propagated one `bath_frame` stack of equal-size sectors at a
    time, each sector in the eigenframe of its two blocks: Ut = diag(v0^dag, v1^dag) U.
    A delay multiplies the rows of Ut by e^{-i w t}, and a hard pulse or a soft
    half multiplies Ut by one framed product, cached across calls (`_framed_pulse`).
    The schedule's runs (`Schedule.runs`) are the runs of delays and hard pulses
    that its soft halves cut it into, and a run that recurs within the schedule (the
    interior of every decoupling cycle) and holds more than one hard pulse is
    multiplied out once per stack and then applied as one product.  Each stack's
    sector blocks are scattered into the dense 2d x 2d matrix.
    """
    d = 2**spec.n_bath
    runs, steps = schedule.runs
    # A run with more than one hard pulse costs more than its product.
    shared = {i for i, k in Counter(i for i, _ in steps).items()
              if k > 1 and sum(ev.kind == "hard_pulse" for ev in runs[i]) > 1}
    u = np.zeros((2 * d, 2 * d), dtype=complex)
    for frame in bath_frame(spec):
        eye = np.eye(frame.w.shape[1], dtype=complex)  # broadcasts against the stack
        ut, products = frame.from_frame(eye).conj().swapaxes(1, 2), {}  # diag(v0^dag, v1^dag)
        for i, soft in steps:
            if i in shared:
                if i not in products:
                    products[i] = _apply_run(frame, runs[i], eye)
                ut = products[i] @ ut
            else:
                ut = _apply_run(frame, runs[i], ut)
            if soft is not None:
                ut = _framed_pulse(frame, soft) @ ut
        u[frame.index[:, :, None], frame.index[:, None, :]] = frame.from_frame(ut)
    return u


def _apply_run(frame, run, xt: np.ndarray) -> np.ndarray:
    """A run's delays and hard pulses applied in order to a framed Xt."""
    for ev in run:
        xt = frame.delay(xt, ev.duration) if ev.kind == "delay" else _framed_pulse(frame, ev) @ xt
    return xt


# The README grid on a 6-spin bath needs 18 (scaled angle, duration) keys x its 4 stacks = 72 entries;
# 96 hold 24 keys of 59 kB over the 4 stacks, 1.4 MB at most.
@functools.lru_cache(maxsize=96)
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


# The README grid on a 6-spin bath needs 67 distinct pulse events x its 4 stacks = 268 entries;
# 320 hold 80 events of 59 kB over the 4 stacks, 4.7 MB at most.
@functools.lru_cache(maxsize=320)
def _framed_pulse(frame, ev) -> np.ndarray:
    """A pulse event in the frame, amplitude scale applied, as one product per sector.
    A hard pulse (duration 0) is `BathFrame.pulse` of its rotation.  A soft half is
    P S P^dag, S the phase-0 `_soft_exponential` and P = diag(I, e^{i phase} I): the
    drive at phase p is P (drive at 0) P^dag, and P commutes with the block-diagonal drift."""
    angle = ev.rotation.angle * ev.amplitude_scale
    if ev.duration == 0.0:
        u = frame.pulse(rotation_unitary(ev.rotation.phase, angle))
    else:
        m, p = frame.link.shape[1], cmath.exp(1j * ev.rotation.phase)
        u = _soft_exponential(frame, angle, ev.duration).copy()
        u[:, :m, m:] *= p.conjugate()
        u[:, m:, :m] *= p
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
    f = np.divide(np.sin(half * rate), rate, out=np.full_like(rate, half), where=rate != 0.0)  # sin(half rate) / rate
    return np.cos(half * rate) - 1j * f * delta, f * (-1j * omega * cmath.exp(1j * ev.rotation.phase))


# Gauss-Hermite nodes of the OU part and of the static offset.  Doubling both moves no
# README-grid, table1 or 10 T2* cell by 1% of its 10k-realization Monte-Carlo stderr.
OU_NODES = 8
STATIC_NODES = 32


@functools.lru_cache(maxsize=8)
def hermite_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w (summing to 1) of the n-point Gauss quadrature of N(0, 1), by
    Golub-Welsch: x are the eigenvalues of the Jacobi matrix of He_k, off-diagonal sqrt(k)."""
    off = np.sqrt(np.arange(1.0, n))
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = v[0] ** 2
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _mehler(x: np.ndarray, w: np.ndarray, a: float) -> np.ndarray:
    """S_ij = w_i sum_{n<N} a^n h_n(x_i) h_n(x_j), h_n = He_n / sqrt(n!): one OU step
    y' = a y + sqrt(1 - a^2) g on node-weighted moments, Mehler's kernel projected on the nodes."""
    h = [np.ones_like(x), x]
    for n in range(1, len(x) - 1):
        h.append((x * h[n] - math.sqrt(n) * h[n - 1]) / math.sqrt(n + 1))
    h = np.array(h[:len(x)])
    return w[:, None] * ((h.T * a ** np.arange(len(x))) @ h)


def _turn(y: np.ndarray, alpha, beta) -> np.ndarray:
    """The moments y = (d, A01, B00, B11, B01) after a pulse [[alpha, -beta*], [beta, alpha*]].

    With z = (u, v) = (q0 + i q3, q1 + i q2) of U = q0 - i q.sigma, A = E[z z^dag] and
    B = E[z z^T], d = A00 - A11; A00 + A11 sums to 1 over the nodes and enters no other
    moment, so it is not carried.  The pulse maps z to p z + q J z*, p = alpha*,
    q = i beta, J = [[0, -1], [1, 0]].
    """
    d, a01, b00, b11, b01 = y
    p, q = np.conj(alpha), 1j * beta
    c, r, pp, qq, pq = abs(p) ** 2 - abs(q) ** 2, p * np.conj(q), p * p, q * q, p * q
    return np.stack((c * d - 4.0 * (r * b01).real, c * a01 + r * b00 - np.conj(r * b11),
                     pp * b00 + qq * np.conj(b11) - 2.0 * pq * a01,
                     pp * b11 + qq * np.conj(b00) + 2.0 * pq * np.conj(a01),
                     pp * b01 - qq * np.conj(b01) + pq * d))


# w = (u, v, u*, v*) = _Z q, and _Z _Z^dag = 2 I.
_Z = np.array([[1, 0, 0, 1j], [0, 1, 1j, 0], [1, 0, 0, -1j], [0, 1, -1j, 0]])


def ou_moment(schedule, spec: OUNoiseSpec, offsets, weights) -> np.ndarray:
    """E[q q^T] over the grid OU model, 4x4, q the unit quaternion of U = q0 - i q.sigma.

    The noise average is exact up to the nodes: delta = sigma x_i + s_j, x_i the
    OU_NODES Gauss-Hermite nodes of the stationary OU part (one node if sigma is 0)
    and s_j the static offsets, of the given weights.  The grid OU model is a Markov
    chain, so its average is a discrete-variable representation (Light, Hamilton &
    Lill, JCP 82, 1400 (1985)) of Kubo's stochastic Liouville equation (J. Math.
    Phys. 4, 174 (1963)): the node-weighted moments of z (`_turn`) are walked in time,
    cut at every event boundary and `dt` grid point.  A delay of length t only turns
    B by e^{i delta t}, a pulse is `_turn` at each node's detuning, and each grid
    point mixes the OU nodes by Mehler's kernel (`_mehler`, a = exp(-dt / tau_c)).
    """
    x, w = hermite_nodes(OU_NODES if spec.sigma else 1)
    delta = spec.sigma * x[:, None] + np.asarray(offsets, dtype=float)
    mix = _mehler(x, w, math.exp(-spec.dt / spec.tau_c))
    y = np.zeros((5, *delta.shape), dtype=complex)
    y[0] = y[2] = w[:, None] * np.asarray(weights, dtype=float)  # q = (1, 0, 0, 0)
    t, k = 0.0, 0  # on grid cell k, [k dt, (k + 1) dt)
    for ev in schedule.events:
        stop = t + ev.duration
        while True:
            end = min(stop, (k + 1) * spec.dt)
            if ev.kind == "delay":
                y[2:] *= np.exp(1j * (end - t) * delta)
            elif ev.duration == 0.0 or end > t:
                y = _turn(y, *_pulse_cayley_klein(ev, delta, end - t))
            if end == stop:
                break
            # Assign the grid point, never add the piece: rounding could stall the walk.
            t, k, y = end, k + 1, mix @ y
        t = stop
    d, a01, b00, b11, b01 = y.sum(axis=(1, 2))
    a, b = np.array([[1.0 + d, 2.0 * a01], [2.0 * np.conj(a01), 1.0 - d]]) / 2, np.array([[b00, b01], [b01, b11]])
    return (_Z.conj().T @ np.block([[a, b], [b.conj(), a.conj()]]) @ _Z).real / 4


def channel_operators(schedule, noise_model) -> np.ndarray:
    """Operators K, shape (k, 2, 2), whose mean of K rho K^dag is the system channel.

    noise_model None gives the ideal propagator with amplitude scales applied; a
    SpinBathSpec gives the d^2 system blocks of the exact propagator times sqrt(d),
    d = 2**n_bath, which average the maximally mixed bath exactly; an OUNoiseSpec
    gives sqrt(k lambda) U(v) over the k positive eigenpairs of `ou_moment`, at most 4,
    with STATIC_NODES Gauss-Hermite offsets (one if sigma_static is 0).  An
    eigenvalue below -1e-12 raises ValueError.  Every channel is exact: nothing
    is sampled.
    """
    if noise_model is None:
        return ideal_propagator(schedule, honor_amplitude=True)[None]
    if isinstance(noise_model, OUNoiseSpec):
        x, w = hermite_nodes(STATIC_NODES if noise_model.sigma_static else 1)
        lam, v = np.linalg.eigh(ou_moment(schedule, noise_model, noise_model.sigma_static * x, w))
        if lam[0] < -1e-12:
            raise ValueError(f"the OU moment has eigenvalue {lam[0]:.3g} < -1e-12")
        keep = lam > 0.0
        q0, q1, q2, q3 = v[:, keep] * np.sqrt(keep.sum() * lam[keep])
        return np.stack((q0 - 1j * q3, -1j * q1 - q2, -1j * q1 + q2, q0 + 1j * q3), axis=-1).reshape(-1, 2, 2)
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
