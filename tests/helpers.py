"""Shared by the tests: independent constructions to check the package against, the
operator route to a channel that its Gram matrix replaced, with the operators of a Gram
matrix, the dense bath traces that `simulate.bath_average` replaced, the component-major
OU moment walk that the node-major one replaced, with the per-node pulse rotation it steps
by, the Monte-Carlo OU sampler that is the statistical oracle of the exact OU channel, and
the reader of the result CSV that `harness.rows_to_csv` writes."""

import csv
import functools
import io
import math
import typing
from itertools import islice

import numpy as np
import scipy.linalg

from ddgates.compiler import DD_KINDS, GATE_ROTATIONS, cycle_pulse_count
from ddgates.core import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, embed_system, rotation_unitary
from ddgates.harness import CSV_FIELDS, ResultRow
from ddgates.noise import SpinBathSpec
from ddgates.ou import OUNoiseSpec
from ddgates.simulate import (
    OU_NODES, STATIC_NODES, _gram_of_moments, _mehler, bath_propagator,
    hermite_nodes, ideal_propagator, ou_moment,
)

SPIN_HALF = (0.5 * SIGMA_X, 0.5 * SIGMA_Y, 0.5 * SIGMA_Z)  # (S_x, S_y, S_z)


def bath_hamiltonians(spec):
    """(H_S, H_SE, H_E) of a SpinBathSpec on the full system (x) bath space, built with krons.

    H_S is the system offset, H_SE the Ising system-bath dephasing coupling,
    H_E the secular dipolar intra-bath coupling (flip-flop terms included).
    """
    n = spec.n_bath
    # site[k] = (S_x, S_y, S_z) on bath site k, identity elsewhere (bath space only).
    site = [[functools.reduce(np.kron, [c if j == k else IDENTITY_2 for j in range(n)], np.eye(1))
             for c in SPIN_HALF] for k in range(n)]
    sz, eye_b = SPIN_HALF[2], np.eye(2**n, dtype=complex)
    h_se, h_e_bath = np.zeros((2 * len(eye_b),) * 2, dtype=complex), np.zeros_like(eye_b)
    for k, b in enumerate(spec.couplings):
        h_se += b * np.kron(sz, site[k][2])
    for j in range(n):
        for k in range(j + 1, n):
            (xj, yj, zj), (xk, yk, zk) = site[j], site[k]
            h_e_bath += spec.bath_couplings[j][k] * (2 * zj @ zk - xj @ xk - yj @ yk)
    return spec.system_offset * np.kron(sz, eye_b), h_se, np.kron(IDENTITY_2, h_e_bath)


def total_hamiltonian(spec):
    return functools.reduce(np.add, bath_hamiltonians(spec))  # H_S + H_SE + H_E


def oracle_bath_propagator(schedule, spec):
    """The exact system (x) bath propagator, one scipy expm of the dense Hamiltonian per event."""
    h_noise = total_hamiltonian(spec)
    sx, sy, _ = SPIN_HALF
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


def reference_bath_channel_output(u_full, rho_sys, n_bath):
    """Tr_B U (rho (x) I / d) U^dag, d = 2**n_bath, by kron and partial trace."""
    d = 2**n_bath
    rho = u_full @ np.kron(rho_sys, np.eye(d) / d) @ u_full.conj().T
    return np.trace(rho.reshape(2, d, 2, d), axis1=1, axis2=3)


def reference_bath_gram(u_full, n_bath):
    """The bath channel's Gram matrix by one einsum over the dense propagator as (2, d, 2, d):
    G_(ab),(ce) = sum_jk U_(aj),(bk) U*_(cj),(ek) / d."""
    d = 2**n_bath
    u = u_full.reshape(2, d, 2, d)
    return np.einsum("ajbk,cjek->abce", u, u.conj()).reshape(4, 4) / d


def channel_operators(schedule, noise_model):
    """Operators K, shape (k, 2, 2), whose mean of K rho K^dag is the system channel.

    noise_model None gives the ideal propagator with amplitude scales applied; a
    SpinBathSpec gives the d^2 system blocks <j|U|k> of the exact propagator times
    sqrt(d), d = 2**n_bath, which average the maximally mixed bath exactly; an
    OUNoiseSpec gives `operators_of_gram` of `ou_moment`.
    """
    if noise_model is None:
        return ideal_propagator(schedule, honor_amplitude=True)[None]
    if isinstance(noise_model, OUNoiseSpec):
        x, w = hermite_nodes(STATIC_NODES if noise_model.sigma_static else 1)
        return operators_of_gram(ou_moment(schedule, noise_model, noise_model.sigma_static * x, w))
    assert isinstance(noise_model, SpinBathSpec)
    d = 2**noise_model.n_bath
    blocks = bath_propagator(schedule, noise_model).reshape(2, d, 2, d)
    return math.sqrt(d) * blocks.transpose(1, 3, 0, 2).reshape(d * d, 2, 2)


def pulse_cayley_klein(ev, delta: np.ndarray, length: float):
    """(alpha, beta) of U = [[alpha, -beta*], [beta, alpha*]] for `length` of a pulse at detunings delta:
    U = exp(-i h n . sigma) = cos(h |n|) - i (sin(h |n|) / |n|) n . sigma, h = length / 2, about the
    rotation axis n = (w cos phase, w sin phase, delta), w = angle / duration; sin(h |n|) / |n| is h at
    |n| = 0.  A hard pulse (duration 0) is its whole rotation, whatever length and delta."""
    if ev.duration == 0.0:
        return rotation_unitary(ev.rotation.phase, ev.rotation.angle * ev.amplitude_scale)[:, 0]
    omega, half, nz = ev.rotation.angle * ev.amplitude_scale / ev.duration, 0.5 * length, np.asarray(delta, dtype=float)
    nx, ny = omega * math.cos(ev.rotation.phase), omega * math.sin(ev.rotation.phase)
    norm = np.sqrt(nx**2 + ny**2 + nz**2)
    s = np.divide(np.sin(half * norm), norm, out=np.full_like(norm, half), where=norm != 0.0)
    return np.cos(half * norm) - 1j * s * nz, -1j * s * (nx + 1j * ny)


def _component_turn(y, alpha, beta):
    """The moments y = (d, A01, B00, B11, B01), component first, after a pulse [[alpha, -beta*], [beta, alpha*]]:
    z = (u, v) maps to p z + q J z*, p = alpha*, q = i beta, J = [[0, -1], [1, 0]] (see `simulate._turn`)."""
    d, a01, b00, b11, b01 = y
    p, q = np.conj(alpha), 1j * beta
    c, r, pp, qq, pq = abs(p) ** 2 - abs(q) ** 2, p * np.conj(q), p * p, q * q, p * q
    return np.stack((c * d - 4.0 * (r * b01).real, c * a01 + r * b00 - np.conj(r * b11),
                     pp * b00 + qq * np.conj(b11) - 2.0 * pq * a01,
                     pp * b11 + qq * np.conj(b00) + 2.0 * pq * np.conj(a01),
                     pp * b01 - qq * np.conj(b01) + pq * d))


def reference_ou_moment(schedule, spec, offsets, weights):
    """`ou_moment` walked component first, (5, OU nodes, static nodes), one `_component_turn`
    per pulse piece at every node's detuning, hard pulses included: the walk that the
    node-major one replaced, cut at the same event boundaries and dt grid points, each piece's
    length measured alike from its event's start, its own summed moments arranged into G."""
    x, w = hermite_nodes(OU_NODES if spec.sigma else 1)
    delta = spec.sigma * x[:, None] + np.asarray(offsets, dtype=float)
    mix = _mehler(x, w, math.exp(-spec.dt / spec.tau_c))
    y = np.zeros((5, *delta.shape), dtype=complex)
    y[0] = y[2] = w[:, None] * np.asarray(weights, dtype=float)  # q = (1, 0, 0, 0)
    t, k = 0.0, 0  # on grid cell k, [k dt, (k + 1) dt)
    for ev in schedule.events:
        start, stop = t, t + ev.duration
        while True:
            end = min(stop, (k + 1) * spec.dt)
            length = (ev.duration if end == stop else end - start) - (t - start)  # measured from the event's start
            if ev.kind == "delay":
                y[2:] *= np.exp(1j * length * delta)
            elif ev.duration == 0.0 or end > t:
                y = _component_turn(y, *pulse_cayley_klein(ev, delta, length))
            if end == stop:
                break
            t, k, y = end, k + 1, mix @ y
        t = stop
    return _gram_of_moments(*y.sum(axis=(1, 2)))


def gram_of_operators(ops):
    """E[vec K vec K^dag] over the operators, row-major vec: the Gram matrix of their channel."""
    v = np.reshape(ops, (-1, 4))
    return np.einsum("ka,kc->ac", v, v.conj()) / len(v)


def operators_of_gram(g):
    """sqrt(k lambda) unvec(v), shape (k, 2, 2), over the k positive eigenpairs (lambda, v) of a
    Gram matrix, row-major unvec: the inverse of `gram_of_operators`, negative eigenvalues dropped."""
    lam, v = np.linalg.eigh(g)
    keep = lam > 0.0
    return (v[:, keep] * np.sqrt(keep.sum() * lam[keep])).T.reshape(-1, 2, 2)


class Word(tuple):
    """Events in the order they act: the numpy-free algebra that `simulate._replay` is checked in.
    a @ b is b's events, then a's, as for propagators, and `apply` appends one event."""

    def __matmul__(self, other):
        return Word((*other, *self))

    @staticmethod
    def apply(ev, word):
        return Word((*word, ev))


def expected_pulse_count(gate: str, scheme: str) -> int:
    """Closed-form pulse count for a compiled cell."""
    n = len(GATE_ROTATIONS[gate])
    if scheme in ("simple", "simple_padded"):
        return n
    if scheme == "bb1":
        return 5 * n
    cycle = cycle_pulse_count(DD_KINDS[scheme])
    return n * 5 * (cycle + 2) if n else cycle


def step_count(total_time, dt):
    """Grid steps of the OU model's trajectory over total_time: ceil(total_time / dt), at least 1."""
    return max(1, math.ceil(total_time / dt - 1e-9))


def ou_trajectory(spec, rows, seed, steps):
    """Yield the dephasing frequencies delta_0 .. delta_steps of `rows` realizations, a new array per step.

    Step 0 draws the static offset s and step 1 starts the OU part from its stationary
    distribution; then delta_{k+1} = a delta_k + sigma sqrt(1 - a^2) g + (1 - a) s,
    a = exp(-dt / tau_c), the exact discretization that carries s along (Gillespie,
    PRE 54, 2084 (1996)).  The normals are read step-major from one SFC64 stream.
    """
    if rows < 1:
        raise ValueError("rows must be >= 1")
    a = math.exp(-spec.dt / spec.tau_c)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
    static = spec.sigma_static * rng.standard_normal(rows)
    delta = spec.sigma * rng.standard_normal(rows) + static
    yield delta
    for _ in range(steps):
        delta = a * delta + spec.sigma * math.sqrt(1 - a * a) * rng.standard_normal(rows) + (1 - a) * static
        yield delta


def trajectory(spec, n_steps, rows, seed):
    """The trajectory ou_propagators draws: delta_0 .. delta_n_steps, shape (rows, n_steps + 1)."""
    return np.array(list(islice(ou_trajectory(spec, rows, seed, n_steps), n_steps + 1))).T


def ou_propagators(schedule, spec, n_realizations, seed):
    """System propagators of `n_realizations` sampled OU trajectories (`ou_trajectory` at seed), shape (n, 2, 2).

    Each U = [[a, -b*], [b, a*]] is held as two vectors over the realizations, and the
    schedule is walked once in time, cut at every event boundary and dt grid point, so
    the trajectory is constant on each piece: a delay piece adds delta x length to a
    running phase phi, applied as e^{-+i phi/2} at the next pulse and at the end; a
    pulse [[alpha, -beta*], [beta, alpha*]] maps (a, b) to (alpha a - beta* b, beta a + alpha* b).
    """
    if schedule.total_duration == 0:
        return np.tile(ideal_propagator(schedule, honor_amplitude=True), (n_realizations, 1, 1))
    dt = spec.dt
    walk = ou_trajectory(spec, n_realizations, seed, step_count(schedule.total_duration, dt))
    delta, k, t = next(walk), 0, 0.0
    hard = {ev: pulse_cayley_klein(ev, None, 0.0) for ev in set(schedule.events) if ev.kind == "hard_pulse"}
    a, b = np.ones(n_realizations, dtype=complex), np.zeros(n_realizations, dtype=complex)
    phi = np.zeros(n_realizations)
    for ev in (*schedule.events, None):
        if ev is None or ev.kind != "delay":
            e = np.exp(-0.5j * phi)
            a, b, phi = a * e, b * e.conj(), np.zeros(n_realizations)
            if ev is None:
                break
        stop = t + ev.duration
        while True:
            end = min(stop, (k + 1) * dt)
            if ev.kind == "delay":
                phi = phi + delta * (end - t)
            elif ev.duration == 0.0 or end > t:
                alpha, beta = hard[ev] if ev.duration == 0.0 else pulse_cayley_klein(ev, delta, end - t)
                a, b = alpha * a - np.conj(beta) * b, beta * a + np.conj(alpha) * b
            if end == stop:
                break
            t, k, delta = end, k + 1, next(walk)
        t = stop
    return np.stack((a, -b.conj(), b, a.conj()), axis=-1).reshape(n_realizations, 2, 2)


def rows_from_csv(text: str) -> list[ResultRow]:
    """The rows of a result CSV, each column parsed by its `ResultRow` field's type."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != CSV_FIELDS:
        raise ValueError(f"unexpected CSV header {header}")
    types = typing.get_type_hints(ResultRow).values()
    return [ResultRow(*(t(v) for t, v in zip(types, rec))) for rec in reader]
