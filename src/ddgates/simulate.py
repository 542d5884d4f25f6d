"""Simulation engines for compiled pulse schedules.

Schedules are consumed structurally: an ordered event list where each event
is a delay, an instantaneous hard pulse, or a finite-duration weak rotation
during which the noise acts concurrently.  Three engines, all exact: ideal (no
noise), quantum spin bath, and the classical OU model's noise-averaged moments
on Gauss-Hermite nodes.  Each ends in the system channel's 4x4 Gram matrix G,
returned by `channel_gram`.  The whole bath engine lives here: its eigenframe by
magnetization sector (`bath_frame`), its one replay (`_bath_blocks`) and its one
trace (`bath_average`).  The ideal and bath engines walk `Schedule.runs` through
one interpreter, `_replay`; the OU walk is cut at events and `dt` grid points,
its moments held node-major and summed straight into G.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import SIGMA_X, hermitian_expm, rotation_unitary
from .noise import SpinBathSpec
from .ou import OUNoiseSpec


def _replay(schedule, x, eye, apply):
    """x after the schedule's events, each applied as apply(event, x), walked by `Schedule.runs`:
    a run that recurs (the interior of every decoupling cycle) and holds more than one hard
    pulse, so costs more than its product, is applied to eye once and then as that product."""
    def walk(run, y):
        for ev in run:
            y = apply(ev, y)
        return y

    runs, steps = schedule.runs
    products = {i: walk(runs[i], eye) for i, k in Counter(i for i, _ in steps).items()
                if k > 1 and sum(ev.kind == "hard_pulse" for ev in runs[i]) > 1}
    for i, soft in steps:
        x = products[i] @ x if i in products else walk(runs[i], x)
        if soft is not None:
            x = apply(soft, x)
    return x


def ideal_propagator(schedule, honor_amplitude: bool = False) -> np.ndarray:
    """Zero-noise system propagator; amplitude scales applied only on request."""
    rotations = {ev: rotation_unitary(ev.rotation.phase,
                                      ev.rotation.angle * (ev.amplitude_scale if honor_amplitude else 1.0))
                 for ev in dict.fromkeys(schedule.events) if ev.kind != "delay"}  # one per distinct event
    eye = np.eye(2, dtype=complex)
    return _replay(schedule, eye, eye, lambda ev, u: u if ev.kind == "delay" else rotations[ev] @ u)


@dataclass(frozen=True, eq=False)
class BathFrame:
    """Eigenframe of H_noise = diag(h0, h1), its blocks over the system's |0>, |1>,
    on the bath's magnetization sectors of one size, held as one stack.

    h0 and h1 conserve the bath's total S_z and system pulses act on the system
    only, so every propagator is block diagonal over the n_bath + 1 sectors.
    Sector s of the stack is its block s of size 2k, k the sector's size: its
    system-|0> rows, then its system-|1> rows.  w (S, 2k): the eigenvalues of h0
    then h1 on the sector; v0, v1 (S, k, k): their eigenvectors; link = v0^dag v1;
    index (S, 2k): each row's index on the system (x) bath space.  An X on the
    system (x) bath space is held as the stack Xt = diag(v0^dag, v1^dag) X of its
    sector blocks; start is that of the identity, where every replay starts.
    """

    w: np.ndarray
    v0: np.ndarray
    v1: np.ndarray
    link: np.ndarray
    index: np.ndarray
    start: np.ndarray = field(init=False)

    def __post_init__(self):
        eye = np.eye(self.w.shape[1], dtype=complex)
        object.__setattr__(self, "start", self.from_frame(eye).conj().swapaxes(1, 2))  # diag(v0^dag, v1^dag)

    def delay(self, xt: np.ndarray, t: float) -> np.ndarray:
        return np.exp(-1j * t * self.w)[..., None] * xt

    def pulse(self, r: np.ndarray) -> np.ndarray:
        """r (x) I in the frame, for a 2x2 r: [[r00 I, r01 link], [r10 link^dag, r11 I]] per sector."""
        k = self.v0.shape[1]
        eye = np.eye(k)
        p = np.empty((len(self.w), 2 * k, 2 * k), dtype=complex)
        p[:, :k, :k], p[:, :k, k:] = r[0, 0] * eye, r[0, 1] * self.link
        p[:, k:, :k], p[:, k:, k:] = r[1, 0] * self.link.conj().swapaxes(1, 2), r[1, 1] * eye
        return p

    def from_frame(self, xt: np.ndarray) -> np.ndarray:
        k = self.v0.shape[1]
        return np.concatenate((self.v0 @ xt[..., :k, :], self.v1 @ xt[..., k:, :]), axis=-2)


_FRAMES: dict = {}  # the last 4 specs' frames, keyed by every SpinBathSpec field


def bath_frame(spec: SpinBathSpec) -> tuple[BathFrame, ...]:
    """The spec's BathFrames, one unpadded stack per sector size in increasing size,
    from one eigh per sector and system block, built once per distinct spec.

    H_noise = omega_S S_z (x) I + sum_k b_k S_z (x) S_z^k + I (x) H_E, with H_E the
    secular dipolar coupling sum_{j<k} d_jk (2 S_z^j S_z^k - S_x^j S_x^k - S_y^j S_y^k),
    flip-flops included.  Its blocks over the system's |0>, |1> are
    H_E +- diag(omega_S / 2 + sum_k b_k S_z^k / 2).  Both conserve sum_k S_z^k
    (Abragam, The Principles of Nuclear Magnetism, 1961), so the sectors are the
    bath basis states grouped by their number of spins down, and each block is built
    from the states' bits and diagonalised on each sector alone.  A 6-spin bath has 7
    sectors of 1, 6, 15, 20, 15, 6 and 1 states, held as four stacks of 2, 2, 2 and 1.
    """
    key = (spec.n_bath, spec.couplings, spec.bath_couplings.tobytes(), spec.system_offset)
    if key not in _FRAMES:
        n, d = spec.n_bath, 2**spec.n_bath
        states = np.arange(d)
        # S_z^k is +1/2 or -1/2 as bit n - 1 - k of the basis state (spin 0 first) is 0 or 1.
        bits = [1 << (n - 1 - k) for k in range(n)]
        sz = [0.5 - ((states & bit) > 0) for bit in bits]
        # H_E holds 2 S_z^j S_z^k on its diagonal, and the flip-flop -(S_x^j S_x^k + S_y^j S_y^k)
        # is -1/2 between two states whose XOR is the pair's bit mask: zz by state, flip by XOR.
        zz, flip = np.zeros(d), np.zeros(d)
        for j in range(n):
            for k in range(j + 1, n):
                zz += spec.bath_couplings[j, k] * (2 * sz[j] * sz[k])
                flip[bits[j] | bits[k]] = spec.bath_couplings[j, k] * -0.5
        shift = 0.5 * spec.system_offset + sum(map(np.multiply, spec.couplings, sz), np.zeros(d)) / 2
        down = sum((z < 0 for z in sz), np.zeros(d, dtype=int))  # sector j: the comb(n, j) states with j spins down
        frames = []
        for size in sorted({math.comb(n, j) for j in range(n + 1)}):
            rows = np.array([np.flatnonzero(down == j) for j in range(n + 1) if math.comb(n, j) == size])
            blocks = flip[rows[:, :, None] ^ rows[:, None, :]] + 0j  # complex frames; XOR 0 (the diagonal) has no flip
            w, v = np.linalg.eigh(blocks + np.stack((zz + shift, zz - shift))[:, rows, None] * np.eye(size))
            frame = BathFrame(np.concatenate((w[0], w[1]), axis=1), v[0], v[1],
                              v[0].conj().swapaxes(1, 2) @ v[1], np.concatenate((rows, d + rows), axis=1))
            for a in vars(frame).values():
                a.setflags(write=False)
            frames.append(frame)
        if len(_FRAMES) == 4:
            del _FRAMES[next(iter(_FRAMES))]
        _FRAMES[key] = tuple(frames)
    return _FRAMES[key]


def bath_average(blocks: np.ndarray) -> np.ndarray:
    """The bath trace: sum over s, j, k of U_(aj),(bk) U*_(cj),(ek), shape (2, B, 2, B), of propagator
    blocks U of shape (S, 2, k, B, k): S sectors of k bath states; system row a, bath row j, input
    column b, bath column k.  Over all sectors and divided by the bath dimension d, it is the G of
    Tr_B U (rho (x) I / d) U^dag = sum_be G_(ab),(ce) rho_be, the maximally mixed bath traced out."""
    return np.einsum("sajbk,scjek->abce", blocks, blocks.conj())


def _bath_blocks(schedule, spec: SpinBathSpec):
    """Yield each `bath_frame` stack with its sector blocks of the exact propagator: the one bath replay.

    H_noise has no term that flips the system's sigma_z, and both its blocks over the system's |0>, |1> and
    every system pulse conserve the bath's total S_z, so U is block diagonal over the bath's magnetization
    sectors.  Each sector is replayed by `_replay` in the eigenframe of its two blocks,
    Ut = diag(v0^dag, v1^dag) U, from `BathFrame.start`: a delay multiplies the rows of Ut by e^{-i w t}, and
    a hard pulse or a soft half, amplitude scale applied, multiplies Ut by one framed product, cached across
    calls (`_framed_pulse`).
    """
    for frame in bath_frame(spec):
        eye = np.eye(frame.w.shape[1], dtype=complex)  # broadcasts against the stack
        ut = _replay(schedule, frame.start, eye,
                     lambda ev, xt: frame.delay(xt, ev.duration) if ev.kind == "delay"
                     else _framed_pulse(frame, ev) @ xt)
        yield frame, frame.from_frame(ut)


def bath_propagator(schedule, spec: SpinBathSpec) -> np.ndarray:
    """The exact system (x) bath propagator, amplitude scales applied: `_bath_blocks` scattered, dense."""
    u = np.zeros((2 ** (spec.n_bath + 1),) * 2, dtype=complex)
    for frame, blocks in _bath_blocks(schedule, spec):
        u[frame.index[:, :, None], frame.index[:, None, :]] = blocks
    return u


# The README grid on a 6-spin bath needs 18 (scaled angle, duration) keys x its 4 stacks = 72 entries;
# 96 hold 24 keys of 59 kB over the 4 stacks, 1.4 MB at most.
@functools.lru_cache(maxsize=96)
def _soft_exponential(frame, angle: float, duration: float) -> np.ndarray:
    """exp(-i G t), t = duration, per sector, of the framed drift diag(w) plus the
    phase-0 drive (angle / t) S_x (x) I, framed as angle / 2t times `BathFrame.pulse` of sigma_x."""
    g = frame.w[:, :, None] * np.eye(frame.w.shape[1]) + 0.5 * angle / duration * frame.pulse(SIGMA_X)
    u = hermitian_expm(g, duration)
    u.setflags(write=False)
    return u


# The README grid on a 6-spin bath needs 67 distinct pulse events x its 4 stacks = 268 entries;
# 320 hold 80 events of 59 kB over the 4 stacks, 4.7 MB at most.
@functools.lru_cache(maxsize=320)
def _framed_pulse(frame, ev) -> np.ndarray:
    """A pulse event in the frame, amplitude scale applied, as one product per sector: P X P^dag,
    X the pulse at phase 0 and P = diag(I, e^{i phase} I), for a rotation or drive at phase p is
    P (the same at 0) P^dag, and P commutes with the block-diagonal drift.  X is `BathFrame.pulse`
    of the phase-0 rotation for a hard pulse (duration 0), and `_soft_exponential` for a soft half."""
    angle = ev.rotation.angle * ev.amplitude_scale
    if ev.duration == 0.0:
        u = frame.pulse(rotation_unitary(0.0, angle))
    else:
        u = _soft_exponential(frame, angle, ev.duration).copy()
    m, p = frame.link.shape[1], cmath.exp(1j * ev.rotation.phase)
    u[:, :m, m:] *= p.conjugate()
    u[:, m:, :m] *= p
    u.setflags(write=False)
    return u


def _soft_drive(ev) -> complex:
    """beta / f of a soft pulse: -i w e^{i phase}, w = angle / duration."""
    return -1j * (ev.rotation.angle * ev.amplitude_scale / ev.duration) * cmath.exp(1j * ev.rotation.phase)


def _soft_rotation(ev, delta: np.ndarray, length: float):
    """(cos(h rate), sin(h rate) / rate), h = length / 2 and rate = sqrt(w^2 + delta^2), of a soft pulse
    piece; the second is h where rate is 0."""
    half, omega = 0.5 * length, ev.rotation.angle * ev.amplitude_scale / ev.duration
    rate = np.sqrt(omega**2 + delta**2)
    turn = half * rate
    return np.cos(turn), np.divide(np.sin(turn), rate, out=np.full_like(rate, half), where=rate != 0.0)


# Gauss-Hermite nodes of the OU part and of the static offset.  On the README fit (370/750 us),
# doubling both moves no README-grid, table1 or 10 T2* cell by 1% of its 10k-realization
# Monte-Carlo stderr, for its OU part dephases long cells first.  The 32 static nodes alias
# once sigma_static times the unrefocused time passes ~6: their E[e^{iaX}] = e^{-a^2/2} is off
# by 1.8e-8 at a = 6, 1.2e-3 at 7.9 and 0.38 at 10, as on the 100/1000 us fit at tau = 100 us.
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
    """Node-major moments y[..., :] = (d, A01, B00, B11, B01) after a pulse [[alpha, -beta*], [beta, alpha*]],
    alpha and beta broadcast against y's leading axes.

    With z = (u, v) = (q0 + i q3, q1 + i q2) of U = q0 - i q.sigma, A = E[z z^dag] and
    B = E[z z^T], d = A00 - A11; A00 + A11 sums to 1 over the nodes and enters no other
    moment, so it is not carried.  The pulse maps z to p z + q J z*, p = alpha*,
    q = i beta, J = [[0, -1], [1, 0]].
    """
    d, a01, b00, b11, b01 = np.moveaxis(y, -1, 0)
    p, q = np.conj(alpha), 1j * beta
    c, r, pp, qq, pq = abs(p) ** 2 - abs(q) ** 2, p * np.conj(q), p * p, q * q, p * q
    return np.stack((c * d - 4.0 * (r * b01).real, c * a01 + r * b00 - np.conj(r * b11),
                     pp * b00 + qq * np.conj(b11) - 2.0 * pq * a01,
                     pp * b11 + qq * np.conj(b00) + 2.0 * pq * np.conj(a01),
                     pp * b01 - qq * np.conj(b01) + pq * d), axis=-1)


def _real_turn(alpha, beta) -> np.ndarray:
    """`_turn` at (alpha, beta) as the 10x10 real matrix T with y' = y @ T on the float view
    (..., 10) of node-major moments: row j is the image of the j-th real unit moment.
    alpha and beta of shape (n, 1) give n matrices."""
    return _turn(np.eye(10).view(complex), alpha, beta).view(float)


# The README grid has 22 distinct hard events; 64 matrices of 800 B hold 51 kB.
@functools.lru_cache(maxsize=64)
def _hard_turn(ev) -> np.ndarray:
    """`_real_turn` of a hard pulse, which acts alike at every node.  Its column of Im d is 0
    but for Im d's own row, so Im d stays 0."""
    t = _real_turn(*rotation_unitary(ev.rotation.phase, ev.rotation.angle * ev.amplitude_scale)[:, 0])
    t.setflags(write=False)
    return t


# The monomials of v = (a, b, c) that a quadratic form in v sums over.
_SQUARES = np.array([(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]).T


# The README grid has 45 distinct soft events; 64 forms of 4.8 kB hold 307 kB.
@functools.lru_cache(maxsize=64)
def _soft_form(ev) -> np.ndarray:
    """F, shape (6, 100), with `_real_turn` of a piece of the soft pulse ev at one node equal to
    (mu @ F).reshape(10, 10), mu the `_SQUARES` of v = (a, f delta, f), `_soft_rotation` (a, f):
    alpha = a - i f delta and beta = f `_soft_drive` are linear in v, so `_real_turn` is a real
    quadratic form in v, and F is its polarization."""
    units = np.array([(1, 0), (-1j, 0), (0, _soft_drive(ev))])  # (alpha, beta) at v = e_k
    k, l = _SQUARES
    t = _real_turn(*np.concatenate((units[k] + units[l], units[k] - units[l])).T[..., None])
    f = ((t[:len(k)] - t[len(k):]) / np.where(k == l, 4.0, 2.0)[:, None, None]).reshape(len(k), 100)
    f.setflags(write=False)
    return f


def _gram_of_moments(d, a01, b00, b11, b01) -> np.ndarray:
    """G = E[vec U vec U^dag] of the summed `_turn` moments, arranged exactly: vec U = (u*, -i v*, -i v, u)."""
    a, b, ac, bc = (1.0 + d.real) / 2, (1.0 - d.real) / 2, np.conj(a01), np.conj(b01)
    return np.array([[a, 1j * ac, 1j * bc, np.conj(b00)], [-1j * a01, b, np.conj(b11), -1j * bc],
                     [-1j * b01, b11, b, -1j * ac], [b00, 1j * b01, 1j * a01, a]])


def ou_moment(schedule, spec: OUNoiseSpec, offsets, weights) -> np.ndarray:
    """G = E[vec U vec U^dag] over the grid OU model, 4x4, vec row-major (`_gram_of_moments`).

    The noise average is exact up to the nodes: delta = sigma x_i + s_j, x_i the
    OU_NODES Gauss-Hermite nodes of the stationary OU part (one node if sigma is 0)
    and s_j the static offsets, of the given weights.  The grid OU model is a Markov
    chain, so its average is a discrete-variable representation (Light, Hamilton &
    Lill, JCP 82, 1400 (1985)) of Kubo's stochastic Liouville equation (J. Math.
    Phys. 4, 174 (1963)): the node-weighted moments of z (`_turn`) are walked in time,
    cut at every event boundary and `dt` grid point, each piece measured from its
    event's start.  They are held node-major, one row of 10 reals (5 complex) per node,
    so that each step is one or two numpy calls:
    a hard pulse is one matmul by its `_hard_turn`; a delay piece of length t turns B
    by e^{i delta t} in place, and a whole delay event or grid cell by its phase at
    its nominal length, duration or dt, cached for this call; a soft piece is
    every node's `_real_turn`, built from its `_soft_form`, applied as one batched
    matmul; and each grid point is one real matmul that mixes the OU nodes by Mehler's
    kernel (`_mehler`, a = exp(-dt / tau_c)).
    """
    x, w = hermite_nodes(OU_NODES if spec.sigma else 1)
    delta = (spec.sigma * x[:, None] + np.asarray(offsets, dtype=float)).reshape(-1)
    mix = _mehler(x, w, math.exp(-spec.dt / spec.tau_c))
    y = np.zeros((len(delta), 10))  # node (i, j) at row i * len(offsets) + j
    y[:, 0] = y[:, 4] = (w[:, None] * np.asarray(weights, dtype=float)).reshape(-1)  # q = (1, 0, 0, 0)

    def delay_phase(length, p=None):  # a delay's factor: 1 on d and A01, e^{i delta length} on B
        p = np.ones((len(delta), 5), dtype=complex) if p is None else p
        p[:, 2:] = np.exp(1j * length * delta)[:, None]
        return p

    cut, phases = delay_phase(0.0), {}  # phases by delay event, and None for a whole grid cell
    t, k = 0.0, 0  # on grid cell k, [k dt, (k + 1) dt)
    for ev in schedule.events:
        start, stop = t, t + ev.duration
        while True:
            end = min(stop, (k + 1) * spec.dt)
            # From the event's start, the last piece ending at its duration: end - t has the absolute rounding.
            length = (ev.duration if end == stop else end - start) - (t - start)
            if ev.kind == "delay":
                whole = t == start and end == stop
                if whole or (t != start and end != stop):  # the whole event, or a whole grid cell
                    key = ev if whole else None
                    if key not in phases:
                        phases[key] = delay_phase(ev.duration if whole else spec.dt)
                    y.view(complex)[...] *= phases[key]
                else:
                    y.view(complex)[...] *= delay_phase(length, cut)
            elif ev.duration == 0.0:
                y = y @ _hard_turn(ev)
            elif end > t:
                a, f = _soft_rotation(ev, delta, length)
                v = np.array((a, f * delta, f))
                node_turns = ((v[_SQUARES[0]] * v[_SQUARES[1]]).T @ _soft_form(ev)).reshape(-1, 10, 10)
                y = np.matmul(y[:, None, :], node_turns)[:, 0]
            if end == stop:
                break
            # Assign the grid point, never add the piece: rounding could stall the walk.
            t, k, y = end, k + 1, (mix @ y.reshape(len(x), -1)).reshape(-1, 10)
        t = stop
    return _gram_of_moments(*y.view(complex).sum(axis=0))


def channel_gram(schedule, noise_model) -> np.ndarray:
    """The system channel's 4x4 Gram matrix G = E[vec K vec K^dag], vec row-major, over operators
    K whose mean of K rho K^dag is the channel, so that output_ac = sum_be G_(ab),(ce) rho_be.

    None: vec U vec U^dag of the ideal propagator with amplitude scales applied.  SpinBathSpec, bath
    maximally mixed: `bath_average` of each `_bath_blocks` stack, summed and divided by d = 2**n_bath; no
    2d x 2d propagator is formed.  OUNoiseSpec: `ou_moment` at STATIC_NODES Gauss-Hermite offsets (one
    if sigma_static is 0).  Exact; nothing is sampled.
    A non-finite entry of G, or an eigenvalue below -1e-12, raises ValueError.
    """
    if noise_model is None:
        u = ideal_propagator(schedule, honor_amplitude=True).reshape(-1)
        g = np.outer(u, u.conj())
    elif isinstance(noise_model, OUNoiseSpec):
        x, w = hermite_nodes(STATIC_NODES if noise_model.sigma_static else 1)
        g = ou_moment(schedule, noise_model, noise_model.sigma_static * x, w)
    elif isinstance(noise_model, SpinBathSpec):
        g = sum(bath_average(b.reshape(len(b), 2, b.shape[1] // 2, 2, -1))
                for _, b in _bath_blocks(schedule, noise_model)).reshape(4, 4) / 2**noise_model.n_bath
    else:
        raise TypeError(f"unsupported noise model {type(noise_model).__name__}")
    if not np.isfinite(g).all():
        raise ValueError("the channel's Gram matrix is not finite")
    low = np.linalg.eigvalsh(g)[0]
    if low < -1e-12:
        raise ValueError(f"the channel's Gram matrix has eigenvalue {low:.3g} < -1e-12")
    return g


# Unused in src/; kept for tests/test_acceptance.py, whose criterion 05 imports it.
def bath_channel_output(u_full: np.ndarray, rho_sys: np.ndarray, n_bath: int) -> np.ndarray:
    """System output state, bath maximally mixed: sum_be G_(ab),(ce) rho_be, G the `bath_average` of u_full / d."""
    d = 2**n_bath
    return np.einsum("abce,be->ac", bath_average(np.reshape(u_full, (1, 2, d, 2, d))) / d, rho_sys)
