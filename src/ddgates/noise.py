"""Dephasing noise models: the quantum spin bath and the one trace over it, and the decay curves of either model.

Two families: a quantum spin bath (system-bath Ising coupling plus secular
dipolar intra-bath flip-flops) and a classical Ornstein-Uhlenbeck frequency
trajectory with an optional static inhomogeneous-broadening offset.  The
classical model, its phase variance and its calibration to measured
free-induction and Hahn-echo 1/e times live in `ou`, which needs no numpy;
their names are re-exported here.  Nothing here propagates: the bath's decay
curves read `simulate.channel_gram`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_MAX_SPINS
from .ou import (  # those noise does not use are re-exported for its callers
    CalibrationError,
    CalibrationResult,
    OUNoiseSpec,
    calibrate_to_targets,
    coherence_1e_time,
    ou_coherence,
    phase_variance,
)


@dataclass(frozen=True, eq=False)
class SpinBathSpec:
    """Quantum bath: Ising couplings to the system, dipolar couplings within."""

    n_bath: int
    couplings: tuple[float, ...]  # b_k, rad/s
    bath_couplings: np.ndarray  # d_jk, rad/s, symmetric, zero diagonal
    system_offset: float = 0.0  # omega_S, rad/s

    def __post_init__(self):
        if isinstance(self.n_bath, bool) or not hasattr(type(self.n_bath), "__index__"):  # numpy's integers load
            raise ValueError(f"n_bath must be an integer, got {self.n_bath!r}")
        object.__setattr__(self, "n_bath", int(self.n_bath))
        if not 0 <= self.n_bath < DEFAULT_MAX_SPINS:
            raise ValueError(f"n_bath must lie in [0, {DEFAULT_MAX_SPINS - 1}], got {self.n_bath}: "
                             f"the system plus bath holds at most {DEFAULT_MAX_SPINS} spins")
        object.__setattr__(self, "couplings", tuple(float(b) for b in self.couplings))
        if len(self.couplings) != self.n_bath:
            raise ValueError(f"expected {self.n_bath} couplings, got {len(self.couplings)}")
        d = np.array(self.bath_couplings, dtype=float)
        if d.shape == (0,):  # the 0x0 matrix as JSON writes it, []
            d = d.reshape(0, 0)
        if d.shape != (self.n_bath, self.n_bath):
            raise ValueError(f"bath_couplings must be {self.n_bath}x{self.n_bath}")
        if not (np.all(np.isfinite(self.couplings)) and np.all(np.isfinite(d))
                and math.isfinite(self.system_offset)):
            raise ValueError("couplings, bath_couplings and system_offset must be finite")
        if self.n_bath and (np.any(d != d.T) or np.any(np.diag(d) != 0.0)):
            raise ValueError("bath_couplings must be symmetric with zero diagonal")
        d.setflags(write=False)
        object.__setattr__(self, "bath_couplings", d)


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
    sector blocks.
    """

    w: np.ndarray
    v0: np.ndarray
    v1: np.ndarray
    link: np.ndarray
    index: np.ndarray

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


def default_spin_bath(
    n_bath: int = 4,
    seed: int = 2024,
    system_offset: float = 0.0,
) -> SpinBathSpec:
    """Reproducible desk-scale bath: b_k log-uniform in [1e4, 8e4] rad/s, and
    d_jk = 2.5e4 rad/s x (3 cos^2 theta - 1) / 2 at random orientations theta."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    b = 10 ** rng.uniform(math.log10(1e4), math.log10(8e4), n_bath)
    d = np.zeros((n_bath, n_bath))
    for j in range(n_bath):
        for k in range(j + 1, n_bath):
            cos_t = rng.uniform(-1.0, 1.0)
            d[j, k] = d[k, j] = 2.5e4 * (3 * cos_t**2 - 1) / 2
    return SpinBathSpec(n_bath, tuple(b), d, system_offset)


def bath_average(blocks: np.ndarray) -> np.ndarray:
    """The bath trace: sum over s, j, k of U_(aj),(bk) U*_(cj),(ek), shape (2, B, 2, B), of propagator
    blocks U of shape (S, 2, k, B, k): S sectors of k bath states; system row a, bath row j, input
    column b, bath column k.  Over all sectors and divided by the bath dimension d, it is the G of
    Tr_B U (rho (x) I / d) U^dag = sum_be G_(ab),(ce) rho_be, the maximally mixed bath traced out."""
    return np.einsum("sajbk,scjek->abce", blocks, blocks.conj())


def _decay_curve(noise, delays, echo: bool):
    """(delay, 2|rho_01|) of a +x state after each delay, refocused by a pi_x at its middle if echo: OU
    `ou_coherence`, or for the bath `simulate.channel_gram` of (t/2, t/2) or (t/2, pi_x, t/2); exact."""
    delays = np.asarray(delays, dtype=float)
    if delays.ndim != 1:
        raise ValueError(f"delays must be one-dimensional, got shape {delays.shape}")
    if not np.all(np.isfinite(delays)):
        raise ValueError(f"delays must be finite, got {delays[~np.isfinite(delays)][0]}")
    if delays.size == 0 or delays[0] < 0 or np.any(np.diff(delays) <= 0):
        raise ValueError("delays must be non-negative and increasing")
    if isinstance(noise, OUNoiseSpec):
        coh = ou_coherence(noise, delays.tolist(), echo)
    elif isinstance(noise, SpinBathSpec):
        from .compiler import PulseEvent, RotationSpec, Schedule  # they import simulate, which imports noise
        from .simulate import channel_gram
        pi_x = (PulseEvent("hard_pulse", 0.0, RotationSpec(0.0, math.pi)),) if echo else ()
        halves = [PulseEvent("delay", t / 2) for t in delays.tolist()]
        grams = (channel_gram(Schedule((half, *pi_x, half), np.eye(2), "decay"), noise) for half in halves)
        coh = [float(abs(g.reshape(2, 2, 2, 2)[0, :, 1, :].sum())) for g in grams]  # 2|rho_01|, rho = G |+><+|
    else:
        raise TypeError(f"unsupported noise model {type(noise).__name__}")
    return list(zip(delays.tolist(), coh))


def fid_decay_curve(noise, delays):
    """Exact free-induction coherence of an initial +x state at each delay."""
    return _decay_curve(noise, delays, echo=False)


def hahn_decay_curve(noise, delays):
    """Exact coherence at each delay with an ideal pi_x refocusing pulse at delay/2."""
    return _decay_curve(noise, delays, echo=True)
