"""Dephasing noise models and their calibration.

Two families: a quantum spin bath (system-bath Ising coupling plus secular
dipolar intra-bath flip-flops) and a classical Ornstein-Uhlenbeck frequency
trajectory with an optional static inhomogeneous-broadening offset.  The
classical model is calibrated so its free-induction and Hahn-echo 1/e times
hit measured targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_MAX_SPINS, rotation_unitary

ONE_OVER_E = 1.0 / math.e

# The calibration skips the static offset when the OU part alone puts the FID
# time within this relative distance of its target (the equal-target case).
EQUAL_TARGET_RTOL = 0.01
# The calibration gives up after this many halvings of tau_c.
MAX_TAU_C_HALVINGS = 12


@dataclass(frozen=True, eq=False)
class SpinBathSpec:
    """Quantum bath: Ising couplings to the system, dipolar couplings within."""

    n_bath: int
    couplings: tuple[float, ...]  # b_k, rad/s
    bath_couplings: np.ndarray  # d_jk, rad/s, symmetric, zero diagonal
    system_offset: float = 0.0  # omega_S, rad/s

    def __post_init__(self):
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


@dataclass(frozen=True)
class OUNoiseSpec:
    """Classical dephasing frequency: OU process plus optional static offset."""

    sigma: float  # stationary std of the fluctuating part, rad/s
    tau_c: float  # correlation time, s
    dt: float  # trajectory step, s
    sigma_static: float = 0.0  # std of the per-realization static offset, rad/s

    def __post_init__(self):
        # Chained comparisons are False for NaN, so these also reject NaN and inf.
        if not (0 <= self.sigma < math.inf and 0 <= self.sigma_static < math.inf):
            raise ValueError("sigma and sigma_static must be finite and non-negative")
        if not 0 < self.tau_c < math.inf:
            raise ValueError("tau_c must be positive and finite")
        # dt must resolve the correlation time.
        if not 0 < self.dt <= self.tau_c / 10 * (1 + 1e-12):
            raise ValueError("dt must satisfy 0 < dt <= tau_c / 10")


class CalibrationError(RuntimeError):
    """Raised when the noise parameters cannot reach the requested targets."""


@dataclass(frozen=True)
class CalibrationResult:
    """1/e decay times of a fitted noise spec, read off its exact curves, and the spec.

    An echo never has more phase variance than free induction of the same
    length, so fitted_t2_star <= fitted_t2_hahn always holds.
    """

    fitted_t2_star: float
    fitted_t2_hahn: float
    params: OUNoiseSpec

    def __post_init__(self):
        if self.fitted_t2_star <= 0 or self.fitted_t2_hahn <= 0:
            raise ValueError("fitted times must be positive")
        if self.fitted_t2_star > self.fitted_t2_hahn:
            raise ValueError("fitted_t2_star must not exceed fitted_t2_hahn")


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
    bath basis states grouped by its diagonal, and each block is diagonalised on
    each sector alone.  A 6-spin bath has 7 sectors of 1, 6, 15, 20, 15, 6 and 1
    states, held as four stacks of 2, 2, 2 and 1 sectors.
    """
    key = (spec.n_bath, spec.couplings, spec.bath_couplings.tobytes(), spec.system_offset)
    if key not in _FRAMES:
        n, d = spec.n_bath, 2**spec.n_bath
        states = np.arange(d)
        # S_z^k is +1/2 or -1/2 as bit n - 1 - k of the basis state (spin 0 first) is 0 or 1.
        bits = [1 << (n - 1 - k) for k in range(n)]
        sz = [0.5 - ((states & bit) > 0) for bit in bits]
        h_e = np.zeros((d, d), dtype=complex)
        for j in range(n):
            for k in range(j + 1, n):
                # 2 S_z^j S_z^k on the diagonal; the flip-flop -(S_x^j S_x^k + S_y^j S_y^k)
                # is -1/2 between the two states that swap bits j and k.
                h_e[states, states] += spec.bath_couplings[j, k] * (2 * sz[j] * sz[k])
                swap = states[sz[j] != sz[k]]
                h_e[swap, swap ^ (bits[j] | bits[k])] += spec.bath_couplings[j, k] * -0.5
        shift = 0.5 * spec.system_offset + sum(map(np.multiply, spec.couplings, sz), np.zeros(d)) / 2
        # The diagonal of sum_k S_z^k holds exact half-integers: n / 2 - j on the comb(n, j)
        # states with j spins down, sector j.
        mz = sum(sz, np.zeros(d))
        frames = []
        for size in sorted({math.comb(n, j) for j in range(n + 1)}):
            rows = np.array([np.flatnonzero(mz == n / 2 - j) for j in range(n + 1) if math.comb(n, j) == size])
            blocks, diag = h_e[rows[:, :, None], rows[:, None, :]], shift[rows][:, :, None] * np.eye(size)
            w, v = np.linalg.eigh(np.stack((blocks + diag, blocks - diag)))
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


def _step_count(total_time: float, dt: float) -> int:
    return max(1, math.ceil(total_time / dt - 1e-9))


def _grid_point(t, dt: float, n_steps: int):
    """Step k = min(floor(t / dt), n_steps) and remainder f = max(t - k dt, 0) of time t."""
    k = np.minimum(np.floor(t / dt), n_steps).astype(int)
    return k, np.maximum(t - k * dt, 0.0)


def _covariance(x: float, dt: float, s, t):
    """Cov(phi(s), phi(t)) / sigma^2 of the unit OU part at grid points s <= t, x = dt / tau_c.

    phi at (k, f) is dt * sum_{j<k} delta_j + f * delta_k and Cov(delta_i, delta_j)
    = sigma^2 a^|i-j|, a = exp(-x): each double sum is a geometric series.
    """
    a, om = math.exp(-x), -math.expm1(-x)  # om = 1 - a

    def rise(n):  # 1 - a^n
        return -np.expm1(-n * x)

    (ks, fs), (kt, ft) = s, t
    m = kt - ks
    blocks = (ks * (1 + a) * om - a * rise(ks) * (2 - rise(m))) / om**2
    point_t = np.exp(-(m + 1) * x) * rise(ks) / om
    point_s = (rise(ks + 1) + a * rise(m - 1)) / om
    return dt * dt * blocks + dt * (ft * point_t + fs * point_s) + fs * ft * np.exp(-m * x)


def phase_variance(spec: OUNoiseSpec, edges, weights):
    """Var of sum_j w_j (phi(t_j) - phi(t_{j-1})), t_0 = 0, for the grid model.

    edges are the times t_1 <= .. <= t_J (scalars, or arrays of curve points),
    weights the w_j.  With c_j = w_j - w_{j+1} (w_{J+1} = 0) the sum is
    sum_j c_j phi(t_j), and its variance is sigma^2 sum_ij c_i c_j C_ij +
    sigma_static^2 (sum_j c_j t_j)^2, C_ij the `_covariance` of phi(t_i) and
    phi(t_j): O(J^2) per curve point, whatever the trajectory length.  FID is
    ((t,), (1,)), a Hahn echo ((t/2, t), (1, -1)) (Cywinski et al., PRB 77,
    174509 (2008)).
    """
    dt, x = spec.dt, spec.dt / spec.tau_c
    n_steps = _step_count(float(np.max(edges[-1])), dt)
    points = [_grid_point(np.asarray(t, dtype=float), dt, n_steps) for t in edges]
    c = np.subtract(weights, np.append(weights[1:], 0.0)).tolist()
    var_ou = area = 0.0
    for i, p in enumerate(points):
        row = c[i] * _covariance(x, dt, p, p) + 2.0 * sum(
            c[j] * _covariance(x, dt, p, points[j]) for j in range(i + 1, len(points)))
        var_ou = var_ou + c[i] * row
        area = area + c[i] * (p[0] * dt + p[1])  # the static offset sees the grid time
    return spec.sigma**2 * var_ou + spec.sigma_static**2 * area**2


def _bath_coherences(spec: SpinBathSpec, delays: np.ndarray, echo: bool) -> np.ndarray:
    total = np.zeros(len(delays), dtype=complex)
    for frame in bath_frame(spec):
        # The columns |+> (x) |b> (unnormalised) over the stack's bath states b, in the frame.
        start = np.concatenate((frame.v0.conj().swapaxes(1, 2), frame.v1.conj().swapaxes(1, 2)), axis=1)
        flip = frame.pulse(rotation_unitary(0.0, math.pi))
        for i, t in enumerate(delays):
            xt = frame.delay(start, t / 2.0)
            xt = flip @ xt if echo else xt
            y0, y1 = np.split(frame.from_frame(frame.delay(xt, t / 2.0)), 2, axis=1)
            # The bath average of <1|rho|0> is the trace over b of the two system rows.
            total[i] += np.vdot(y1, y0)
    return np.abs(total) / 2**spec.n_bath


def _decay_curve(noise, delays, echo: bool):
    delays = np.asarray(delays, dtype=float)
    if not np.all(np.isfinite(delays)):
        raise ValueError(f"delays must be finite, got {delays[~np.isfinite(delays)][0]}")
    if delays.size == 0 or delays[0] < 0 or np.any(np.diff(delays) <= 0):
        raise ValueError("delays must be non-negative and increasing")
    if isinstance(noise, OUNoiseSpec):
        # The trajectory is Gaussian, so each phase is too, and the coherence is
        # exp(-Var(phi) / 2) (Klauder & Anderson, Phys. Rev. 125, 912 (1962)).
        edges, weights = ((delays / 2.0, delays), (1.0, -1.0)) if echo else ((delays,), (1.0,))
        coh = np.exp(-0.5 * phase_variance(noise, edges, weights))
    elif isinstance(noise, SpinBathSpec):
        # The maximally mixed bath average is exact; no sampling involved.
        coh = _bath_coherences(noise, delays, echo)
    else:
        raise TypeError(f"unsupported noise model {type(noise).__name__}")
    return list(zip(delays.tolist(), coh.tolist()))


def fid_decay_curve(noise, delays):
    """Exact free-induction coherence of an initial +x state at each delay."""
    return _decay_curve(noise, delays, echo=False)


def hahn_decay_curve(noise, delays):
    """Exact coherence at each delay with an ideal pi_x refocusing pulse at delay/2."""
    return _decay_curve(noise, delays, echo=True)


def coherence_1e_time(curve) -> float:
    """First 1/e crossing of a (delay, coherence) curve, linearly interpolated."""
    times = np.asarray([p[0] for p in curve], dtype=float)
    coh = np.asarray([p[1] for p in curve], dtype=float)
    below = np.nonzero(coh < ONE_OVER_E)[0]
    if below.size == 0:
        raise ValueError("coherence never crosses 1/e within the delay grid")
    i = int(below[0])
    if i == 0:
        raise ValueError("coherence starts below 1/e; extend the grid toward 0")
    f = (coh[i - 1] - ONE_OVER_E) / (coh[i - 1] - coh[i])
    return float(times[i - 1] + f * (times[i] - times[i - 1]))


def _solved(value: float, lo: float, hi: float, what: str) -> float:
    if not lo <= value <= hi:
        raise CalibrationError(f"{what} is {value:.3g} rad/s, outside [{lo:.3g}, {hi:.3g}] rad/s")
    return value


def calibrate_to_targets(target_t2_star: float, target_t2_hahn: float) -> CalibrationResult:
    """Fit an OU-plus-static model to FID and Hahn 1/e time targets, in closed form.

    The coherence is exp(-(sigma^2 V + sigma_static^2 t^2) / 2), V the phase
    variance at unit sigma (`phase_variance`), and static offsets refocus in
    the echo.  So sigma = sqrt(2 / V_hahn(T2)) puts the Hahn 1/e time exactly on
    its target; tau_c is halved until the OU part alone brings the FID time to
    at least (1 - EQUAL_TARGET_RTOL) x its target; unless that time is then
    within the same tolerance, sigma_static = sqrt(2 - sigma^2 V_fid(T2*)) / T2*
    puts the FID time exactly on its target.  A sigma outside [1e2, 10^7.5]
    rad/s or a sigma_static outside [10^0.5, 10^6.5] rad/s raises
    CalibrationError.  The fit is deterministic and needs no seed; the fitted
    times it reports are the linear read-outs of 181-point curves over
    [0, 3 T2], which land within a few 1e-4 (relative) of the exact targets.
    """
    if not 0 < target_t2_star <= target_t2_hahn < math.inf:
        raise ValueError("targets must satisfy 0 < target_t2_star <= target_t2_hahn < inf")

    def fid_variance(t):  # of the OU part at the current sigma and tau_c
        return sigma**2 * phase_variance(unit, (t,), (1.0,))

    tau_c = target_t2_hahn / 5.0
    for _ in range(MAX_TAU_C_HALVINGS + 1):
        unit = OUNoiseSpec(1.0, tau_c, tau_c / 10)
        sigma = _solved(math.sqrt(2.0 / phase_variance(unit, (target_t2_hahn / 2, target_t2_hahn), (1.0, -1.0))),
                        1e2, 10**7.5, f"sigma for the Hahn target {target_t2_hahn:.3g} s at tau_c={tau_c:.3g} s")
        # Each halving doubles the trajectory step count of the fitted model.
        if fid_variance((1.0 - EQUAL_TARGET_RTOL) * target_t2_star) <= 2.0:
            break
        tau_c /= 2.0
    else:
        raise CalibrationError(
            f"OU-only FID time stayed below {1.0 - EQUAL_TARGET_RTOL:g} x the {target_t2_star:.3g} s "
            f"target after {MAX_TAU_C_HALVINGS} tau_c halvings"
        )
    sigma_static = 0.0
    if fid_variance((1.0 + EQUAL_TARGET_RTOL) * target_t2_star) < 2.0:
        sigma_static = _solved(math.sqrt(2.0 - fid_variance(target_t2_star)) / target_t2_star,
                               10**0.5, 10**6.5, f"sigma_static for the FID target {target_t2_star:.3g} s")
    params = OUNoiseSpec(sigma, tau_c, tau_c / 10, sigma_static)
    delays = np.linspace(0.0, 3.0 * target_t2_hahn, 181)
    return CalibrationResult(coherence_1e_time(fid_decay_curve(params, delays)),
                             coherence_1e_time(hahn_decay_curve(params, delays)), params)
