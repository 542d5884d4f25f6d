"""Dephasing noise models and their calibration.

Two families: a quantum spin bath (system-bath Ising coupling plus secular
dipolar intra-bath flip-flops) and a classical Ornstein-Uhlenbeck frequency
trajectory with an optional static inhomogeneous-broadening offset.  The
classical model is calibrated so its free-induction and Hahn-echo 1/e times
hit measured targets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_MAX_SPINS, IDENTITY_2, rotation_unitary, spin_half_operators

ONE_OVER_E = 1.0 / math.e

# The calibration skips the static offset when the OU part alone puts the FID
# time within this relative distance of its target (the equal-target case).
EQUAL_TARGET_RTOL = 0.01
# Bisection tolerance on log10(sigma): about 2e-6 relative in sigma.
LOG_SIGMA_TOL = 1e-6
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
    """Exact 1/e decay times of a fitted noise spec, and the spec.

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


def build_bath_hamiltonians(spec: SpinBathSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (H_S, H_SE, H_E) on the full system (x) bath space.

    H_S is the system offset, H_SE the Ising system-bath dephasing coupling,
    H_E the secular dipolar intra-bath coupling (flip-flop terms included).
    """
    n = spec.n_bath
    # site[k] = (S_x, S_y, S_z) on bath site k, identity elsewhere (bath space only).
    site = [[functools.reduce(np.kron, [c if j == k else IDENTITY_2 for j in range(n)], np.eye(1))
             for c in spin_half_operators()] for k in range(n)]
    sz, eye_b = spin_half_operators()[2], np.eye(2**n, dtype=complex)
    h_se, h_e_bath = np.zeros((2 * len(eye_b),) * 2, dtype=complex), np.zeros_like(eye_b)
    for k, b in enumerate(spec.couplings):
        h_se += b * np.kron(sz, site[k][2])
    for j in range(n):
        for k in range(j + 1, n):
            (xj, yj, zj), (xk, yk, zk) = site[j], site[k]
            h_e_bath += spec.bath_couplings[j, k] * (2 * zj @ zk - xj @ xk - yj @ yk)
    return spec.system_offset * np.kron(sz, eye_b), h_se, np.kron(IDENTITY_2, h_e_bath)


def total_hamiltonian(spec: SpinBathSpec) -> np.ndarray:
    return functools.reduce(np.add, build_bath_hamiltonians(spec))  # H_S + H_SE + H_E


@dataclass(frozen=True, eq=False)
class BathFrame:
    """Eigenframe of H_noise = diag(h0, h1), its blocks over the system's |0>, |1>.

    w: the eigenvalues of h0 then h1; v0, v1: their eigenvectors; link = v0^dag v1.
    An X on the system (x) bath space is held as Xt = diag(v0^dag, v1^dag) X.
    """

    w: np.ndarray
    v0: np.ndarray
    v1: np.ndarray
    link: np.ndarray

    def delay(self, xt: np.ndarray, t: float) -> np.ndarray:
        return np.exp(-1j * t * self.w)[:, None] * xt

    def rotate(self, xt: np.ndarray, r: np.ndarray) -> np.ndarray:
        """(r (x) I) X in the frame, for a 2x2 r: two d x d products, no kron."""
        x0, x1 = np.split(xt, 2)
        return np.vstack((r[0, 0] * x0 + r[0, 1] * (self.link @ x1),
                          r[1, 0] * (self.link.conj().T @ x0) + r[1, 1] * x1))

    def from_frame(self, xt: np.ndarray) -> np.ndarray:
        x0, x1 = np.split(xt, 2)
        return np.vstack((self.v0 @ x0, self.v1 @ x1))


_FRAMES: dict = {}  # the last 4 specs' frames, keyed by every SpinBathSpec field


def bath_frame(spec: SpinBathSpec) -> BathFrame:
    """The spec's BathFrame: one eigh per d x d block, built once per distinct spec."""
    key = (spec.n_bath, spec.couplings, spec.bath_couplings.tobytes(), spec.system_offset)
    if key not in _FRAMES:
        h, d = total_hamiltonian(spec), 2**spec.n_bath
        (w0, v0), (w1, v1) = np.linalg.eigh(h[:d, :d]), np.linalg.eigh(h[d:, d:])
        frame = BathFrame(np.concatenate((w0, w1)), v0, v1, v0.conj().T @ v1)
        for a in vars(frame).values():
            a.setflags(write=False)
        if len(_FRAMES) == 4:
            del _FRAMES[next(iter(_FRAMES))]
        _FRAMES[key] = frame
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


def _double_angle(x: np.ndarray, cos_out: np.ndarray, sin_out: np.ndarray) -> None:
    """Write cos 2x into cos_out and sin 2x into sin_out from t = tan x alone.

    cos 2x = (1 - t^2) / (1 + t^2) = 2 / (1 + t^2) - 1 and sin 2x = 2t / (1 + t^2).
    numpy's float64 tan runs in SIMD at a fraction of the cost of its cos, sin
    or complex exp, and the results agree with theirs to a few 1e-16 absolute.
    x is overwritten with t; one temporary of x's size is held.
    """
    np.tan(x, out=x)
    w = np.square(x)
    w += 1.0
    np.divide(2.0, w, out=w)
    np.multiply(x, w, out=sin_out)
    np.subtract(w, 1.0, out=cos_out)


def sample_ou_ensemble(
    spec: OUNoiseSpec,
    n_steps: int,
    n_realizations: int,
    seed: int,
    row_offset: int = 0,
) -> np.ndarray:
    """Dephasing-frequency rows, shape (n_realizations, n_steps + 1).

    All rows come from one Philox stream keyed by seed.  Row r owns the m =
    ceil((n_steps + 2) / 4) counter blocks from (row_offset + r) * m, reached by
    `advance`; Box-Muller turns each consecutive pair of their 4m raw words into
    two normals, taking the cosine and sine of the turn 2 pi u from the
    half-angle tangent tan(pi u) (`_double_angle`).  Normal 0 starts the
    exact-discretization OU recursion from the stationary distribution, normals
    1..n_steps drive it and normal n_steps + 1 is the static offset.  So row r
    depends only on (seed, row_offset + r, n_steps), however the rows are split
    into calls.  The normals are made in place, so the peak memory is about 2.5
    times the result's.  The result is a transposed view: each time step is
    contiguous over realizations.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    blocks = -(-(n_steps + 2) // 4)  # Philox yields 4 words per counter block
    bitgen = np.random.Philox(np.random.SeedSequence(seed))
    bitgen.advance(row_offset * blocks)
    raw = bitgen.random_raw(n_realizations * 4 * blocks)
    raw >>= np.uint64(11)
    u = np.add(raw, 0.5)  # casts the 53-bit words to float64 as it adds
    del raw
    u *= 2.0**-53
    u = u.reshape(n_realizations, 2 * blocks, 2)  # uniform on (0, 1)
    # In place, with at most three half-size temporaries, all freed before delta.
    radius, half_turn = np.sqrt(-2.0 * np.log(u[..., 0])), np.multiply(u[..., 1], math.pi)
    _double_angle(half_turn, u[..., 0], u[..., 1])
    u *= radius[..., None]
    del radius, half_turn
    g = u.reshape(n_realizations, 4 * blocks).T
    a = math.exp(-spec.dt / spec.tau_c)
    delta = np.multiply(spec.sigma * math.sqrt(1 - a * a), g[: n_steps + 1], order="C")
    delta[0] = spec.sigma * g[0]
    for k in range(n_steps):
        delta[k + 1] += a * delta[k]
    delta += spec.sigma_static * g[n_steps + 1]
    return delta.T


def _step_count(total_time: float, dt: float) -> int:
    return max(1, math.ceil(total_time / dt - 1e-9))


def _grid_point(t, dt: float, n_steps: int):
    """Step k = min(floor(t / dt), n_steps) and remainder f = max(t - k dt, 0) of time t."""
    k = np.minimum(np.floor(t / dt), n_steps).astype(int)
    return k, np.maximum(t - k * dt, 0.0)


def ou_phase(delta: np.ndarray, dt: float, t0: float, t1: float) -> np.ndarray:
    """Phase from t0 to t1 of each row of delta, held piecewise constant on the grid points
    (k0, f0), (k1, f1) of t0, t1: dt sum_{k0 <= j < k1} delta_j - f0 delta_k0 + f1 delta_k1."""
    n_steps = delta.shape[1] - 1
    (k0, f0), (k1, f1) = _grid_point(t0, dt, n_steps), _grid_point(t1, dt, n_steps)
    return dt * delta[:, k0:k1].sum(axis=1) - f0 * delta[:, k0] + f1 * delta[:, k1]


def _ou_coherences(spec: OUNoiseSpec, delays: np.ndarray, echo: bool) -> np.ndarray:
    """Exact ensemble coherence |<exp(i phi)>| = exp(-Var(phi) / 2) of the grid model.

    The OU-plus-static trajectory is Gaussian, so each FID phase phi(t) and
    echo phase phi(t) - 2 phi(t/2) is Gaussian too (Klauder & Anderson,
    Phys. Rev. 125, 912 (1962); Cywinski et al., PRB 77, 174509 (2008)).
    Cost and memory are O(len(delays)), whatever the trajectory length.
    """
    dt, x = spec.dt, spec.dt / spec.tau_c
    n_steps = _step_count(float(delays[-1]), dt)
    a, om = math.exp(-x), -math.expm1(-x)  # om = 1 - a

    def rise(n):  # 1 - a^n
        return -np.expm1(-n * x)

    def covariance(s, t):
        # Cov(phi(s), phi(t)) / sigma^2 for grid points s <= t, where phi at (k, f)
        # is dt * sum_{j<k} delta_j + f * delta_k and Cov(delta_i, delta_j) =
        # sigma^2 a^|i-j|: each double sum is a geometric series.
        (ks, fs), (kt, ft) = s, t
        m = kt - ks
        blocks = (ks * (1 + a) * om - a * rise(ks) * (2 - rise(m))) / om**2
        point_t = np.exp(-(m + 1) * x) * rise(ks) / om
        point_s = (rise(ks + 1) + a * rise(m - 1)) / om
        return dt * dt * blocks + dt * (ft * point_t + fs * point_s) + fs * ft * np.exp(-m * x)

    end = _grid_point(delays, dt, n_steps)
    var_ou = covariance(end, end)
    area = end[0] * dt + end[1]  # sum of the phase weights, seen by the static offset
    if echo:
        mid = _grid_point(delays / 2.0, dt, n_steps)
        var_ou = var_ou + 4.0 * (covariance(mid, mid) - covariance(mid, end))
        area = area - 2.0 * (mid[0] * dt + mid[1])
    return np.exp(-0.5 * (spec.sigma**2 * var_ou + spec.sigma_static**2 * area**2))


def _bath_coherences(spec: SpinBathSpec, delays: np.ndarray, echo: bool) -> np.ndarray:
    frame, dim_b = bath_frame(spec), 2**spec.n_bath
    # The columns |+> (x) |b> (unnormalised) over the bath basis b, in the frame.
    start = np.vstack((frame.v0.conj().T, frame.v1.conj().T))
    out = np.empty(len(delays))
    for i, t in enumerate(delays):
        xt = frame.delay(start, t / 2.0)
        xt = frame.rotate(xt, rotation_unitary(0.0, math.pi)) if echo else xt
        y = frame.from_frame(frame.delay(xt, t / 2.0))
        # The bath average of <1|rho|0> is the trace over b of the two system rows.
        out[i] = abs(np.vdot(y[dim_b:], y[:dim_b])) / dim_b
    return out


def _decay_curve(noise, delays, echo: bool):
    delays = np.asarray(delays, dtype=float)
    if delays.size == 0 or delays[0] < 0 or np.any(np.diff(delays) <= 0):
        raise ValueError("delays must be non-negative and increasing")
    if isinstance(noise, OUNoiseSpec):
        coh = _ou_coherences(noise, delays, echo)
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


def _bisect_decreasing(f, lo: float, hi: float, what: str) -> float:
    """Root of a decreasing f on [lo, hi] to LOG_SIGMA_TOL, after checking the bracket."""
    if not f(lo) > 0 > f(hi):
        raise CalibrationError(f"{what} not bracketed in [1e{lo:.1f}, 1e{hi:.1f}] rad/s")
    while hi - lo > LOG_SIGMA_TOL:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def calibrate_to_targets(target_t2_star: float, target_t2_hahn: float) -> CalibrationResult:
    """Fit an OU-plus-static model to FID and Hahn 1/e time targets.

    The OU amplitude is solved against the Hahn target by bisection on
    log10(sigma) (static offsets refocus exactly, so they drop out of the
    echo); tau_c is halved until the OU part alone brings the FID time above
    (1 - EQUAL_TARGET_RTOL) x its target; unless it is then within that
    tolerance, the static width is solved against the FID target.  All times
    come from the exact curves: the fit is deterministic and needs no seed.
    """
    if not 0 < target_t2_star <= target_t2_hahn < math.inf:
        raise ValueError("targets must satisfy 0 < target_t2_star <= target_t2_hahn < inf")
    delays = np.linspace(0.0, 3.0 * target_t2_hahn, 181)

    def decay_time(curve_fn, sigma, tau_c, sigma_static=0.0):
        try:
            return coherence_1e_time(curve_fn(OUNoiseSpec(sigma, tau_c, tau_c / 10, sigma_static), delays))
        except ValueError:
            return math.inf

    tau_c = target_t2_hahn / 5.0
    fid_ou = math.nan
    for _ in range(MAX_TAU_C_HALVINGS + 1):
        sigma = 10.0 ** _bisect_decreasing(
            lambda ls: decay_time(hahn_decay_curve, 10.0**ls, tau_c) - target_t2_hahn,
            2.0, 7.5, f"Hahn target {target_t2_hahn:.3g} s by sigma at tau_c={tau_c:.3g} s",
        )
        fid_ou = decay_time(fid_decay_curve, sigma, tau_c)
        # Each halving doubles the trajectory step count of the fitted model.
        if fid_ou >= (1.0 - EQUAL_TARGET_RTOL) * target_t2_star:
            break
        tau_c /= 2.0
    else:
        raise CalibrationError(
            f"OU-only FID time {fid_ou:.3g} s stayed below the {target_t2_star:.3g} s "
            f"target after {MAX_TAU_C_HALVINGS} tau_c halvings"
        )

    sigma_static = 0.0
    if fid_ou > (1.0 + EQUAL_TARGET_RTOL) * target_t2_star:
        sigma_static = 10.0 ** _bisect_decreasing(
            lambda ls: decay_time(fid_decay_curve, sigma, tau_c, 10.0**ls) - target_t2_star,
            0.5, 6.5, f"FID target {target_t2_star:.3g} s by sigma_static",
        )

    # Both times are finite: the echo was solved to its target, and FID decays faster.
    return CalibrationResult(
        decay_time(fid_decay_curve, sigma, tau_c, sigma_static),
        decay_time(hahn_decay_curve, sigma, tau_c, sigma_static),
        OUNoiseSpec(sigma, tau_c, tau_c / 10, sigma_static),
    )
