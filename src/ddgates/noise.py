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
from scipy.optimize import brentq

from .core import DEFAULT_MAX_SPINS, IDENTITY_2, rotation_unitary, spin_half_operators

ONE_OVER_E = 1.0 / math.e

# Row chunking keeps ensemble memory bounded for long trajectories.
_CHUNK_BUDGET = 4_000_000


@dataclass(frozen=True, eq=False)
class SpinBathSpec:
    """Quantum bath: Ising couplings to the system, dipolar couplings within."""

    n_bath: int
    couplings: tuple[float, ...]  # b_k, rad/s
    bath_couplings: np.ndarray  # d_jk, rad/s, symmetric, zero diagonal
    system_offset: float = 0.0  # omega_S, rad/s

    def __post_init__(self):
        if self.n_bath < 0:
            raise ValueError("n_bath must be non-negative")
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
    """Measured 1/e decay times and the noise spec that produced them.

    For near-equal targets the two Monte-Carlo estimates are statistically
    tied; the calibration orders the reported pair in that case, so the
    refocusing inequality fitted_t2_star <= fitted_t2_hahn always holds.
    """

    fitted_t2_star: float
    fitted_t2_hahn: float
    params: OUNoiseSpec

    def __post_init__(self):
        if self.fitted_t2_star <= 0 or self.fitted_t2_hahn <= 0:
            raise ValueError("fitted times must be positive")
        if self.fitted_t2_star > self.fitted_t2_hahn:
            raise ValueError("fitted_t2_star must not exceed fitted_t2_hahn")


def _bath_site_operator(n_bath: int, site: int, component: np.ndarray) -> np.ndarray:
    """Spin-1/2 `component` on one bath site, identity elsewhere (bath space only)."""
    op = np.eye(1, dtype=complex)
    for k in range(n_bath):
        op = np.kron(op, component if k == site else IDENTITY_2)
    return op


def build_bath_hamiltonians(spec: SpinBathSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (H_S, H_SE, H_E) on the full system (x) bath space.

    H_S is the system offset, H_SE the Ising system-bath dephasing coupling,
    H_E the secular dipolar intra-bath coupling (flip-flop terms included).
    """
    n = spec.n_bath
    if 1 + n > DEFAULT_MAX_SPINS:
        raise ValueError(f"{1 + n} total spins exceeds the maximum of {DEFAULT_MAX_SPINS}")
    sx, sy, sz = spin_half_operators()
    dim_b = 2**n
    eye_b = np.eye(dim_b, dtype=complex)
    h_s = spec.system_offset * np.kron(sz, eye_b)
    h_se = np.zeros((2 * dim_b, 2 * dim_b), dtype=complex)
    for k, b in enumerate(spec.couplings):
        h_se += b * np.kron(sz, _bath_site_operator(n, k, sz))
    h_e_bath = np.zeros((dim_b, dim_b), dtype=complex)
    for j in range(n):
        for k in range(j + 1, n):
            d = spec.bath_couplings[j, k]
            if d == 0.0:
                continue
            zz = _bath_site_operator(n, j, sz) @ _bath_site_operator(n, k, sz)
            xx = _bath_site_operator(n, j, sx) @ _bath_site_operator(n, k, sx)
            yy = _bath_site_operator(n, j, sy) @ _bath_site_operator(n, k, sy)
            h_e_bath += d * (2 * zz - xx - yy)
    h_e = np.kron(IDENTITY_2, h_e_bath)
    return h_s, h_se, h_e


def total_hamiltonian(spec: SpinBathSpec) -> np.ndarray:
    h_s, h_se, h_e = build_bath_hamiltonians(spec)
    return h_s + h_se + h_e


def default_spin_bath(
    n_bath: int = 4,
    seed: int = 2024,
    coupling_band: tuple[float, float] = (1e4, 8e4),
    dipolar_scale: float = 2.5e4,
    system_offset: float = 0.0,
) -> SpinBathSpec:
    """Reproducible desk-scale bath: log-uniform b_k, random-orientation d_jk."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    lo, hi = coupling_band
    if not 0 < lo <= hi:
        raise ValueError("coupling_band must be 0 < low <= high")
    b = 10 ** rng.uniform(math.log10(lo), math.log10(hi), n_bath)
    d = np.zeros((n_bath, n_bath))
    for j in range(n_bath):
        for k in range(j + 1, n_bath):
            cos_t = rng.uniform(-1.0, 1.0)
            d[j, k] = d[k, j] = dipolar_scale * (3 * cos_t**2 - 1) / 2
    return SpinBathSpec(n_bath, tuple(b), d, system_offset)


def _realization_normals(seed: int, realization: int, count: int) -> np.ndarray:
    """Standard normals from a counter-based stream keyed by (seed, realization)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(realization,))
    return np.random.Generator(np.random.Philox(ss)).standard_normal(count)


def sample_ou_ensemble(
    spec: OUNoiseSpec,
    n_steps: int,
    n_realizations: int,
    seed: int,
    row_offset: int = 0,
) -> np.ndarray:
    """Dephasing-frequency rows, shape (n_realizations, n_steps + 1).

    Row r is the exact-discretization OU recursion driven by the stream keyed
    by (seed, row_offset + r), started from the stationary distribution, plus
    that realization's static offset.  Independent of evaluation order.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    a = math.exp(-spec.dt / spec.tau_c)
    s = spec.sigma * math.sqrt(1 - a * a)
    g = np.empty((n_realizations, n_steps + 2))
    for r in range(n_realizations):
        g[r] = _realization_normals(seed, row_offset + r, n_steps + 2)
    delta = np.empty((n_realizations, n_steps + 1))
    delta[:, 0] = spec.sigma * g[:, 0]
    for k in range(n_steps):
        delta[:, k + 1] = delta[:, k] * a + s * g[:, k + 1]
    if spec.sigma_static:
        delta += spec.sigma_static * g[:, -1][:, None]
    return delta


def _step_count(total_time: float, dt: float) -> int:
    return max(1, math.ceil(total_time / dt - 1e-9))


def ou_phase_rows(delta: np.ndarray, dt: float) -> np.ndarray:
    """Accumulated phase at the grid points: phi[:, k] = sum_{j<k} delta[:, j] * dt."""
    phi = np.zeros_like(delta)
    np.cumsum(delta[:, :-1] * dt, axis=1, out=phi[:, 1:])
    return phi


def ou_phase_at(phi: np.ndarray, delta: np.ndarray, dt: float, t: float) -> np.ndarray:
    """Phase at arbitrary time t under the piecewise-constant trajectory model."""
    n_steps = delta.shape[1] - 1
    k = min(int(t / dt), n_steps)
    frac = max(t - k * dt, 0.0)
    return phi[:, k] + delta[:, k] * frac


def _ou_coherences(
    spec: OUNoiseSpec, delays: np.ndarray, n_realizations: int, seed: int, echo: bool
) -> np.ndarray:
    n_steps = _step_count(float(delays[-1]), spec.dt) if delays[-1] > 0 else 1
    acc = np.zeros(len(delays), dtype=complex)
    chunk = max(1, _CHUNK_BUDGET // (n_steps + 2))
    for r0 in range(0, n_realizations, chunk):
        rows = min(chunk, n_realizations - r0)
        delta = sample_ou_ensemble(spec, n_steps, rows, seed, row_offset=r0)
        phi = ou_phase_rows(delta, spec.dt)
        for i, t in enumerate(delays):
            p = ou_phase_at(phi, delta, spec.dt, float(t))
            if echo:
                p = p - 2.0 * ou_phase_at(phi, delta, spec.dt, float(t) / 2.0)
            acc[i] += np.exp(1j * p).sum()
    return np.abs(acc) / n_realizations


def _bath_coherences(spec: SpinBathSpec, delays: np.ndarray, echo: bool) -> np.ndarray:
    h = total_hamiltonian(spec)
    w, v = np.linalg.eigh(h)
    dim_b = 2**spec.n_bath
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    rho0 = np.kron(plus, np.eye(dim_b, dtype=complex) / dim_b)
    pi_x = np.kron(rotation_unitary(0.0, math.pi), np.eye(dim_b, dtype=complex))

    def propagator(t):
        return (v * np.exp(-1j * w * t)) @ v.conj().T

    out = np.empty(len(delays))
    for i, t in enumerate(delays):
        u = propagator(float(t))
        if echo:
            half = propagator(float(t) / 2.0)
            u = half @ pi_x @ half
        rho_s = np.trace((u @ rho0 @ u.conj().T).reshape(2, dim_b, 2, dim_b), axis1=1, axis2=3)
        out[i] = 2.0 * abs(rho_s[0, 1])
    return out


def _decay_curve(noise, delays, n_realizations: int, seed: int, echo: bool):
    delays = np.asarray(delays, dtype=float)
    if delays.size == 0 or delays[0] < 0 or np.any(np.diff(delays) <= 0):
        raise ValueError("delays must be non-negative and increasing")
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    if isinstance(noise, OUNoiseSpec):
        coh = _ou_coherences(noise, delays, n_realizations, seed, echo)
    elif isinstance(noise, SpinBathSpec):
        # The maximally mixed bath average is exact; no sampling involved.
        coh = _bath_coherences(noise, delays, echo)
    else:
        raise TypeError(f"unsupported noise model {type(noise).__name__}")
    return list(zip(delays.tolist(), coh.tolist()))


def fid_decay_curve(noise, delays, n_realizations: int, seed: int):
    """Free-induction coherence of an initial +x state at each delay."""
    return _decay_curve(noise, delays, n_realizations, seed, echo=False)


def hahn_decay_curve(noise, delays, n_realizations: int, seed: int):
    """Coherence at each delay with an ideal pi_x refocusing pulse at delay/2."""
    return _decay_curve(noise, delays, n_realizations, seed, echo=True)


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


def _derived_seed(seed: int, stream: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def calibrate_to_targets(
    target_t2_star: float,
    target_t2_hahn: float,
    seed: int = 7,
    n_realizations: int = 10000,
    search_realizations: int = 2500,
    max_halvings: int = 12,
) -> CalibrationResult:
    """Fit an OU-plus-static model to FID and Hahn 1/e time targets.

    The OU amplitude is solved against the Hahn target by bracketed 1-D root
    finding (static offsets refocus exactly, so they drop out of the echo);
    tau_c is halved until the OU part alone leaves the FID at or above its
    target; the static width is then solved against the FID target.  Fitted
    times are re-measured at n_realizations with an independent stream.
    """
    if not 0 < target_t2_star <= target_t2_hahn:
        raise ValueError("targets must satisfy 0 < target_t2_star <= target_t2_hahn")
    delays = np.linspace(0.0, 3.0 * target_t2_hahn, 181)
    seed_hahn = _derived_seed(seed, 1)
    seed_fid = _derived_seed(seed, 2)
    seed_verify = _derived_seed(seed, 3)

    def time_or_inf(curve_fn, spec, curve_seed, n_real):
        try:
            return coherence_1e_time(curve_fn(spec, delays, n_real, curve_seed))
        except ValueError:
            return math.inf

    def hahn_time(log_sigma, tau_c):
        spec = OUNoiseSpec(10.0**log_sigma, tau_c, tau_c / 10)
        return time_or_inf(hahn_decay_curve, spec, seed_hahn, search_realizations)

    def fid_time(sigma, tau_c, sigma_static, curve_seed, n_real):
        spec = OUNoiseSpec(sigma, tau_c, tau_c / 10, sigma_static)
        return time_or_inf(fid_decay_curve, spec, curve_seed, n_real)

    lo, hi = 2.0, 7.5
    tau_c = target_t2_hahn / 5.0
    sigma = math.nan
    fid_ou = math.nan
    for _ in range(max_halvings + 1):
        f_lo = hahn_time(lo, tau_c) - target_t2_hahn
        f_hi = hahn_time(hi, tau_c) - target_t2_hahn
        if not (f_lo > 0 > f_hi):
            raise CalibrationError(
                f"Hahn target {target_t2_hahn:.3g} s not bracketed by sigma in "
                f"[1e{lo:.1f}, 1e{hi:.1f}] rad/s at tau_c={tau_c:.3g} s"
            )
        log_sigma = brentq(
            lambda ls: hahn_time(ls, tau_c) - target_t2_hahn, lo, hi, xtol=5e-4
        )
        sigma = 10.0**log_sigma
        fid_ou = fid_time(sigma, tau_c, 0.0, seed_fid, search_realizations)
        # Stop short of the static-skip band: anything in [0.97, 1.04] x target
        # skips the static stage with at most a 3% FID shortfall, and each
        # halving doubles the trajectory step count.
        if fid_ou >= 0.97 * target_t2_star:
            break
        tau_c /= 2.0
    else:
        raise CalibrationError(
            f"OU-only FID time {fid_ou:.3g} s stayed below the {target_t2_star:.3g} s "
            f"target after {max_halvings} tau_c halvings"
        )

    if fid_ou <= 1.04 * target_t2_star:
        sigma_static = 0.0
    else:
        lo_s, hi_s = 0.5, 6.5

        def fid_objective(log_ss):
            return fid_time(sigma, tau_c, 10.0**log_ss, seed_fid, search_realizations) - target_t2_star

        if not (fid_objective(lo_s) > 0 > fid_objective(hi_s)):
            raise CalibrationError(
                f"FID target {target_t2_star:.3g} s not bracketed by sigma_static in "
                f"[1e{lo_s:.1f}, 1e{hi_s:.1f}] rad/s"
            )
        sigma_static = 10.0 ** brentq(fid_objective, lo_s, hi_s, xtol=5e-4)

    params = OUNoiseSpec(sigma, tau_c, tau_c / 10, sigma_static)
    m_star = time_or_inf(fid_decay_curve, params, seed_verify, n_realizations)
    m_hahn = time_or_inf(hahn_decay_curve, params, seed_verify, n_realizations)
    if not (math.isfinite(m_star) and math.isfinite(m_hahn)):
        raise CalibrationError("fitted model has no 1/e crossing within the delay grid")
    if m_star > m_hahn:
        if m_star > 1.02 * m_hahn:
            raise CalibrationError(
                f"measured FID time {m_star:.3g} s exceeds Hahn time {m_hahn:.3g} s "
                "beyond Monte-Carlo tolerance"
            )
        m_star, m_hahn = m_hahn, m_star
    return CalibrationResult(m_star, m_hahn, params)
