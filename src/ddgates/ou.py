"""The classical dephasing model and its closed-form calibration, on the standard library alone.

An Ornstein-Uhlenbeck frequency trajectory held constant over steps of dt,
plus an optional static offset per realization.  Both parts are Gaussian, so
every phase is too, and the coherence is exp(-Var(phi) / 2): the exact
free-induction and Hahn-echo curves, and the fit of the model to their
measured 1/e times, are scalar `math`.  Nothing here imports numpy, so
`ddgates calibrate` starts without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ONE_OVER_E = 1.0 / math.e

# The calibration skips the static offset when the OU part alone puts the FID
# time within this relative distance of its target (the equal-target case).
EQUAL_TARGET_RTOL = 0.01
# The calibration gives up after this many halvings of tau_c.
MAX_TAU_C_HALVINGS = 12


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


def _step_count(total_time: float, dt: float) -> int:
    return max(1, math.ceil(total_time / dt - 1e-9))


def _grid_point(t: float, dt: float, n_steps: int) -> tuple[int, float]:
    """Step k = min(floor(t / dt), n_steps) and remainder f = max(t - k dt, 0) of time t."""
    k = min(math.floor(t / dt), n_steps)
    return k, max(t - k * dt, 0.0)


def _covariance(x: float, dt: float, s: tuple[int, float], t: tuple[int, float]) -> float:
    """Cov(phi(s), phi(t)) / sigma^2 of the unit OU part at grid points s <= t, x = dt / tau_c.

    phi at (k, f) is dt * sum_{j<k} delta_j + f * delta_k and Cov(delta_i, delta_j)
    = sigma^2 a^|i-j|, a = exp(-x): each double sum is a geometric series.
    """
    a, om = math.exp(-x), -math.expm1(-x)  # om = 1 - a

    def rise(n):  # 1 - a^n
        return -math.expm1(-n * x)

    (ks, fs), (kt, ft) = s, t
    m = kt - ks
    blocks = (ks * (1 + a) * om - a * rise(ks) * (2 - rise(m))) / om**2
    point_t = math.exp(-(m + 1) * x) * rise(ks) / om
    point_s = (rise(ks + 1) + a * rise(m - 1)) / om
    return dt * dt * blocks + dt * (ft * point_t + fs * point_s) + fs * ft * math.exp(-m * x)


def phase_variance(spec: OUNoiseSpec, edges, weights) -> float:
    """Var of sum_j w_j (phi(t_j) - phi(t_{j-1})), t_0 = 0, for the grid model.

    edges are the times t_1 <= .. <= t_J, weights the w_j.  With c_j = w_j -
    w_{j+1} (w_{J+1} = 0) the sum is sum_j c_j phi(t_j), and its variance is
    sigma^2 sum_ij c_i c_j C_ij + sigma_static^2 (sum_j c_j t_j)^2, C_ij the
    `_covariance` of phi(t_i) and phi(t_j): O(J^2), whatever the trajectory
    length.  FID is ((t,), (1,)), a Hahn echo ((t/2, t), (1, -1)) (Cywinski et
    al., PRB 77, 174509 (2008)).
    """
    dt, x = spec.dt, spec.dt / spec.tau_c
    n_steps = _step_count(edges[-1], dt)
    points = [_grid_point(t, dt, n_steps) for t in edges]
    c = [w - w_next for w, w_next in zip(weights, [*weights[1:], 0.0])]
    var_ou = area = 0.0
    for i, p in enumerate(points):
        row = c[i] * _covariance(x, dt, p, p) + 2.0 * sum(
            c[j] * _covariance(x, dt, p, points[j]) for j in range(i + 1, len(points)))
        var_ou = var_ou + c[i] * row
        area = area + c[i] * (p[0] * dt + p[1])  # the static offset sees the grid time
    return spec.sigma**2 * var_ou + spec.sigma_static**2 * (area * area)


def ou_coherence(spec: OUNoiseSpec, delays, echo: bool) -> list[float]:
    """Exact coherence exp(-Var(phi) / 2) at each delay, of free induction or of a Hahn echo.

    The trajectory is Gaussian, so each phase is too (Klauder & Anderson,
    Phys. Rev. 125, 912 (1962)).
    """
    if echo:
        return [math.exp(-0.5 * phase_variance(spec, (t / 2.0, t), (1.0, -1.0))) for t in delays]
    return [math.exp(-0.5 * phase_variance(spec, (t,), (1.0,))) for t in delays]


def coherence_1e_time(curve) -> float:
    """First 1/e crossing of a (delay, coherence) curve, linearly interpolated."""
    i = next((i for i, (_, c) in enumerate(curve) if c < ONE_OVER_E), None)
    if i is None:
        raise ValueError("coherence never crosses 1/e within the delay grid")
    if i == 0:
        raise ValueError("coherence starts below 1/e; extend the grid toward 0")
    (t0, c0), (t1, c1) = curve[i - 1], curve[i]
    f = (c0 - ONE_OVER_E) / (c0 - c1)
    return float(t0 + f * (t1 - t0))


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
    # np.linspace(0, 3 T2, 181): i times the step, and the end point exact.
    step = 3.0 * target_t2_hahn / 180
    delays = [i * step for i in range(180)] + [3.0 * target_t2_hahn]
    return CalibrationResult(coherence_1e_time(list(zip(delays, ou_coherence(params, delays, False)))),
                             coherence_1e_time(list(zip(delays, ou_coherence(params, delays, True)))), params)
