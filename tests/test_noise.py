import math
import tracemalloc

import numpy as np
import pytest

from ddgates.compiler import PulseEvent, RotationSpec, Schedule
from ddgates.core import IDENTITY_2, SIGMA_Z, embed_system
from ddgates.noise import (
    CalibrationError,
    CalibrationResult,
    OUNoiseSpec,
    SpinBathSpec,
    bath_frame,
    calibrate_to_targets,
    coherence_1e_time,
    default_spin_bath,
    fid_decay_curve,
    hahn_decay_curve,
    phase_variance,
)
from ddgates.ou import _step_count
from ddgates.simulate import bath_channel_output, bath_propagator
from helpers import bath_hamiltonians, ou_propagators, ou_trajectory, total_hamiltonian, trajectory


def make_ou(sigma=5000.0, tau_c=1e-4, dt=1e-5, sigma_static=0.0):
    return OUNoiseSpec(sigma=sigma, tau_c=tau_c, dt=dt, sigma_static=sigma_static)


def test_ou_spec_validates_step_against_correlation_time():
    OUNoiseSpec(sigma=1.0, tau_c=1e-4, dt=1e-5)  # dt == tau_c/10 allowed
    with pytest.raises(ValueError):
        OUNoiseSpec(sigma=1.0, tau_c=1e-4, dt=1.2e-5)
    with pytest.raises(ValueError):
        OUNoiseSpec(sigma=1.0, tau_c=1e-4, dt=0.0)
    with pytest.raises(ValueError):
        OUNoiseSpec(sigma=-1.0, tau_c=1e-4, dt=1e-5)


def test_spin_bath_spec_validation():
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    SpinBathSpec(n_bath=2, couplings=(1.0, 2.0), bath_couplings=good)
    with pytest.raises(ValueError):
        SpinBathSpec(n_bath=2, couplings=(1.0,), bath_couplings=good)
    with pytest.raises(ValueError):
        SpinBathSpec(n_bath=2, couplings=(1.0, 2.0), bath_couplings=np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        SpinBathSpec(n_bath=2, couplings=(1.0, 2.0), bath_couplings=np.eye(2))
    # An empty array is the 0x0 matrix, and no other shape passes for it.
    assert SpinBathSpec(n_bath=0, couplings=(), bath_couplings=np.array([])).bath_couplings.shape == (0, 0)
    for empty in (np.zeros((0, 1)), np.zeros((1, 0)), np.array([[]])):
        with pytest.raises(ValueError, match="must be 0x0"):
            SpinBathSpec(n_bath=0, couplings=(), bath_couplings=empty)
    with pytest.raises(ValueError, match="must be 1x1"):
        SpinBathSpec(n_bath=1, couplings=(1.0,), bath_couplings=np.array([]))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: OUNoiseSpec(sigma=v, tau_c=1e-4, dt=1e-5),
        lambda v: OUNoiseSpec(sigma=1.0, tau_c=1e-4, dt=1e-5, sigma_static=v),
        lambda v: OUNoiseSpec(sigma=1.0, tau_c=v, dt=1e-5),
        lambda v: SpinBathSpec(n_bath=2, couplings=(1.0, v), bath_couplings=np.zeros((2, 2))),
        lambda v: SpinBathSpec(
            n_bath=2, couplings=(1.0, 2.0), bath_couplings=np.array([[0.0, v], [v, 0.0]])
        ),
        lambda v: SpinBathSpec(
            n_bath=2, couplings=(1.0, 2.0), bath_couplings=np.zeros((2, 2)), system_offset=v
        ),
    ],
    ids=["sigma", "sigma_static", "tau_c", "couplings", "bath_couplings", "system_offset"],
)
def test_noise_specs_reject_non_finite_parameters(build, value):
    with pytest.raises(ValueError, match="finite"):
        build(value)


def test_bath_hamiltonians_are_hermitian_and_dephasing():
    no_bath = SpinBathSpec(0, (), np.zeros((0, 0)), system_offset=3e3)
    for spec in (default_spin_bath(n_bath=3, seed=5, system_offset=2e3), no_bath):
        h_s, h_se, h_e = bath_hamiltonians(spec)
        for h in (h_s, h_se, h_e):
            assert np.allclose(h, h.conj().T, atol=1e-12)
        # pure dephasing: system coupling commutes with the system z operator
        sz_full = embed_system(SIGMA_Z / 2, spec.n_bath)
        for h in (h_s, h_se):
            assert np.allclose(h @ sz_full - sz_full @ h, 0.0, atol=1e-9)
        # bath_frame diagonalises the two blocks of the same Hamiltonian over the system's |0>, |1>,
        # one sector at a time, in one unpadded stack per sector size.
        h, d, frames = total_hamiltonian(spec), 2**spec.n_bath, bath_frame(spec)
        tol = 1e-13 * np.abs(h).max()
        assert np.array_equal(h[:d, d:], np.zeros((d, d)))
        indices = np.concatenate([frame.index.ravel() for frame in frames])
        assert sorted(indices) == list(range(2 * d))
        sizes = [frame.v0.shape[1] for frame in frames]
        assert sizes == sorted(set(sizes))
        for frame, k in zip(frames, sizes):
            s = len(frame.w)
            assert frame.w.shape == frame.index.shape == (s, 2 * k)
            assert frame.v0.shape == frame.v1.shape == frame.link.shape == (s, k, k)
            for sector in range(s):
                for half, v in enumerate((frame.v0[sector], frame.v1[sector])):
                    rows, w = frame.index[sector, half * k:(half + 1) * k], frame.w[sector, half * k:(half + 1) * k]
                    block = h[np.ix_(rows, rows)]
                    assert np.allclose(v @ np.diag(w) @ v.conj().T, block, rtol=0.0, atol=tol)


def test_six_spin_bath_frame_is_four_unpadded_stacks():
    # Sectors of 1, 6, 15, 20, 15, 6 and 1 states, stacked by size.
    frames = bath_frame(default_spin_bath(n_bath=6, seed=5))
    assert [(len(f.w), 2 * f.v0.shape[1]) for f in frames] == [(2, 2), (2, 12), (2, 30), (1, 40)]


def test_two_spin_bath_hamiltonian_matches_manual_construction():
    d = 3.0e4
    spec = SpinBathSpec(
        n_bath=2, couplings=(1.0e4, 2.0e4),
        bath_couplings=np.array([[0.0, d], [d, 0.0]]),
    )
    _, h_se, h_e = bath_hamiltonians(spec)
    sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    sy = np.array([[0, -1j], [1j, 0]]) / 2
    sz = np.array([[1, 0], [0, -1]], dtype=complex) / 2
    eye = np.eye(2, dtype=complex)
    iz1 = np.kron(eye, np.kron(sz, eye))
    iz2 = np.kron(eye, np.kron(eye, sz))
    expected_se = 1.0e4 * (embed_system(sz, 2) @ iz1) + 2.0e4 * (embed_system(sz, 2) @ iz2)
    assert np.allclose(h_se, expected_se, atol=1e-9)
    flip_flop = np.kron(eye, np.kron(sx, sx) + np.kron(sy, sy))
    zz = np.kron(eye, np.kron(sz, sz))
    assert np.allclose(h_e, d * (2 * zz - flip_flop), atol=1e-9)


def test_ou_ensemble_stationary_statistics():
    spec = make_ou(sigma=3000.0, tau_c=2e-4, dt=2e-5)
    delta = trajectory(spec, n_steps=40, rows=4000, seed=31)
    std = delta.std()
    assert abs(std - spec.sigma) / spec.sigma < 0.05
    # lag-1 autocorrelation of the exact discretization is exp(-dt/tau_c)
    x = delta - delta.mean()
    corr = (x[:, :-1] * x[:, 1:]).mean() / (x**2).mean()
    assert abs(corr - math.exp(-spec.dt / spec.tau_c)) < 0.02


def test_ou_static_offset_adds_variance():
    spec = make_ou(sigma=1000.0, sigma_static=4000.0)
    delta = trajectory(spec, n_steps=5, rows=6000, seed=8)
    expected = math.hypot(spec.sigma, spec.sigma_static)
    assert abs(delta.std() - expected) / expected < 0.05
    # the static part is constant within each realization
    spec_static = make_ou(sigma=0.0, sigma_static=4000.0)
    delta_s = trajectory(spec_static, n_steps=5, rows=10, seed=8)
    assert np.allclose(delta_s, delta_s[:, :1])


def test_ou_trajectory_yields_a_new_array_per_step():
    steps = list(ou_trajectory(make_ou(sigma_static=800.0), 6, 7, 20))
    assert len(steps) == 21
    assert not any(np.shares_memory(x, y) for i, x in enumerate(steps) for y in steps[:i])
    with pytest.raises(ValueError, match="rows"):
        next(ou_trajectory(make_ou(), 0, 7, 20))


def test_ou_normals_of_the_static_start_and_first_innovation_steps_are_standard_normal():
    # Normal step 0 is the static offset, step 1 starts the OU part and step 2 is
    # the innovation of its first step.  Each is standard normal, and neither
    # neighbouring rows nor the three steps are correlated.
    rows = 200_000
    static = next(ou_trajectory(make_ou(sigma=0.0, sigma_static=1.0), rows, 2027, 0))
    spec = make_ou(sigma=1.0, tau_c=1e-4, dt=1e-5)
    a = math.exp(-spec.dt / spec.tau_c)
    start, first = ou_trajectory(spec, rows, 2027, 1)
    steps = (static, start, (first - a * start) / math.sqrt(1 - a * a))
    for z in steps:
        assert abs(z.mean()) < 5 / math.sqrt(rows)
        assert abs(z.var() - 1.0) < 5 * math.sqrt(2.0 / rows)
        for k in (2, 3):
            p = math.erfc(k / math.sqrt(2))  # P(|Z| > k)
            assert abs(np.mean(np.abs(z) > k) - p) < 5 * math.sqrt(p * (1 - p) / rows)
        assert abs(np.mean(z[1:] * z[:-1])) < 5 / math.sqrt(rows - 1)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert abs(np.mean(steps[i] * steps[j])) < 5 / math.sqrt(rows)


def test_ou_ensemble_memory_peak_stays_within_a_few_trajectory_arrays():
    # The Monte-Carlo oracle's trajectory holds a few step arrays, however many steps it has.
    spec = make_ou(sigma_static=800.0)
    next(ou_trajectory(spec, 1, 3, 0))  # numpy's one-time set-up of a seed sequence is not the walk's
    peaks = []
    for n_steps in (600, 6000):
        tracemalloc.start()
        try:
            for delta in ou_trajectory(spec, 1741, 3, n_steps):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # The step being built, its normals and drive, the one before it and the static offset.
        assert peaks[-1] < 8 * delta.nbytes, (n_steps, peaks[-1] / delta.nbytes)
    assert peaks[1] < 1.05 * peaks[0], peaks


def test_fid_curve_static_gaussian_oracle():
    # static Gaussian offset of std s: coherence(t) = exp(-s^2 t^2 / 2)
    s = 5000.0
    spec = make_ou(sigma=0.0, tau_c=1e-3, dt=1e-4, sigma_static=s)
    t_grid = np.linspace(0.0, 8e-4, 33)
    curve = fid_decay_curve(spec, t_grid)
    coh = np.array([c for _, c in curve])
    expected = np.exp(-0.5 * (s * t_grid) ** 2)
    assert np.max(np.abs(coh - expected)) < 1e-12
    t_fit = coherence_1e_time(curve)
    assert abs(t_fit - math.sqrt(2.0) / s) / (math.sqrt(2.0) / s) < 0.05


def test_hahn_refocuses_static_noise():
    spec = make_ou(sigma=1e-6, tau_c=1e-3, dt=1e-4, sigma_static=8000.0)
    curve = hahn_decay_curve(spec, np.linspace(0.0, 8e-4, 9))
    for _, c in curve:
        assert c > 0.999999


def test_hahn_outlives_fid_with_static_broadening():
    spec = make_ou(sigma=4000.0, tau_c=1.5e-4, dt=1.5e-5, sigma_static=3000.0)
    grid = np.linspace(0.0, 2e-3, 161)
    t_fid = coherence_1e_time(fid_decay_curve(spec, grid))
    t_hahn = coherence_1e_time(hahn_decay_curve(spec, grid))
    assert t_hahn > t_fid


def test_coherence_time_interpolates_exponential():
    t2 = 3.3e-4
    grid = np.linspace(0.0, 1.5e-3, 40)
    curve = [(t, math.exp(-t / t2)) for t in grid]
    assert abs(coherence_1e_time(curve) - t2) / t2 < 0.01
    with pytest.raises(ValueError):
        coherence_1e_time([(t, math.exp(-t / t2)) for t in grid[:3]])


def _decay_schedule(t, echo):
    """FID (one delay) or Hahn echo (t/2, ideal pi_x, t/2) schedule of length t."""
    if echo:
        events = (PulseEvent("delay", t / 2), PulseEvent("hard_pulse", 0.0, RotationSpec(0.0, math.pi)),
                  PulseEvent("delay", t / 2))
    else:
        events = (PulseEvent("delay", t),)
    return Schedule(events, target_gate=IDENTITY_2, label="decay")


@pytest.mark.parametrize(
    "make_spec",
    [
        lambda: make_ou(sigma=4000.0, tau_c=1.5e-4, dt=1.5e-5),
        lambda: calibrate_to_targets(3.7e-4, 7.5e-4).params,
        lambda: make_ou(sigma=6e4, tau_c=3e-6, dt=3e-7, sigma_static=500.0),
    ],
    ids=["ou_only", "calibrated_370_750", "short_tau_c"],
)
@pytest.mark.parametrize("echo", [False, True], ids=["fid", "hahn"])
def test_exact_curves_match_monte_carlo_propagators(make_spec, echo):
    # The +x coherence of the simulated propagators is the Monte-Carlo estimate
    # of the closed form; they must agree within 5 standard errors.
    spec = make_spec()
    n = 2000
    t_hahn = coherence_1e_time(hahn_decay_curve(spec, np.linspace(0.0, 3e-3, 3001)))
    delays = np.linspace(0.0, 2.0 * t_hahn, 7)[1:]
    exact = [c for _, c in (hahn_decay_curve if echo else fid_decay_curve)(spec, delays)]
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    for seed, (t, c) in enumerate(zip(delays, exact)):
        psi = ou_propagators(_decay_schedule(float(t), echo), spec, n, seed=seed) @ plus
        z = 2.0 * psi[:, 0] * psi[:, 1].conj()
        stderr = np.std(z) / math.sqrt(n)
        assert abs(abs(z.mean()) - c) <= 5.0 * stderr + 1e-12, (t, c, abs(z.mean()), stderr)


@pytest.mark.parametrize(
    "spec, edge_steps",
    [
        (make_ou(sigma=4000.0, tau_c=1.5e-4, dt=1.5e-5, sigma_static=2000.0), None),
        (make_ou(sigma=6e4, tau_c=3e-6, dt=3e-7, sigma_static=500.0), None),
        (make_ou(sigma=3000.0, tau_c=1e-2, dt=4e-6, sigma_static=1000.0), None),
        # Edges in units of dt: 40 is exactly a grid point, the others lie inside cells.
        (make_ou(sigma=400.0, tau_c=1.5e-4, dt=1.5e-5, sigma_static=200.0),
         (3.25, 17.5, 40.0, 41.7, 95.5, 200.25, 300.5)),
    ],
    ids=["calibrated_scale", "short_tau_c", "dt_much_below_tau_c", "multi_edge"],
)
def test_exact_curves_match_dense_covariance(spec, edge_steps):
    # Phase weights w_k = the length of [0, t] inside grid cell k, the last cell
    # without end, then exp(-w^T C w / 2) with the dense OU-plus-static
    # covariance: an independent route to the same Gaussian average.  The
    # multi_edge case checks phase_variance of segments with alternating signs
    # against w^T C w alone.
    delays = np.linspace(0.0, 300.5 * spec.dt, 37)
    n_steps = _step_count(float(delays[-1]), spec.dt)
    idx = np.arange(n_steps + 1)
    cell_start = idx * spec.dt
    cell_end = np.append(cell_start[1:], np.inf)

    def weights(t):
        return np.clip(np.minimum(cell_end, t) - cell_start, 0.0, None)

    a = math.exp(-spec.dt / spec.tau_c)
    cov = spec.sigma**2 * a ** np.abs(idx[:, None] - idx[None, :]) + spec.sigma_static**2
    if edge_steps is not None:
        edges = [k * spec.dt for k in edge_steps]
        signs = (-1.0) ** np.arange(len(edges))
        w = sum(sign * (weights(t) - weights(t0)) for sign, t0, t in zip(signs, [0.0] + edges[:-1], edges))
        assert phase_variance(spec, edges, signs) == pytest.approx(w @ cov @ w, rel=1e-10)
        return
    for echo, curve_fn in ((False, fid_decay_curve), (True, hahn_decay_curve)):
        for t, c in curve_fn(spec, delays):
            w = weights(t)
            if echo:
                w = w - 2.0 * weights(t / 2.0)
            assert c == pytest.approx(math.exp(-0.5 * w @ cov @ w), rel=1e-10, abs=1e-13)


def test_exact_curves_stay_small_at_the_last_halving():
    # The twelfth tau_c halving of a 750 us Hahn fit: ~600k trajectory steps.
    tau_c = 7.5e-4 / 5.0 / 2**12
    spec = make_ou(sigma=5e4, tau_c=tau_c, dt=tau_c / 10, sigma_static=1e3)
    delays = np.linspace(0.0, 3.0 * 7.5e-4, 181)
    assert _step_count(float(delays[-1]), spec.dt) > 600_000
    tracemalloc.start()
    try:
        curves = [fid_decay_curve(spec, delays), hahn_decay_curve(spec, delays)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    for curve in curves:
        coh = np.array([c for _, c in curve])
        assert coh[0] == 1.0 and np.all(np.diff(coh) <= 0) and coh[-1] >= 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("model", [make_ou(), default_spin_bath(n_bath=2, seed=19)], ids=["ou", "bath"])
@pytest.mark.parametrize("curve_fn", [fid_decay_curve, hahn_decay_curve], ids=["fid", "hahn"])
def test_decay_curves_reject_non_finite_delays(curve_fn, model, bad):
    for delays in ([bad, 1e-5, 2e-5], [0.0, 1e-5, bad]):
        with pytest.raises(ValueError, match="must be finite"):
            curve_fn(model, delays)


def test_bath_decay_curve_is_deterministic_and_decaying():
    spec = default_spin_bath(n_bath=3, seed=19)
    grid = np.linspace(0.0, 4e-4, 25)
    a = fid_decay_curve(spec, grid)
    b = fid_decay_curve(spec, grid)
    assert a == b
    assert a[0][1] == pytest.approx(1.0, abs=1e-12)
    assert min(c for _, c in a) < 0.9


@pytest.mark.parametrize("echo", [False, True], ids=["fid", "hahn"])
def test_bath_curves_match_the_bath_engine(echo):
    # 2|rho_01| of the +x state evolved by the schedule engine, bath traced out.
    spec = default_spin_bath(n_bath=3, seed=19, system_offset=2e3)
    delays = np.linspace(0.0, 4e-4, 9)
    plus = np.full((2, 2), 0.5, dtype=complex)
    curve = (hahn_decay_curve if echo else fid_decay_curve)(spec, delays)
    for t, c in curve[1:]:
        u = bath_propagator(_decay_schedule(t, echo), spec)
        assert c == pytest.approx(2.0 * abs(bath_channel_output(u, plus, spec.n_bath)[0, 1]), abs=1e-12)


def test_calibration_result_orders_decay_times():
    params = make_ou()
    with pytest.raises(ValueError):
        CalibrationResult(fitted_t2_star=2.0e-4, fitted_t2_hahn=1.0e-4, params=params)


def _fast_equal_calibration():
    return calibrate_to_targets(5e-4, 5e-4)


def test_calibration_equal_targets_drops_static_broadening():
    res = _fast_equal_calibration()
    assert res.params.sigma_static == 0.0
    assert abs(res.fitted_t2_hahn - 5e-4) / 5e-4 < 0.15
    assert res.fitted_t2_star <= res.fitted_t2_hahn


def test_calibration_is_deterministic():
    a = _fast_equal_calibration()
    b = _fast_equal_calibration()
    assert a.params == b.params
    assert a.fitted_t2_star == b.fitted_t2_star
    assert a.fitted_t2_hahn == b.fitted_t2_hahn


@pytest.mark.parametrize(
    "t2_star, t2_hahn, echo_only",
    [(3.7e-4, 7.5e-4, False), (5.4e-4, 7.5e-4, False), (36.6e-6, 184.9e-6, False), (5e-4, 5e-4, True)],
    ids=["370_750", "540_750", "bath_36.6_184.9", "500_500"],
)
def test_calibration_puts_the_exact_coherence_on_each_target(t2_star, t2_hahn, echo_only):
    # The fit solves the model's own variance, not the read-out of a sampled curve.
    params = calibrate_to_targets(t2_star, t2_hahn).params
    assert hahn_decay_curve(params, [t2_hahn])[0][1] == pytest.approx(1.0 / math.e, rel=1e-12, abs=0.0)
    if not echo_only:  # equal targets keep sigma_static 0 and stop within 1% of T2*
        assert fid_decay_curve(params, [t2_star])[0][1] == pytest.approx(1.0 / math.e, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "t2_star, t2_hahn, missed",
    [(50e-3, 50e-3, "Hahn target"), (0.1e-6, 0.2e-6, "FID target"), (30e-3, 30e-3, None), (1e-6, 1e-6, None)],
    ids=["50ms_sigma_too_small", "0.1us_static_too_large", "30ms", "1us"],
)
def test_calibration_keeps_its_accepted_range(t2_star, t2_hahn, missed):
    # sigma must lie in [1e2, 10^7.5] rad/s and sigma_static in [10^0.5, 10^6.5] rad/s.
    if missed is None:
        params = calibrate_to_targets(t2_star, t2_hahn).params
        assert 1e2 <= params.sigma <= 10**7.5
    else:
        with pytest.raises(CalibrationError, match=missed):
            calibrate_to_targets(t2_star, t2_hahn)


def test_calibration_rejects_inverted_targets():
    with pytest.raises((CalibrationError, ValueError)):
        calibrate_to_targets(8e-4, 4e-4)
