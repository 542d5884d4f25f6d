import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ddgates.ou as ou

from ddgates.compiler import PulseEvent, RotationSpec, Schedule
from ddgates.config import config_from_dict
from ddgates.core import IDENTITY_2, SIGMA_Z, embed_system
from ddgates.harness import fid_decay_curve, hahn_decay_curve
from ddgates.noise import SpinBathSpec, default_spin_bath
from ddgates.ou import (
    CalibrationError,
    CalibrationResult,
    OUNoiseSpec,
    calibrate_to_targets,
    coherence_1e_time,
    phase_variance,
)
from ddgates.simulate import OU_NODES, STATIC_NODES, bath_frame, hermite_nodes
from helpers import (
    bath_hamiltonians, oracle_bath_propagator, ou_propagators, ou_trajectory, reference_bath_channel_output, step_count,
    total_hamiltonian, trajectory,
)


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
    # An array is held as a tuple of float rows, and a nested list alike.
    held = SpinBathSpec(n_bath=2, couplings=(1.0, 2.0), bath_couplings=good).bath_couplings
    assert held == ((0.0, 1.0), (1.0, 0.0)) and all(type(v) is float for row in held for v in row)
    assert SpinBathSpec(n_bath=2, couplings=(1.0, 2.0), bath_couplings=good.tolist()).bath_couplings == held
    for bad in ([[0.0, 1.0], [2.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="symmetric with zero diagonal"):
            SpinBathSpec(n_bath=2, couplings=(1.0, 2.0), bath_couplings=bad)
    for ragged in ([[0.0, 1.0], [1.0]], [[0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="must be 2x2"):
            SpinBathSpec(n_bath=2, couplings=(1.0, 2.0), bath_couplings=ragged)
    # An empty array or list is the 0x0 matrix, and no other shape passes for it.
    for empty in (np.array([]), [], np.zeros((0, 0))):
        assert SpinBathSpec(n_bath=0, couplings=(), bath_couplings=empty).bath_couplings == ()
    for empty in (np.zeros((0, 1)), np.zeros((1, 0)), np.array([[]]), [[]]):
        with pytest.raises(ValueError, match="must be 0x0"):
            SpinBathSpec(n_bath=0, couplings=(), bath_couplings=empty)
    for empty in (np.array([]), []):
        with pytest.raises(ValueError, match="must be 1x1"):
            SpinBathSpec(n_bath=1, couplings=(1.0,), bath_couplings=empty)


@pytest.mark.parametrize("n_bath", [2.0, np.float64(2.0), True, "2", None],
                         ids=["float", "numpy_float", "bool", "str", "none"])
def test_spin_bath_spec_rejects_a_bath_size_that_is_not_an_integer(n_bath):
    with pytest.raises(ValueError, match="n_bath must be an integer"):
        SpinBathSpec(n_bath, (1e4, 1e4), np.zeros((2, 2)))


def test_spin_bath_spec_loads_a_numpy_integer_bath_size():
    spec = SpinBathSpec(np.int64(2), (1e4, 1e4), np.zeros((2, 2)))
    assert type(spec.n_bath) is int and spec.n_bath == 2
    assert [frame.w.shape for frame in bath_frame(spec)] == [(2, 2), (1, 4)]


def test_spin_bath_specs_of_equal_fields_are_one_value():
    # Two loads of one bath config are equal, hash alike and share one frame; the generator's
    # draws equal the JSON the benchmark's bath was written to.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "spin_bath_6.json"
    noise = json.loads(path.read_text(encoding="utf-8"))
    config = dict(noise=noise, gates=["NOT"], schemes=["xy8"], tau_grid_s=[1e-5])
    first, second = (config_from_dict(config).noise for _ in range(2))
    assert first is not second and first == second and hash(first) == hash(second)
    assert bath_frame(first) is bath_frame(second)
    assert default_spin_bath(6) == first and default_spin_bath(6).bath_couplings.tolist() == noise["bath_couplings"]
    assert default_spin_bath(6) != default_spin_bath(6, system_offset=1.0) != default_spin_bath(6, seed=1)


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


def test_ou_spec_rejects_detunings_whose_square_overflows():
    # The outermost of the 32 static nodes is 10.08 standard deviations out, and soft pulses
    # square the detuning there: 1e152 rad/s runs, 1e154 would overflow.
    OUNoiseSpec(sigma=0.0, tau_c=1.5e-4, dt=1.5e-5, sigma_static=1e152)
    for sigma, sigma_static in ((0.0, 1e154), (1e154, 0.0), (7e152, 7e152)):
        with pytest.raises(ValueError, match="sigma_static"):
            OUNoiseSpec(sigma=sigma, tau_c=1.5e-4, dt=1.5e-5, sigma_static=sigma_static)


@pytest.mark.parametrize("n", [STATIC_NODES, OU_NODES], ids=["static", "ou"])
def test_ou_spec_overflow_guard_covers_the_nodes_the_channel_uses(n):
    # The guard squares 10.1 (sigma + sigma_static), so 10.1 must cover the outermost node of
    # each set: then every sum it accepts squares to a finite detuning at every node.
    reach = float(np.max(np.abs(hermite_nodes(n)[0])))
    assert reach <= 10.1
    total = math.sqrt(sys.float_info.max) / reach * (1.0 + 1e-12)  # the outermost node's square overflows
    assert math.isinf((reach * total) * (reach * total))
    with pytest.raises(ValueError, match="overflow"):
        OUNoiseSpec(sigma=total / 2, tau_c=1.5e-4, dt=1.5e-5, sigma_static=total / 2)


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


@settings(max_examples=30, deadline=None)
@example(n_bath=6, seed=2024, system_offset=0.0)  # the benchmark's bath, perfbench/inputs/spin_bath_6.json
@given(n_bath=st.integers(0, 5), seed=st.integers(0, 2**32 - 1), system_offset=st.floats(-1e4, 1e4))
def test_bath_frames_are_eigh_of_the_dense_blocks(n_bath, seed, system_offset):
    # Each stack's two blocks, sliced from the kron-built Hamiltonian at the frame's rows, are real,
    # and one stacked real eigh of them gives the frame's eigenpairs bit for bit.  link is orthogonal
    # and is v0^T v1 but for rounding.
    spec = default_spin_bath(n_bath, seed, system_offset)
    h = total_hamiltonian(spec)
    for frame in bath_frame(spec):
        k = frame.v0.shape[1]
        rows = np.stack((frame.index[:, :k], frame.index[:, k:]))
        blocks = h[rows[..., :, None], rows[..., None, :]]
        assert not blocks.imag.any()
        w, v = np.linalg.eigh(blocks.real)
        assert np.array_equal(np.concatenate((w[0], w[1]), axis=1), frame.w)
        assert np.array_equal(v[0], frame.v0) and np.array_equal(v[1], frame.v1)
        assert np.max(np.abs(frame.link.swapaxes(1, 2) @ frame.link - np.eye(k))) <= 1e-14
        assert np.max(np.abs(frame.link - v[0].swapaxes(1, 2) @ v[1])) <= 1e-14


def test_every_bath_frame_array_is_real():
    # Every bath generator is real symmetric, so the frame holds no complex array.
    real = np.dtype(np.float64)
    for n_bath in (0, 3, 6):
        for frame in bath_frame(default_spin_bath(n_bath=n_bath, seed=7)):
            dtypes = {name: a.dtype for name, a in vars(frame).items()}
            assert dtypes == dict(w=real, v0=real, v1=real, link=real, index=np.dtype(np.intp), start=real)


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


def test_oracle_ou_trajectory_memory_peak_stays_within_a_few_trajectory_arrays():
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


def test_coherence_time_reads_a_curve_only_up_to_its_crossing(monkeypatch):
    t2 = 3.3e-4
    grid = np.linspace(0.0, 1.5e-3, 40)

    def curve():  # raises if read one point past its first point below 1/e
        for t in grid:
            yield t, math.exp(-t / t2)
            if math.exp(-t / t2) < 1.0 / math.e:
                raise AssertionError("read past the 1/e crossing")

    assert coherence_1e_time(curve()) == coherence_1e_time([(t, math.exp(-t / t2)) for t in grid])
    # The fit's two read-outs stop at their crossings: far fewer than the 2 x 181 points of their grids.
    calls = []
    variance = ou.phase_variance
    monkeypatch.setattr(ou, "phase_variance", lambda *args: calls.append(args) or variance(*args))
    fit = calibrate_to_targets(3.7e-4, 7.5e-4)
    assert len(calls) < 181
    step = 3 * 7.5e-4 / 180  # the fit's grid, read whole
    delays = [i * step for i in range(180)] + [3 * 7.5e-4]
    for echo, fitted in ((False, fit.fitted_t2_star), (True, fit.fitted_t2_hahn)):
        assert fitted == coherence_1e_time(list(zip(delays, ou.ou_coherence(fit.params, delays, echo))))


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
    n_steps = step_count(float(delays[-1]), spec.dt)
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


@pytest.mark.parametrize(
    "edges, weights",
    [((), ()), ((-1e-5,), (1.0,)), ((math.nan,), (1.0,)), ((1e-5, math.inf), (1.0, -1.0)),
     ((2e-5, 1e-5), (1.0, -1.0)), ((1e-5, 2e-5), (1.0,))],
    ids=["empty", "negative", "nan", "inf", "decreasing", "weight_missing"],
)
def test_phase_variance_rejects_invalid_edges(edges, weights):
    # Unchecked, a negative or decreasing edge gives a wrong variance silently, and the rest
    # fail inside the sums with unrelated errors.
    with pytest.raises(ValueError, match="edges must be"):
        phase_variance(make_ou(sigma=400.0, tau_c=1.5e-4, dt=1.5e-5), edges, weights)


@pytest.mark.parametrize(
    "edges, weights",
    [((1e-4,), (math.nan,)), ((1e-4,), (math.inf,)), ((1e-4, 2e-4), (1.0, -math.inf))],
    ids=["nan", "inf", "second_minus_inf"],
)
def test_phase_variance_rejects_non_finite_weights(edges, weights):
    # Unchecked, a NaN weight gives a NaN variance and an infinite one an infinite variance, silently.
    with pytest.raises(ValueError, match="weights"):
        phase_variance(make_ou(sigma=400.0, tau_c=1.5e-4, dt=1.5e-5), edges, weights)


def test_exact_curves_stay_small_at_the_last_halving():
    # The twelfth tau_c halving of a 750 us Hahn fit: ~600k trajectory steps.
    tau_c = 7.5e-4 / 5.0 / 2**12
    spec = make_ou(sigma=5e4, tau_c=tau_c, dt=tau_c / 10, sigma_static=1e3)
    delays = np.linspace(0.0, 3.0 * 7.5e-4, 181)
    assert step_count(float(delays[-1]), spec.dt) > 600_000
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


@pytest.mark.parametrize("delays", [1e-5, [[0.0, 1e-5], [2e-5, 3e-5]]], ids=["scalar", "2d"])
@pytest.mark.parametrize("model", [make_ou(), default_spin_bath(n_bath=2, seed=19)], ids=["ou", "bath"])
@pytest.mark.parametrize("curve_fn", [fid_decay_curve, hahn_decay_curve], ids=["fid", "hahn"])
def test_decay_curves_reject_delays_that_are_not_one_dimensional(curve_fn, model, delays):
    with pytest.raises(ValueError, match="delays must be one-dimensional"):
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
    # 2|rho_01| of the +x state evolved by scipy's expm of the dense Hamiltonian, bath traced out:
    # the curves read the bath engine, so they are checked against the oracle, not against it.
    spec = default_spin_bath(n_bath=3, seed=19, system_offset=2e3)
    delays = np.linspace(0.0, 4e-4, 9)
    plus = np.full((2, 2), 0.5, dtype=complex)
    curve = (hahn_decay_curve if echo else fid_decay_curve)(spec, delays)
    for t, c in curve[1:]:
        u = oracle_bath_propagator(_decay_schedule(t, echo), spec)
        assert c == pytest.approx(2.0 * abs(reference_bath_channel_output(u, plus, spec.n_bath)[0, 1]), abs=1e-12)


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
