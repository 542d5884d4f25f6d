import math

import numpy as np
import pytest

import ddgates.noise as noise_mod
from ddgates.core import SIGMA_Z, embed_system
from ddgates.noise import (
    CalibrationError,
    CalibrationResult,
    OUNoiseSpec,
    SpinBathSpec,
    build_bath_hamiltonians,
    calibrate_to_targets,
    coherence_1e_time,
    default_spin_bath,
    fid_decay_curve,
    hahn_decay_curve,
    sample_ou_ensemble,
    total_hamiltonian,
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
    spec = default_spin_bath(n_bath=3, seed=5)
    h_s, h_se, h_e = build_bath_hamiltonians(spec)
    for h in (h_s, h_se, h_e):
        assert np.allclose(h, h.conj().T, atol=1e-12)
    # pure dephasing: system coupling commutes with the system z operator
    sz_full = embed_system(SIGMA_Z / 2, spec.n_bath)
    for h in (h_s, h_se):
        assert np.allclose(h @ sz_full - sz_full @ h, 0.0, atol=1e-9)
    assert np.allclose(total_hamiltonian(spec), h_s + h_se + h_e, atol=1e-12)


def test_two_spin_bath_hamiltonian_matches_manual_construction():
    d = 3.0e4
    spec = SpinBathSpec(
        n_bath=2, couplings=(1.0e4, 2.0e4),
        bath_couplings=np.array([[0.0, d], [d, 0.0]]),
    )
    _, h_se, h_e = build_bath_hamiltonians(spec)
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
    delta = sample_ou_ensemble(spec, n_steps=40, n_realizations=4000, seed=31)
    std = delta.std()
    assert abs(std - spec.sigma) / spec.sigma < 0.05
    # lag-1 autocorrelation of the exact discretization is exp(-dt/tau_c)
    x = delta - delta.mean()
    corr = (x[:, :-1] * x[:, 1:]).mean() / (x**2).mean()
    assert abs(corr - math.exp(-spec.dt / spec.tau_c)) < 0.02


def test_ou_static_offset_adds_variance():
    spec = make_ou(sigma=1000.0, sigma_static=4000.0)
    delta = sample_ou_ensemble(spec, n_steps=5, n_realizations=6000, seed=8)
    expected = math.hypot(spec.sigma, spec.sigma_static)
    assert abs(delta.std() - expected) / expected < 0.05
    # the static part is constant within each realization
    spec_static = make_ou(sigma=0.0, sigma_static=4000.0)
    delta_s = sample_ou_ensemble(spec_static, n_steps=5, n_realizations=10, seed=8)
    assert np.allclose(delta_s, delta_s[:, :1])


def test_ou_ensemble_rows_do_not_depend_on_batch_layout():
    spec = make_ou()
    full = sample_ou_ensemble(spec, n_steps=12, n_realizations=9, seed=104)
    tail = sample_ou_ensemble(spec, n_steps=12, n_realizations=4, seed=104, row_offset=5)
    assert np.array_equal(full[5:], tail)
    again = sample_ou_ensemble(spec, n_steps=12, n_realizations=9, seed=104)
    assert np.array_equal(full, again)


def test_fid_curve_static_gaussian_oracle():
    # static Gaussian offset of std s: coherence(t) = exp(-s^2 t^2 / 2)
    s = 5000.0
    spec = make_ou(sigma=1e-6, tau_c=1e-3, dt=1e-4, sigma_static=s)
    t_grid = np.linspace(0.0, 8e-4, 33)
    curve = fid_decay_curve(spec, t_grid, n_realizations=20000, seed=6)
    coh = np.array([c for _, c in curve])
    expected = np.exp(-0.5 * (s * t_grid) ** 2)
    assert np.max(np.abs(coh - expected)) < 0.02
    t_fit = coherence_1e_time(curve)
    assert abs(t_fit - math.sqrt(2.0) / s) / (math.sqrt(2.0) / s) < 0.05


def test_hahn_refocuses_static_noise():
    spec = make_ou(sigma=1e-6, tau_c=1e-3, dt=1e-4, sigma_static=8000.0)
    curve = hahn_decay_curve(spec, np.linspace(0.0, 8e-4, 9), n_realizations=300, seed=11)
    for _, c in curve:
        assert c > 0.999999


def test_hahn_outlives_fid_with_static_broadening():
    spec = make_ou(sigma=4000.0, tau_c=1.5e-4, dt=1.5e-5, sigma_static=3000.0)
    grid = np.linspace(0.0, 2e-3, 161)
    t_fid = coherence_1e_time(fid_decay_curve(spec, grid, 3000, seed=21))
    t_hahn = coherence_1e_time(hahn_decay_curve(spec, grid, 3000, seed=21))
    assert t_hahn > t_fid


def test_coherence_time_interpolates_exponential():
    t2 = 3.3e-4
    grid = np.linspace(0.0, 1.5e-3, 40)
    curve = [(t, math.exp(-t / t2)) for t in grid]
    assert abs(coherence_1e_time(curve) - t2) / t2 < 0.01
    with pytest.raises(ValueError):
        coherence_1e_time([(t, math.exp(-t / t2)) for t in grid[:3]])


def test_ou_coherence_chunking_is_invisible(monkeypatch):
    spec = make_ou(sigma=4000.0, sigma_static=2000.0)
    grid = np.linspace(0.0, 5e-4, 21)
    full = fid_decay_curve(spec, grid, 64, seed=40)
    monkeypatch.setattr(noise_mod, "_CHUNK_BUDGET", 64)
    chunked = fid_decay_curve(spec, grid, 64, seed=40)
    assert np.allclose([c for _, c in full], [c for _, c in chunked], atol=1e-12)


def test_bath_decay_curve_is_deterministic_and_decaying():
    spec = default_spin_bath(n_bath=3, seed=19)
    grid = np.linspace(0.0, 4e-4, 25)
    a = fid_decay_curve(spec, grid, 1, seed=0)
    b = fid_decay_curve(spec, grid, 99, seed=123)  # exact average ignores sampling args
    assert np.allclose([c for _, c in a], [c for _, c in b], atol=1e-14)
    assert a[0][1] == pytest.approx(1.0, abs=1e-12)
    assert min(c for _, c in a) < 0.9


def test_calibration_result_orders_decay_times():
    params = make_ou()
    with pytest.raises(ValueError):
        CalibrationResult(fitted_t2_star=2.0e-4, fitted_t2_hahn=1.0e-4, params=params)


def _fast_equal_calibration():
    # reduced realizations keep this a unit test; tight tolerances are exercised
    # by the acceptance suite at full defaults
    return calibrate_to_targets(5e-4, 5e-4, seed=3, n_realizations=1500, search_realizations=600)


def test_calibration_equal_targets_drops_static_broadening():
    res = _fast_equal_calibration()
    assert res.params.sigma_static == 0.0
    assert abs(res.fitted_t2_hahn - 5e-4) / 5e-4 < 0.15
    assert res.fitted_t2_star <= res.fitted_t2_hahn


def test_calibration_is_deterministic_per_seed():
    a = _fast_equal_calibration()
    b = _fast_equal_calibration()
    assert a.params == b.params
    assert a.fitted_t2_star == b.fitted_t2_star
    assert a.fitted_t2_hahn == b.fitted_t2_hahn


def test_calibration_rejects_inverted_targets():
    with pytest.raises((CalibrationError, ValueError)):
        calibrate_to_targets(8e-4, 4e-4, seed=1)
