import numpy as np
import pytest
import scipy.linalg

from ddgates.core import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    embed_system,
    hermitian_expm,
    partial_trace_bath,
    rotation_unitary,
    spin_half_operators,
)


def test_pauli_algebra():
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert np.allclose(s @ s, IDENTITY_2)
        assert np.allclose(s, s.conj().T)
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)


def test_pauli_constants_are_read_only():
    with pytest.raises(ValueError):
        SIGMA_X[0, 0] = 5.0


def test_spin_half_operators_commutator():
    sx, sy, sz = spin_half_operators()
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz)
    assert np.allclose(sz, SIGMA_Z / 2)


def test_rotation_unitary_special_values():
    assert np.allclose(rotation_unitary(0.0, np.pi), -1j * SIGMA_X, atol=1e-15)
    assert np.allclose(rotation_unitary(np.pi / 2, np.pi), -1j * SIGMA_Y, atol=1e-15)
    assert np.allclose(rotation_unitary(0.3, 0.0), IDENTITY_2, atol=1e-15)
    assert np.allclose(rotation_unitary(0.0, 2 * np.pi), -IDENTITY_2, atol=1e-15)


def test_rotation_unitary_matches_exponential():
    rng = np.random.default_rng(1301)
    for _ in range(25):
        phase = rng.uniform(-np.pi, np.pi)
        angle = rng.uniform(-3.9 * np.pi, 3.9 * np.pi)
        axis = np.cos(phase) * SIGMA_X + np.sin(phase) * SIGMA_Y
        expected = scipy.linalg.expm(-0.5j * angle * axis)
        assert np.allclose(rotation_unitary(phase, angle), expected, atol=1e-12)


def test_rotation_unitary_is_unitary():
    rng = np.random.default_rng(77)
    for _ in range(20):
        u = rotation_unitary(rng.uniform(0, 2 * np.pi), rng.uniform(-2 * np.pi, 2 * np.pi))
        assert np.allclose(u @ u.conj().T, IDENTITY_2, atol=1e-14)


def test_rotation_composition_same_axis():
    u1 = rotation_unitary(0.7, 0.4)
    u2 = rotation_unitary(0.7, 1.1)
    assert np.allclose(u2 @ u1, rotation_unitary(0.7, 1.5), atol=1e-14)


def test_hermitian_expm_matches_scipy():
    rng = np.random.default_rng(9)
    for dim in (2, 4, 8):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2
        t = rng.uniform(0.1, 2.0)
        expected = scipy.linalg.expm(-1j * h * t)
        assert np.allclose(hermitian_expm(h, t), expected, atol=1e-11)


def test_hermitian_expm_rejects_non_hermitian():
    h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        hermitian_expm(h, 1.0)


def test_embed_system_structure():
    rng = np.random.default_rng(4)
    op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for n_bath in (0, 1, 3):
        full = embed_system(op, n_bath)
        assert full.shape == (2 ** (n_bath + 1),) * 2
        assert np.allclose(full, np.kron(op, np.eye(2**n_bath)))


def test_embed_system_rejects_oversized_bath():
    with pytest.raises(ValueError):
        embed_system(SIGMA_X, 8)


def test_partial_trace_recovers_product_state():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_s = a @ a.conj().T
    rho_s /= np.trace(rho_s)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho_b = b @ b.conj().T
    rho_b /= np.trace(rho_b)
    assert np.allclose(partial_trace_bath(np.kron(rho_s, rho_b)), rho_s, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    reduced = partial_trace_bath(rho)
    assert abs(np.trace(reduced) - 1.0) < 1e-12
    assert np.allclose(reduced, reduced.conj().T, atol=1e-12)
