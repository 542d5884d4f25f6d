import numpy as np
import pytest
import scipy.linalg

from ddgates.core import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    embed_system,
    rotation_unitary,
)
from ddgates.noise import DEFAULT_MAX_SPINS


def test_pauli_algebra():
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert np.allclose(s @ s, IDENTITY_2)
        assert np.allclose(s, s.conj().T)
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)


def test_pauli_constants_are_read_only():
    with pytest.raises(ValueError):
        SIGMA_X[0, 0] = 5.0


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


def test_embed_system_structure():
    rng = np.random.default_rng(4)
    op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for n_bath in (0, 1, 3):
        full = embed_system(op, n_bath)
        assert full.shape == (2 ** (n_bath + 1),) * 2
        assert np.allclose(full, np.kron(op, np.eye(2**n_bath)))


def test_embed_system_rejects_oversized_bath():
    with pytest.raises(ValueError):
        embed_system(SIGMA_X, DEFAULT_MAX_SPINS)  # one spin over the limit, counting the system
