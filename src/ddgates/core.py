"""Dense linear algebra for small spin systems.

Operators are plain complex ndarrays on a Hilbert space of one system qubit
optionally tensored with a register of bath spins (system factor first).
"""

from __future__ import annotations

import math

import numpy as np

from .noise import DEFAULT_MAX_SPINS

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2):
    _m.setflags(write=False)


def rotation_unitary(phase: float, angle: float) -> np.ndarray:
    """Rotation by `angle` about the in-plane axis at azimuth `phase`.

    Returns exp(-i*angle*(cos(phase)*sigma_x + sin(phase)*sigma_y)/2).
    """
    if not (math.isfinite(phase) and math.isfinite(angle)):
        raise ValueError("phase and angle must be finite")
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    off = -1j * s * np.exp(-1j * phase)
    return np.array([[c, off], [-1j * s * np.exp(1j * phase), c]])


# Unused in src/; kept for tests/test_acceptance.py, whose criterion 04 imports it.
def embed_system(op: np.ndarray, n_bath: int) -> np.ndarray:
    """Lift a 2x2 system operator to the system (x) bath space: op (x) I."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 system operator, got shape {op.shape}")
    if n_bath < 0:
        raise ValueError("n_bath must be non-negative")
    if 1 + n_bath > DEFAULT_MAX_SPINS:
        raise ValueError(f"{1 + n_bath} total spins exceeds the maximum of {DEFAULT_MAX_SPINS}")
    return np.kron(op, np.eye(2**n_bath, dtype=complex))
