"""Dense linear algebra for small spin systems.

Operators are plain complex ndarrays on a Hilbert space of one system qubit
optionally tensored with a register of bath spins (system factor first).
"""

from __future__ import annotations

import math
import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2):
    _m.setflags(write=False)

# Largest register (dim 128, a 6-spin bath in 7 magnetization sectors of at most 20
# states, held unpadded as four stacks of equal-size sectors): its frame takes ~7 ms
# once, then its heaviest cell (PI8/kdd, 615 events) ~0.01 s on one core of a 2-core x86 box.
DEFAULT_MAX_SPINS = 7

HERMITICITY_TOL = 1e-9


def spin_half_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return the spin-1/2 operators (S_x, S_y, S_z), i.e. half Paulis."""
    return 0.5 * SIGMA_X, 0.5 * SIGMA_Y, 0.5 * SIGMA_Z


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


def hermitian_expm(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*h*t) for Hermitian h, or for each matrix of a stack h, via eigendecomposition."""
    h = np.asarray(h, dtype=complex)
    asym = np.max(np.abs(h - h.conj().swapaxes(-1, -2)))
    if asym > HERMITICITY_TOL:
        raise ValueError(f"generator is not Hermitian (asymmetry {asym:.3g})")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def partial_trace_bath(rho: np.ndarray) -> np.ndarray:
    """Reduce a system (x) bath density matrix to the 2x2 system state."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    if rho.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
        raise ValueError(f"dimension {rho.shape} is not a square power of two >= 2")
    d_bath = dim // 2
    return np.trace(rho.reshape(2, d_bath, 2, d_bath), axis1=1, axis2=3)

