"""Single-qubit process tomography and the propagator/process fidelity metric.

Chi matrices are expanded in the operator basis (I, sigma_x, i*sigma_y,
sigma_z).  A simulated channel is an average of K rho K^dag over an operator
ensemble, so its chi is computed directly from the operators' basis
coefficients.  Measured output states on the four inputs |0>, |1>, |+>, |+i>
are reconstructed by plain linear inversion of the resulting 16x16 system,
which also serves as the independent check of the direct route.  No
positivity projection is applied; defects of Monte-Carlo reconstructions are
reported, not repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z
from .simulate import average_channel_output, channel_operators

CHI_BASIS: tuple[np.ndarray, ...] = (IDENTITY_2, SIGMA_X, 1j * SIGMA_Y, SIGMA_Z)
CHI_BASIS_LABELS = ("I", "X", "iY", "Z")

KET_0 = np.array([1.0, 0.0], dtype=complex)
KET_1 = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
KET_PLUS_I = np.array([1.0, 1j], dtype=complex) / math.sqrt(2)

TOMO_INPUT_STATES: tuple[np.ndarray, ...] = tuple(
    np.outer(k, k.conj()) for k in (KET_0, KET_1, KET_PLUS, KET_PLUS_I)
)
for _m in CHI_BASIS + TOMO_INPUT_STATES:
    _m.setflags(write=False)


def _transfer_matrix() -> np.ndarray:
    a = np.zeros((16, 16), dtype=complex)
    for j, rho in enumerate(TOMO_INPUT_STATES):
        for m in range(4):
            for n in range(4):
                a[4 * j : 4 * j + 4, 4 * m + n] = (
                    CHI_BASIS[m] @ rho @ CHI_BASIS[n].conj().T
                ).reshape(-1)
    return a


_TRANSFER = _transfer_matrix()
# The fixed input set is informationally complete; a singular system would be a bug.
assert np.linalg.matrix_rank(_TRANSFER) == 16


@dataclass(frozen=True, eq=False)
class ChannelSamples:
    """Output states of a channel on the four fixed tomography inputs."""

    outputs: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.outputs) != 4:
            raise ValueError("expected one output per tomography input state")
        outs = []
        for rho in self.outputs:
            rho = np.asarray(rho, dtype=complex)
            if rho.shape != (2, 2):
                raise ValueError(f"output states must be 2x2, got {rho.shape}")
            if abs(np.trace(rho) - 1.0) > 1e-6 or np.max(np.abs(rho - rho.conj().T)) > 1e-6:
                raise ValueError("output state is not a density matrix within tolerance")
            rho.setflags(write=False)
            outs.append(rho)
        object.__setattr__(self, "outputs", tuple(outs))


@dataclass(frozen=True, eq=False)
class ChiMatrix:
    """4x4 process matrix in the (I, sigma_x, i*sigma_y, sigma_z) basis."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.shape != (4, 4):
            raise ValueError(f"chi matrix must be 4x4, got {entries.shape}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))

    def trace_preservation_residual(self) -> float:
        acc = np.zeros((2, 2), dtype=complex)
        for m in range(4):
            for n in range(4):
                acc += self.entries[m, n] * (CHI_BASIS[n].conj().T @ CHI_BASIS[m])
        return float(np.max(np.abs(acc - IDENTITY_2)))

    def min_eigenvalue(self) -> float:
        sym = (self.entries + self.entries.conj().T) / 2
        return float(np.linalg.eigvalsh(sym).min())

    def to_json_dict(self) -> dict:
        return {
            "basis": list(CHI_BASIS_LABELS),
            "entries_re": self.entries.real.tolist(),
            "entries_im": self.entries.imag.tolist(),
        }


def chi_reconstruct(samples: ChannelSamples) -> ChiMatrix:
    """Linear-inversion chi matrix from the four observed output states."""
    b = np.concatenate([rho.reshape(-1) for rho in samples.outputs])
    chi = np.linalg.solve(_TRANSFER, b).reshape(4, 4)
    return ChiMatrix(chi)


def chi_from_operators(ops: np.ndarray) -> ChiMatrix:
    """Chi matrix of the channel rho -> mean over k of K_k rho K_k^dag, ops shape (n, 2, 2).

    With K = sum_m c_m B_m over the orthogonal basis (Tr(B_m^dag B_n) = 2 delta_mn),
    chi_mn is the ensemble mean of c_m conj(c_n).
    """
    c = np.einsum("mij,kij->km", np.conj(CHI_BASIS), ops) / 2
    return ChiMatrix(c.T @ c.conj() / len(c))


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, ChiMatrix):
        return x.entries
    return np.asarray(x, dtype=complex)


def gate_fidelity(a, b) -> float:
    """Overlap metric |Tr(A B^dag)| / sqrt(Tr(A A^dag) Tr(B B^dag))."""
    am = _as_matrix(a)
    bm = _as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch {am.shape} vs {bm.shape}")
    na = np.trace(am @ am.conj().T).real
    nb = np.trace(bm @ bm.conj().T).real
    if na <= 0 or nb <= 0:
        raise ValueError("fidelity is undefined for zero-norm operators")
    return float(abs(np.trace(am @ bm.conj().T)) / math.sqrt(na * nb))


def ideal_channel_samples(target: np.ndarray) -> ChannelSamples:
    """Channel samples of the noiseless unitary conjugation by `target`."""
    target = np.asarray(target, dtype=complex)
    return ChannelSamples(tuple(target @ rho @ target.conj().T for rho in TOMO_INPUT_STATES))


def simulate_channel(schedule, noise_model, n_realizations: int, seed: int) -> ChannelSamples:
    """Ensemble-averaged output states of a schedule on the tomography inputs.

    The noise models are those of `channel_operators`; amplitude scales stored
    on the schedule are part of the simulated physics.
    """
    ops = channel_operators(schedule, noise_model, n_realizations, seed)
    return ChannelSamples(tuple(average_channel_output(ops, rho) for rho in TOMO_INPUT_STATES))


def process_fidelity(schedule, noise_model, n_realizations: int, seed: int) -> float:
    """Fidelity between the chi of the simulated channel and that of its target gate."""
    chi_actual = chi_from_operators(channel_operators(schedule, noise_model, n_realizations, seed))
    return gate_fidelity(chi_actual, chi_from_operators(schedule.target_gate[None]))
