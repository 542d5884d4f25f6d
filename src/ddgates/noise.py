"""The quantum spin-bath model: a system qubit Ising-coupled to a few bath spins
with secular dipolar flip-flops among them (`SpinBathSpec`), and a reproducible
desk-scale bath (`default_spin_bath`).

The classical Ornstein-Uhlenbeck model and its calibration live in `ou`; the
bath's eigenframe, replay and trace live in `simulate`, and its decay curves in
`harness`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_MAX_SPINS
from .ou import calibrate_to_targets  # unused here; tests/test_acceptance.py imports noise.calibrate_to_targets


@dataclass(frozen=True, eq=False)
class SpinBathSpec:
    """Quantum bath: Ising couplings to the system, dipolar couplings within."""

    n_bath: int
    couplings: tuple[float, ...]  # b_k, rad/s
    bath_couplings: np.ndarray  # d_jk, rad/s, symmetric, zero diagonal
    system_offset: float = 0.0  # omega_S, rad/s

    def __post_init__(self):
        if isinstance(self.n_bath, bool) or not hasattr(type(self.n_bath), "__index__"):  # numpy's integers load
            raise ValueError(f"n_bath must be an integer, got {self.n_bath!r}")
        object.__setattr__(self, "n_bath", int(self.n_bath))
        if not 0 <= self.n_bath < DEFAULT_MAX_SPINS:
            raise ValueError(f"n_bath must lie in [0, {DEFAULT_MAX_SPINS - 1}], got {self.n_bath}: "
                             f"the system plus bath holds at most {DEFAULT_MAX_SPINS} spins")
        object.__setattr__(self, "couplings", tuple(float(b) for b in self.couplings))
        if len(self.couplings) != self.n_bath:
            raise ValueError(f"expected {self.n_bath} couplings, got {len(self.couplings)}")
        d = np.array(self.bath_couplings, dtype=float)
        if d.shape == (0,):  # the 0x0 matrix as JSON writes it, []
            d = d.reshape(0, 0)
        if d.shape != (self.n_bath, self.n_bath):
            raise ValueError(f"bath_couplings must be {self.n_bath}x{self.n_bath}")
        if not (np.all(np.isfinite(self.couplings)) and np.all(np.isfinite(d))
                and math.isfinite(self.system_offset)):
            raise ValueError("couplings, bath_couplings and system_offset must be finite")
        if self.n_bath and (np.any(d != d.T) or np.any(np.diag(d) != 0.0)):
            raise ValueError("bath_couplings must be symmetric with zero diagonal")
        d.setflags(write=False)
        object.__setattr__(self, "bath_couplings", d)


def default_spin_bath(
    n_bath: int = 4,
    seed: int = 2024,
    system_offset: float = 0.0,
) -> SpinBathSpec:
    """Reproducible desk-scale bath: b_k log-uniform in [1e4, 8e4] rad/s, and
    d_jk = 2.5e4 rad/s x (3 cos^2 theta - 1) / 2 at random orientations theta."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    b = 10 ** rng.uniform(math.log10(1e4), math.log10(8e4), n_bath)
    d = np.zeros((n_bath, n_bath))
    for j in range(n_bath):
        for k in range(j + 1, n_bath):
            cos_t = rng.uniform(-1.0, 1.0)
            d[j, k] = d[k, j] = 2.5e4 * (3 * cos_t**2 - 1) / 2
    return SpinBathSpec(n_bath, tuple(b), d, system_offset)
