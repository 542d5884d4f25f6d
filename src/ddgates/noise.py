"""The quantum spin-bath model: a system qubit Ising-coupled to a few bath spins
with secular dipolar flip-flops among them (`SpinBathSpec`), and a reproducible
desk-scale bath (`default_spin_bath`).

The spec is a plain value on the standard library, validated with `math`, so a
spin-bath config loads and resolves without numpy; `default_spin_bath` loads it
for its draws.  The classical Ornstein-Uhlenbeck model and its calibration live
in `ou`; the bath's eigenframe, replay and trace live in `simulate`, and its
decay curves in `harness`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ou import calibrate_to_targets  # unused here; tests/test_acceptance.py imports noise.calibrate_to_targets

# Largest register (dim 2048, a 10-spin bath in 11 magnetization sectors of at most 252
# states, held unpadded as six real stacks of equal-size sectors, 9.9 MiB): its frame takes ~0.07 s
# once, then its heaviest cell (PI8/kdd, 615 events) ~3 s cold or warm on one core of a 2-core Xeon,
# for its phase-0 pulses outgrow `simulate.PULSE_CACHE_BYTES`; a sweep at --jobs 1 peaks under 200 MiB RSS.
DEFAULT_MAX_SPINS = 11


class CouplingMatrix(tuple):
    """The rows of d_jk, each a tuple of floats.  `tolist` nests them as lists, as the ndarray it
    replaced did, for perfbench/make_reference.py writes a bath's JSON by it."""

    def tolist(self) -> list[list[float]]:
        return [list(row) for row in self]


@dataclass(frozen=True)
class SpinBathSpec:
    """Quantum bath: Ising couplings to the system, dipolar couplings within.

    A value: bath_couplings is held as a CouplingMatrix of rows, so two specs of equal
    fields are equal and hash alike.  It takes any n x n nest of numbers, an ndarray
    included, checked against its shape if it has one; [] is the 0x0 matrix.
    """

    n_bath: int
    couplings: tuple[float, ...]  # b_k, rad/s
    bath_couplings: CouplingMatrix  # d_jk, rad/s, symmetric, zero diagonal
    system_offset: float = 0.0  # omega_S, rad/s

    def __post_init__(self):
        if isinstance(self.n_bath, bool) or not hasattr(type(self.n_bath), "__index__"):  # numpy's integers load
            raise ValueError(f"n_bath must be an integer, got {self.n_bath!r}")
        n = int(self.n_bath)
        object.__setattr__(self, "n_bath", n)
        if not 0 <= n < DEFAULT_MAX_SPINS:
            raise ValueError(f"n_bath must lie in [0, {DEFAULT_MAX_SPINS - 1}], got {n}: "
                             f"the system plus bath holds at most {DEFAULT_MAX_SPINS} spins")
        object.__setattr__(self, "couplings", tuple(float(b) for b in self.couplings))
        if len(self.couplings) != n:
            raise ValueError(f"expected {n} couplings, got {len(self.couplings)}")
        d = CouplingMatrix(tuple(float(v) for v in row) for row in self.bath_couplings)
        shape = getattr(self.bath_couplings, "shape", (len(d), *{len(row) for row in d}))
        if shape != (n, n) and not (n == 0 and shape == (0,)):  # the 0x0 matrix as JSON writes it, []
            raise ValueError(f"bath_couplings must be {n}x{n}")
        if not all(map(math.isfinite, (*self.couplings, *(v for row in d for v in row), self.system_offset))):
            raise ValueError("couplings, bath_couplings and system_offset must be finite")
        if any(d[j][k] != d[k][j] for j in range(n) for k in range(j)) or any(d[j][j] != 0.0 for j in range(n)):
            raise ValueError("bath_couplings must be symmetric with zero diagonal")
        object.__setattr__(self, "bath_couplings", d)


def default_spin_bath(
    n_bath: int = 4,
    seed: int = 2024,
    system_offset: float = 0.0,
) -> SpinBathSpec:
    """Reproducible desk-scale bath: b_k log-uniform in [1e4, 8e4] rad/s, and
    d_jk = 2.5e4 rad/s x (3 cos^2 theta - 1) / 2 at random orientations theta."""
    import numpy as np  # the draws only: a spec itself needs no numpy

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    b = 10 ** rng.uniform(math.log10(1e4), math.log10(8e4), n_bath)
    d = np.zeros((n_bath, n_bath))
    for j in range(n_bath):
        for k in range(j + 1, n_bath):
            cos_t = rng.uniform(-1.0, 1.0)
            d[j, k] = d[k, j] = 2.5e4 * (3 * cos_t**2 - 1) / 2
    return SpinBathSpec(n_bath, tuple(b), d, system_offset)
