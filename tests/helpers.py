"""Shared by the tests: independent constructions to check the package against, and OU trajectories."""

import functools
import math
from itertools import islice

import numpy as np
import scipy.linalg

from ddgates.compiler import DD_KINDS, GATE_ROTATIONS, cycle_pulse_count
from ddgates.core import IDENTITY_2, SIGMA_X, SIGMA_Y, embed_system, spin_half_operators
from ddgates.noise import ou_trajectory


def bath_hamiltonians(spec):
    """(H_S, H_SE, H_E) of a SpinBathSpec on the full system (x) bath space, built with krons.

    H_S is the system offset, H_SE the Ising system-bath dephasing coupling,
    H_E the secular dipolar intra-bath coupling (flip-flop terms included).
    """
    n = spec.n_bath
    # site[k] = (S_x, S_y, S_z) on bath site k, identity elsewhere (bath space only).
    site = [[functools.reduce(np.kron, [c if j == k else IDENTITY_2 for j in range(n)], np.eye(1))
             for c in spin_half_operators()] for k in range(n)]
    sz, eye_b = spin_half_operators()[2], np.eye(2**n, dtype=complex)
    h_se, h_e_bath = np.zeros((2 * len(eye_b),) * 2, dtype=complex), np.zeros_like(eye_b)
    for k, b in enumerate(spec.couplings):
        h_se += b * np.kron(sz, site[k][2])
    for j in range(n):
        for k in range(j + 1, n):
            (xj, yj, zj), (xk, yk, zk) = site[j], site[k]
            h_e_bath += spec.bath_couplings[j, k] * (2 * zj @ zk - xj @ xk - yj @ yk)
    return spec.system_offset * np.kron(sz, eye_b), h_se, np.kron(IDENTITY_2, h_e_bath)


def total_hamiltonian(spec):
    return functools.reduce(np.add, bath_hamiltonians(spec))  # H_S + H_SE + H_E


def oracle_bath_propagator(schedule, spec):
    """The exact system (x) bath propagator, one scipy expm of the dense Hamiltonian per event."""
    h_noise = total_hamiltonian(spec)
    sx = SIGMA_X / 2
    sy = SIGMA_Y / 2
    u = np.eye(h_noise.shape[0], dtype=complex)
    for ev in schedule.events:
        if ev.kind == "delay":
            u = scipy.linalg.expm(-1j * h_noise * ev.duration) @ u
        else:
            angle = ev.rotation.angle * ev.amplitude_scale
            if ev.duration == 0.0:
                axis = math.cos(ev.rotation.phase) * SIGMA_X + math.sin(ev.rotation.phase) * SIGMA_Y
                u = embed_system(scipy.linalg.expm(-0.5j * angle * axis), spec.n_bath) @ u
            else:
                omega = angle / ev.duration
                h_ctrl = omega * (math.cos(ev.rotation.phase) * sx + math.sin(ev.rotation.phase) * sy)
                u = scipy.linalg.expm(-1j * (embed_system(h_ctrl, spec.n_bath) + h_noise) * ev.duration) @ u
    return u


def expected_pulse_count(gate: str, scheme: str) -> int:
    """Closed-form pulse count for a compiled cell."""
    n = len(GATE_ROTATIONS[gate])
    if scheme in ("simple", "simple_padded"):
        return n
    if scheme == "bb1":
        return 5 * n
    cycle = cycle_pulse_count(DD_KINDS[scheme])
    return n * 5 * (cycle + 2) if n else cycle


def trajectory(spec, n_steps, rows, seed):
    """The trajectory ou_propagators draws: delta_0 .. delta_n_steps, shape (rows, n_steps + 1)."""
    return np.array(list(islice(ou_trajectory(spec, rows, seed, n_steps), n_steps + 1))).T
