"""Reconstruct process matrices by linear inversion and score gates with them.

The channel acts on four fixed input states; inverting the linear system
yields the chi matrix in the (I, X, iY, Z) operator basis with no
positivity projection.  Fidelity compares two chi matrices (or two
propagators) by a normalized trace overlap.
"""

import numpy as np

from ddgates import OUNoiseSpec, build_schedule, gate_fidelity
from ddgates.compiler import apply_amplitude_error
from ddgates.tomography import chi_reconstruct, ideal_channel_samples, simulate_channel


def show(label, chi):
    print(f"{label} (real part):")
    for row in chi.real:
        print("   " + "  ".join(f"{x:+.3f}" for x in row))


ideal_h = chi_reconstruct(ideal_channel_samples(build_schedule("H", "simple", 1e-5).target_gate))
show("chi of the ideal Hadamard", ideal_h.entries)
print(f"  trace = {np.trace(ideal_h.entries).real:.6f}, "
      f"TP residual = {ideal_h.trace_preservation_residual():.2e}\n")

noise = OUNoiseSpec(sigma=4335.4, tau_c=1.5e-4, dt=1.5e-5, sigma_static=2361.9)
print("Hadamard through calibrated noise, three gate-execution styles:")
for scheme in ("simple_padded", "xy4", "xy8"):
    sched = apply_amplitude_error(build_schedule("H", scheme, 2e-5), 0.01)
    chi = chi_reconstruct(simulate_channel(sched, noise))
    fidelity = gate_fidelity(chi, ideal_h)
    print(f"  {scheme:14s} duration {sched.total_duration * 1e3:5.2f} ms   "
          f"F = {fidelity:.4f}   min eigenvalue {chi.min_eigenvalue():+.1e}")

print("\nThe padded bare gate decoheres; the decoupled ones stay close to ideal.")
