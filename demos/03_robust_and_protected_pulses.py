"""Why composite pulses and decoupling-embedded gates survive imperfections.

BB1 cancels systematic amplitude miscalibration to second order.  Splitting a
rotation into two soft halves hosted by a decoupling cycle refocuses the
environment while the gate accumulates, so infidelity shrinks steeply as the
cycle tightens.
"""

import numpy as np

from ddgates import apply_amplitude_error, bb1_expand, ideal_propagator
from ddgates.compiler import XY4, decompose_gate, gate_target, hard_pulse_schedule, protected_bb1_gate
from ddgates.noise import SpinBathSpec
from ddgates.tomography import chi_reconstruct, gate_fidelity, ideal_channel_samples, simulate_channel

print("Amplitude-error response of a NOT pulse (propagator max-norm error):")
rotations = decompose_gate("NOT")
target = gate_target("NOT")
bare = hard_pulse_schedule(rotations, target, "bare")
composite = hard_pulse_schedule([c for r in rotations for c in bb1_expand(r)], target, "bb1")
print(f"  {'epsilon':>8s} {'bare':>10s} {'BB1':>10s}")
for eps in (1e-3, 1e-2, 5e-2):
    errs = []
    for sched in (bare, composite):
        u0 = ideal_propagator(sched, honor_amplitude=True)
        u = ideal_propagator(apply_amplitude_error(sched, eps), honor_amplitude=True)
        errs.append(np.max(np.abs(u - u0)))
    print(f"  {eps:8.0e} {errs[0]:10.2e} {errs[1]:10.2e}")
print("  bare error grows linearly; BB1 cubically.")

print("\nProtected NOT under a fluctuating 2-spin bath (exact simulation):")
spec = SpinBathSpec(
    n_bath=2, couplings=(2.0e4, 3.1e4),
    bath_couplings=np.array([[0.0, 2.5e4], [2.5e4, 0.0]]),
)
print(f"  {'tau (us)':>9s} {'gate time (us)':>15s} {'infidelity':>11s}")
for tau in np.geomspace(2e-6, 2e-5, 5):
    sched = protected_bb1_gate(rotations, XY4, float(tau))
    chi = chi_reconstruct(simulate_channel(sched, spec))
    chi_ideal = chi_reconstruct(ideal_channel_samples(sched.target_gate))
    inf = 1.0 - gate_fidelity(chi, chi_ideal)
    print(f"  {tau * 1e6:9.2f} {sched.total_duration * 1e6:15.1f} {inf:11.2e}")
print("  halving the delay buys roughly a 16x cleaner gate.")
