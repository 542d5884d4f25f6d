"""Dephasing noise models and calibration against decay-time targets.

Two interchangeable environments: an exact few-spin quantum bath, and a
classical Ornstein-Uhlenbeck frequency trajectory with an optional static
per-realization offset.  The calibrator fits the classical model so its
free-induction and echo 1/e times match requested values.
"""

import numpy as np

from ddgates import calibrate_to_targets, default_spin_bath, fid_decay_curve, hahn_decay_curve
from ddgates.ou import coherence_1e_time

print("Quantum bath (4 spins, exact average):")
bath = default_spin_bath(n_bath=4, seed=2024)
delays = np.linspace(0.0, 4e-4, 81)
fid = fid_decay_curve(bath, delays)
hahn = hahn_decay_curve(bath, delays)
for (t, cf), (_, ch) in list(zip(fid, hahn))[::20]:
    print(f"  t={t * 1e6:6.1f} us  FID={cf:.4f}  echo={ch:.4f}")
# A four-spin bath is too small to dephase an echo: the flip-flop dynamics
# stay quasi-periodic, so only the free-induction curve crosses 1/e.
echo_floor = min(c for _, c in hahn)
print(f"  FID 1/e time: {coherence_1e_time(fid) * 1e6:.1f} us; "
      f"echo floor on this window: {echo_floor:.3f} (never below 1/e)")

print("\nCalibrating the classical model to T2* = 370 us, T2 = 750 us ...")
result = calibrate_to_targets(370e-6, 750e-6)
p = result.params
print(f"  sigma        = {p.sigma:9.1f} rad/s   (fluctuating part)")
print(f"  tau_c        = {p.tau_c * 1e6:9.1f} us      (correlation time)")
print(f"  sigma_static = {p.sigma_static:9.1f} rad/s   (inhomogeneous broadening)")
print(f"  fitted T2*   = {result.fitted_t2_star * 1e6:9.1f} us      (target 370)")
print(f"  fitted T2    = {result.fitted_t2_hahn * 1e6:9.1f} us      (target 750)")

print("\nThe echo outlives free induction because the static part refocuses:")
grid = np.linspace(0.0, 1.2e-3, 49)
fid_c = fid_decay_curve(p, grid)
hahn_c = hahn_decay_curve(p, grid)
for (t, cf), (_, ch) in list(zip(fid_c, hahn_c))[::12]:
    print(f"  t={t * 1e6:7.1f} us   FID={cf:.3f}   echo={ch:.3f}")
