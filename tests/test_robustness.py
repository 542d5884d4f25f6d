"""Each scheme's published robustness order, read from the exact channel.

A compiled schedule is checked against its target only at zero error, so any
pi-pulse phases that multiply to the identity would pass the compiler.  These
tests pin the order in the amplitude error epsilon that each composite pulse
and decoupling cycle is published to reach:

- BB1 leaves an O(epsilon^3) error in the propagator, so infidelity ~ epsilon^6
  (Wimperis, J. Magn. Reson. A 109, 221 (1994));
- an XY-4 cycle leaves epsilon^2 and an XY-8 cycle epsilon^3, so 4 and 6
  (Gullion, Baker & Conradi, J. Magn. Reson. 89, 479 (1990));
- a KDD cycle cancels its own flip error further still, so a KDD-protected gate
  keeps about BB1's residual (Souza, Alvarez & Suter, PRL 106, 240501 (2011)).

The order is the slope of log(1 - F_pro) between epsilon = 3e-2 and 1e-2, above
the rounding floor of about 1e-15; its margins come from the measured slopes.
"""

import math

import pytest

from ddgates.compiler import DD_KINDS, apply_amplitude_error, build_schedule, dd_cycle
from ddgates.noise import SpinBathSpec
from ddgates.simulate import channel_gram

TAU = 1e-5

# (low, high) order in epsilon per scheme, around the slopes measured for NOT, H and PI8:
# bb1 6.00, xy4 3.97-4.02, xy8 5.98-5.99, kdd 6.00-6.22.
PROTECTED_ORDERS = {"bb1": (5.95, 6.05), "xy4": (3.9, 4.1), "xy8": (5.9, 6.1), "kdd": (5.9, 6.35)}


def _infidelity(schedule, noise=None, epsilon=0.0):
    """1 - F_pro, F_pro = vec(t)^dag G vec(t) / 4 of the target t, G the exact channel's Gram matrix."""
    g = channel_gram(apply_amplitude_error(schedule, epsilon) if epsilon else schedule, noise)
    t = schedule.target_gate.reshape(-1)
    return 1.0 - (t.conj() @ g @ t).real / 4.0


def _order(schedule):
    return math.log(_infidelity(schedule, epsilon=3e-2) / _infidelity(schedule, epsilon=1e-2)) / math.log(3.0)


@pytest.mark.parametrize("scheme", sorted(PROTECTED_ORDERS))
@pytest.mark.parametrize("gate", ["NOT", "H", "PI8"])
def test_protected_gates_reach_their_published_order_in_the_amplitude_error(gate, scheme):
    low, high = PROTECTED_ORDERS[scheme]
    assert low <= _order(build_schedule(gate, scheme, TAU)) <= high


def test_bare_cycles_reach_their_published_order_in_the_amplitude_error():
    assert 3.9 <= _order(dd_cycle(DD_KINDS["xy4"], TAU)) <= 4.1
    assert 5.9 <= _order(dd_cycle(DD_KINDS["xy8"], TAU)) <= 6.1
    # KDD's infidelity reaches the rounding floor at 1e-2; at 3e-2 it reads 8.2e-13 (order about 7.5).
    assert _infidelity(dd_cycle(DD_KINDS["kdd"], TAU), epsilon=3e-2) <= 2e-12


def _static_offset(delta):
    return SpinBathSpec(0, (), [], system_offset=delta)


def test_bare_cycles_refocus_a_static_offset_and_protected_gates_leak_it_at_second_order():
    for kind in DD_KINDS.values():
        assert abs(_infidelity(dd_cycle(kind, TAU), _static_offset(2e3))) <= 1e-14, kind
    # The soft halves at a cycle's two ends share a toggling frame, so their offset terms add:
    # the infidelity grows as delta^2 (order 1.995-2.000 measured between 2e3/3 and 2e3 rad/s).
    for gate, kind in [(g, k) for g in ("NOT", "H", "PI8") for k in DD_KINDS]:
        sched = build_schedule(gate, kind, TAU)
        leak = [_infidelity(sched, _static_offset(delta)) for delta in (2e3, 2e3 / 3)]
        assert 1.98 <= math.log(leak[0] / leak[1]) / math.log(3.0) <= 2.02, (gate, kind)
