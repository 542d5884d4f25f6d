"""Pulse-sequence compiler for decoupling-protected single-qubit gates.

Named gates decompose into in-plane rotations; each rotation can be expanded
into a five-component composite pulse robust to amplitude miscalibration, and
each component can be wrapped in a decoupling cycle whose first and last free
periods carry the two gate halves as weak finite-duration rotations.  This is
the one module that builds schedules: `build_schedule` turns (gate, scheme,
tau) into one, and `protected_gate_time` is the protected gate's duration.
Every schedule, whether compiled or loaded from JSON, is checked once against
its target by a zero-noise simulation.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .config import SCHEMES, CompileError, _reject_unknown_keys, json_value
from .core import IDENTITY_2, SIGMA_X, rotation_unitary
from .simulate import ideal_propagator
from .tomography import gate_fidelity

TAU_MIN = 1e-6
TAU_MAX = 1e-3

VERIFY_THRESHOLD = 1.0 - 1e-9

EVENT_KINDS = ("delay", "hard_pulse", "soft_gate_half")

_PI = math.pi
_HALF_PI = math.pi / 2
_FOUR_PI = 4 * math.pi

# Pi-pulse phases of one cycle of each decoupling kind.  XY-8 is XY-4 and its
# mirror; KDD replaces each XY-4 pulse by a five-pulse composite.
_XY4 = (0.0, _HALF_PI, 0.0, _HALF_PI)
_CYCLE_PHASES: dict[str, tuple[float, ...]] = {
    "xy4": _XY4,
    "xy8": _XY4 + _XY4[::-1],
    "kdd": tuple(skel + chi for skel in _XY4 for chi in (_PI / 6, 0.0, _HALF_PI, 0.0, _PI / 6)),
}


@dataclass(frozen=True)
class RotationSpec:
    """In-plane rotation: axis azimuth `phase`, signed `angle`."""

    phase: float
    angle: float

    def __post_init__(self):
        if not (math.isfinite(self.phase) and math.isfinite(self.angle)):
            raise ValueError("phase and angle must be finite")
        if not -_FOUR_PI < self.angle <= _FOUR_PI:
            raise ValueError(f"angle {self.angle} outside (-4*pi, 4*pi]")


@dataclass(frozen=True)
class PulseEvent:
    """One timed element of a schedule: a delay or a (hard or soft) rotation."""

    kind: str
    duration: float
    rotation: RotationSpec | None = None
    amplitude_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if not math.isfinite(self.duration) or self.duration < 0:
            raise ValueError("duration must be finite and non-negative")
        if not math.isfinite(self.amplitude_scale):
            raise ValueError("amplitude_scale must be finite")
        if self.kind == "delay":
            if self.rotation is not None:
                raise ValueError("delay events carry no rotation")
        else:
            if self.rotation is None:
                raise ValueError(f"{self.kind} events require a rotation")
            # Engines tell the two apart by duration: a hard pulse is instantaneous,
            # a soft half realizes a finite control amplitude angle/duration.
            if self.kind == "hard_pulse" and self.duration != 0:
                raise ValueError("hard_pulse events take zero duration")
            if self.kind == "soft_gate_half" and self.duration <= 0:
                raise ValueError("soft_gate_half events require positive duration")
        # Hashed once, to the same value in every process (a str hash is salted per process,
        # and before Python 3.12 None hashes by address), so a pickled copy still hashes equal.
        object.__setattr__(self, "_hash", hash((EVENT_KINDS.index(self.kind), self.duration,
                                                self.rotation or (), self.amplitude_scale)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, eq=False)
class Schedule:
    """Compiled event list with its target gate and, if protected, its cycle kind and tau.

    A protected schedule's hard pulses are its kind's cycle phases repeated
    whole, and it lasts that many cycles.
    """

    events: tuple[PulseEvent, ...]
    target_gate: np.ndarray
    label: str
    dd_kind: str | None = None
    tau: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        target = np.array(self.target_gate, dtype=complex)
        if target.shape != (2, 2):
            raise ValueError(f"target_gate must be 2x2, got {target.shape}")
        target.setflags(write=False)
        object.__setattr__(self, "target_gate", target)
        if self.dd_kind is not None:
            if self.dd_kind not in _CYCLE_PHASES or self.tau is None:
                raise ValueError(f"dd_kind {self.dd_kind!r} must be one of {sorted(_CYCLE_PHASES)}, with a tau")
            # The events must be whole cycles of that kind and tau.
            table = _CYCLE_PHASES[self.dd_kind]
            phases = tuple(ev.rotation.phase for ev in self.events if ev.kind == "hard_pulse")
            cycles = len(phases) // len(table)
            if not cycles or phases != table * cycles or not math.isclose(
                self.total_duration, cycles * self.cycle_time, rel_tol=1e-9
            ):
                raise ValueError(f"events are not whole {self.dd_kind} cycles at tau {self.tau:.6g} s")

    @property
    def cycle_time(self) -> float:
        """Duration of one decoupling cycle; 0 for a schedule without one."""
        return len(_CYCLE_PHASES[self.dd_kind]) * self.tau if self.dd_kind else 0.0

    @property
    def total_duration(self) -> float:
        return float(sum(ev.duration for ev in self.events))

    @functools.cached_property
    def runs(self) -> tuple[tuple[tuple[PulseEvent, ...], ...], tuple[tuple[int, PulseEvent | None], ...]]:
        """(runs, steps): the distinct runs of delays and hard pulses that the soft halves cut the
        events into, and the (run number, soft half after it or None) steps that replay the events."""
        numbers, steps, run = {}, [], []
        for ev in (*self.events, None):
            if ev is not None and ev.kind != "soft_gate_half":
                run.append(ev)
                continue
            steps.append((numbers.setdefault(tuple(run), len(numbers)), ev))
            run = []
        return tuple(numbers), tuple(steps)


@dataclass(frozen=True)
class DDKind:
    """Decoupling cycle family: xy4, xy8 or kdd."""

    name: str

    def __post_init__(self):
        if self.name not in _CYCLE_PHASES:
            raise ValueError(f"unknown DD kind {self.name!r}")


DD_KINDS = {name: DDKind(name) for name in _CYCLE_PHASES}
XY4, XY8, KDD = DD_KINDS["xy4"], DD_KINDS["xy8"], DD_KINDS["kdd"]

GATE_ROTATIONS: dict[str, tuple[RotationSpec, ...]] = {
    "H": (RotationSpec(_HALF_PI, _HALF_PI), RotationSpec(0.0, _PI)),
    "NOT": (RotationSpec(0.0, _PI),),
    "PI8": (
        RotationSpec(0.0, -_HALF_PI),
        RotationSpec(_HALF_PI, _PI / 4),
        RotationSpec(0.0, _HALF_PI),
    ),
    "NOOP": (),
}

GATE_TARGETS: dict[str, np.ndarray] = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "NOT": SIGMA_X,
    "PI8": np.diag([np.exp(-1j * _PI / 8), np.exp(1j * _PI / 8)]),
    "NOOP": IDENTITY_2,
}
for _m in GATE_TARGETS.values():
    _m.setflags(write=False)


def decompose_gate(name: str) -> list[RotationSpec]:
    """Rotation list for a named gate, in execution order (earliest first)."""
    try:
        return list(GATE_ROTATIONS[name])
    except KeyError:
        raise ValueError(f"unknown gate {name!r}; expected one of {sorted(GATE_ROTATIONS)}") from None


def gate_target(name: str) -> np.ndarray:
    """Ideal 2x2 unitary of a named gate."""
    try:
        return GATE_TARGETS[name]
    except KeyError:
        raise ValueError(f"unknown gate {name!r}; expected one of {sorted(GATE_TARGETS)}") from None


def rotation_product(rotations) -> np.ndarray:
    """Ideal product of a rotation list (execution order, later factors on the left)."""
    u = np.eye(2, dtype=complex)
    for r in rotations:
        u = rotation_unitary(r.phase, r.angle) @ u
    return u


def bb1_expand(r: RotationSpec) -> list[RotationSpec]:
    """Five-component composite pulse equivalent to r, robust to amplitude errors."""
    psi = math.acos(-r.angle / _FOUR_PI)
    return [
        RotationSpec(r.phase, r.angle / 2),
        RotationSpec(r.phase + psi, _PI),
        RotationSpec(r.phase + 3 * psi, 2 * _PI),
        RotationSpec(r.phase + psi, _PI),
        RotationSpec(r.phase, r.angle / 2),
    ]


def check_tau(tau: float) -> None:
    """Reject a tau outside [TAU_MIN, TAU_MAX] with a CompileError."""
    if not tau > 0:
        raise CompileError("tau must be positive")
    if not TAU_MIN <= tau <= TAU_MAX:
        raise CompileError(f"tau {tau:.3g} s outside the supported range [{TAU_MIN}, {TAU_MAX}] s")


def cycle_pulse_count(kind: DDKind) -> int:
    return len(_CYCLE_PHASES[kind.name])


def _verified(schedule: Schedule) -> Schedule:
    fidelity = verify_schedule(schedule)
    if fidelity < VERIFY_THRESHOLD:
        raise CompileError(
            f"schedule {schedule.label!r} misses its target: fidelity {fidelity:.12f}"
        )
    return schedule


@functools.lru_cache(maxsize=256)  # the README grid builds 144 distinct cycles
def _cycle_events(kind: DDKind, tau: float, rotation: RotationSpec | None = None) -> tuple[PulseEvent, ...]:
    """Events of one decoupling cycle: pi pulses tau apart, tau/2 free at both ends.

    Given a non-zero rotation, the two end periods become soft halves of
    angle/2 each, so the gate accumulates while the drift is refocused.
    """
    check_tau(tau)
    if rotation is None or rotation.angle == 0.0:
        end = PulseEvent("delay", tau / 2)
    else:
        end = PulseEvent("soft_gate_half", tau / 2, RotationSpec(rotation.phase, rotation.angle / 2))
    events = [end]
    for p in _CYCLE_PHASES[kind.name]:
        events += [PulseEvent("hard_pulse", 0.0, RotationSpec(p, _PI)), PulseEvent("delay", tau)]
    events[-1] = end
    return tuple(events)


def dd_cycle(kind: DDKind, tau: float) -> Schedule:
    """One decoupling cycle of pi pulses with identity target; its duration is pulses * tau."""
    return _verified(Schedule(
        _cycle_events(kind, tau), IDENTITY_2, f"dd:{kind.name}:tau={tau:.6g}", kind.name, tau
    ))


def protected_bb1_gate(rotations, kind: DDKind, tau: float) -> Schedule:
    """Composite-pulse expansion of a gate with every component cycle-protected.

    No rotations means the identity gate: a single bare decoupling cycle.
    """
    rotations = list(rotations)
    if not rotations:
        return dd_cycle(kind, tau)
    events = [ev for r in rotations for c in bb1_expand(r) for ev in _cycle_events(kind, tau, c)]
    label = f"protected-bb1:{kind.name}:components={5 * len(rotations)}:tau={tau:.6g}"
    return _verified(Schedule(events, rotation_product(rotations), label, kind.name, tau))


def hard_pulse_schedule(rotations, target_gate, label: str, pad_to: float = 0.0) -> Schedule:
    """Instantaneous rotations, optionally padded symmetrically to pad_to seconds."""
    if pad_to < 0:
        raise CompileError("pad_to must be non-negative")
    events: list[PulseEvent] = []
    if pad_to:
        events.append(PulseEvent("delay", pad_to / 2))
    events.extend(PulseEvent("hard_pulse", 0.0, r) for r in rotations)
    if pad_to:
        events.append(PulseEvent("delay", pad_to / 2))
    return _verified(Schedule(events, target_gate, label))


def protected_gate_time(gate: str, kind: DDKind, tau: float) -> float:
    """Duration of a gate protected by kind at tau: one cycle per BB1 component, 5 per rotation (one bare
    cycle for NOOP), each the kind's pulse count times tau."""
    return (5 * len(decompose_gate(gate)) or 1) * cycle_pulse_count(kind) * tau


def build_schedule(gate: str, scheme: str, tau: float) -> Schedule:
    """Compile one (gate, scheme) cell at inter-pulse delay tau."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if not 0 < tau < math.inf:  # every scheme writes tau into its label
        raise CompileError(f"tau must be positive and finite, got {tau!r}")
    rotations = decompose_gate(gate)
    target = gate_target(gate)
    label = f"{gate}:{scheme}:tau={tau:.6g}"
    if scheme == "simple":
        return hard_pulse_schedule(rotations, target, label)
    if scheme == "simple_padded":
        # Pad to the XY-8 protected duration so gate times compare like for like;
        # tau sets that duration, so it gets the decoupling schemes' range check.
        check_tau(tau)
        return hard_pulse_schedule(rotations, target, label, pad_to=protected_gate_time(gate, XY8, tau))
    if scheme == "bb1":
        return hard_pulse_schedule([c for r in rotations for c in bb1_expand(r)], target, label)
    return dataclasses.replace(protected_bb1_gate(rotations, DD_KINDS[scheme], tau), label=label)


def apply_amplitude_error(schedule: Schedule, epsilon: float) -> Schedule:
    """New schedule with every pulse amplitude scaled by (1 + epsilon)."""
    if not abs(epsilon) < 0.5:
        raise ValueError(f"epsilon {epsilon} outside (-0.5, 0.5)")
    scaled = {
        ev: ev if ev.kind == "delay" else dataclasses.replace(ev, amplitude_scale=ev.amplitude_scale * (1.0 + epsilon))
        for ev in dict.fromkeys(schedule.events)
    }
    return dataclasses.replace(schedule, events=tuple(scaled[ev] for ev in schedule.events))


def pulse_count(schedule: Schedule) -> int:
    """Number of non-delay events; composite components count individually."""
    return sum(1 for ev in schedule.events if ev.kind != "delay")


def verify_schedule(schedule: Schedule) -> float:
    """Zero-noise, nominal-amplitude fidelity of the schedule against its target."""
    return gate_fidelity(ideal_propagator(schedule, honor_amplitude=False), schedule.target_gate)


def _target_reals(target: np.ndarray) -> list[float]:
    out: list[float] = []
    for value in np.asarray(target, dtype=complex).reshape(-1):
        out.extend((float(value.real), float(value.imag)))
    return out


# The keys schedule_to_json writes, at the top level and in each event: the only ones schedule_from_json takes.
_SCHEDULE_KEYS = {"label", "dd_kind", "tau_s", "pulse_count", "target_gate", "events"}
_EVENT_KEYS = {"index", "kind", "duration_s", "phase_rad", "angle_rad", "amplitude_scale"}


def schedule_to_json(schedule: Schedule) -> str:
    """Flat JSON text: header plus one record per event."""
    records = []
    for i, ev in enumerate(schedule.events):
        records.append(
            {
                "index": i,
                "kind": ev.kind,
                "duration_s": ev.duration,
                "phase_rad": ev.rotation.phase if ev.rotation else 0.0,
                "angle_rad": ev.rotation.angle if ev.rotation else 0.0,
                "amplitude_scale": ev.amplitude_scale,
            }
        )
    doc = {
        "label": schedule.label,
        "dd_kind": schedule.dd_kind,
        "tau_s": schedule.tau,
        "pulse_count": pulse_count(schedule),
        "target_gate": _target_reals(schedule.target_gate),
        "events": records,
    }
    return json.dumps(doc, indent=2) + "\n"


def schedule_from_json(text: str) -> Schedule:
    """Rebuild and verify a schedule from its JSON form; every error, a key that schedule_to_json does not
    write included, raises CompileError."""
    try:
        doc = json.loads(text)
        _reject_unknown_keys(json_value(doc, "an object", "the schedule"), _SCHEDULE_KEYS, "the schedule")
        reals = [json_value(v, "a number", "target_gate") for v in doc["target_gate"]]
        if len(reals) != 8:
            raise ValueError(f"target_gate must hold 8 reals, got {len(reals)}")
        target = np.array(reals, dtype=float).view(complex).reshape(2, 2)  # (re, im) pairs, row-major
        events = []
        for i, rec in enumerate(doc["events"]):
            _reject_unknown_keys(json_value(rec, "an object", f"event {i}"), _EVENT_KEYS, f"event {i}")
            if json_value(rec["index"], "an integer", "index") != i:
                raise ValueError(f"event indices out of order at {i}")
            duration, phase, angle, scale = (
                json_value(rec[k], "a number", k) for k in ("duration_s", "phase_rad", "angle_rad", "amplitude_scale")
            )
            rotation = None if rec["kind"] == "delay" else RotationSpec(phase, angle)
            events.append(PulseEvent(rec["kind"], duration, rotation, scale))
        tau = doc["tau_s"]
        schedule = Schedule(events, target, json_value(doc["label"], "a string", "label"), doc["dd_kind"],
                            tau if tau is None else json_value(tau, "a number", "tau_s"))
        count = json_value(doc["pulse_count"], "an integer", "pulse_count")
        if pulse_count(schedule) != count:
            raise ValueError(f"pulse_count {count} does not match events ({pulse_count(schedule)})")
        return _verified(schedule)
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise CompileError(f"malformed schedule JSON: {exc}") from exc
