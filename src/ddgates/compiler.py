"""Pulse-sequence compiler for decoupling-protected single-qubit gates.

Named gates decompose into in-plane rotations; each rotation can be expanded
into a five-component composite pulse robust to amplitude miscalibration, and
each component can be wrapped in a decoupling cycle whose first and last free
periods carry the two gate halves as weak finite-duration rotations.  Every
compiled schedule is checked against its target by a zero-noise simulation.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import IDENTITY_2, SIGMA_X, rotation_unitary
from .simulate import ideal_propagator
from .tomography import gate_fidelity

TAU_MIN = 1e-6
TAU_MAX = 1e-3

VERIFY_THRESHOLD = 1.0 - 1e-9

EVENT_KINDS = ("delay", "hard_pulse", "soft_gate_half")

# Phase offsets of the five-pulse composite that replaces each XY-4 pulse in KDD.
KDD_PHASES = (math.pi / 6, 0.0, math.pi / 2, 0.0, math.pi / 6)

_FOUR_PI = 4 * math.pi


class CompileError(RuntimeError):
    """Raised when a schedule cannot be built or fails its target check."""


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
            # Soft halves realize a finite control amplitude angle/duration.
            if self.kind == "soft_gate_half" and self.duration <= 0:
                raise ValueError("soft_gate_half events require positive duration")


@dataclass(frozen=True, eq=False)
class Schedule:
    """Compiled event list with its decoupling cycle time and target gate."""

    events: tuple[PulseEvent, ...]
    cycle_time: float
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

    @property
    def total_duration(self) -> float:
        return float(sum(ev.duration for ev in self.events))


@dataclass(frozen=True)
class DDKind:
    """Decoupling cycle family: xy4, xy8 or kdd."""

    name: str

    def __post_init__(self):
        if self.name not in ("xy4", "xy8", "kdd"):
            raise ValueError(f"unknown DD kind {self.name!r}")


XY4 = DDKind("xy4")
XY8 = DDKind("xy8")
KDD = DDKind("kdd")

DD_KINDS = {"xy4": XY4, "xy8": XY8, "kdd": KDD}

_PI = math.pi
_HALF_PI = math.pi / 2

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
    if abs(r.angle) > _FOUR_PI:
        raise ValueError(f"angle {r.angle} outside [-4*pi, 4*pi]")
    psi = math.acos(-r.angle / _FOUR_PI)
    return [
        RotationSpec(r.phase, r.angle / 2),
        RotationSpec(r.phase + psi, _PI),
        RotationSpec(r.phase + 3 * psi, 2 * _PI),
        RotationSpec(r.phase + psi, _PI),
        RotationSpec(r.phase, r.angle / 2),
    ]


def _check_tau(tau: float) -> None:
    if not tau > 0:
        raise CompileError("tau must be positive")
    if not TAU_MIN <= tau <= TAU_MAX:
        raise CompileError(f"tau {tau:.3g} s outside the supported range [{TAU_MIN}, {TAU_MAX}] s")


def _cycle_pulse_phases(kind: DDKind) -> list[float]:
    xy4 = [0.0, _HALF_PI, 0.0, _HALF_PI]
    if kind.name == "xy4":
        return xy4
    if kind.name == "xy8":
        return xy4 + xy4[::-1]
    # kdd: each skeleton pulse becomes a five-pulse composite.
    return [skel + chi for skel in xy4 for chi in KDD_PHASES]


def cycle_pulse_count(kind: DDKind) -> int:
    return len(_cycle_pulse_phases(kind))


def _verified(schedule: Schedule) -> Schedule:
    fidelity = verify_schedule(schedule)
    if fidelity < VERIFY_THRESHOLD:
        raise CompileError(
            f"schedule {schedule.label!r} misses its target: fidelity {fidelity:.12f}"
        )
    return schedule


def dd_cycle(kind: DDKind, tau: float) -> Schedule:
    """One decoupling cycle of pi pulses with identity target.

    Half delays sit at both ends, so the duration is pulses * tau.
    """
    _check_tau(tau)
    phases = _cycle_pulse_phases(kind)
    events: list[PulseEvent] = [PulseEvent("delay", tau / 2)]
    for i, p in enumerate(phases):
        events.append(PulseEvent("hard_pulse", 0.0, RotationSpec(p, _PI)))
        events.append(PulseEvent("delay", tau if i < len(phases) - 1 else tau / 2))
    cycle_time = len(phases) * tau
    schedule = Schedule(
        events=tuple(events),
        cycle_time=cycle_time,
        target_gate=IDENTITY_2,
        label=f"dd:{kind.name}:tau={tau:.6g}",
        dd_kind=kind.name,
        tau=tau,
    )
    return _verified(schedule)


def protected_rotation(r: RotationSpec, kind: DDKind, tau: float) -> Schedule:
    """A rotation split into two soft halves hosted by a decoupling cycle.

    The cycle's initial and final tau/2 free periods become weak rotations of
    angle/2 each, so the gate accumulates while the drift is refocused.  Total
    duration equals the bare cycle duration.
    """
    if r.angle == 0.0:
        return dd_cycle(kind, tau)
    base = dd_cycle(kind, tau)
    half = PulseEvent("soft_gate_half", tau / 2, RotationSpec(r.phase, r.angle / 2))
    events = (half,) + base.events[1:-1] + (half,)
    schedule = Schedule(
        events=events,
        cycle_time=base.cycle_time,
        target_gate=rotation_unitary(r.phase, r.angle),
        label=f"protected:{kind.name}:phase={r.phase:.6g}:angle={r.angle:.6g}:tau={tau:.6g}",
        dd_kind=kind.name,
        tau=tau,
    )
    return _verified(schedule)


def protected_bb1_gate(rotations, kind: DDKind, tau: float) -> Schedule:
    """Composite-pulse expansion of a gate with every component cycle-protected.

    No rotations means the identity gate: a single bare decoupling cycle.
    """
    rotations = list(rotations)
    if not rotations:
        return dd_cycle(kind, tau)
    events: list[PulseEvent] = []
    cycle_time = 0.0
    for r in rotations:
        for component in bb1_expand(r):
            part = protected_rotation(component, kind, tau)
            events.extend(part.events)
            cycle_time = part.cycle_time
    schedule = Schedule(
        events=tuple(events),
        cycle_time=cycle_time,
        target_gate=rotation_product(rotations),
        label=f"protected-bb1:{kind.name}:components={5 * len(rotations)}:tau={tau:.6g}",
        dd_kind=kind.name,
        tau=tau,
    )
    return _verified(schedule)


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
    schedule = Schedule(
        events=tuple(events),
        cycle_time=0.0,
        target_gate=target_gate,
        label=label,
    )
    return _verified(schedule)


def apply_amplitude_error(schedule: Schedule, epsilon: float) -> Schedule:
    """New schedule with every pulse amplitude scaled by (1 + epsilon)."""
    if not abs(epsilon) < 0.5:
        raise ValueError(f"epsilon {epsilon} outside (-0.5, 0.5)")
    events = tuple(
        ev
        if ev.kind == "delay"
        else dataclasses.replace(ev, amplitude_scale=ev.amplitude_scale * (1.0 + epsilon))
        for ev in schedule.events
    )
    return dataclasses.replace(schedule, events=events)


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
    """Rebuild a schedule from its JSON form; structural errors raise CompileError."""
    try:
        doc = json.loads(text)
        reals = doc["target_gate"]
        if len(reals) != 8:
            raise ValueError(f"target_gate must hold 8 reals, got {len(reals)}")
        target = np.array(
            [complex(reals[2 * i], reals[2 * i + 1]) for i in range(4)], dtype=complex
        ).reshape(2, 2)
        events = []
        for i, rec in enumerate(doc["events"]):
            if rec["index"] != i:
                raise ValueError(f"event indices out of order at {i}")
            kind = rec["kind"]
            rotation = (
                None if kind == "delay" else RotationSpec(rec["phase_rad"], rec["angle_rad"])
            )
            events.append(
                PulseEvent(kind, rec["duration_s"], rotation, rec["amplitude_scale"])
            )
        dd_kind = doc["dd_kind"]
        tau = doc["tau_s"]
        cycle_time = 0.0
        if dd_kind is not None and tau is not None:
            cycle_time = cycle_pulse_count(DD_KINDS[dd_kind]) * tau
        schedule = Schedule(
            events=tuple(events),
            cycle_time=cycle_time,
            target_gate=target,
            label=doc["label"],
            dd_kind=dd_kind,
            tau=tau,
        )
        if pulse_count(schedule) != doc["pulse_count"]:
            raise ValueError(
                f"pulse_count {doc['pulse_count']} does not match events ({pulse_count(schedule)})"
            )
        return schedule
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise CompileError(f"malformed schedule JSON: {exc}") from exc
