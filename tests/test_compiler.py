import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddgates.simulate as simulate
from ddgates.compiler import (
    DD_KINDS,
    KDD,
    TAU_MAX,
    TAU_MIN,
    XY4,
    XY8,
    PulseEvent,
    RotationSpec,
    Schedule,
    _cycle_events,
    apply_amplitude_error,
    bb1_expand,
    build_schedule,
    cycle_pulse_count,
    dd_cycle,
    decompose_gate,
    gate_target,
    hard_pulse_schedule,
    protected_bb1_gate,
    protected_gate_time,
    pulse_count,
    rotation_product,
    schedule_from_json,
    schedule_to_json,
    verify_schedule,
)
from ddgates.config import SCHEMES, CompileError
from ddgates.core import IDENTITY_2, SIGMA_X, rotation_unitary
from ddgates.simulate import ideal_propagator
from ddgates.tomography import gate_fidelity
from helpers import Word, expected_pulse_count

ALL_GATES = ("H", "NOT", "PI8", "NOOP")


def test_rotation_spec_validation():
    RotationSpec(0.0, 4 * math.pi)
    with pytest.raises(ValueError):
        RotationSpec(0.0, 4 * math.pi + 0.1)
    with pytest.raises(ValueError):
        RotationSpec(0.0, -4 * math.pi)


def test_pulse_event_validation():
    with pytest.raises(ValueError):
        PulseEvent("delay", -1e-6)
    with pytest.raises(ValueError):
        PulseEvent("delay", 1e-6, RotationSpec(0.0, 1.0))
    with pytest.raises(ValueError):
        PulseEvent("hard_pulse", 0.0)  # missing rotation
    with pytest.raises(ValueError):
        PulseEvent("soft_gate_half", 0.0, RotationSpec(0.0, 1.0))  # needs duration
    with pytest.raises(ValueError):
        PulseEvent("wiggle", 0.0, RotationSpec(0.0, 1.0))


def test_hard_pulses_are_instantaneous_and_soft_halves_take_time():
    with pytest.raises(ValueError):
        PulseEvent("hard_pulse", 5e-6, RotationSpec(0.0, math.pi))
    doc = json.loads(schedule_to_json(dd_cycle(XY4, 1e-5)))
    assert doc["events"][1]["kind"] == "hard_pulse"
    doc["events"][1]["duration_s"] = 2e-6
    with pytest.raises(CompileError):
        schedule_from_json(json.dumps(doc))
    doc = json.loads(schedule_to_json(protected_bb1_gate([RotationSpec(0.0, 1.0)], XY4, 1e-5)))
    assert doc["events"][0]["kind"] == "soft_gate_half"
    doc["events"][0]["duration_s"] = 0.0
    with pytest.raises(CompileError):
        schedule_from_json(json.dumps(doc))


def test_gate_decompositions_hit_their_targets():
    for gate in ALL_GATES:
        rotations = decompose_gate(gate)
        product = rotation_product(rotations)
        assert gate_fidelity(product, gate_target(gate)) > 1 - 1e-12


def test_decompose_gate_unknown_name():
    with pytest.raises(ValueError):
        decompose_gate("T")


def test_not_decomposition_exact():
    (r,) = decompose_gate("NOT")
    assert r.phase == 0.0
    assert r.angle == math.pi
    assert np.allclose(rotation_product([r]), -1j * SIGMA_X, atol=1e-15)


def test_bb1_expansion_structure():
    r = RotationSpec(0.4, math.pi)
    seq = bb1_expand(r)
    assert len(seq) == 5
    # auxiliary phase for a pi rotation: arccos(-1/4) offset from the drive phase
    psi = math.acos(-math.pi / (4 * math.pi))
    assert seq[1].angle == math.pi and seq[3].angle == math.pi
    assert seq[2].angle == 2 * math.pi
    assert seq[1].phase == pytest.approx(r.phase + psi)
    assert seq[2].phase == pytest.approx(r.phase + 3 * psi)
    assert seq[3].phase == pytest.approx(r.phase + psi)


def test_bb1_product_equals_bare_rotation_exactly():
    rng = np.random.default_rng(23)
    for _ in range(10):
        r = RotationSpec(rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 2 * math.pi))
        assert np.allclose(
            rotation_product(bb1_expand(r)), rotation_unitary(r.phase, r.angle), atol=1e-12
        )


def test_bb1_suppresses_amplitude_error():
    r = RotationSpec(0.0, math.pi)
    target = rotation_unitary(r.phase, r.angle)
    bare = hard_pulse_schedule([r], target, "bare")
    comp = hard_pulse_schedule(bb1_expand(r), target, "bb1")
    eps = 0.01
    err_bare = np.max(np.abs(
        ideal_propagator(apply_amplitude_error(bare, eps), honor_amplitude=True)
        - ideal_propagator(bare, honor_amplitude=True)
    ))
    err_comp = np.max(np.abs(
        ideal_propagator(apply_amplitude_error(comp, eps), honor_amplitude=True)
        - ideal_propagator(comp, honor_amplitude=True)
    ))
    assert err_comp < err_bare / 100


def test_dd_cycle_structure_xy4():
    tau = 1e-5
    sched = dd_cycle(XY4, tau)
    kinds = [ev.kind for ev in sched.events]
    assert kinds == ["delay", "hard_pulse"] * 4 + ["delay"]
    assert sched.events[0].duration == pytest.approx(tau / 2)
    assert sched.events[-1].duration == pytest.approx(tau / 2)
    assert sched.cycle_time == pytest.approx(4 * tau)
    assert sched.total_duration == pytest.approx(4 * tau)
    phases = [ev.rotation.phase for ev in sched.events if ev.kind == "hard_pulse"]
    assert phases == [0.0, math.pi / 2, 0.0, math.pi / 2]
    assert all(ev.rotation.angle == math.pi for ev in sched.events if ev.kind == "hard_pulse")


def test_dd_cycle_pulse_counts():
    assert cycle_pulse_count(XY4) == 4
    assert cycle_pulse_count(XY8) == 8
    assert cycle_pulse_count(KDD) == 20
    for name, kind in DD_KINDS.items():
        assert pulse_count(dd_cycle(kind, 1e-5)) == cycle_pulse_count(kind), name


def test_dd_cycle_xy8_is_mirrored_xy4():
    phases = [ev.rotation.phase for ev in dd_cycle(XY8, 1e-5).events if ev.kind == "hard_pulse"]
    assert phases == [0.0, math.pi / 2, 0.0, math.pi / 2, math.pi / 2, 0.0, math.pi / 2, 0.0]


def test_cycle_propagator_identities():
    # pure pulse products: XY-4 gives -1, XY-8 gives +1, KDD gives -1
    assert np.allclose(ideal_propagator(dd_cycle(XY4, 1e-5)), -IDENTITY_2, atol=1e-12)
    assert np.allclose(ideal_propagator(dd_cycle(XY8, 1e-5)), IDENTITY_2, atol=1e-12)
    assert np.allclose(ideal_propagator(dd_cycle(KDD, 1e-5)), -IDENTITY_2, atol=1e-12)


def test_dd_cycle_rejects_out_of_range_tau():
    for bad in (0.5 * TAU_MIN, 2 * TAU_MAX, 0.0, -1e-5):
        with pytest.raises(CompileError):
            dd_cycle(XY4, bad)
    dd_cycle(XY4, TAU_MIN)
    dd_cycle(XY4, TAU_MAX)


def test_cycle_events_host_a_rotation_in_two_soft_halves():
    tau = 1e-5
    r = RotationSpec(0.3, math.pi / 2)
    (events,) = _cycle_events(XY4, tau, [r])
    first, last = events[0], events[-1]
    assert first.kind == "soft_gate_half" and last.kind == "soft_gate_half"
    assert first.duration == pytest.approx(tau / 2)
    assert first.rotation.angle == pytest.approx(r.angle / 2)
    assert first.rotation.phase == r.phase
    assert events[1:-1] == dd_cycle(XY4, tau).events[1:-1]
    sched = Schedule(events, rotation_unitary(r.phase, r.angle), "hosted", "xy4", tau)
    assert sched.total_duration == pytest.approx(sched.cycle_time) and sched.cycle_time == pytest.approx(4 * tau)
    assert verify_schedule(sched) > 1 - 1e-9


def test_cycle_events_of_a_zero_angle_are_the_bare_cycle():
    assert _cycle_events(XY8, 1e-5, [RotationSpec(0.0, 0.0)]) == [dd_cycle(XY8, 1e-5).events]


def test_protected_gate_time_is_the_duration_of_every_protected_cell_and_the_padded_window():
    # 5 cycles per rotation, one for NOOP, each pulses * tau: the NOT, H, PI8 and NOOP cells.
    cycles = {"NOT": 5, "H": 10, "PI8": 15, "NOOP": 1}
    for gate, kind, tau in [(g, k, t) for g in ALL_GATES for k in DD_KINDS.values() for t in (TAU_MIN, 1e-5, 3e-5)]:
        assert protected_gate_time(gate, kind, tau) == cycles[gate] * cycle_pulse_count(kind) * tau
        assert build_schedule(gate, kind, tau).total_duration == pytest.approx(
            protected_gate_time(gate, kind, tau), rel=1e-12)
        window = build_schedule(gate, "simple_padded", tau).events
        assert window[0].duration + window[-1].duration == protected_gate_time(gate, XY8, tau)


def test_harness_runs_the_compilers_build_schedule():
    import ddgates
    import ddgates.compiler as compiler
    import ddgates.harness as harness

    assert harness.build_schedule is compiler.build_schedule is ddgates.build_schedule


def test_protected_gate_counts_and_targets():
    cases = {
        ("PI8", "kdd"): 330, ("H", "xy8"): 100, ("NOT", "xy8"): 50,
        ("H", "xy4"): 60, ("NOT", "kdd"): 110, ("PI8", "xy4"): 90,
    }
    for (gate, kind_name), count in cases.items():
        sched = protected_bb1_gate(decompose_gate(gate), DD_KINDS[kind_name], 1e-5)
        assert pulse_count(sched) == count
        assert gate_fidelity(sched.target_gate, gate_target(gate)) > 1 - 1e-12
        assert verify_schedule(sched) > 1 - 1e-9


def test_protected_gate_empty_rotations_is_cycle():
    sched = protected_bb1_gate([], XY4, 1e-5)
    assert sched.events == dd_cycle(XY4, 1e-5).events


_UNKNOWN_KIND = r"^unknown DD kind {!r}; expected one of \['kdd', 'xy4', 'xy8'\]$"


@pytest.mark.parametrize("call", [
    lambda kind: dd_cycle(kind, 1e-5),
    lambda kind: protected_bb1_gate(decompose_gate("NOT"), kind, 1e-5),
    lambda kind: protected_bb1_gate([], kind, 1e-5),
    lambda kind: protected_gate_time("H", kind, 1e-5),
    cycle_pulse_count,
], ids=["dd_cycle", "protected_bb1_gate", "protected_bb1_gate_noop", "protected_gate_time", "cycle_pulse_count"])
@pytest.mark.parametrize("kind", ["xy16", "XY8", "simple", ""])
def test_an_unknown_dd_kind_raises_value_error_naming_the_known_kinds(call, kind):
    # A kind is its name; the one lookup of its cycle rejects any other string.
    with pytest.raises(ValueError, match=_UNKNOWN_KIND.format(kind)):
        call(kind)


def test_hard_pulse_schedule_padding():
    rotations = decompose_gate("H")
    bare = hard_pulse_schedule(rotations, gate_target("H"), "h")
    assert bare.total_duration == 0.0
    padded = hard_pulse_schedule(rotations, gate_target("H"), "h", pad_to=8e-5)
    assert padded.total_duration == pytest.approx(8e-5)
    delays = [ev for ev in padded.events if ev.kind == "delay"]
    assert len(delays) == 2
    assert delays[0].duration == pytest.approx(4e-5)
    assert delays[1].duration == pytest.approx(4e-5)
    assert [ev.kind for ev in padded.events] == ["delay", "hard_pulse", "hard_pulse", "delay"]


@pytest.mark.parametrize("pad_to", [-1e-6, math.nan, math.inf])
def test_hard_pulse_schedule_rejects_a_pad_to_that_is_negative_or_not_finite(pad_to):
    with pytest.raises(CompileError, match="pad_to"):
        hard_pulse_schedule(decompose_gate("H"), gate_target("H"), "h", pad_to=pad_to)


def test_apply_amplitude_error_scales_pulses_only():
    sched = protected_bb1_gate(decompose_gate("NOT"), XY4, 1e-5)
    scaled = apply_amplitude_error(sched, 0.02)
    for ev, sv in zip(sched.events, scaled.events):
        if ev.kind == "delay":
            assert sv == ev
        else:
            assert sv.amplitude_scale == pytest.approx(ev.amplitude_scale * 1.02)
            assert sv.rotation == ev.rotation
    with pytest.raises(ValueError):
        apply_amplitude_error(sched, 0.5)


def test_verify_schedule_flags_wrong_target():
    sched = dd_cycle(XY4, 1e-5)
    broken = dataclasses.replace(sched, target_gate=SIGMA_X)
    assert verify_schedule(broken) < 0.5


def test_serialization_round_trip_exact():
    for gate in ALL_GATES:
        for scheme_kind in ("xy4", "xy8", "kdd"):
            sched = protected_bb1_gate(decompose_gate(gate), DD_KINDS[scheme_kind], 2e-5)
            text = schedule_to_json(sched)
            again = schedule_from_json(text)
            assert schedule_to_json(again) == text
            assert again.events == sched.events
            assert np.allclose(again.target_gate, sched.target_gate, atol=1e-15)
            assert again.cycle_time == pytest.approx(sched.cycle_time)


def test_serialization_header_fields():
    sched = apply_amplitude_error(protected_bb1_gate(decompose_gate("NOT"), XY8, 1.5e-5), 0.01)
    doc = json.loads(schedule_to_json(sched))
    assert doc["dd_kind"] == "xy8"
    assert doc["tau_s"] == pytest.approx(1.5e-5)
    assert doc["pulse_count"] == 50
    assert len(doc["target_gate"]) == 8
    ev = doc["events"][0]
    assert set(ev) == {"index", "kind", "duration_s", "phase_rad", "angle_rad", "amplitude_scale"}
    assert [e["index"] for e in doc["events"]] == list(range(len(doc["events"])))
    scales = sorted({e["amplitude_scale"] for e in doc["events"] if e["kind"] != "delay"})
    assert scales == [pytest.approx(1.01)]


def test_serialization_rejects_tampering():
    text = schedule_to_json(protected_bb1_gate(decompose_gate("NOT"), XY4, 1e-5))
    doc = json.loads(text)
    doc["pulse_count"] = 7
    with pytest.raises(CompileError):
        schedule_from_json(json.dumps(doc))
    doc = json.loads(text)
    doc["events"][0]["index"] = 99
    with pytest.raises(CompileError):
        schedule_from_json(json.dumps(doc))
    for kind in ("zz99", "XY4", 4, ["xy4"]):  # a kind is one of the names xy4, xy8 and kdd
        doc = json.loads(text)
        doc["dd_kind"] = kind
        with pytest.raises(CompileError, match="^malformed schedule JSON: "):
            schedule_from_json(json.dumps(doc))
    with pytest.raises(CompileError, match=_UNKNOWN_KIND.format("XY4")[1:]):
        schedule_from_json(json.dumps(dict(doc, dd_kind="XY4")))
    doc = json.loads(text)
    doc["events"][1]["angle_rad"] = 1.0  # one pi pulse of the cycle, now off target
    with pytest.raises(CompileError):
        schedule_from_json(json.dumps(doc))
    doc = json.loads(text)
    doc["dd_kind"], doc["tau_s"] = "kdd", 1e-3  # xy4 pulses 10 us apart, relabelled
    with pytest.raises(CompileError):
        schedule_from_json(json.dumps(doc))
    doc["dd_kind"] = "xy4"  # right kind, but the schedule lasts 5 cycles of 40 us
    with pytest.raises(CompileError):
        schedule_from_json(json.dumps(doc))
    with pytest.raises(CompileError):
        schedule_from_json("{not json")


# Each value would load at its place in NOT/simple_padded (delay, pi pulse, delay) if
# its type went unchecked: a boolean counts as 0 or 1, and the label is kept as given.
@pytest.mark.parametrize("event, field, value", [
    (0, "duration_s", True),  # a 1 s delay
    (0, "angle_rad", True),  # a delay's rotation fields are not read
    (1, "phase_rad", False),
    (1, "amplitude_scale", True),
    (0, "index", False),
    (0, "index", 0.0),
    (None, "pulse_count", True),
    (None, "tau_s", True),
    (None, "label", 5),
    (None, "target_gate", [False, False, True, False, True, False, False, False]),
])
def test_schedule_json_rejects_a_field_of_the_wrong_type_naming_it(event, field, value):
    doc = json.loads(schedule_to_json(build_schedule("NOT", "simple_padded", 1e-5)))
    (doc if event is None else doc["events"][event])[field] = value
    with pytest.raises(CompileError, match=f"{field} must be an? (number|integer|string), got "):
        schedule_from_json(json.dumps(doc))


@pytest.mark.parametrize("tau", [math.inf, math.nan, -1.0, 0], ids=["inf", "nan", "negative", "zero"])
def test_schedule_json_rejects_a_tau_that_is_not_positive_and_finite_without_a_cycle(tau):
    # schedule_to_json would write Infinity or NaN back, which is not JSON.
    doc = json.loads(schedule_to_json(build_schedule("NOT", "simple_padded", 1e-5)))
    assert doc["dd_kind"] is None
    doc["tau_s"] = tau
    with pytest.raises(CompileError, match="tau must be positive and finite"):
        schedule_from_json(json.dumps(doc))


# Each key would be ignored if unknown keys were: a misspelled amplitude_scale loads the pulse at scale 1.
@pytest.mark.parametrize("kind, key", [
    ("hard_pulse", "amplitude_scales"),
    ("soft_gate_half", "amplitude_scales"),
    ("delay", "note"),
    (None, "epsilon"),
    (None, "realizations"),
])
def test_schedule_json_rejects_an_unknown_key_naming_it(kind, key):
    doc = json.loads(schedule_to_json(build_schedule("NOT", "xy8", 1e-5)))
    i = next(i for i, ev in enumerate(doc["events"]) if ev["kind"] == kind) if kind else None
    (doc if kind is None else doc["events"][i])[key] = 1.5
    where = "the schedule" if kind is None else f"event {i}"
    with pytest.raises(CompileError, match=f"unknown key '{key}' in {where}"):
        schedule_from_json(json.dumps(doc))


def test_schedule_json_rejects_a_schedule_or_event_that_is_not_an_object():
    with pytest.raises(CompileError, match=r"the schedule must be an object, got \['label'\]"):
        schedule_from_json('["label"]')
    doc = json.loads(schedule_to_json(build_schedule("NOT", "xy8", 1e-5)))
    doc["events"][2] = "index"
    with pytest.raises(CompileError, match="event 2 must be an object, got 'index'"):
        schedule_from_json(json.dumps(doc))


# Non-zero angles: a zero rotation compiles to bare cycles without soft halves,
# which expected_pulse_count does not count.  Subnormal angles are excluded too:
# the soft halves of 5e-324 round to zero.
_ROTATIONS = st.builds(
    RotationSpec,
    st.floats(0.0, 2 * math.pi),
    st.floats(-4 * math.pi, 4 * math.pi, exclude_min=True, allow_subnormal=False).filter(bool),
)


@settings(max_examples=40, deadline=None)
@given(
    rotations=st.lists(_ROTATIONS, min_size=1, max_size=3),
    kind=st.sampled_from((XY4, XY8, KDD)),
    tau=st.floats(TAU_MIN, TAU_MAX),
)
def test_protected_bb1_gate_of_random_rotations(rotations, kind, tau):
    sched = protected_bb1_gate(rotations, kind, tau)
    assert verify_schedule(sched) > 1 - 1e-9
    assert gate_fidelity(sched.target_gate, rotation_product(rotations)) > 1 - 1e-12
    # expected_pulse_count depends only on the rotation count: NOT, H, PI8 have 1, 2, 3.
    gate = ("NOT", "H", "PI8")[len(rotations) - 1]
    assert pulse_count(sched) == expected_pulse_count(gate, kind)
    components = [c for r in rotations for c in bb1_expand(r)]
    assert sched.events == tuple(ev for cycle in _cycle_events(kind, tau, components) for ev in cycle)
    assert sched.events == tuple(ev for c in components for ev in _cycle_events(kind, tau, [c])[0])


@settings(max_examples=40, deadline=None)
@given(gate=st.sampled_from(ALL_GATES), scheme=st.sampled_from(SCHEMES), tau=st.floats(TAU_MIN, TAU_MAX),
       epsilon=st.floats(-0.2, 0.2))
def test_schedule_runs_replay_the_events_and_are_distinct(gate, scheme, tau, epsilon):
    sched = apply_amplitude_error(build_schedule(gate, scheme, tau), epsilon)
    runs, steps = sched.runs
    assert [ev for i, soft in steps for ev in (*runs[i], soft) if ev is not None] == list(sched.events)
    assert simulate._replay(sched, Word(), Word(), Word.apply) == sched.events
    assert len(set(runs)) == len(runs)
    assert all(ev.kind != "soft_gate_half" for run in runs for ev in run)
    assert all(soft.kind == "soft_gate_half" for _, soft in steps[:-1]) and steps[-1][1] is None


def test_compile_builds_and_checks_each_distinct_event_once(monkeypatch):
    # The decoupled cells repeat about ten distinct events hundreds of times: each build makes each
    # once and shares that one object, and a repeated build makes them again, as no cache is kept.
    built, post_init = [], PulseEvent.__post_init__
    monkeypatch.setattr(PulseEvent, "__post_init__", lambda ev: (built.append(ev), post_init(ev))[1])
    for gate, kind, _ in [(g, k, b) for g in ALL_GATES for k in DD_KINDS for b in range(2)]:  # a first and a repeat
        built.clear()
        sched = build_schedule(gate, kind, 1e-5)
        distinct = len(set(sched.events))
        assert len(built) == distinct
        assert len({id(ev) for ev in sched.events}) == distinct
    monkeypatch.undo()

    sched, calls = build_schedule("PI8", "kdd", 1e-5), []
    assert len(sched.events) == 615
    monkeypatch.setattr(simulate, "rotation_unitary", lambda *args: (calls.append(args), rotation_unitary(*args))[1])
    assert verify_schedule(sched) > 1 - 1e-9
    assert len(calls) == len({ev for ev in sched.events if ev.kind != "delay"})


_EVENTS_SCRIPT = """
import pickle, sys
from ddgates.compiler import apply_amplitude_error, build_schedule
events = apply_amplitude_error(build_schedule("H", "kdd", 1e-5), 0.01).events
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps(events))
else:
    loaded = pickle.loads(sys.stdin.buffer.read())
    assert loaded == events and [hash(ev) for ev in loaded] == [hash(ev) for ev in events]
    assert len({*loaded, *events}) == len(set(events))
"""


def test_equal_events_hash_equal_after_a_pickle_round_trip_into_another_hash_seed():
    # An event hashes once and a pickled copy carries that hash, as into a spawned process; str
    # hashes are salted per process, so the event kind must enter the hash as its index.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    dumped = subprocess.run([sys.executable, "-c", _EVENTS_SCRIPT, "dump"], env=dict(env, PYTHONHASHSEED="1"),
                            capture_output=True, check=True, timeout=120).stdout
    subprocess.run([sys.executable, "-c", _EVENTS_SCRIPT, "load"], input=dumped, env=dict(env, PYTHONHASHSEED="2"),
                   check=True, timeout=120)
