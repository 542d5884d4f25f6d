import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ddgates.harness as harness
import ddgates.simulate as simulate
from ddgates.cli import main as cli_main
from ddgates.compiler import apply_amplitude_error, build_schedule
from ddgates.config import (
    GATES,
    SCHEMES,
    CalibrationFileRef,
    CalibrationTargets,
    CompileError,
    ConfigError,
    calibration_artifact_text,
    config_from_dict,
    load_calibration,
    load_config,
    resolve_noise,
    run_calibration,
)
from ddgates.core import DEFAULT_MAX_SPINS
from ddgates.harness import (
    CSV_FIELDS,
    REFERENCE_FIDELITIES,
    REFERENCE_GATE_TIMES_S,
    ResultRow,
    rows_from_csv,
    rows_to_csv,
    run_sweep,
    run_table1,
    simulate_cell,
    summarize_rows,
)
from ddgates.noise import SpinBathSpec, default_spin_bath
from ddgates.ou import CalibrationResult, OUNoiseSpec
from ddgates.tomography import chi_from_operators, gate_fidelity
from helpers import expected_pulse_count, oracle_bath_propagator

PINNED_NOISE = OUNoiseSpec(sigma=4335.354, tau_c=1.5e-4, dt=1.5e-5, sigma_static=2361.947)

BASE_CONFIG = {
    "noise": {"kind": "ou", "sigma": 4335.354, "tau_c_s": 1.5e-4,
              "dt_s": 1.5e-5, "sigma_static": 2361.947},
    "gates": ["NOT"],
    "schemes": ["simple", "xy8"],
    "tau_grid_s": [7.5e-6, 1.5e-5],
    "epsilon": 0.01,
}


def _env_with_src() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH, for a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_config_from_dict_parses_every_noise_kind():
    cfg = config_from_dict(BASE_CONFIG)
    assert isinstance(cfg.noise, OUNoiseSpec)
    assert cfg.gates == ("NOT",)
    assert cfg.tau_grid == (7.5e-6, 1.5e-5)

    d = dict(BASE_CONFIG)
    d["noise"] = {"kind": "spin_bath", "couplings": [1e4, 2e4],
                  "bath_couplings": [[0.0, 3e4], [3e4, 0.0]]}
    assert isinstance(config_from_dict(d).noise, SpinBathSpec)

    d["noise"] = {"kind": "targets", "t2_star_s": 3.7e-4, "t2_hahn_s": 7.5e-4}
    noise = config_from_dict(d).noise
    assert noise == CalibrationTargets(3.7e-4, 7.5e-4)

    d["noise"] = {"kind": "calibration", "path": "x.json"}
    assert config_from_dict(d).noise == CalibrationFileRef("x.json")


@pytest.mark.parametrize(
    "mutation",
    [
        {"gates": []},
        {"schemes": []},
        {"tau_grid_s": []},
        {"gates": ["CNOT"]},
        {"schemes": ["cpmg"]},
        {"tau_grid_s": [0.0]},
        {"epsilon": 0.6},
        {"noise": {"kind": "pink"}},
        {"noise": {"kind": "ou", "sigma": 1.0}},
    ],
)
def test_config_rejects_invalid_entries(mutation):
    d = dict(BASE_CONFIG)
    d.update(mutation)
    with pytest.raises(ConfigError):
        config_from_dict(d)


def test_load_config_reads_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg == config_from_dict(BASE_CONFIG)
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_resolve_noise_passthrough_and_artifact(tmp_path):
    cfg = config_from_dict(BASE_CONFIG)
    assert resolve_noise(cfg) is cfg.noise

    result = CalibrationResult(3.6e-4, 7.4e-4, PINNED_NOISE)
    text = calibration_artifact_text(CalibrationTargets(3.7e-4, 7.5e-4), result)
    path = tmp_path / "cal.json"
    path.write_text(text, encoding="utf-8")
    loaded = load_calibration(str(path))
    assert loaded == PINNED_NOISE

    d = dict(BASE_CONFIG)
    d["noise"] = {"kind": "calibration", "path": str(path)}
    assert resolve_noise(config_from_dict(d)) == PINNED_NOISE
    d["noise"] = {"kind": "calibration", "path": str(tmp_path / "nope.json")}
    with pytest.raises(ConfigError):
        resolve_noise(config_from_dict(d))


SCHEMA_1_ARTIFACT = {
    "fitted": {"t2_hahn_s": 0.0007844619461963245, "t2_star_s": 0.00036534292361199645},
    "params": {"dt_s": 1.5000000000000002e-05, "kind": "ou", "sigma": 4290.147255348526,
               "sigma_static": 2294.366740901942, "tau_c_s": 0.00015000000000000001},
    "seed": 1,
    "targets": {"t2_hahn_s": 0.00075, "t2_star_s": 0.00037},
}


def test_calibration_artifact_schema_2_and_schema_1_both_load(tmp_path):
    result = CalibrationResult(3.6e-4, 7.4e-4, PINNED_NOISE)
    doc = json.loads(calibration_artifact_text(CalibrationTargets(3.7e-4, 7.5e-4), result))
    assert doc["schema"] == 2
    assert "seed" not in doc

    old = tmp_path / "schema1.json"
    old.write_text(json.dumps(SCHEMA_1_ARTIFACT), encoding="utf-8")
    assert load_calibration(str(old)) == OUNoiseSpec(
        sigma=4290.147255348526, tau_c=0.00015000000000000001,
        dt=1.5000000000000002e-05, sigma_static=2294.366740901942,
    )
    for bad_doc in (dict(SCHEMA_1_ARTIFACT, schema=3), [SCHEMA_1_ARTIFACT]):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(bad_doc), encoding="utf-8")
        with pytest.raises(ConfigError):
            load_calibration(str(bad))


def test_cli_calibrate_writes_a_seed_free_artifact(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    targets = {"kind": "targets", "t2_star_s": 3.7e-4, "t2_hahn_s": 7.5e-4}
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for seed, out in zip((1, 2), outs):
        cfg_path.write_text(json.dumps(dict(BASE_CONFIG, noise=targets, seed=seed)), encoding="utf-8")
        assert cli_main(["calibrate", "--config", str(cfg_path), "--out", str(out)]) == 0
    # The fit is exact, so a seed that an older config carries does not change a byte.
    assert outs[0].read_bytes() == outs[1].read_bytes()
    doc = json.loads(outs[0].read_text(encoding="utf-8"))
    for key in ("t2_star_s", "t2_hahn_s"):
        assert doc["fitted"][key] == pytest.approx(targets[key], rel=1e-3)
    assert load_calibration(str(outs[0])).sigma == doc["params"]["sigma"]
    assert cli_main(["calibrate", "--config", str(cfg_path), "--seed", "3"]) == 1


@pytest.mark.parametrize("params", [
    {"kind": "targets", "t2_star_s": 3.7e-4, "t2_hahn_s": 7.5e-4},
    {"kind": "calibration", "path": "other.json"},
    {"kind": "spin_bath", "couplings": [1e4], "bath_couplings": [[0.0]]},
], ids=lambda params: params["kind"])
def test_cli_rejects_a_calibration_artifact_whose_params_are_not_ou(tmp_path, params):
    artifact = tmp_path / "cal.json"
    artifact.write_text(json.dumps(dict(SCHEMA_1_ARTIFACT, params=params)), encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    noise = {"kind": "calibration", "path": str(artifact)}
    cfg_path.write_text(json.dumps(dict(BASE_CONFIG, noise=noise)), encoding="utf-8")
    env = _env_with_src()
    done = subprocess.run([sys.executable, "-m", "ddgates", "sweep", "--config", str(cfg_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and "kind 'ou'" in done.stderr


def test_simple_padded_rejects_tau_outside_the_supported_range():
    # tau sets the padded duration: PI8 at 2e-3 s would pad to 0.24 s.
    with pytest.raises(CompileError, match="tau"):
        build_schedule("PI8", "simple_padded", 2e-3)
    row = simulate_cell("PI8", "simple_padded", 2e-3, PINNED_NOISE, 0.01)
    assert "tau" in row.error
    assert math.isnan(row.fidelity)
    # simple and bb1 have no delays, so they keep ignoring tau.
    for scheme in ("simple", "bb1"):
        assert build_schedule("PI8", scheme, 2e-3).total_duration == 0.0


def test_build_schedule_scheme_dispatch():
    tau = 1e-5
    simple = build_schedule("H", "simple", tau)
    assert simple.total_duration == 0.0
    padded = build_schedule("H", "simple_padded", tau)
    assert padded.total_duration == pytest.approx(2 * 5 * 8 * tau)
    noop_padded = build_schedule("NOOP", "simple_padded", tau)
    assert noop_padded.total_duration == pytest.approx(8 * tau)
    bb1 = build_schedule("NOT", "bb1", tau)
    assert bb1.total_duration == 0.0
    for scheme in ("xy4", "xy8", "kdd"):
        dd = build_schedule("NOT", scheme, tau)
        assert dd.dd_kind == scheme
        noop = build_schedule("NOOP", scheme, tau)
        assert noop.label == f"NOOP:{scheme}:tau={tau:.6g}"
    with pytest.raises(ValueError):
        build_schedule("NOT", "cpmg", tau)


def test_expected_pulse_counts_match_compiled_schedules():
    for gate in GATES:
        for scheme in SCHEMES:
            sched = build_schedule(gate, scheme, 1e-5)
            from ddgates.compiler import pulse_count

            assert pulse_count(sched) == expected_pulse_count(gate, scheme), (gate, scheme)


def test_build_schedule_verifies_each_cell_once(monkeypatch):
    from ddgates import compiler

    calls = []
    verify = compiler.verify_schedule
    monkeypatch.setattr(compiler, "verify_schedule", lambda sched: calls.append(sched) or verify(sched))
    for gate in GATES:
        for scheme in SCHEMES:
            calls.clear()
            build_schedule(gate, scheme, 1e-5)
            assert len(calls) == 1, (gate, scheme, len(calls))


def test_simulate_cell_noiseless_limit():
    quiet = OUNoiseSpec(sigma=0.0, tau_c=1e-4, dt=1e-5, sigma_static=0.0)
    row = simulate_cell("H", "xy8", 1e-5, quiet, 0.0)
    assert row.fidelity >= 1 - 1e-6
    assert row.fidelity_stderr == 0.0
    assert row.error == ""
    assert row.pulse_count == 100
    assert row.gate_time == pytest.approx(2 * 5 * 8 * 1e-5)


def test_simulate_cell_failure_produces_sentinel_row():
    row = simulate_cell("H", "xy8", 5e-3, PINNED_NOISE, 0.01)
    assert math.isnan(row.fidelity)
    assert math.isnan(row.gate_time)
    assert row.pulse_count == 0
    assert "tau" in row.error


def test_sweep_configs_carrying_the_old_realizations_and_seed_keys_write_the_same_bytes(tmp_path):
    # Configs of earlier versions still set these Monte-Carlo keys: the benchmark's as
    # (10000, 1), criterion 10's as (120, 17).
    outputs = set()
    for i, old_keys in enumerate(({}, {"realizations": 10000, "seed": 1}, {"realizations": 120, "seed": 17},
                                  {"realizations": 1, "seed": 0})):
        cfg_path, out = tmp_path / f"cfg{i}.json", tmp_path / f"rows{i}.csv"
        cfg_path.write_text(json.dumps(dict(BASE_CONFIG, **old_keys)), encoding="utf-8")
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        outputs.add(out.read_bytes())
    assert len(outputs) == 1


def test_ou_stderr_is_exactly_zero():
    # The OU channel is computed, not sampled, as the bath's is.
    for gate, scheme in itertools.product(("NOT", "PI8", "H"), ("simple_padded", "kdd", "bb1")):
        row = simulate_cell(gate, scheme, 1.5e-5, PINNED_NOISE, 0.01)
        assert row.error == "" and row.fidelity_stderr == 0.0, (gate, scheme)


def test_run_sweep_grid_is_sorted_and_complete():
    cfg = config_from_dict(BASE_CONFIG)
    rows = run_sweep(cfg)
    keys = [(r.gate, r.scheme, r.tau) for r in rows]
    assert keys == sorted(keys)
    assert len(rows) == 1 * 2 * 2
    assert all(r.error == "" for r in rows)


def test_run_sweep_parallel_equals_serial():
    cfg = config_from_dict(BASE_CONFIG)
    assert run_sweep(cfg, jobs=1) == run_sweep(cfg, jobs=3)


# The thread count of the OpenBLAS bundled with numpy, read through its own getter; src/ keeps no such handle.
_BLAS_THREADS = """
def blas_threads():
    import ctypes, pathlib, numpy
    for path in sorted((pathlib.Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            get = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        return get()
    return None
"""


def _run_python(code: str, *args, **env) -> str:
    """stdout of a fresh interpreter that runs code with args, importing ddgates from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))), **env)
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_cli_main_starts_numpy_on_one_blas_thread_whatever_the_environment_asks(tmp_path):
    code = _BLAS_THREADS + """
import os, sys
if sys.argv[1] == "numpy-first":
    import numpy
from ddgates.cli import main
assert main(["compile", "--gate", "NOT", "--scheme", "xy4", "--out", sys.argv[2]]) == 0  # loads numpy
print(blas_threads(), os.environ["OPENBLAS_NUM_THREADS"])
"""
    cli_first = _run_python(code, "cli-first", tmp_path / "a.json", OPENBLAS_NUM_THREADS="4").split()
    numpy_first = _run_python(code, "numpy-first", tmp_path / "b.json", OPENBLAS_NUM_THREADS="4").split()
    if cli_first[0] == "None":
        pytest.skip("this numpy build exposes no OpenBLAS thread getter")
    assert cli_first == ["1", "1"]
    # A host that loaded numpy first keeps its thread count and its environment.
    assert numpy_first[1] == "4"
    if len(os.sched_getaffinity(0)) > 1:
        assert int(numpy_first[0]) > 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or "fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs /proc and the fork start method")
def test_forked_jobs_workers_hold_one_os_thread_after_cli_main(tmp_path):
    # A worker that held a spare OpenBLAS thread ran a plain numpy loop about three times slower.
    cfg_path, log = tmp_path / "cfg.json", tmp_path / "threads.log"
    cfg_path.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")  # 4 cells
    # The script loads no numpy before cli.main, so it installs its stand-in for simulate_cell in each forked worker.
    code = """
import multiprocessing, os, sys, time
from ddgates import cli

def log_threads_after(simulate_cell):
    def simulate_then_log_threads(*cell):
        row = simulate_cell(*cell)
        with open(sys.argv[2], "a", encoding="utf-8") as log:
            log.write(f"{os.getpid()} {len(os.listdir('/proc/self/task'))}\\n")
        return row
    return simulate_then_log_threads

def patch_worker():
    harness = sys.modules["ddgates.harness"]
    harness.simulate_cell = log_threads_after(harness.simulate_cell)

os.register_at_fork(after_in_child=patch_worker)
multiprocessing.set_start_method("fork")
os.sched_getaffinity = lambda pid: {0, 1}  # two usable cores, so --jobs 2 starts two workers
assert cli.main(["sweep", "--config", sys.argv[1], "--jobs", "2", "--out", sys.argv[3]]) == 0
assert os.environ["OPENBLAS_NUM_THREADS"] == "1"  # cli.main found no numpy loaded
# The pool joined its handler threads, but /proc may list one for some milliseconds more; a BLAS thread stays.
deadline = time.monotonic() + 10.0
while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
    time.sleep(0.01)
print(os.getpid(), len(os.listdir("/proc/self/task")))
"""
    parent_pid, parent_threads = _run_python(code, cfg_path, log, tmp_path / "out.csv",
                                             OPENBLAS_NUM_THREADS="2").split()
    workers = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    assert len(workers) == 4 and all(pid != parent_pid for pid, _ in workers)
    assert [threads for _, threads in workers] == ["1"] * 4
    assert parent_threads == "1"


def test_run_sweep_starts_no_more_pool_workers_than_cores(monkeypatch):
    cfg = config_from_dict(BASE_CONFIG)  # 4 cells
    serial = run_sweep(cfg)
    started = []

    class FakePool:  # runs the tasks in this process, so no worker starts
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks, chunksize):
            return list(itertools.starmap(fn, tasks))

    monkeypatch.setattr(harness.multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)  # the machine's cores, not all of them usable
    assert run_sweep(cfg, jobs=64) == serial
    assert started == [3]
    monkeypatch.delattr(harness.os, "sched_getaffinity")  # an OS that reports no affinity: the machine's count
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert run_sweep(cfg, jobs=64) == serial
    assert started == [3, 2]
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)  # unknown: run serially
    assert run_sweep(cfg, jobs=64) == serial
    assert started == [3, 2]


def test_run_sweep_on_one_usable_core_starts_no_pool(monkeypatch):
    # Under `taskset -c 0` on a 2-core machine, os.cpu_count() is 2 but the process may use one core,
    # so jobs 4 must run the cells serially.
    cfg = config_from_dict(BASE_CONFIG)
    serial = run_sweep(cfg)
    started = []

    def pool(*args, **kwargs):
        started.append(args)
        raise AssertionError("a pool started on one usable core")

    monkeypatch.setattr(harness.multiprocessing, "Pool", pool)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert run_sweep(cfg, jobs=4) == serial
    assert started == []


def test_bath_sweep_bytes_do_not_depend_on_blas_threads_or_jobs(tmp_path):
    bath = default_spin_bath(6)
    noise = {"kind": "spin_bath", "couplings": list(bath.couplings),
             "bath_couplings": bath.bath_couplings.tolist()}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(BASE_CONFIG, noise=noise, gates=["NOOP", "PI8"], schemes=["kdd"],
                                        tau_grid_s=[1e-5])), encoding="utf-8")
    # numpy loads before cli.main, so the cells run on the BLAS threads the environment asks for.
    code = _BLAS_THREADS + """
import sys
import numpy
from ddgates.cli import main
assert main(sys.argv[1:]) == 0
print(blas_threads())
"""
    outputs = set()
    for threads, jobs in itertools.product(("1", "2"), ("1", "2")):
        out = tmp_path / f"t{threads}-j{jobs}.csv"
        blas = _run_python(code, "sweep", "--config", cfg_path, "--out", out, "--jobs", jobs,
                           OPENBLAS_NUM_THREADS=threads).split()[-1]
        assert blas in (threads, "None") or len(os.sched_getaffinity(0)) < int(threads)
        outputs.add(out.read_bytes())
    assert len(outputs) == 1


def test_run_sweep_survives_failed_cells():
    d = dict(BASE_CONFIG)
    d["tau_grid_s"] = [1.5e-5, 5e-3]  # second value is out of range for DD
    rows = run_sweep(config_from_dict(d))
    bad = [r for r in rows if r.error]
    good = [r for r in rows if not r.error]
    assert bad and good
    assert all(math.isnan(r.fidelity) for r in bad)
    # simple scheme ignores tau, so only DD cells fail
    assert {r.scheme for r in bad} == {"xy8"}


def test_protection_ordering_median_fidelities():
    d = dict(BASE_CONFIG)
    d["schemes"] = ["simple", "bb1", "xy4", "xy8", "kdd"]
    d["tau_grid_s"] = [7.5e-6, 1.5e-5, 3e-5]
    rows = run_sweep(config_from_dict(d))

    def median_of(scheme):
        return float(np.median([r.fidelity for r in rows if r.scheme == scheme]))

    assert median_of("simple") <= median_of("bb1")
    for scheme in ("xy4", "xy8", "kdd"):
        assert median_of("simple") <= median_of(scheme)


def test_noop_cells_stay_coherent_at_short_tau():
    for scheme in ("xy4", "xy8", "kdd"):
        row = simulate_cell("NOOP", scheme, 3e-6, PINNED_NOISE, 0.01)
        assert row.fidelity >= 0.99, (scheme, row.fidelity)


def test_rows_csv_round_trip_is_exact():
    cfg = config_from_dict(BASE_CONFIG)
    rows = run_sweep(cfg)
    text = rows_to_csv(rows)
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_FIELDS)
    assert text.endswith("\n")
    parsed = rows_from_csv(text)
    assert parsed == rows
    assert rows_to_csv(parsed) == text


def test_rows_from_csv_rejects_wrong_header():
    with pytest.raises(ValueError):
        rows_from_csv("a,b,c\n1,2,3\n")


def test_summary_median_is_middle_value():
    rows = [
        ResultRow("H", "xy8", t, 1e-3, 100, f, 0.0)
        for t, f in ((1e-6, 0.91), (2e-6, 0.95), (3e-6, 0.99))
    ]
    summary = summarize_rows(rows)
    assert summary["H"]["xy8"]["median"] == pytest.approx(0.95)
    assert summary["H"]["xy8"]["min"] == pytest.approx(0.91)
    assert summary["H"]["xy8"]["max"] == pytest.approx(0.99)


def test_summary_skips_failed_rows():
    rows = [
        ResultRow("H", "xy8", 1e-6, 1e-3, 100, 0.9, 0.0),
        ResultRow("H", "xy8", 2e-6, math.nan, 0, math.nan, math.nan, error="boom"),
    ]
    summary = summarize_rows(rows)
    assert summary["H"]["xy8"]["min"] == pytest.approx(0.9)


def test_run_table1_tau_selection_and_report():
    d = dict(BASE_CONFIG)
    d["gates"] = ["NOT", "H"]
    rows, report = run_table1(config_from_dict(d))
    assert [r.gate for r in rows] == ["H", "NOT"]
    for row in rows:
        assert row.scheme == "xy8"
        assert row.gate_time == pytest.approx(REFERENCE_GATE_TIMES_S[row.gate], rel=1e-9)
        assert row.error == ""
    assert report["NOT"]["reference_fidelity"] == REFERENCE_FIDELITIES["NOT"]
    assert report["H"]["reference_gate_time_s"] == 1.6e-3

    d["gates"] = ["NOOP"]
    with pytest.raises(ConfigError):
        run_table1(config_from_dict(d))


def test_run_calibration_requires_targets_kind():
    cfg = config_from_dict(BASE_CONFIG)
    with pytest.raises(ConfigError):
        run_calibration(cfg)


def test_cli_compile_and_roundtrip(tmp_path, capsys):
    out = tmp_path / "sched.json"
    code = cli_main(["compile", "--gate", "NOT", "--scheme", "xy8",
                     "--tau", "1.5e-5", "--epsilon", "0.01", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["pulse_count"] == 50
    assert doc["dd_kind"] == "xy8"


def test_cli_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")

    assert cli_main(["compile", "--gate", "NOT", "--scheme", "xy8", "--tau", "0.5"]) == 1
    assert cli_main(["compile", "--gate", "NOT", "--scheme", "nope", "--tau", "1e-5"]) == 1
    assert cli_main(["simulate", "--config", str(tmp_path / "missing.json"),
                     "--gate", "NOT", "--scheme", "xy8", "--tau", "1e-5"]) == 1
    out_csv = tmp_path / "row.csv"
    assert cli_main(["simulate", "--config", str(cfg_path), "--gate", "NOT",
                     "--scheme", "xy8", "--tau", "5e-3", "--out", str(out_csv)]) == 2
    assert "tau" in rows_from_csv(out_csv.read_text(encoding="utf-8"))[0].error
    assert cli_main(["calibrate", "--config", str(cfg_path)]) == 1  # noise kind is ou
    assert cli_main(["bogus-subcommand"]) == 1


@pytest.mark.parametrize("command", ["compile", "simulate"])
@pytest.mark.parametrize("flag, value", [("--gate", "CNOT"), ("--scheme", "cpmg")])
def test_cli_rejects_an_unknown_gate_or_scheme_with_exit_1(tmp_path, capsys, command, flag, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
    cell = dict({"--gate": "NOT", "--scheme": "xy4", "--tau": "1e-5"}, **{flag: value})
    config = ["--config", str(cfg_path)] if command == "simulate" else []
    out = tmp_path / "out"
    assert cli_main([command, *config, *itertools.chain(*cell.items()), "--out", str(out)]) == 1
    assert value in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scheme", ["simple", "simple_padded", "bb1", "xy8"])
@pytest.mark.parametrize("tau", ["nan", "inf", "-inf", "0", "-1e-5"])
def test_cli_rejects_invalid_tau_for_every_scheme(tmp_path, capsys, scheme, tau):
    with pytest.raises(CompileError, match="tau"):
        build_schedule("NOT", scheme, float(tau))
    out = tmp_path / "sched.json"
    # --tau=VALUE, so argparse takes "-inf" as a value rather than an option
    assert cli_main(["compile", "--gate", "NOT", "--scheme", scheme, f"--tau={tau}",
                     "--out", str(out)]) == 1
    assert "tau" in capsys.readouterr().err
    assert not out.exists()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
    row_csv = tmp_path / "row.csv"
    assert cli_main(["simulate", "--config", str(cfg_path), "--gate", "NOT", "--scheme", scheme,
                     f"--tau={tau}", "--out", str(row_csv)]) == 2
    (row,) = rows_from_csv(row_csv.read_text(encoding="utf-8"))
    assert "tau" in row.error
    assert math.isnan(row.fidelity)


@pytest.mark.parametrize(
    "noise",
    [
        {"kind": "ou", "sigma": math.nan, "tau_c_s": 1.5e-4, "dt_s": 1.5e-5},
        {"kind": "ou", "sigma": 4e3, "tau_c_s": 1.5e-4, "dt_s": 1.5e-5, "sigma_static": math.inf},
        {"kind": "spin_bath", "couplings": [1e4, math.nan], "bath_couplings": [[0.0, 0.0], [0.0, 0.0]]},
        {"kind": "spin_bath", "couplings": [1e4, 2e4],
         "bath_couplings": [[0.0, math.nan], [math.nan, 0.0]]},
        {"kind": "spin_bath", "couplings": [1e4, 2e4], "bath_couplings": [[0.0, 0.0], [0.0, 0.0]],
         "system_offset": math.nan},
    ],
    ids=["sigma", "sigma_static", "couplings", "bath_couplings", "system_offset"],
)
def test_cli_rejects_non_finite_noise_parameters(tmp_path, capsys, noise):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(BASE_CONFIG, noise=noise)), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(cfg_path))
    assert cli_main(["simulate", "--config", str(cfg_path), "--gate", "NOT",
                     "--scheme", "xy8", "--tau", "1.5e-5"]) == 1
    assert "must be finite" in capsys.readouterr().err


def test_cli_sweep_names_a_non_finite_channel_in_the_row_and_exits_2(tmp_path, capsys, monkeypatch):
    # A moment walk that ends non-finite in every cell that lasts: each such cell gets a row
    # naming the non-finite Gram matrix, and `simple`, whose pulses take no time, still runs.
    walk = simulate.ou_moment
    monkeypatch.setattr(simulate, "ou_moment",
                        lambda sched, *args: walk(sched, *args) * (math.nan if sched.total_duration else 1.0))
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "sweep.csv"
    cfg_path.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    rows = rows_from_csv(out.read_text(encoding="utf-8"))
    assert [(row.scheme, row.error) for row in rows] == [
        ("simple", ""), ("simple", ""),
        ("xy8", "the channel's Gram matrix is not finite"), ("xy8", "the channel's Gram matrix is not finite"),
    ]
    assert "2 of 4 cells failed" in capsys.readouterr().err


def test_cli_rejects_ou_detunings_that_would_overflow_before_any_cell_runs(tmp_path, capsys, monkeypatch):
    # sigma_static 1e300 is finite, but the squared detuning at an outer Gauss-Hermite node is not.
    noise = dict(BASE_CONFIG["noise"], sigma_static=1e300)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(BASE_CONFIG, noise=noise)), encoding="utf-8")
    cells = []
    monkeypatch.setattr(harness, "simulate_cell", lambda *cell: cells.append(cell))
    for command in ("sweep", "table1"):
        assert cli_main([command, "--config", str(cfg_path)]) == 1
        assert "sigma_static" in capsys.readouterr().err
    assert cells == []


@pytest.mark.parametrize("field, value", [
    ("noise", "ou"), ("noise", None), ("noise", [1, 2]), ("gates", "NOT"), ("schemes", "xy8"), ("tau_grid_s", 1e-5),
])
def test_cli_rejects_a_config_field_of_the_wrong_type_naming_it(tmp_path, field, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(BASE_CONFIG, **{field: value})), encoding="utf-8")
    env = _env_with_src()
    done = subprocess.run([sys.executable, "-m", "ddgates", "sweep", "--config", str(cfg_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and field in done.stderr


@pytest.mark.parametrize("config, key", [
    (dict(BASE_CONFIG, epsilom=0.2), "epsilom"),
    (dict(BASE_CONFIG, noise=dict(BASE_CONFIG["noise"], sigma_statc=0.0)), "sigma_statc"),
    (dict(BASE_CONFIG, noise={"kind": "spin_bath", "couplings": [1e4], "bath_couplings": [[0.0]],
                              "system_ofset": 1e3}), "system_ofset"),
    (dict(BASE_CONFIG, noise={"kind": "targets", "t2_star_s": 3.7e-4, "t2_hahn_s": 7.5e-4, "t2_s": 1e-3}), "t2_s"),
    (dict(BASE_CONFIG, noise={"kind": "calibration", "path": "calibration.json", "seed": 1}), "seed"),
], ids=["top_level", "ou", "spin_bath", "targets", "calibration"])
def test_cli_rejects_a_misspelt_config_key_naming_it(tmp_path, capsys, config, key):
    # A misspelt key would otherwise leave its field at the default: "epsilom" would simulate epsilon 0.01.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    with pytest.raises(ConfigError, match=repr(key)):
        load_config(str(cfg_path))
    assert cli_main(["sweep", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown key ") and repr(key) in err


_BATH_NOISE = {"kind": "spin_bath", "couplings": [1e4, 2e4], "bath_couplings": [[0.0, 5e3], [5e3, 0.0]]}
_TARGETS_NOISE = {"kind": "targets", "t2_star_s": 3.7e-4, "t2_hahn_s": 7.5e-4}


@pytest.mark.parametrize("config, key", [
    (dict(BASE_CONFIG, noise=dict(BASE_CONFIG["noise"], sigma=True)), "sigma"),
    (dict(BASE_CONFIG, noise=dict(BASE_CONFIG["noise"], sigma="4000")), "sigma"),
    (dict(BASE_CONFIG, noise=dict(BASE_CONFIG["noise"], tau_c_s="1.5e-4")), "tau_c_s"),
    (dict(BASE_CONFIG, noise=dict(BASE_CONFIG["noise"], dt_s=True)), "dt_s"),
    (dict(BASE_CONFIG, noise=dict(BASE_CONFIG["noise"], sigma_static=False)), "sigma_static"),
    (dict(BASE_CONFIG, noise=dict(_BATH_NOISE, couplings=[True, 2e4])), "couplings"),
    (dict(BASE_CONFIG, noise=dict(_BATH_NOISE, bath_couplings=[[0.0, "5e3"], [5e3, 0.0]])), "bath_couplings"),
    (dict(BASE_CONFIG, noise=dict(_BATH_NOISE, system_offset="0")), "system_offset"),
    (dict(BASE_CONFIG, noise=dict(_TARGETS_NOISE, t2_star_s="3.7e-4")), "t2_star_s"),
    (dict(BASE_CONFIG, noise=dict(_TARGETS_NOISE, t2_hahn_s=True)), "t2_hahn_s"),
    (dict(BASE_CONFIG, tau_grid_s=[True]), "tau_grid_s"),
    (dict(BASE_CONFIG, tau_grid_s=[7.5e-6, "1.5e-5"]), "tau_grid_s"),
    (dict(BASE_CONFIG, epsilon=False), "epsilon"),
    (dict(BASE_CONFIG, epsilon="0.01"), "epsilon"),
], ids=["sigma_bool", "sigma_str", "tau_c_str", "dt_bool", "sigma_static_bool", "couplings_bool", "bath_couplings_str",
        "system_offset_str", "t2_star_str", "t2_hahn_bool", "tau_grid_bool", "tau_grid_str", "epsilon_bool",
        "epsilon_str"])
def test_config_rejects_a_boolean_or_string_number_naming_its_key(tmp_path, config, key):
    # float() takes both: "sigma": true would simulate 1 rad/s and "epsilon": false no error.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{key} must be a number"):
        load_config(str(cfg_path))
    if key in config["noise"] and config["noise"]["kind"] == "ou":  # an artifact's params load by the same rule
        artifact = tmp_path / "calibration.json"
        artifact.write_text(json.dumps({"schema": 2, "params": config["noise"]}), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"{key} must be a number"):
            load_calibration(str(artifact))


@pytest.mark.parametrize("noise, command, absent", [
    (_BATH_NOISE, ["sweep", "--summary", "summary.json"], "numpy.ma numpy.random scipy"),
    (BASE_CONFIG["noise"], ["sweep", "--summary", "summary.json"], "numpy.ma numpy.random scipy"),
    (_TARGETS_NOISE, ["calibrate"], "numpy scipy"),
], ids=["bath", "ou", "calibrate"])
def test_cli_sweep_imports_numpy_only(tmp_path, noise, command, absent):
    # numpy.ma costs a fresh process about 13 ms to import; np.unique and np.median pull
    # it in.  numpy.random adds about 9 ms and 6 MB of peak RSS, and no engine samples.
    # scipy is a test dependency only: no engine may import it at run time.  calibrate
    # runs on the standard library alone: numpy is about 130 ms of its process.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(BASE_CONFIG, noise=noise)), encoding="utf-8")
    code = ("import sys; from ddgates.cli import main; code = main(sys.argv[2:]); "
            "assert not set(sys.argv[1].split()) & set(sys.modules), sys.argv[1]; sys.exit(code)")
    subprocess.run([sys.executable, "-c", code, absent, *command, "--config", str(cfg_path), "--out", "out"],
                   env=_env_with_src(), cwd=tmp_path, check=True, timeout=120)


def test_cli_sweep_reports_failed_cells(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(BASE_CONFIG, tau_grid_s=[1.5e-5, 2e-3])), encoding="utf-8")
    sweep_csv = tmp_path / "sweep.csv"
    sweep_sum = tmp_path / "sweep.json"
    code = cli_main(["sweep", "--config", str(cfg_path),
                     "--out", str(sweep_csv), "--summary", str(sweep_sum)])
    assert code == 2
    rows = rows_from_csv(sweep_csv.read_text(encoding="utf-8"))
    # simple ignores tau; xy8 rejects a tau above TAU_MAX
    assert [bool(row.error) for row in rows] == [False, False, False, True]
    assert "NOT" in json.loads(sweep_sum.read_text(encoding="utf-8"))
    assert "1 of 4 cells failed" in capsys.readouterr().err


def test_cli_simulate_and_sweep(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
    row_csv = tmp_path / "row.csv"
    code = cli_main(["simulate", "--config", str(cfg_path), "--gate", "NOT",
                     "--scheme", "xy8", "--tau", "1.5e-5",
                     "--out", str(row_csv)])
    assert code == 0
    (row,) = rows_from_csv(row_csv.read_text(encoding="utf-8"))
    assert row.pulse_count == 50

    sweep_csv = tmp_path / "sweep.csv"
    sweep_sum = tmp_path / "sweep.json"
    code = cli_main(["sweep", "--config", str(cfg_path),
                     "--out", str(sweep_csv), "--summary", str(sweep_sum)])
    assert code == 0
    rows = rows_from_csv(sweep_csv.read_text(encoding="utf-8"))
    assert len(rows) == 4
    summary = json.loads(sweep_sum.read_text(encoding="utf-8"))
    assert "NOT" in summary

    table_json = tmp_path / "table.json"
    code = cli_main(["table1", "--config", str(cfg_path),
                     "--out", str(table_json)])
    assert code == 0
    report = json.loads(table_json.read_text(encoding="utf-8"))
    assert report["NOT"]["reference_fidelity"] == 0.995


def test_cli_simulate_epsilon_overrides_the_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
    cell = ["simulate", "--config", str(cfg_path), "--gate", "NOT", "--scheme", "xy8", "--tau", "1.5e-5"]
    assert cli_main([*cell, "--epsilon", "0"]) == 0
    override = capsys.readouterr().out
    assert override == rows_to_csv([simulate_cell("NOT", "xy8", 1.5e-5, PINNED_NOISE, epsilon=0.0)])
    assert cli_main(cell) == 0
    configured = capsys.readouterr().out
    assert configured == rows_to_csv([simulate_cell("NOT", "xy8", 1.5e-5, PINNED_NOISE, epsilon=0.01)])
    assert rows_from_csv(override)[0].fidelity != rows_from_csv(configured)[0].fidelity


def test_cli_sweep_runs_a_zero_spin_bath_written_as_json(tmp_path):
    # JSON writes the 0x0 bath_couplings matrix as [].
    noise = {"kind": "spin_bath", "couplings": [], "bath_couplings": default_spin_bath(0).bath_couplings.tolist(),
             "system_offset": 2e3}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "sweep.csv"
    cfg_path.write_text(json.dumps(dict(BASE_CONFIG, noise=noise)), encoding="utf-8")
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = rows_from_csv(out.read_text(encoding="utf-8"))
    spec = SpinBathSpec(0, (), np.zeros((0, 0)), system_offset=2e3)
    assert len(rows) == 4
    for row in rows:
        sched = apply_amplitude_error(build_schedule(row.gate, row.scheme, row.tau), BASE_CONFIG["epsilon"])
        chi = chi_from_operators(oracle_bath_propagator(sched, spec)[None])
        assert row.fidelity == pytest.approx(gate_fidelity(chi, chi_from_operators(sched.target_gate[None])), abs=1e-9)


def test_cli_rejects_an_oversized_spin_bath_before_any_cell_runs(tmp_path, capsys, monkeypatch):
    n = DEFAULT_MAX_SPINS  # with the system, one spin over the limit
    noise = {"kind": "spin_bath", "couplings": [1e4] * n, "bath_couplings": np.zeros((n, n)).tolist()}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(BASE_CONFIG, noise=noise)), encoding="utf-8")
    cells = []
    monkeypatch.setattr(harness, "simulate_cell", lambda *cell: cells.append(cell))
    for command in ("sweep", "table1"):
        assert cli_main([command, "--config", str(cfg_path)]) == 1
        assert f"at most {DEFAULT_MAX_SPINS} spins" in capsys.readouterr().err
    assert cells == []


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_cli_sweep_rejects_jobs_below_1_naming_the_flag(tmp_path, capsys, jobs):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
    assert cli_main(["sweep", "--config", str(cfg_path), "--jobs", jobs]) == 1
    assert "--jobs must be >= 1" in capsys.readouterr().err


def test_cli_sweep_without_out_prints_the_csv(tmp_path, capsys):
    # With --summary too, the summary goes to its file and stdout still carries the CSV alone.
    cfg_path, sum_path = tmp_path / "cfg.json", tmp_path / "summary.json"
    cfg_path.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
    rows = run_sweep(config_from_dict(BASE_CONFIG))
    for extra in ([], ["--summary", str(sum_path)]):
        assert cli_main(["sweep", "--config", str(cfg_path), *extra]) == 0
        assert capsys.readouterr().out == rows_to_csv(rows)
    assert json.loads(sum_path.read_text(encoding="utf-8")) == json.loads(json.dumps(summarize_rows(rows)))


def test_cli_table1_writes_its_rows_and_exits_2_on_a_failed_cell(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(BASE_CONFIG, gates=["NOT", "H"])), encoding="utf-8")
    rows_csv, report_json = tmp_path / "rows.csv", tmp_path / "report.json"
    argv = ["table1", "--config", str(cfg_path), "--out", str(report_json), "--csv", str(rows_csv)]
    assert cli_main(argv) == 0
    rows, report = run_table1(load_config(str(cfg_path)))
    assert rows_csv.read_text(encoding="utf-8") == rows_to_csv(rows)
    assert json.loads(report_json.read_text(encoding="utf-8")) == report

    simulate = harness.simulate_cell

    def failing_h(gate, *rest):
        row = simulate(gate, *rest)
        return dataclasses.replace(row, fidelity=math.nan, error="boom") if gate == "H" else row

    monkeypatch.setattr(harness, "simulate_cell", failing_h)
    capsys.readouterr()
    assert cli_main(argv) == 2
    assert [row.error for row in rows_from_csv(rows_csv.read_text(encoding="utf-8"))] == ["boom", ""]
    assert json.loads(report_json.read_text(encoding="utf-8"))["H"]["error"] == "boom"
    assert "1 of 2 cells failed" in capsys.readouterr().err


def test_cli_exits_2_on_an_unwritable_output(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "sched.json"
    assert cli_main(["compile", "--gate", "NOT", "--scheme", "xy8", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command, flag", [("calibrate", "--out"), ("sweep", "--summary"), ("table1", "--csv")])
def test_cli_writes_each_artifact_before_it_prints(tmp_path, capsys, command, flag):
    cfg_path = tmp_path / "cfg.json"
    noise = _TARGETS_NOISE if command == "calibrate" else BASE_CONFIG["noise"]
    cfg_path.write_text(json.dumps(dict(BASE_CONFIG, noise=noise)), encoding="utf-8")
    assert cli_main([command, "--config", str(cfg_path), flag, str(tmp_path / "missing-dir" / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_targets_noise_gives_the_bytes_of_its_calibration_artifact(tmp_path):
    targets = {"kind": "targets", "t2_star_s": 3.7e-4, "t2_hahn_s": 7.5e-4}
    cfg = config_from_dict(dict(BASE_CONFIG, noise=targets))
    artifact = tmp_path / "cal.json"
    artifact.write_text(calibration_artifact_text(cfg.noise, run_calibration(cfg)), encoding="utf-8")
    via_artifact = dataclasses.replace(cfg, noise=CalibrationFileRef(str(artifact)))
    assert rows_to_csv(run_sweep(cfg)) == rows_to_csv(run_sweep(via_artifact))


def test_readme_states_the_csv_schema():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert ",".join(CSV_FIELDS) in readme.read_text(encoding="utf-8").splitlines()
