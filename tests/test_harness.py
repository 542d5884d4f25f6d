import json
import math

import numpy as np
import pytest

from ddgates.cli import main as cli_main
from ddgates.compiler import CompileError
from ddgates.harness import (
    CSV_FIELDS,
    GATES,
    REFERENCE_FIDELITIES,
    REFERENCE_GATE_TIMES_S,
    SCHEMES,
    CalibrationFileRef,
    CalibrationTargets,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    build_schedule,
    calibration_artifact_text,
    config_from_dict,
    emit_report,
    expected_pulse_count,
    load_calibration,
    load_config,
    resolve_noise,
    rows_from_csv,
    rows_to_csv,
    run_calibration,
    run_sweep,
    run_table1,
    simulate_cell,
    summarize_rows,
)
from ddgates.noise import CalibrationResult, OUNoiseSpec, SpinBathSpec

PINNED_NOISE = OUNoiseSpec(sigma=4335.354, tau_c=1.5e-4, dt=1.5e-5, sigma_static=2361.947)

BASE_CONFIG = {
    "noise": {"kind": "ou", "sigma": 4335.354, "tau_c_s": 1.5e-4,
              "dt_s": 1.5e-5, "sigma_static": 2361.947},
    "gates": ["NOT"],
    "schemes": ["simple", "xy8"],
    "tau_grid_s": [7.5e-6, 1.5e-5],
    "epsilon": 0.01,
    "realizations": 150,
    "seed": 5,
}


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
        {"realizations": 0},
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
    assert cfg.seed == 5
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
    text = calibration_artifact_text(9, CalibrationTargets(3.7e-4, 7.5e-4), result)
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


def test_simulate_cell_noiseless_limit():
    quiet = OUNoiseSpec(sigma=0.0, tau_c=1e-4, dt=1e-5, sigma_static=0.0)
    row = simulate_cell("H", "xy8", 1e-5, quiet, 0.0, 20, 3)
    assert row.fidelity >= 1 - 1e-6
    assert row.fidelity_stderr == 0.0
    assert row.error == ""
    assert row.pulse_count == 100
    assert row.gate_time == pytest.approx(2 * 5 * 8 * 1e-5)


def test_simulate_cell_failure_produces_sentinel_row():
    row = simulate_cell("H", "xy8", 5e-3, PINNED_NOISE, 0.01, 10, 3)
    assert math.isnan(row.fidelity)
    assert math.isnan(row.gate_time)
    assert row.pulse_count == 0
    assert "tau" in row.error


def test_simulate_cell_deterministic_and_seed_sensitive():
    a = simulate_cell("NOT", "xy8", 1.5e-5, PINNED_NOISE, 0.01, 120, 7)
    b = simulate_cell("NOT", "xy8", 1.5e-5, PINNED_NOISE, 0.01, 120, 7)
    c = simulate_cell("NOT", "xy8", 1.5e-5, PINNED_NOISE, 0.01, 120, 8)
    assert a == b
    assert a.fidelity != c.fidelity


def test_stderr_scales_inversely_with_sqrt_realizations():
    # measured on a mid-fidelity cell where the estimate responds linearly
    r_small = simulate_cell("NOT", "simple_padded", 1.5e-5, PINNED_NOISE, 0.01, 100, 1234)
    r_large = simulate_cell("NOT", "simple_padded", 1.5e-5, PINNED_NOISE, 0.01, 10000, 1234)
    ratio = r_small.fidelity_stderr / r_large.fidelity_stderr
    assert 5.0 < ratio < 20.0


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
    d["realizations"] = 400
    rows = run_sweep(config_from_dict(d))

    def median_of(scheme):
        return float(np.median([r.fidelity for r in rows if r.scheme == scheme]))

    assert median_of("simple") <= median_of("bb1")
    for scheme in ("xy4", "xy8", "kdd"):
        assert median_of("simple") <= median_of(scheme)


def test_noop_cells_stay_coherent_at_short_tau():
    for scheme in ("xy4", "xy8", "kdd"):
        row = simulate_cell("NOOP", scheme, 3e-6, PINNED_NOISE, 0.01, 400, 11)
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
        ResultRow("H", "xy8", t, 1e-3, 100, f, 0.0, 1)
        for t, f in ((1e-6, 0.91), (2e-6, 0.95), (3e-6, 0.99))
    ]
    summary = summarize_rows(rows)
    assert summary["H"]["xy8"]["median"] == pytest.approx(0.95)
    assert summary["H"]["xy8"]["min"] == pytest.approx(0.91)
    assert summary["H"]["xy8"]["max"] == pytest.approx(0.99)


def test_summary_skips_failed_rows():
    rows = [
        ResultRow("H", "xy8", 1e-6, 1e-3, 100, 0.9, 0.0, 1),
        ResultRow("H", "xy8", 2e-6, math.nan, 0, math.nan, math.nan, 1, error="boom"),
    ]
    summary = summarize_rows(rows)
    assert summary["H"]["xy8"]["min"] == pytest.approx(0.9)


def test_emit_report_writes_files(tmp_path):
    rows = [ResultRow("H", "xy8", 1e-6, 1e-3, 100, 0.9, 0.0, 1)]
    csv_path = tmp_path / "out.csv"
    sum_path = tmp_path / "sum.json"
    text, summary = emit_report(rows, str(csv_path), str(sum_path))
    assert csv_path.read_text(encoding="utf-8") == text
    doc = json.loads(sum_path.read_text(encoding="utf-8"))
    assert doc == summary
    with pytest.raises(ValueError):
        emit_report([])


def test_run_table1_tau_selection_and_report():
    d = dict(BASE_CONFIG)
    d["gates"] = ["NOT", "H"]
    d["realizations"] = 120
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


def test_run_calibration_requires_targets_kind(tmp_path):
    cfg = config_from_dict(BASE_CONFIG)
    with pytest.raises(ConfigError):
        run_calibration(cfg, str(tmp_path / "a.json"))


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


def test_cli_sweep_reports_failed_cells(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(BASE_CONFIG, tau_grid_s=[1.5e-5, 2e-3])), encoding="utf-8")
    sweep_csv = tmp_path / "sweep.csv"
    sweep_sum = tmp_path / "sweep.json"
    code = cli_main(["sweep", "--config", str(cfg_path), "--realizations", "20",
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
                     "--scheme", "xy8", "--tau", "1.5e-5", "--realizations", "60",
                     "--out", str(row_csv)])
    assert code == 0
    (row,) = rows_from_csv(row_csv.read_text(encoding="utf-8"))
    assert row.pulse_count == 50

    sweep_csv = tmp_path / "sweep.csv"
    sweep_sum = tmp_path / "sweep.json"
    code = cli_main(["sweep", "--config", str(cfg_path), "--realizations", "60",
                     "--out", str(sweep_csv), "--summary", str(sweep_sum)])
    assert code == 0
    rows = rows_from_csv(sweep_csv.read_text(encoding="utf-8"))
    assert len(rows) == 4
    summary = json.loads(sweep_sum.read_text(encoding="utf-8"))
    assert "NOT" in summary

    table_json = tmp_path / "table.json"
    code = cli_main(["table1", "--config", str(cfg_path), "--realizations", "60",
                     "--out", str(table_json)])
    assert code == 0
    report = json.loads(table_json.read_text(encoding="utf-8"))
    assert report["NOT"]["reference_fidelity"] == 0.995
