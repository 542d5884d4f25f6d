"""Dynamically protected single-qubit gates under dephasing noise.

Compile composite-pulse gates embedded in dynamical decoupling sequences,
simulate them against calibrated classical and quantum dephasing models,
and score them by process tomography.

Each public name is imported from its submodule on first use (PEP 562), so
`import ddgates` loads nothing, and numpy only with the first name that needs it.
"""

import importlib

__version__ = "0.1.0"

# The submodule that defines each public name.
_SUBMODULES = {
    "compiler": "DD_KINDS KDD XY4 XY8 DDKind PulseEvent RotationSpec Schedule apply_amplitude_error bb1_expand "
                "build_schedule dd_cycle decompose_gate gate_target hard_pulse_schedule protected_bb1_gate pulse_count "
                "schedule_from_json schedule_to_json verify_schedule",
    "config": "CompileError ConfigError ExperimentConfig load_config resolve_noise run_calibration",
    "core": "rotation_unitary",
    "harness": "ResultRow fid_decay_curve hahn_decay_curve run_sweep run_table1 simulate_cell",
    "noise": "SpinBathSpec default_spin_bath",
    "ou": "CalibrationError CalibrationResult OUNoiseSpec calibrate_to_targets",
    "simulate": "bath_propagator ideal_propagator",
    "tomography": "ChannelSamples ChiMatrix chi_reconstruct gate_fidelity process_fidelity",
}
_MODULE_OF = {name: module for module, names in _SUBMODULES.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
