#!/usr/bin/env python3
"""Run one ddgates command in-process with the public function of each layer timed.

Usage:
    python3 perfbench/traced.py --out TRACE.json -- sweep --config c.json --jobs 1

Each traced function is replaced, under the name its caller looks it up by,
with a wrapper that records a span (name, start, end, parent span) and counts
derived from the call's arguments.  Spans stay in memory and are written to
TRACE.json when the command has finished.  Nothing under src/ is edited, and a
function a later version no longer has is listed as missing, not an error.
The tracing overhead written with the spans is the number of spans times the
cost of one wrapper call, timed on a no-op after the command.

`span_table` turns the spans of one or more traced processes into per-name
calls, total time, self time (total minus the time of direct child spans) and
summed counts; perfbench/run.py derives the per-layer metrics from it.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import time
import timeit
from pathlib import Path


def _sample_counts(args, result):
    rows, steps = args["n_realizations"], args["n_steps"]
    # One call holds its normals (steps + 2 per row) and its rows (steps + 1) in float64.
    return {"rows": rows, "normals": rows * (steps + 2), "bytes": 8 * rows * (2 * steps + 3)}


def _propagator_counts(args, result):
    return {"event_realizations": len(args["schedule"].events) * args["n_realizations"]}


def _schedule_counts(args, result):
    return {
        "events": len(result.events),
        "hard_pulses": sum(ev.kind == "hard_pulse" for ev in result.events),
    }


# (module, attribute, counter): the bindings through which the commands reach a layer
# function.  harness binds its collaborators with `from ... import`, so the harness
# name is the one its cells call; tomography, simulate and noise hold their own
# (sample_ou_ensemble is called through both noise and simulate, and process_fidelity
# reaches the propagators through tomography's names).
PATCHES = (
    ("harness", "resolve_noise", None),
    ("harness", "simulate_cell", None),
    ("harness", "build_schedule", _schedule_counts),
    ("harness", "apply_amplitude_error", None),
    ("cli", "emit_report", None),
    ("harness", "ou_propagators", _propagator_counts),
    ("tomography", "ou_propagators", _propagator_counts),
    ("harness", "average_channel_output", None),
    ("tomography", "average_channel_output", None),
    ("harness", "chi_reconstruct", None),
    ("tomography", "chi_reconstruct", None),
    ("harness", "process_fidelity", None),
    ("tomography", "bath_propagator", None),
    ("simulate", "hermitian_expm", None),
    ("noise", "sample_ou_ensemble", _sample_counts),
    ("simulate", "sample_ou_ensemble", _sample_counts),
    ("noise", "ou_phase_rows", None),
    ("simulate", "ou_phase_rows", None),
    ("noise", "fid_decay_curve", None),
    ("noise", "hahn_decay_curve", None),
)


class Tracer:
    """In-memory span recorder; spans are dicts with name, start, end, parent, counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, fn, counter):
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span["counts"] = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self, modules: dict) -> list[str]:
        """Patch every binding in PATCHES; return the ones this version lacks."""
        missing = []
        for module_name, attr, counter in PATCHES:
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, counter))
        return missing


def wrapper_cost_s() -> tuple[float, float]:
    """Seconds a wrapper adds to one call of a no-op: without and with a counter.

    Each is the best of 5 timings of 2000 calls, less a bare call.
    """
    number = 2000

    def noop(a, b=None):
        return None

    def per_call(fn):
        return min(timeit.repeat(lambda: fn(1, b=2), number=number, repeat=5)) / number

    bare = per_call(noop)
    tracer = Tracer()
    plain = per_call(tracer.wrap(noop, None)) - bare
    counted = per_call(tracer.wrap(noop, lambda args, result: {"calls": 1})) - bare
    return max(plain, 0.0), max(counted, 0.0)


def span_table(span_lists) -> dict:
    """Per span name: calls, total and self seconds, durations, summed and max counts."""
    table: dict[str, dict] = {}
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for span, children in zip(spans, child_time):
            row = table.setdefault(
                span["name"],
                {"calls": 0, "total": 0.0, "self": 0.0, "durations": [], "counts": {}, "max": {}},
            )
            duration = span["end"] - span["start"]
            row["calls"] += 1
            row["total"] += duration
            row["self"] += duration - children
            row["durations"].append(duration)
            for key, value in span.get("counts", {}).items():
                row["counts"][key] = row["counts"].get(key, 0) + value
                row["max"][key] = max(row["max"].get(key, 0), value)
    return table


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {
        key: os.environ.get(key)
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": threads,
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the spans JSON")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- then ddgates arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    start = time.perf_counter()
    import ddgates.cli

    import_s = time.perf_counter() - start
    from ddgates import cli, harness, noise, simulate, tomography

    tracer = Tracer()
    missing = tracer.install(
        {"cli": cli, "harness": harness, "noise": noise, "simulate": simulate, "tomography": tomography}
    )
    start = time.perf_counter()
    code = ddgates.cli.main(command)
    run_s = time.perf_counter() - start
    plain_s, counted_s = wrapper_cost_s()
    counted = sum("counts" in span for span in tracer.spans)
    record = {
        "command": command,
        "exit_code": code,
        "import_s": import_s,
        "run_s": run_s,
        "overhead_s": (len(tracer.spans) - counted) * plain_s + counted * counted_s,
        "missing": missing,
        "environment": _environment(),
        "spans": tracer.spans,
    }
    Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
