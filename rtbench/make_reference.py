#!/usr/bin/env python3
"""Regenerate ``reference/<workload>.json``: the trajectories outputs are checked against.

Run from the repository root::

    python3 rtbench/make_reference.py [workload ...]

Each workload's configs are run at five amplitudes across its seed's
range, once with BLAS limited to one thread and once with the
environment's default.  The reference is the quadratic in the amplitude
through the default-thread runs at both ends and the middle of the range
(``checks.predicted``).  Its tolerance is ``SAFETY`` times the larger of
the quarter-point runs' distance from that curve and the thread-count
disagreement, so every seed passes while a wrong trajectory does not.  The measured thread-count
disagreement is written into the file and printed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from checks import predicted  # noqa: E402

SAFETY = 5.0
#: absolute floors so a bitwise-reproducible quantity still gets a usable bound
RESPONSE_FLOOR = 1e-6
ENERGY_FLOOR = 1e-6
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _series_configs(workload: str, amplitude: float):
    """(series key, config) pairs whose response is checked for a workload."""
    if workload == "hse_ptim_ace":
        return [("ptim_ace", workloads.hse_config(amplitude))]
    if workload == "lda_sweep_store":
        base = workloads.sweep_base(amplitude)
        out = []
        for prop in ("ptim", "ptcn"):
            cfg = json.loads(json.dumps(base))
            cfg["propagation"]["propagator"] = prop
            out.append((prop, cfg))
        return out
    raise KeyError(workload)


def _amplitudes(workload: str):
    lo, hi = workloads.PULSE_RANGE if workload == "hse_ptim_ace" else workloads.KICK_RANGE
    return [lo + f * (hi - lo) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]


def measure_one(workload: str) -> dict:
    """One thread setting: ground state + every (series, amplitude) response."""
    from repro.api import Simulation
    from checks import induced

    proto = None
    out = {"series": {}}
    for amplitude in _amplitudes(workload):
        for key, cfg in _series_configs(workload, amplitude):
            if proto is None:
                proto = Simulation(cfg)
                gs = proto.ground_state()
                out["energy"] = float(gs.total_energy)
                out["converged"] = bool(gs.converged)
                out["n_electrons"] = float(proto.hamiltonian.n_electrons)
                sim = proto
            else:
                sim = Simulation(cfg, ground_state=proto.ground_state())
            arrays = sim.propagate().observables()
            d = induced(arrays["dipole"])
            out["series"].setdefault(key, {})[repr(amplitude)] = [float(x) for x in np.asarray(d)]
    return out


def _run_setting(workload: str, single_thread: bool) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        if single_thread:
            env[var] = "1"
        else:
            env.pop(var, None)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__, "--one", workload],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def build(workload: str) -> dict:
    runs = {"1": _run_setting(workload, True), "default": _run_setting(workload, False)}
    ref_run = runs["default"]
    amps = _amplitudes(workload)
    fit_at, check_at = amps[0::2], amps[1::2]
    energy_dev = abs(runs["1"]["energy"] - ref_run["energy"])
    series, measured = {}, {}
    for key, by_amp in ref_run["series"].items():
        # exact quadratic through three amplitudes, per time point
        quadratic, response, drift = np.polyfit(fit_at, [by_amp[repr(a)] for a in fit_at], 2)
        line = {"drift": drift.tolist(), "response": response.tolist(), "quadratic": quadratic.tolist()}
        nonlinear = max(
            float(np.max(np.abs(np.asarray(by_amp[repr(a)]) - predicted(line, a)))) for a in check_at
        )
        thread_dev = max(
            max(abs(a - b) for a, b in zip(runs["1"]["series"][key][repr(amp)], by_amp[repr(amp)]))
            for amp in amps
        )
        series[key] = dict(line, tol=max(SAFETY * max(nonlinear, thread_dev), RESPONSE_FLOOR))
        measured[key] = {"nonlinear_dev": nonlinear, "thread_dev": thread_dev}
    return {
        "workload": workload,
        "amplitudes": amps,
        "energy": ref_run["energy"],
        "energy_tol": max(SAFETY * energy_dev, ENERGY_FLOOR),
        "n_electrons": ref_run["n_electrons"],
        "series": series,
        "measured": {
            "energy_thread_dev": energy_dev,
            "series": measured,
            "converged": {k: v["converged"] for k, v in runs.items()},
            "settings": "BLAS threads 1 vs environment default",
        },
    }


def main(argv) -> int:
    if argv[:1] == ["--one"]:
        print(json.dumps(measure_one(argv[1])))
        return 0
    names = argv or list(workloads.WORKLOADS)
    (HERE / "reference").mkdir(exist_ok=True)
    for name in names:
        ref = build(name)
        (HERE / "reference" / f"{name}.json").write_text(json.dumps(ref, indent=1) + "\n")
        m = ref["measured"]
        print(f"{name}: energy {ref['energy']:.8f} (1-thread vs default {m['energy_thread_dev']:.2e})")
        for key, dev in m["series"].items():
            print(
                f"  {key}: nonlinear dev {dev['nonlinear_dev']:.2e}, "
                f"thread dev {dev['thread_dev']:.2e}, tol {ref['series'][key]['tol']:.2e}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
