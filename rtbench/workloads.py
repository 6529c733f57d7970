"""Workload definitions: seed -> the configs the program receives.

Pure standard library (no numpy, no ``repro``), so ``run.py`` can expand
a workload without importing the program.  Every workload runs on the
default numpy backend with ``silicon_cubic`` at 8000 K; the seed draws
only the field amplitudes, inside a small-amplitude range, so that the
reference trajectories in ``reference/`` (fitted over that range) apply
to every seed.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

#: (lo, hi) field amplitudes the seed draws from (atomic units); the
#: references are fitted and their tolerances measured across each range
KICK_RANGE = (1.0e-3, 3.0e-3)
PULSE_RANGE = (0.002, 0.006)

WORKLOADS: Dict[str, str] = {
    "hse_ptim_ace": (
        "the paper's workload: HSE SCF to convergence, then PT-IM-ACE steps "
        "under a Gaussian pulse; Fock/ACE dominate"
    ),
    "lda_sweep_store": (
        "the shipped absorption sweep (2 kicks x ptim/ptcn, one shared SCF) on "
        "2 worker threads into a fresh store, then resumed from it"
    ),
}

SWEEP_WORKERS = 2
#: the shipped sweep's ``auto`` resolves to a process pool at 2 workers;
#: with the default BLAS threads (2 per process on 2 cores) its cold pass
#: took 6.7-15.6 s from one identical pass to the next, too erratic to
#: measure, so the sweep runs on the program's thread scheduler instead
SWEEP_SCHEDULER = "thread"


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{int(seed)}")


def _uniform(rng: random.Random, bounds) -> float:
    lo, hi = bounds
    return round(rng.uniform(lo, hi), 6)


def hse_config(amplitude: float) -> Dict[str, Any]:
    return {
        "system": {"cell": "silicon_cubic", "ecut": 2.0, "functional": "hse"},
        "scf": {
            "temperature_k": 8000.0,
            "nbands": 20,
            "density_tol": 1e-4,
            "exchange_tol": 1e-4,
            "max_scf": 15,
            "max_outer": 10,
        },
        "field": {
            "kind": "gaussian_pulse",
            "params": {"amplitude": amplitude, "center_fs": 0.05, "fwhm_fs": 0.08},
        },
        "propagation": {
            "propagator": "ptim_ace",
            "dt_as": 50.0,
            "n_steps": 4,
            "record_energy": True,
            "options": {
                "density_tol": 1e-5,
                "exchange_tol": 1e-5,
                "max_inner": 12,
                "max_outer": 6,
            },
        },
    }


def sweep_base(kick: float) -> Dict[str, Any]:
    """The base config of ``examples/configs/sweep_absorption.toml``."""
    return {
        "system": {"cell": "silicon_cubic", "ecut": 2.0, "functional": "lda"},
        "scf": {"temperature_k": 8000.0, "nbands": 20, "density_tol": 1e-5, "max_scf": 40},
        "field": {"kind": "static_kick", "params": {"kick": kick}},
        "propagation": {
            "propagator": "ptim",
            "dt_as": 25.0,
            "n_steps": 4,
            "record_energy": False,
            "options": {"density_tol": 1e-7},
        },
    }


def _distinct(rng: random.Random, bounds, n: int) -> List[float]:
    out: List[float] = []
    while len(out) < n:
        value = _uniform(rng, bounds)
        if value not in out:
            out.append(value)
    return sorted(out)


def make_spec(workload: str, seed: int) -> Dict[str, Any]:
    """The generated inputs of one workload run (JSON-serializable)."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")
    rng = _rng(seed, workload)
    if workload == "hse_ptim_ace":
        amp = _uniform(rng, PULSE_RANGE)
        return {"kind": "physics", "amplitudes": [amp], "config": hse_config(amp)}
    kicks = _distinct(rng, KICK_RANGE, 2)
    return {
        "kind": "sweep",
        "amplitudes": kicks,
        "config": sweep_base(kicks[0]),
        "axes": {"field.params.kick": kicks, "propagation.propagator": ["ptim", "ptcn"]},
        "workers": SWEEP_WORKERS,
        "scheduler": SWEEP_SCHEDULER,
    }
