"""Correctness checks on what a workload run produced.

Every check counts as one attempted operation; a check that fails counts
as one failed operation (and so do unconverged SCFs, RT steps that did
not converge, and runs or jobs that did not finish ``ok``).  Tolerances
are physical, far above round-off and far below a wrong answer; the
reference tolerances were measured (see ``make_reference.py``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: |degeneracy * tr(sigma) - N_e| / N_e
PARTICLE_TOL = 1e-8
#: max |sigma - sigma^H| and |Im tr sigma|
HERMITIAN_TOL = 1e-10
#: max |<phi_i|phi_j> - delta_ij|
ORTHONORMAL_TOL = 1e-8


def load_reference(workload: str) -> Dict[str, Any]:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def induced(dipole: np.ndarray) -> np.ndarray:
    """Change of the x dipole since t = 0."""
    d = np.asarray(dipole)[:, 0]
    return d - d[0]


def predicted(series: Dict[str, Any], amplitude: float) -> np.ndarray:
    """Reference induced dipole at a field amplitude.

    ``drift + A * response + A**2 * quadratic``: ``drift`` is the
    field-free motion of a ground state converged only to the SCF
    tolerance, ``response`` the linear response per unit amplitude and
    ``quadratic`` the leading nonlinear term over the seed's range.
    """
    return (
        np.asarray(series["drift"])
        + amplitude * np.asarray(series["response"])
        + amplitude**2 * np.asarray(series["quadratic"])
    )


class Checks:
    """Accumulates attempted/failed operation counts and failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def as_dict(self) -> Dict[str, Any]:
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.failures}

    def ground_state(self, gs, reference: Dict[str, Any]) -> None:
        self.check("scf.converged", bool(gs.converged), f"after {gs.scf_iterations} iterations")
        energy = float(gs.total_energy)
        self.check("scf.energy_finite", math.isfinite(energy), repr(energy))
        err = abs(energy - reference["energy"])
        self.check(
            "scf.energy_reference",
            err <= reference["energy_tol"],
            f"|E - E_ref| = {err:.3e} > {reference['energy_tol']:.3e}",
        )

    def steps(self, stats) -> None:
        """One operation per RT step: the step's solver converged."""
        for n, st in enumerate(stats[1:], start=1):
            self.check("rt.step_converged", bool(st.converged), f"step {n}, residual {st.residual:.3e}")

    def state(self, grid, state, n_electrons: float, degeneracy: float) -> None:
        sigma = np.asarray(state.sigma)
        trace = np.trace(sigma)
        err = abs(degeneracy * trace.real - n_electrons) / n_electrons
        self.check("state.particle_number", err <= PARTICLE_TOL, f"relative error {err:.3e}")
        herm = float(np.max(np.abs(sigma - sigma.conj().T)))
        self.check("state.sigma_hermitian", herm <= HERMITIAN_TOL, f"{herm:.3e}")
        self.check("state.sigma_trace_real", abs(trace.imag) <= HERMITIAN_TOL, f"Im tr = {trace.imag:.3e}")
        overlap = grid.inner(state.phi, state.phi)
        ortho = float(np.max(np.abs(overlap - np.eye(overlap.shape[0]))))
        self.check("state.orthonormal", ortho <= ORTHONORMAL_TOL, f"{ortho:.3e}")

    def trajectory(
        self, arrays: Dict[str, np.ndarray], amplitude: float, series: Dict[str, Any],
        energy_recorded: bool,
    ) -> None:
        """Finite observables and agreement with the reference trajectory."""
        dipole = np.asarray(arrays["dipole"])
        self.check("rt.dipole_finite", bool(np.all(np.isfinite(dipole))))
        if energy_recorded:
            energy = np.asarray(arrays["energy"])
            self.check("rt.energy_finite", bool(np.all(np.isfinite(energy))), repr(energy))
        got = induced(dipole)
        ref = predicted(series, amplitude)
        if got.shape != ref.shape:
            self.check("rt.reference", False, f"shape {got.shape} != {ref.shape}")
            return
        dev = float(np.max(np.abs(got - ref)))
        self.check("rt.reference", dev <= series["tol"], f"max deviation {dev:.3e} > {series['tol']:.3e}")
