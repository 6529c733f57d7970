"""One workload iteration in a fresh interpreter (started by ``run.py``).

Reads a JSON request from stdin::

    {"workload": ..., "run_id": ..., "iteration": N, "mode": "run" | "setup",
     "spec": <workloads.make_spec>, "trace": bool,
     "work_dir": DIR, "out_path": FILE, "spans_path": FILE}

and writes its measurements as JSON to ``out_path``.  Each iteration
starts in a new process so that ``setup_s`` includes ``import
repro.api`` exactly as a user of ``repro run`` pays it.  Module-level
code imports only the standard library, so ``setup_s`` times every
import the program needs.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: store-hit paths are milliseconds long: repeat them and take the median
REUSE_REPEATS = 15
#: sweep propagations timed alone per iteration (median taken)
REPROPAGATIONS = 3


def _span(tracer, name):
    return tracer.open(name) if tracer is not None else None


def _close(tracer, span):
    if tracer is not None and span is not None:
        tracer.close(span)


def _import_program(tracer):
    """``import repro.api`` (timed as its own span), then install wrappers."""
    span = _span(tracer, "api.import")
    import repro.api  # noqa: F401
    import repro.store  # noqa: F401

    _close(tracer, span)
    if tracer is not None:
        from spans import install

        install(tracer)


def _fingerprint(config) -> dict:
    import platform

    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas'].get('name')} {deps['blas'].get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = "unknown"
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    thread_vars = (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in thread_vars},
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
        "backend": config.backend.name,
        "fft_workers": config.backend.fft_workers,
    }


def _rss(out: dict) -> None:
    out["rss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["rss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def _median_time(fn, repeats: int = REUSE_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _ground_state_mtime(store) -> float:
    """Modification time of the store's single ground-state blob."""
    paths = sorted(store.blobs.ground_states_dir.glob("*.npz"))
    if len(paths) != 1:
        raise RuntimeError(f"expected one ground-state blob, found {len(paths)}")
    return paths[0].stat().st_mtime


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _checks(req, tracer):
    """A fresh check tally and the workload's reference (after the timed import).

    Spans stop here: the layer metrics describe the workload, not its checks.
    """
    from checks import Checks, load_reference

    if tracer is not None:
        tracer.recording = False
    return Checks(), load_reference(req["workload"])


def _check_stored_run(checks, store, config, amplitude, reference, series_key) -> None:
    """State invariants and reference agreement of one stored run."""
    from repro.api import Simulation

    done = store.find_completed(config)
    if not checks.check("run.stored_ok", done is not None, "no completed stored run"):
        return
    result = store.load_result(done.run_id)
    grid = Simulation(config).grid
    checks.state(grid, result.final_state, reference["n_electrons"], config.system.degeneracy)
    checks.trajectory(
        result.observables(), amplitude, reference["series"][series_key],
        energy_recorded=config.propagation.record_energy,
    )


def _solver_layers(gs, stats) -> dict:
    """SCF and RT-step solver counts the program reports (``StepStats`` of the steps)."""
    return {
        "scf.iterations": gs.scf_iterations,
        "scf.converged": int(gs.converged),
        "rt.inner_iterations": sum(s.scf_iterations for s in stats),
        "rt.outer_iterations": sum(s.outer_iterations for s in stats),
        "rt.fock_applications": sum(s.fock_applications for s in stats),
        "rt.ace_builds": sum(s.ace_builds for s in stats),
        "rt.unconverged_steps": sum(not s.converged for s in stats),
    }


# -- physics: one `repro run` ------------------------------------------------------


def run_physics(req, tracer, out) -> None:
    t0 = time.perf_counter()
    root = _span(tracer, "workload")
    _import_program(tracer)
    from repro.api import Simulation, SimulationConfig
    from repro.store import ResultStore

    config = SimulationConfig.from_dict(req["spec"]["config"])
    sim = Simulation(config)
    sim.hamiltonian
    out["setup_s"] = time.perf_counter() - t0
    out["fingerprint"] = _fingerprint(config)
    if req["mode"] == "setup":
        _close(tracer, root)
        return

    t = time.perf_counter()
    gs = sim.ground_state()
    out["scf_s"] = time.perf_counter() - t
    t = time.perf_counter()
    result = sim.propagate()
    rt_s = time.perf_counter() - t
    n_steps = config.propagation.n_steps
    out["rt_step_s"] = rt_s / n_steps
    store = ResultStore.ensure(Path(req["work_dir"]) / "store")
    store.add_result(result, elapsed=rt_s)
    out["wall_s"] = time.perf_counter() - t0
    _close(tracer, root)

    # the `repro run --store` reuse path for an identical config
    reuse_s = _median_time(lambda: store.load_result(store.find_completed(config).run_id))

    checks, reference = _checks(req, tracer)
    amplitude = req["spec"]["amplitudes"][0]
    checks.ground_state(gs, reference)
    checks.steps(result.record.stats)
    checks.state(sim.grid, result.final_state, sim.hamiltonian.n_electrons, config.system.degeneracy)
    checks.trajectory(
        result.observables(), amplitude, reference["series"][config.propagation.propagator],
        energy_recorded=config.propagation.record_energy,
    )

    fft = sim.fft_counters()
    out["layers"] = {
        **_solver_layers(gs, result.record.stats[1:]),
        "backend.fft_transforms": fft.transforms if fft is not None else 0,
        "backend.fft_calls": fft.calls if fft is not None else 0,
        "store.reuse_s": reuse_s,
        "store.bytes_written": _dir_bytes(store.root),
    }
    out["checks"] = checks.as_dict()
    store.close()


# -- sweep: the shipped absorption grid into a fresh store, then resumed ---------------


def run_sweep(req, tracer, out) -> None:
    t0 = time.perf_counter()
    setup_span = _span(tracer, "setup")
    _import_program(tracer)
    from repro.api import Simulation, SimulationConfig, SweepConfig, run_ensemble
    from repro.store import ResultStore

    spec = req["spec"]
    base = SimulationConfig.from_dict(spec["config"])
    sweep = SweepConfig.from_dict(
        {"axes": spec["axes"], "workers": spec["workers"], "scheduler": spec["scheduler"]}
    )
    # what every shared-SCF group pays before its SCF starts
    Simulation(base).hamiltonian
    out["setup_s"] = time.perf_counter() - t0
    out["fingerprint"] = _fingerprint(base)
    _close(tracer, setup_span)
    if req["mode"] == "setup":
        return

    store = ResultStore.ensure(Path(req["work_dir"]) / "store")
    root = _span(tracer, "workload")
    wall0 = time.time()
    t = time.perf_counter()
    cold = run_ensemble(base, sweep, store=store)
    cold_s = time.perf_counter() - t
    _close(tracer, root)
    ok_runs = [r for r in cold if r.ok]
    # the SCF runs on a pool thread: its result is durable when the blob lands
    scf_s = _ground_state_mtime(store) - wall0
    out["scf_s"] = scf_s
    out["wall_s"] = cold_s
    bytes_written = _dir_bytes(store.root)

    restored = []

    def resume():
        events = []
        again = run_ensemble(base, sweep, store=store, progress=events.append)
        restored.append(sum("restored from store" in e and "ground state" not in e for e in events) / len(again))

    reuse_s = _median_time(resume)

    checks, reference = _checks(req, tracer)
    for record in cold:
        checks.check("run.ok", record.ok, f"variant {record.index}: {record.error}")
    gs = store.load_ground_state(base)
    checks.ground_state(gs, reference)
    for record in ok_runs:
        checks.steps(record.result.record.stats)
        kick = record.config.field.params["kick"]
        _check_stored_run(checks, store, record.config, kick, reference, record.config.propagation.propagator)

    # a pool run's elapsed time holds its Hamiltonian build and shares the
    # cores with the other pool thread: re-propagate one variant per
    # iteration (in turn through the grid) alone, from the stored ground
    # state; its configured steps run REPROPAGATIONS times in a row,
    # continuing the trajectory, and the median time per step counts
    variant = cold.runs[(req["iteration"] - 1) % len(cold)]
    sim = Simulation(variant.config, ground_state=gs)
    sim.hamiltonian
    out["rt_step_s"] = _median_time(sim.propagate, REPROPAGATIONS) / variant.config.propagation.n_steps

    fft_runs = [r.fft for r in ok_runs if r.fft is not None]
    variant_s = sum(r.elapsed for r in ok_runs)
    out["layers"] = {
        **_solver_layers(gs, [st for r in ok_runs for st in r.result.record.stats[1:]]),
        "ensemble.variants": len(cold),
        "ensemble.scf_runs": len(store.blobs.ground_state_addresses()),
        "ensemble.variant_s": variant_s,
        "ensemble.overhead_s": cold_s - scf_s - variant_s / spec["workers"],
        "backend.fft_transforms": sum(f.transforms for f in fft_runs),
        "backend.fft_calls": sum(f.calls for f in fft_runs),
        "store.bytes_written": bytes_written,
        "store.hit_ratio": min(restored),
        "store.reuse_s": reuse_s,
    }
    out["checks"] = checks.as_dict()
    store.close()


RUNNERS = {"physics": run_physics, "sweep": run_sweep}


def main() -> int:
    req = json.load(sys.stdin)
    sys.path.insert(0, str(HERE))
    tracer = None
    if req["trace"]:
        from spans import Tracer

        tracer = Tracer(req["run_id"])
    out: dict = {"mode": req["mode"], "traced": bool(req["trace"])}
    RUNNERS[req["spec"]["kind"]](req, tracer, out)
    out.setdefault("checks", {"attempted": 0, "failed": 0, "failures": []})
    if tracer is not None:
        from spans import layer_times, unattributed_frac

        out["layer_times"] = layer_times(tracer.spans)
        out["unattributed_frac"] = unattributed_frac(tracer.spans, "workload")
        out["tallies"] = tracer.tallies
        out["n_spans"] = len(tracer.spans)
        Path(req["spans_path"]).write_text(json.dumps(tracer.spans))
    _rss(out)
    Path(req["out_path"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
