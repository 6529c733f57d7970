"""Ensemble sweep engine: one declarative config family, many runs.

The paper's results are *families* of trajectories — field amplitudes
(Fig. 7), propagator variants (Fig. 9), rank/node counts (Figs. 10-11) —
so the facade gets a first-class multi-run layer:

    base, sweep = load_sweep_file("sweep_absorption.toml")
    result = run_ensemble(base, sweep, workers=2)
    omega, strengths = result.dipole_spectra(kick=2e-3)
    result.save_npz("ensemble.npz")

:func:`expand_sweep` crosses the :class:`~repro.api.config.SweepConfig`
axes into concrete :class:`~repro.api.config.SimulationConfig` variants;
:func:`run_ensemble` executes them on one thread pool while converging
each distinct (system, scf, backend) ground state exactly once and
sharing it across variants (via :meth:`Simulation.derive`); and
:class:`EnsembleResult` collects per-run observables, status and errors
with ``save_npz``/``load_npz`` and spectrum aggregation built in.

``repro sweep`` exposes the same engine on the command line.
"""

from __future__ import annotations

import itertools
import json
import time
import traceback
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.api.config import (
    ConfigError,
    ResultError,
    SimulationConfig,
    SweepConfig,
    open_result_npz,
)
from repro.api.simulation import Simulation, SimulationResult
from repro.utils.io import atomic_savez
from repro.backend import FFTCounters
from repro.observables.spectrum import absorption_spectrum
from repro.parallel.ledger import CostLedger


class FFTCoverage(NamedTuple):
    """Merged ensemble FFT tally + how many runs actually reported one."""

    totals: Optional[FFTCounters]
    n_reporting: int
    n_runs: int

    @property
    def complete(self) -> bool:
        return self.n_reporting == self.n_runs

#: schema version stamped into ensemble ``.npz`` files
ENSEMBLE_VERSION = 1


# --------------------------------------------------------------------------
# sweep expansion
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepVariant:
    """One expanded grid point: its index, overrides, and full config."""

    index: int
    overrides: Dict[str, Any]
    config: SimulationConfig

    def label(self) -> str:
        """Compact ``key=value`` string identifying the point (CLI tables)."""
        if not self.overrides:
            return "(base)"
        return " ".join(f"{k.split('.')[-1]}={v!r}" for k, v in self.overrides.items())


def apply_overrides(
    config: SimulationConfig, overrides: Mapping[str, Any]
) -> SimulationConfig:
    """A new config with dotted-path ``overrides`` applied.

    Paths address any config leaf, including free-form parameter dicts:
    ``"propagation.propagator"``, ``"field.params.kick"``,
    ``"propagation.options.density_tol"`` ...  Unknown section keys are
    rejected by the strict section parsers with the dotted name.
    """
    data = config.to_dict()
    for path, value in overrides.items():
        parts = path.split(".")
        if len(parts) < 2 or not all(parts):
            raise ConfigError(
                f"sweep axis {path!r} must be a dotted config path like "
                f"'field.params.kick'"
            )
        node: Dict[str, Any] = data
        for key in parts[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(
                    f"sweep axis {path!r} descends into non-table config key {key!r}"
                )
        node[parts[-1]] = value
    return SimulationConfig.from_dict(data)


def expand_sweep(base: SimulationConfig, sweep: SweepConfig) -> List[SweepVariant]:
    """All grid points of ``sweep`` applied to ``base``, in axis order.

    ``mode = "grid"`` crosses the axes (last axis fastest, like nested
    loops in declaration order); ``mode = "zip"`` pairs them.  An empty
    axes table yields the single base config.
    """
    paths = list(sweep.axes)
    if not paths:
        return [SweepVariant(0, {}, base)]
    if sweep.mode == "zip":
        combos: Sequence[Tuple[Any, ...]] = list(zip(*(sweep.axes[p] for p in paths)))
    else:
        combos = list(itertools.product(*(sweep.axes[p] for p in paths)))
    variants = []
    for i, values in enumerate(combos):
        overrides = dict(zip(paths, values))
        variants.append(SweepVariant(i, overrides, apply_overrides(base, overrides)))
    return variants


# --------------------------------------------------------------------------
# per-run records and the ensemble result
# --------------------------------------------------------------------------


@dataclass
class RunRecord:
    """Outcome of one ensemble member: observables or a captured error."""

    index: int
    overrides: Dict[str, Any]
    config: SimulationConfig
    status: str = "pending"  #: "ok" or "error"
    error: Optional[str] = None
    elapsed: float = 0.0
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    #: this run's own *propagation* FFT tally — the shared group SCF runs
    #: before any per-run snapshot and is attributed to no run.  None only
    #: when the variant's backend is uncounted: concurrent runs each report
    #: an exact tally, because each variant computes through its own
    #: :class:`~repro.backend.CountingBackend` view (private counters,
    #: shared engine).
    fft: Optional[FFTCounters] = None
    #: communication accounting (``ParallelRunInfo.to_dict()`` form) when
    #: the variant ran under an active ``[parallel]`` section, else None
    parallel: Optional[Dict[str, Any]] = None
    #: full in-memory result (live runs only; not restored by load_npz)
    result: Optional[SimulationResult] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def label(self) -> str:
        return SweepVariant(self.index, self.overrides, self.config).label()


class EnsembleResult:
    """Everything one sweep produced: per-run records + aggregation.

    Successful runs carry their observable arrays (``times``, ``dipole``,
    ``energy``, ...); failed runs carry the formatted exception instead,
    so one diverging variant never loses the rest of the grid.
    """

    def __init__(
        self,
        base_config: SimulationConfig,
        sweep: SweepConfig,
        runs: List[RunRecord],
    ) -> None:
        self.base_config = base_config
        self.sweep = sweep
        self.runs = runs

    # -- bookkeeping --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    @property
    def ok(self) -> List[RunRecord]:
        """The successful runs, in grid order."""
        return [r for r in self.runs if r.ok]

    @property
    def failures(self) -> List[RunRecord]:
        """The failed runs (status ``"error"``), in grid order."""
        return [r for r in self.runs if not r.ok]

    def raise_on_failure(self) -> None:
        """Raise a summary ``RuntimeError`` if any run failed."""
        bad = self.failures
        if bad:
            detail = "; ".join(f"run {r.index} [{r.label()}]: {r.error}" for r in bad)
            raise RuntimeError(f"{len(bad)}/{len(self.runs)} ensemble runs failed: {detail}")

    def fft_totals(self) -> "FFTCoverage":
        """Coverage-aware merged FFT tally over the whole ensemble.

        Returns ``FFTCoverage(totals, n_reporting, n_runs)``: ``totals``
        merges the runs that reported a tally (``None`` when none did —
        uncounted backends), and ``n_reporting`` / ``n_runs`` make
        partial coverage explicit instead of letting a partial sum
        masquerade as the ensemble total.  :meth:`summary` flags
        ``n_reporting < n_runs`` in its tally line.
        """
        total: Optional[FFTCounters] = None
        n_reporting = 0
        for r in self.runs:
            if r.fft is None:
                continue
            n_reporting += 1
            if total is None:
                total = FFTCounters()
            total.merge(r.fft)
        return FFTCoverage(total, n_reporting, len(self.runs))

    def parallel_ledgers(self) -> Dict[str, "CostLedger"]:
        """Per-run communication ledgers keyed by run label.

        Only runs executed under an active ``[parallel]`` section appear;
        a ``parallel.pattern``/``parallel.ranks`` sweep therefore yields
        one measured ledger per grid point — the Fig. 5 / Table I
        trade-off from a single command.
        """
        out: Dict[str, CostLedger] = {}
        for r in self.runs:
            if r.parallel is None:
                continue
            out[f"run{r.index} {r.label()}"] = CostLedger.from_dict(
                dict(r.parallel.get("ledger", {}))
            )
        return out

    # -- aggregation --------------------------------------------------------
    def stacked(self, key: str) -> np.ndarray:
        """Observable ``key`` of every successful run stacked on axis 0.

        Requires at least one successful run and identical per-run shapes
        (i.e. a sweep that does not change trajectory length).
        """
        good = self.ok
        if not good:
            raise ValueError(f"no successful runs to stack {key!r} from")
        missing = [r.index for r in good if key not in r.arrays]
        if missing:
            raise KeyError(
                f"observable {key!r} missing from run(s) {missing}; "
                f"available: {', '.join(sorted(good[0].arrays))}"
            )
        shapes = {r.arrays[key].shape for r in good}
        if len(shapes) > 1:
            raise ValueError(
                f"cannot stack {key!r}: runs disagree on shape ({sorted(shapes)}); "
                f"use per-run access instead"
            )
        return np.stack([r.arrays[key] for r in good])

    def dipole_spectra(
        self,
        kick: Optional[float] = None,
        component: int = 0,
        damping: float = 0.003,
        pad_factor: int = 8,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dipole strength function of every successful run.

        Returns ``(omega, strengths)`` with ``strengths`` of shape
        ``(n_ok, n_freq)``, via :func:`repro.observables.spectrum.
        absorption_spectrum`.  ``kick`` defaults to each run's own
        ``field.params["kick"]`` (the delta-kick setup of the absorption
        studies); pass it explicitly for other field kinds.
        """
        good = self.ok
        if not good:
            raise ValueError("no successful runs to compute spectra from")
        omega_ref: Optional[np.ndarray] = None
        strengths = []
        for run in good:
            k = kick
            if k is None:
                k = run.config.field.params.get("kick")
                if k is None:
                    raise ValueError(
                        f"run {run.index} has field kind "
                        f"{run.config.field.kind!r} without a 'kick' param; "
                        f"pass kick= explicitly"
                    )
            if float(k) == 0.0:
                raise ValueError(
                    f"run {run.index} [{run.label()}] has kick == 0 (a field-free "
                    f"reference run); normalized spectra are undefined for it — "
                    f"exclude such runs (compute per-run spectra from stacked "
                    f"dipoles, as examples/field_amplitude_sweep.py does) or "
                    f"pass a nonzero kick= explicitly"
                )
            omega, s = absorption_spectrum(
                run.arrays["times"],
                run.arrays["dipole"][:, component],
                kick=float(k),
                damping=damping,
                pad_factor=pad_factor,
            )
            if omega_ref is None:
                omega_ref = omega
            elif omega.shape != omega_ref.shape or not np.allclose(omega, omega_ref):
                raise ValueError(
                    "runs disagree on the frequency grid (different trajectory "
                    "lengths/steps); compute spectra per run instead"
                )
            strengths.append(s)
        assert omega_ref is not None
        return omega_ref, np.stack(strengths)

    def mean_dipole_spectrum(self, **kwargs) -> Tuple[np.ndarray, np.ndarray]:
        """``(omega, mean strength)`` averaged over the successful runs."""
        omega, strengths = self.dipole_spectra(**kwargs)
        return omega, strengths.mean(axis=0)

    # -- reporting ----------------------------------------------------------
    def summary(self) -> str:
        """Per-run status table + one-line tally (the CLI output)."""
        with_comm = any(r.parallel is not None for r in self.runs)
        header = f"{'run':>4}  {'status':<6} {'t (s)':>7} {'ffts':>9}"
        if with_comm:
            header += f" {'comm (s)':>10}"
        lines = [header + "  overrides"]
        for r in self.runs:
            note = f"  !! {r.error.splitlines()[-1]}" if r.error else ""
            ffts = f"{r.fft.transforms}" if r.fft is not None else "-"
            row = f"{r.index:>4}  {r.status:<6} {r.elapsed:7.2f} {ffts:>9}"
            if with_comm:
                if r.parallel is not None:
                    seconds = sum(
                        agg.get("seconds", 0.0)
                        for agg in r.parallel.get("ledger", {}).values()
                    )
                    row += f" {seconds:>10.3e}"
                else:
                    row += f" {'-':>10}"
            lines.append(f"{row}  {r.label()}{note}")
        n_ok = len(self.ok)
        tally = f"{n_ok}/{len(self.runs)} runs ok"
        coverage = self.fft_totals()
        if coverage.totals is not None:
            tally += (
                f" | FFTs: {coverage.totals.transforms} transforms in "
                f"{coverage.totals.calls} calls"
            )
            if not coverage.complete:
                tally += (
                    f" (partial: {coverage.n_reporting}/{coverage.n_runs} runs reporting)"
                )
        lines.append(tally)
        if with_comm:
            lines.append("per-run communication (modeled s by MPI category):")
            for label, ledger in self.parallel_ledgers().items():
                seconds = ledger.seconds_by_category()
                cells = "  ".join(
                    f"{cat} {val:.3e}" for cat, val in seconds.items() if val > 0.0
                )
                lines.append(
                    f"  {label}: {cells or '(none)'}  | total {ledger.total_seconds():.3e}"
                )
        return "\n".join(lines)

    # -- persistence --------------------------------------------------------
    def save_npz(self, path) -> Path:
        """Persist the whole ensemble to one ``.npz``.

        Layout: an ``ensemble_json`` metadata blob (base config, sweep,
        per-run overrides/status/errors) plus ``run{i:04d}_{key}`` arrays
        for every successful run's observables, dtype-preserving.
        """
        path = Path(path)
        meta = {
            "version": ENSEMBLE_VERSION,
            "base_config": self.base_config.to_dict(),
            "sweep": self.sweep.to_dict(),
            "runs": [
                {
                    "index": r.index,
                    "overrides": r.overrides,
                    "config": r.config.to_dict(),
                    "status": r.status,
                    "error": r.error,
                    "elapsed": r.elapsed,
                    "fft": r.fft.to_dict() if r.fft is not None else None,
                    "parallel": r.parallel,
                }
                for r in self.runs
            ],
        }
        payload: Dict[str, Any] = {"ensemble_json": np.str_(json.dumps(meta, sort_keys=True))}
        for r in self.runs:
            for key, arr in r.arrays.items():
                payload[f"run{r.index:04d}_{key}"] = np.asarray(arr)
        return atomic_savez(path, **payload)

    @classmethod
    def load_npz(cls, path) -> "EnsembleResult":
        """Rebuild an :class:`EnsembleResult` written by :meth:`save_npz`.

        Restored runs carry configs, statuses, errors and observable
        arrays; the in-memory ``result`` objects (final states) are not
        part of the ensemble file.
        """
        path = Path(path)
        with open_result_npz(path, "ensemble") as data:
            if "ensemble_json" not in data:
                raise ResultError(
                    f"{path} is not a repro ensemble file (missing ensemble_json)"
                )
            meta = json.loads(str(data["ensemble_json"]))
            version = int(meta.get("version", 0))
            if version > ENSEMBLE_VERSION:
                raise ResultError(
                    f"ensemble file {path} has version {version}; "
                    f"this build reads <= {ENSEMBLE_VERSION}"
                )
            runs = []
            for entry in meta["runs"]:
                index = int(entry["index"])
                prefix = f"run{index:04d}_"
                arrays = {
                    name[len(prefix):]: np.array(data[name])
                    for name in data.files
                    if name.startswith(prefix)
                }
                fft_meta = entry.get("fft")
                runs.append(
                    RunRecord(
                        index=index,
                        overrides=dict(entry["overrides"]),
                        config=SimulationConfig.from_dict(entry["config"]),
                        status=str(entry["status"]),
                        error=entry.get("error"),
                        elapsed=float(entry.get("elapsed", 0.0)),
                        arrays=arrays,
                        fft=FFTCounters.from_dict(fft_meta) if fft_meta else None,
                        parallel=entry.get("parallel"),
                    )
                )
        return cls(
            base_config=SimulationConfig.from_dict(meta["base_config"]),
            sweep=SweepConfig.from_dict(meta["sweep"]),
            runs=runs,
        )


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------


def _execute_sim(sim: Simulation) -> SimulationResult:
    """Run one variant prepared by :func:`_derive_from` (the pool task body).

    The FFT tally comes off the run's own counter scope: every derived
    variant was re-pointed at a private
    :class:`~repro.backend.CountingBackend` view by
    :meth:`Simulation.isolate_counters`, so concurrent runs each report
    an exact per-run tally (they share the engine, not the counters).
    """
    return sim.run()


def _timed_run(
    sim: Simulation,
) -> Tuple[Optional[SimulationResult], Optional[Exception], float]:
    """``(result, exception, seconds)`` of one variant, timed on the worker.

    Pooled runs thus report their true compute duration, not queue wait
    plus collection order — a run that raises included.
    """
    started = time.perf_counter()
    try:
        result = _execute_sim(sim)
    except Exception as exc:  # noqa: BLE001 — per-run isolation is the point
        return None, exc, time.perf_counter() - started
    return result, None, time.perf_counter() - started


def _derive_from(proto: Simulation, config: SimulationConfig) -> Simulation:
    """The variant simulation, cache-sharing with its group prototype.

    The derived simulation is re-scoped onto its own FFT-counter view
    (:meth:`Simulation.isolate_counters`): same engine and plan cache as
    the prototype, private counters — so concurrent runs each report an
    exact per-run tally.
    """
    # materialize the prototype's grid (and with it the engine) before
    # deriving: a prototype restored from the store never computed, and
    # an unbuilt backend would leave each variant creating its own
    # engine/plan cache/G-vector setup instead of sharing one
    proto.grid
    return proto.derive(
        system=config.system,
        scf=config.scf,
        field=config.field,
        propagation=config.propagation,
        backend=config.backend,
        parallel=config.parallel,
    ).isolate_counters()


def run_ensemble(
    base: SimulationConfig,
    sweep: SweepConfig,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    store=None,
) -> EnsembleResult:
    """Expand ``sweep`` over ``base`` and execute every grid point.

    Parameters
    ----------
    base:
        The common :class:`SimulationConfig` all variants derive from.
    sweep:
        Axes + execution policy; a ``workers`` argument overrides
        ``sweep.workers`` when given.
    progress:
        Optional callable receiving one human-readable line per event
        (ground-state solves, run completions) — the CLI passes ``print``.
    store:
        A :class:`~repro.store.ResultStore` or study-directory path
        (defaults to ``sweep.store`` when set).  Finished runs append to
        the store as they complete, and the sweep becomes *resumable*: a
        variant whose config hash already maps to a completed stored run
        is restored instead of recomputed (its SCF too — ground-state
        blobs are cached per shared-SCF group), while interrupted
        (``running``) and failed (``error``) runs are re-queued.  All
        store writes happen in the calling thread.

    Everything runs on one ``ThreadPoolExecutor(max_workers=workers)``
    (BLAS and FFTs release the GIL).  Each distinct (system, scf,
    backend) group gets one prototype :class:`Simulation` — restored
    from the store's ground-state blob when one exists, else converged
    on the pool, so several groups' SCFs run side by side — and its
    variants derive from that prototype, sharing the ground state and
    grid by reference.  At ``workers=1`` the runs are bit-identical to
    standalone :meth:`Simulation.run` calls.  Per-run failures
    (including a group's SCF failing) are captured in the returned
    :class:`EnsembleResult` rather than aborting the sweep.
    """
    from repro.store.common import group_key

    n_workers = sweep.workers if workers is None else int(workers)
    if n_workers < 1:
        raise ConfigError(f"workers must be >= 1, got {n_workers}")

    variants = expand_sweep(base, sweep)
    records = [RunRecord(v.index, v.overrides, v.config) for v in variants]

    store_like = store if store is not None else sweep.store
    store_obj = None
    if store_like is not None:
        from repro.store import ResultStore

        store_obj = ResultStore.ensure(store_like)

    # resume: restore variants whose exact config already completed
    pending: List[Tuple[SweepVariant, RunRecord]] = []
    for v, record in zip(variants, records):
        done = store_obj.find_completed(v.config) if store_obj is not None else None
        if done is None:
            pending.append((v, record))
            continue
        record.status = "ok"
        record.arrays = store_obj.load_arrays(done.run_id)
        record.fft = FFTCounters.from_dict(done.fft) if done.fft else None
        record.parallel = done.parallel
        record.elapsed = done.elapsed
        if progress is not None:
            progress(
                f"run {record.index} [{record.label()}]: restored from "
                f"store ({done.run_id})"
            )

    def _finish(
        record: RunRecord,
        result: Optional[SimulationResult],
        exc: Optional[Exception],
        elapsed: float,
    ) -> None:
        record.elapsed = elapsed
        if exc is None:
            record.status = "ok"
            record.arrays = result.observables()
            record.fft = result.fft
            record.parallel = (
                result.parallel.to_dict() if result.parallel is not None else None
            )
            record.result = result
        else:
            record.status = "error"
            record.error = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
        # persist before announcing: if the progress callback (or the
        # user behind it) aborts the sweep, every completed run is
        # already durable and the next --store invocation restores it
        if store_obj is not None:
            if exc is None:
                store_obj.add_run(
                    record.config,
                    record.arrays,
                    result.final_state,
                    overrides=record.overrides,
                    fft=record.fft,
                    parallel=record.parallel,
                    elapsed=elapsed,
                )
            else:
                store_obj.mark_error(
                    record.config, record.error,
                    overrides=record.overrides, elapsed=elapsed,
                )
        if progress is not None:
            progress(
                f"run {record.index} [{record.label()}]: {record.status} "
                f"({record.elapsed:.2f} s)"
            )

    groups: Dict[str, SimulationConfig] = {}
    for v, _ in pending:
        groups.setdefault(group_key(v.config), v.config)

    pool = ThreadPoolExecutor(max_workers=n_workers)
    try:
        protos: Dict[str, Simulation] = {}
        solves: Dict[str, Future] = {}
        for i, (key, config) in enumerate(groups.items()):
            cached = store_obj.load_ground_state(config) if store_obj is not None else None
            protos[key] = Simulation(config, ground_state=cached)
            if cached is not None:
                if progress is not None:
                    progress(f"ground state {i + 1} restored from store")
                continue
            if progress is not None:
                progress(
                    f"converging ground state {i + 1} ({config.system.cell}, "
                    f"{config.system.functional}, ecut {config.system.ecut:g})"
                )
            solves[key] = pool.submit(protos[key].ground_state)
        failed: Dict[str, Exception] = {}
        for key, fut in solves.items():
            try:
                gs = fut.result()
            except Exception as exc:  # noqa: BLE001 — reported per affected run
                failed[key] = exc
                continue
            if store_obj is not None:
                store_obj.put_ground_state(groups[key], gs)

        futures: Dict[Future, RunRecord] = {}
        for v, record in pending:
            key = group_key(v.config)
            if key in failed:
                _finish(record, None, failed[key], 0.0)
                continue
            if store_obj is not None:
                store_obj.begin_run(v.config, overrides=v.overrides)
            futures[pool.submit(_timed_run, _derive_from(protos[key], v.config))] = record
        for fut in as_completed(futures):
            _finish(futures[fut], *fut.result())
    finally:
        # an aborted sweep (progress callback raising, Ctrl-C) drops the
        # queued runs instead of computing results nobody collects
        pool.shutdown(cancel_futures=True)

    return EnsembleResult(base_config=base, sweep=sweep, runs=records)
