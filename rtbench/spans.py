"""In-memory span recorder wrapped around the program's public layer calls.

Spans are recorded from the benchmark's own files: :func:`install`
replaces a public function or method of ``repro`` with a wrapper that
opens a span named after the layer (``hamiltonian.apply``,
``backend.fft``, ...) and closes it when the call returns.  A span holds
its name, start, end, the span that was open when it started (per
thread), and the id of the workload run it belongs to.  Nothing is
written until the run ends.

Only the calling process is traced, on every thread (the sweep's pool
threads included): work inside worker processes the program starts
would be invisible here.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """Collects spans; one instance per workload run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        #: counts taken at wrapped boundaries (FFT bytes, pair FFTs), by metric name
        self.tallies: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        #: wrapped calls pass straight through while False
        self.recording = True

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Dict[str, Any]:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = {
            "id": span_id,
            "parent": stack[-1] if stack else None,
            "name": name,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(span_id)
        return span

    def close(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def tally(self, key: str, amount: float) -> None:
        with self._lock:
            self.tallies[key] = self.tallies.get(key, 0.0) + amount

    # -- wrapping ------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        around: Optional[Callable[[tuple, Any], Callable[[Any], None]]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``around(args, kwargs)`` (optional) runs before the call and
        returns a callback that receives the call's result — used to
        tally counts at the same boundary as the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            after = around(args, kwargs) if around is not None else None
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, wrapper)


def _fft_bytes(tracer: Tracer):
    def around(args, kwargs):
        def after(result):
            # computed from array sizes: the input read plus the output written
            tracer.tally("backend.fft_bytes_computed", args[1].nbytes + result.nbytes)

        return after

    return around


def _pair_ffts(tracer: Tracer):
    def around(args, kwargs):
        counters = args[0].grid.backend.counters
        before = counters.transforms if counters is not None else 0

        def after(result):
            if counters is not None:
                tracer.tally("hamiltonian.fock.pair_ffts", counters.transforms - before)

        return after

    return around


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of an imported ``repro``."""
    from repro.api.simulation import Simulation
    from repro.backend.base import Backend
    from repro.hamiltonian.ace import ACEOperator
    from repro.hamiltonian.fock import FockExchangeOperator
    from repro.hamiltonian.hamiltonian import Hamiltonian
    from repro.pseudo.nonlocal_ import NonlocalPseudopotential
    from repro.rt.propagator import PropagatorBase
    from repro.rt.ptcn import PTCNPropagator
    from repro.rt.ptim import PTIMPropagator
    from repro.rt.ptim_ace import PTIMACEPropagator
    from repro.store import ResultStore

    tracer.wrap(NonlocalPseudopotential, "__post_init__", "pseudo.nonlocal_build")
    tracer.wrap(NonlocalPseudopotential, "apply_g", "pseudo.nonlocal_apply")
    tracer.wrap(Backend, "forward", "backend.fft", _fft_bytes(tracer))
    tracer.wrap(Backend, "backward", "backend.fft", _fft_bytes(tracer))
    tracer.wrap(Hamiltonian, "apply", "hamiltonian.apply")
    tracer.wrap(Hamiltonian, "update_density", "hamiltonian.update_density")
    tracer.wrap(Hamiltonian, "build_ace", "hamiltonian.ace.build")
    tracer.wrap(ACEOperator, "apply", "hamiltonian.ace.apply")
    tracer.wrap(FockExchangeOperator, "apply_diag", "hamiltonian.fock.apply_diag", _pair_ffts(tracer))
    tracer.wrap(Simulation, "ground_state", "scf.run")
    tracer.wrap(Simulation, "propagate", "rt.propagate")
    tracer.wrap(PropagatorBase, "observe", "rt.observe")
    for cls in (PTIMPropagator, PTIMACEPropagator, PTCNPropagator):
        tracer.wrap(cls, "step", "rt.step")
    tracer.wrap(ResultStore, "add_run", "store.add_result")
    tracer.wrap(ResultStore, "find_completed", "store.find_completed")
    tracer.wrap(ResultStore, "load_result", "store.load_result")
    tracer.wrap(ResultStore, "load_arrays", "store.load_result")
    tracer.wrap(ResultStore, "put_ground_state", "store.put_ground_state")
    # module functions bound by name into their callers: wrap each binding
    for module_name, attr, name in (
        ("repro.scf.groundstate", "davidson", "scf.davidson"),
        ("repro.rt.ptim", "density_from_orbitals_diag", "occupation.density"),
        ("repro.rt.ptim", "density_from_orbitals_pairwise", "occupation.density"),
        ("repro.rt.propagator", "density_from_orbitals_diag", "occupation.density"),
        ("repro.rt.ptcn", "density_from_orbitals_diag", "occupation.density"),
    ):
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            tracer.wrap(module, attr, name)


def layer_times(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per layer name: call count, inclusive seconds and self seconds.

    A span's self time is its duration minus the time its child spans
    cover; nested spans of the same layer are counted once inclusively
    (the outermost) so recursion does not double a layer's time.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: Dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (s["end"] - s["start"])
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        entry = out.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        duration = s["end"] - s["start"]
        entry["calls"] += 1
        entry["self_s"] += duration - child_time.get(s["id"], 0.0)
        parent, nested = s["parent"], False
        while parent is not None:
            ancestor = by_id.get(parent)
            if ancestor is None:
                break
            if ancestor["name"] == s["name"]:
                nested = True
                break
            parent = ancestor["parent"]
        if not nested:
            entry["s"] += duration
    return out


def unattributed_frac(spans: List[Dict[str, Any]], root: str) -> float:
    """Share of the ``root`` span's wall time in which no other span was open.

    Spans of every thread count, so layers running side by side on pool
    threads cover the wall time once, not twice.
    """
    top = next(s for s in spans if s["name"] == root)
    lo, hi = top["start"], top["end"]
    covered, reach = 0.0, lo
    for start, end in sorted((s["start"], s["end"]) for s in spans if s is not top):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return 1.0 - covered / (hi - lo)
