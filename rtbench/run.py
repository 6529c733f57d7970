#!/usr/bin/env python3
"""Whole-run rt-TDDFT benchmark: one workload, end to end or traced.

Run from the repository root::

    python3 rtbench/run.py --workload hse_ptim_ace --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric instead, from iterations run
with the layer wrappers of ``spans.py`` installed, beside untraced
iterations that give the tracing overhead.  Iterations (each in a fresh
interpreter, see ``child.py``) repeat until ``--seconds`` have passed;
times are medians over them.  Outputs are checked (``checks.py``) and
every failed check, unconverged solve or failed run counts in
``failed``.  The last line of standard output is the JSON result; a
record with the environment fingerprint, the raw samples and the spans
goes to ``--out`` (default ``rtbench/.results``).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_spec  # noqa: E402

#: setup_s is the median over this many fresh processes (fewer when the
#: fill deadline passes first)
SETUP_SAMPLES = 12
CHILD_TIMEOUT_S = 150.0
#: no set-up-only process starts after FILL_FACTOR x --seconds (at most
#: FILL_DEADLINE_S) of a run, so a slow machine still finishes a run in
#: about the same time
FILL_FACTOR = 1.2
FILL_DEADLINE_S = 90.0


class BenchError(RuntimeError):
    """The program or the checkout cannot be benchmarked."""


def _kill_group(pgid: int) -> None:
    """Stop every process left in a child's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


class Runner:
    """Starts workload iterations as child interpreters and collects them."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.spec = make_spec(workload, seed)
        self.count = 0
        pythonpath = [str(root / "src")]
        if os.environ.get("PYTHONPATH"):
            pythonpath.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))

    def child(self, mode: str, trace: bool) -> Dict[str, Any]:
        self.count += 1
        run_dir = self.work / f"iteration-{self.count:03d}"
        run_dir.mkdir(parents=True)
        request = {
            "workload": self.workload,
            "run_id": f"{self.workload}-seed{self.seed}-{self.count}",
            "iteration": self.count,
            "mode": mode,
            "trace": trace,
            "spec": self.spec,
            "work_dir": str(run_dir),
            "out_path": str(run_dir / "out.json"),
            "spans_path": str(run_dir / "spans.json"),
        }
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=self.env,
            cwd=self.root,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(json.dumps(request).encode(), timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.communicate()
            raise BenchError(f"{mode} iteration exceeded {CHILD_TIMEOUT_S:g} s")
        finally:
            _kill_group(proc.pid)
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-20:]
            raise BenchError(f"{mode} iteration exited {proc.returncode}:\n" + "\n".join(tail))
        out = json.loads((run_dir / "out.json").read_text())
        out["run_dir"] = str(run_dir)
        return out


def _median(samples: List[Dict[str, Any]], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(runs: List[Dict[str, Any]], setups: List[Dict[str, Any]], peak_kb: int) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(s["setup_s"] for s in runs + setups),
        "scf_s": _median(runs, "scf_s"),
        "rt_step_s": _median(runs, "rt_step_s"),
        "wall_s": _median(runs, "wall_s"),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def _layer_value(name: str, known: Dict[str, float], times: Dict[str, Dict[str, float]]) -> float:
    """One per-layer metric of a traced iteration (0 where the layer did no work).

    ``known`` holds counts the program reported and tallies taken at the
    wrapped boundaries; other names are ``<layer>_calls``, ``<layer>_s``
    (inclusive) or ``<layer>_self_s`` of a span name.
    """
    if name in known:
        return float(known[name])
    for suffix, field in (("_self_s", "self_s"), ("_calls", "calls"), ("_s", "s")):
        if name.endswith(suffix):
            layer = name[: -len(suffix)]
            return float(times[layer][field]) if layer in times else 0.0
    return 0.0


def per_layer(names: List[str], untraced: List[Dict[str, Any]], traced: List[Dict[str, Any]]) -> Dict[str, float]:
    # each traced iteration against the untraced ones just before and after it
    overhead = statistics.median(
        t["wall_s"] - 0.5 * (before["wall_s"] + after["wall_s"])
        for t, before, after in zip(traced, untraced, untraced[1:])
    )
    values: Dict[str, List[float]] = {name: [] for name in names}
    for t in traced:
        known = dict(
            t.get("layers", {}),
            **t["tallies"],
            **{
                "trace.spans": t["n_spans"],
                "trace.unattributed_frac": t["unattributed_frac"],
                "trace.wall_s": t["wall_s"],
                "trace.overhead_s": overhead,
            },
        )
        for name in names:
            values[name].append(_layer_value(name, known, t["layer_times"]))
    return {name: statistics.median(v) for name, v in values.items()}


def fingerprint_id(fingerprint: Dict[str, Any]) -> str:
    return hashlib.sha256(json.dumps(fingerprint, sort_keys=True).encode()).hexdigest()[:12]


def run(args: argparse.Namespace, root: Path) -> Dict[str, Any]:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {root / 'src' / 'repro'}; run from the repository root")
    # the build: byte-compile the program so no timed import compiles it
    if not compileall.compile_dir(str(root / "src"), quiet=1):
        raise BenchError("byte-compiling src failed")

    out_dir = Path(args.out) if args.out else HERE / ".results"
    work = HERE / ".work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    runner = Runner(root, args.workload, args.seed, work)
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    setups: List[Dict[str, Any]] = []
    started = time.perf_counter()
    try:
        while True:
            untraced.append(runner.child("run", trace=False))
            if args.trace:
                traced.append(runner.child("run", trace=True))
            elif len(untraced) + len(setups) < SETUP_SAMPLES:
                # set-up samples spread over the run, not bunched at its end
                setups.append(runner.child("setup", trace=False))
            if time.perf_counter() - started >= args.seconds:
                break
        if args.trace:
            # bracket the traced iterations so warm-up favours neither side
            untraced.append(runner.child("run", trace=False))
        while (
            not args.trace
            and len(untraced) + len(setups) < SETUP_SAMPLES
            and time.perf_counter() - started < min(FILL_DEADLINE_S, FILL_FACTOR * args.seconds)
        ):
            setups.append(runner.child("setup", trace=False))
        out_dir.mkdir(parents=True, exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
        span_files = []
        for i, t in enumerate(traced):
            dest = out_dir / f"{tag}-spans-{i}.json"
            shutil.copyfile(Path(t["run_dir"]) / "spans.json", dest)
            span_files.append(str(dest))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    everything = untraced + traced + setups
    attempted = sum(r["checks"]["attempted"] for r in everything)
    failed = sum(r["checks"]["failed"] for r in everything)
    failures = [f for r in everything for f in r["checks"]["failures"]]
    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = per_layer(names, untraced, traced)
    else:
        names = [m["name"] for m in bench["end_to_end"]]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        peak_kb = max(r["rss_self_kb"] + r["rss_children_kb"] for r in everything)
        values = end_to_end(untraced, setups, peak_kb)
    fingerprint = untraced[0]["fingerprint"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(args.trace),
        "spec": runner.spec,
        "fingerprint": fingerprint,
        "fingerprint_id": fingerprint_id(fingerprint),
        "iterations": {"untraced": len(untraced), "traced": len(traced), "setup_only": len(setups)},
        "samples": [{k: v for k, v in r.items() if k != "run_dir"} for r in everything],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
        "failures": failures,
        "span_files": span_files,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return {
        "record": record,
        "result": {
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": record["metrics"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for the result record and spans")
    args = parser.parse_args(argv)
    try:
        done = run(args, Path.cwd())
    except (BenchError, OSError, ValueError) as exc:
        print(f"rtbench: {exc}", file=sys.stderr)
        return 2
    record, result = done["record"], done["result"]
    counts = record["iterations"]
    print(
        f"rtbench {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"iterations={counts['untraced']}+{counts['traced']} traced, setup-only={counts['setup_only']}"
    )
    print(f"fingerprint {record['fingerprint_id']} {json.dumps(record['fingerprint'], sort_keys=True)}")
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
