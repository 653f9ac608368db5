"""The simulator's benchmark: host wall time, set-up time and peak memory
on four workloads, plus a traced run that attributes host time to layers.

Run from the repository root::

    python3 perfbench/run.py --workload wide_launch --seed 1 --seconds 30 --trace 0

One process, one thread, one workload. The run repeats the workload
(set-up, then simulation plus audit) until ``--seconds`` have passed and
reports figures over all the repetitions. Every repetition is audited: the
workload's invariants, plus a digest of its virtual-time outputs, which
must match the digest pinned for the seed in ``pins.json`` (or, for an
unpinned seed, repeat exactly). Virtual time is frozen, so it is checked,
never reported as performance.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; no wrapper
is installed:

* ``wall_s``: host seconds from the first simulated event to the
  audited result, and ``setup_s``: host seconds to build the simulated
  machine and its inputs, per repetition. Both are rescaled by the
  calibration loop in ``calibrate.py``, which runs after every
  repetition, so they read as seconds on a host where that loop takes
  ``NOMINAL_S``; the raw figure is ``trace.base_wall_s`` of a traced run.
* ``peak_rss_mb``: the process's peak resident memory after the first
  repetition (the calibration loop runs in a child process and does not
  count).

``--trace 1`` alternates an untraced repetition with a traced one (see
``tracing.py``), prints the per-layer metrics, checks that every call
count repeats exactly, and writes a Chrome trace-event file and a flat
per-layer file to ``perfbench/out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PINS = os.path.join(HERE, "pins.json")

#: repetitions a timed run makes even when ``--seconds`` is short
MIN_REPS = 3
#: (untraced, traced) pairs a traced run makes: counts must repeat
MIN_TRACED_PAIRS = 2


def digest(virtual: dict) -> str:
    """Hash of the canonical JSON of a run's virtual-time outputs."""
    blob = json.dumps(virtual, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_pins() -> Dict[str, Dict[str, str]]:
    with open(PINS) as fh:
        return json.load(fh)


@dataclass
class Audit:
    """Operations attempted and failed over every repetition of a run."""

    pinned: Optional[str]
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    seen: Optional[str] = None

    def add(self, outcome, run_digest: str) -> None:
        self.attempted += outcome.attempted
        failed = outcome.failed
        self.problems.extend(outcome.problems)
        expected = self.pinned or self.seen
        if expected is not None and run_digest != expected:
            # a wrong virtual output fails every operation of the repetition
            failed = outcome.attempted
            self.problems.append(
                f"virtual digest {run_digest[:16]} != "
                f"{'pinned' if self.pinned else 'first run'} "
                f"{expected[:16]}")
        self.seen = self.seen or run_digest
        self.failed += failed

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def repetition(workload, seed: int, audit: Audit):
    """Set up and run once; returns (setup_s, wall_s, outcome)."""
    gc.collect()
    t0 = perf_counter()
    state = workload.setup(seed)
    t1 = perf_counter()
    outcome = workload.run(state)
    audit.add(outcome, digest(outcome.virtual))
    t2 = perf_counter()
    return t1 - t0, t2 - t1, outcome


def measure(workload, seed: int, seconds: float, pinned: Optional[str],
            min_reps: int = MIN_REPS) -> dict:
    """The untraced run: end-to-end metrics over all its repetitions.

    The calibration loop (``calibrate.py``, in a child process) runs after
    every repetition, so the repetitions and the loops sample the same
    spells of host speed over the run. Times are reported as the
    repetitions' total over the loops' total, in units of ``NOMINAL_S``:
    on a host whose speed swings within a run, this ratio of sums varied
    less from run to run than medians of each repetition rescaled by the
    loops beside it.
    """
    from calibrate import NOMINAL_S, reference_seconds

    audit = Audit(pinned)
    reps = 0
    setup_total = wall_total = reference_total = 0.0
    peak_kb = None
    deadline = perf_counter() + seconds
    while reps < min_reps or perf_counter() < deadline:
        setup_s, wall_s, outcome = repetition(workload, seed, audit)
        del outcome
        if peak_kb is None:
            # the workload's own peak, from its first repetition
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reps += 1
        setup_total += setup_s
        wall_total += wall_s
        reference_total += reference_seconds()
    scale = NOMINAL_S / reference_total
    return {"audit": audit, "reps": reps, "metrics": {
        "wall_s": wall_total * scale,
        "setup_s": setup_total * scale,
        "peak_rss_mb": peak_kb / 1024.0,
    }}


def traced_repetition(workload, seed: int, audit: Audit):
    """Set up and run once under a :class:`tracing.Tracer`; returns
    (per-layer metrics, tracer, outcome). The tracer is uninstalled again
    and no wrapper may be left behind."""
    from tracing import Tracer, layer_metrics, leftover_wrappers

    gc.collect()
    tracer = Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        state = workload.setup(seed)
        t1 = perf_counter()
        outcome = workload.run(state)
        audit.add(outcome, digest(outcome.virtual))
        t2 = perf_counter()
    finally:
        tracer.uninstall()
    leftover = leftover_wrappers()
    if leftover:
        audit.problems.append(f"wrappers left installed: {leftover}")
    del state
    metrics = layer_metrics(tracer, outcome, t2 - t0)
    metrics["trace.wall_s"] = t2 - t1
    return metrics, tracer, outcome


def measure_traced(workload, seed: int, seconds: float,
                   pinned: Optional[str]) -> dict:
    """The traced run: per-layer metrics, medians over traced repetitions.
    Writes the first traced repetition's spans (Chrome trace-event JSON)
    and the per-layer metrics (flat JSON) to ``OUT``.
    """
    from tracing import layer_totals

    audit = Audit(pinned)
    bases, samples, counts = [], [], []
    first = None
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload.name}-seed{seed}")
    deadline = perf_counter() + seconds
    while len(samples) < MIN_TRACED_PAIRS or perf_counter() < deadline:
        _setup_s, base_s, outcome = repetition(workload, seed, audit)
        base_events = outcome.sim.stats.events
        del outcome
        bases.append(base_s)
        metrics, tracer, outcome = traced_repetition(workload, seed, audit)
        samples.append(metrics)
        counts.append((base_events, outcome.sim.stats.events,
                       dict(tracer.calls)))
        if first is None:
            # spans are written out once, from the first traced repetition
            first = {"metrics": metrics, "layer_self_s": layer_totals(tracer),
                     "entry_self_s": dict(tracer.self_by_name),
                     "entry_layer": dict(tracer.layer_of),
                     "calls": dict(sorted(tracer.calls.items()))}
            with open(stem + ".trace.json", "w") as fh:
                json.dump(tracer.chrome_trace(
                    {"workload": workload.name, "seed": seed}), fh)
        del outcome, tracer

    # counts must repeat exactly across repetitions (and tracing must not
    # change the event count)
    drift = sum(1 for base, traced, _ in counts if base != traced)
    keys = set().union(*(c for _, _, c in counts))
    drift += sum(1 for k in keys if len({c.get(k) for _, _, c in counts}) > 1)
    drift += sum(1 for _, traced, _ in counts if traced != counts[0][1])
    if drift:
        audit.problems.append(
            f"{drift} per-layer counts differ between repetitions "
            f"of one seed (nondeterminism)")
    merged = {name: statistics.median(s[name] for s in samples)
              for name in samples[0]}
    base = statistics.median(bases)
    merged["trace.base_wall_s"] = base
    merged["trace.overhead_s"] = merged["trace.wall_s"] - base
    merged["trace.count_drift"] = drift
    with open(stem + ".layers.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": seed,
                   "metrics": merged, "first_repetition": first},
                  fh, indent=1, sort_keys=True)
    return {"audit": audit, "reps": len(samples), "metrics": merged,
            "first": first,
            "artifacts": [stem + ".trace.json", stem + ".layers.json"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: library sources not found under {SRC}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(have {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    pinned = load_pins().get(workload.name, {}).get(str(args.seed))
    if args.trace:
        result = measure_traced(workload, args.seed, args.seconds, pinned)
        listed = spec["per_layer"]
        for path in result["artifacts"]:
            print(f"wrote {os.path.relpath(path, ROOT)}")
    else:
        result = measure(workload, args.seed, args.seconds, pinned)
        listed = spec["end_to_end"]
    metrics = result["metrics"]
    mismatch = {m["name"] for m in listed} ^ set(metrics)
    if mismatch:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(mismatch)}",
              file=sys.stderr)
        return 2
    audit = result["audit"]
    for problem in dict.fromkeys(audit.problems):
        print(f"FAILED: {problem}")
    print(f"{workload.name} seed={args.seed} reps={result['reps']} "
          f"digest={audit.seen} "
          f"({'pinned' if pinned else 'unpinned seed'})")
    print(json.dumps({
        "correct": audit.correct,
        "attempted": audit.attempted,
        "failed": audit.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
