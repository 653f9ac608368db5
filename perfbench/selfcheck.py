"""Checks of the benchmark itself; run from the repository root::

    python3 perfbench/selfcheck.py all
    python3 perfbench/selfcheck.py equivalence | plant-output | plant-delay
    python3 perfbench/selfcheck.py profile
    python3 perfbench/selfcheck.py pin --seeds 0-31

``equivalence``
    The composed workloads give bit-identical virtual outputs and the
    same event counts as ``measure_stat_startup``, ``run_fleet_once`` and
    ``measure_stream`` with the same arguments.
``plant-output``
    A planted wrong output (every message 1 ns slower) fails the gate:
    every operation of every workload is reported failed.
``plant-delay``
    A host delay planted in ``repro.cluster.network.message_size`` shows
    up in ``cluster.message_size.self_s`` on ``wide_launch``, not in
    ``simx.self_s``. Clean and planted traced repetitions alternate in
    one process and the check reads the median of the pairs' differences,
    so a change in host speed between spells does not pass for a shift.
``profile``
    Traced runs of every workload at the default and the held-out seed:
    both clean, counts repeat exactly (also across processes), the top
    non-kernel layer per workload is one ``predictions.json`` records for
    it (on both seeds), and layers a workload bypasses read 0.
``pin``
    Records the virtual digests of the given seeds in ``pins.json``
    (pins of other seeds are kept).

Exits non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter

import run

sys.path.insert(0, run.SRC)

import workloads as W  # noqa: E402
from tracing import NON_KERNEL_LAYERS  # noqa: E402

PREDICTIONS = os.path.join(run.HERE, "predictions.json")
DEFAULT_SEED = 1
#: never used while the benchmark was written or tuned
HELDOUT_SEED = 9173
#: per-call host delay planted in message_size
PLANT_DELAY_S = 5e-6
#: (clean, planted) pairs of traced repetitions the delay check makes
PLANT_PAIRS = 3


class Checks:
    def __init__(self):
        self.failures = []

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            self.failures.append(what)


@contextmanager
def patched_everywhere(original, replacement):
    """Replace a function in every loaded ``repro`` module that holds it."""
    patched = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                patched.append((module, key))
                setattr(module, key, replacement)
    try:
        yield
    finally:
        for module, key in patched:
            setattr(module, key, original)


def check_equivalence(checks: Checks) -> None:
    from repro.experiments.fig6 import measure_stat_startup
    from repro.experiments.fleet import run_fleet_once
    from repro.experiments.streaming import measure_stream

    seed = DEFAULT_SEED
    ref = measure_stat_startup(W.WIDE_DAEMONS, "launchmon",
                               W.WIDE_TASKS_PER_DAEMON, seed=seed)
    ours = W.wide_simulate(*W.wide_setup(seed))
    checks.expect(run.digest(W.wide_virtual(ref))
                  == run.digest(W.wide_virtual(ours))
                  and ref["sim_events"] == ours["sim_events"],
                  f"wide_launch == measure_stat_startup "
                  f"({ours['sim_events']} events)")

    ref_env, ref_handles, ref_info = run_fleet_once(
        W.FLEET_CLUSTERS, W.FLEET_RATE, n_arrivals=W.FLEET_ARRIVALS,
        nodes_per_cluster=W.FLEET_NODES_PER_CLUSTER,
        nodes_per_session=W.FLEET_NODES_PER_SESSION,
        tasks_per_node=W.FLEET_TASKS_PER_NODE, policy=W.FLEET_POLICY,
        shard_size=W.FLEET_SHARD, fault=True, seed=seed)
    env, handles, info = W.fleet_simulate(*W.fleet_setup(seed))
    checks.expect(run.digest(W.fleet_virtual(ref_env, ref_handles, ref_info))
                  == run.digest(W.fleet_virtual(env, handles, info))
                  and ref_env.sim.stats.events == env.sim.stats.events,
                  f"fleet_stream == run_fleet_once "
                  f"({env.sim.stats.events} events)")

    ref = measure_stream(W.STREAM_LEAVES, filter_name=W.STREAM_FILTER,
                         window=W.STREAM_WINDOW,
                         credit_limit=W.STREAM_CREDIT,
                         n_waves=W.STREAM_WAVES, fanout=W.STREAM_FANOUT,
                         seed=seed)
    ours = W.stream_simulate(*W.stream_setup(seed))
    checks.expect(run.digest(ref) == run.digest(ours),
                  f"stream_waves == measure_stream "
                  f"({ours['sim_events']} events)")


def check_plant_output(checks: Checks) -> None:
    from repro.cluster.costs import CostModel

    pins = run.load_pins()
    original = CostModel.transfer_time

    def off_by_a_nanosecond(self, nbytes):
        return original(self, nbytes) + 1e-9

    CostModel.transfer_time = off_by_a_nanosecond
    try:
        for name, workload in W.WORKLOADS.items():
            pinned = pins.get(name, {}).get(str(DEFAULT_SEED))
            result = run.measure(workload, DEFAULT_SEED, 0, pinned,
                                 min_reps=1)
            audit = result["audit"]
            checks.expect(pinned is not None and not audit.correct
                          and audit.failed == audit.attempted > 0,
                          f"{name}: planted wrong output fails "
                          f"{audit.failed}/{audit.attempted} operations")
    finally:
        CostModel.transfer_time = original


def check_plant_delay(checks: Checks) -> None:
    from repro.cluster import network

    workload = W.WORKLOADS["wide_launch"]
    audit = run.Audit(run.load_pins().get(workload.name, {})
                      .get(str(DEFAULT_SEED)))
    original = network.message_size

    def slow_message_size(message):
        end = perf_counter() + PLANT_DELAY_S
        while perf_counter() < end:
            pass
        return original(message)

    def traced(planted: bool) -> dict:
        if not planted:
            return run.traced_repetition(workload, DEFAULT_SEED, audit)[0]
        with patched_everywhere(original, slow_message_size):
            return run.traced_repetition(workload, DEFAULT_SEED, audit)[0]

    d_size, d_kernel, planted = [], [], []
    for i in range(PLANT_PAIRS):
        # alternate which half of the pair runs first
        first, second = traced(i % 2 == 1), traced(i % 2 == 0)
        clean, slow = (second, first) if i % 2 else (first, second)
        planted.append(slow["cluster.message_size.calls"] * PLANT_DELAY_S)
        d_size.append(slow["cluster.message_size.self_s"]
                      - clean["cluster.message_size.self_s"])
        d_kernel.append(slow["simx.self_s"] - clean["simx.self_s"])
    planted_s = statistics.median(planted)
    size_s = statistics.median(d_size)
    kernel_s = statistics.median(d_kernel)
    checks.expect(audit.correct and size_s >= 0.8 * planted_s
                  and abs(kernel_s) <= 0.2 * planted_s,
                  f"planted {planted_s:.3f} s in message_size: "
                  f"cluster.message_size.self_s +{size_s:.3f} s, "
                  f"simx.self_s {kernel_s:+.3f} s (medians of "
                  f"{PLANT_PAIRS} pairs)")


def describe(layer_self_s: dict) -> str:
    """The three non-kernel layers with the most self time."""
    ranked = sorted(NON_KERNEL_LAYERS, key=lambda layer: -layer_self_s[layer])
    return ", ".join(f"{layer} {layer_self_s[layer]:.3f} s"
                     for layer in ranked[:3])


def traced_profile(seed: int) -> dict:
    """Traced run of every workload; (audit, metrics, first repetition)."""
    pins = run.load_pins()
    out = {}
    for name, workload in W.WORKLOADS.items():
        pinned = pins.get(name, {}).get(str(seed))
        result = run.measure_traced(workload, seed, 0, pinned)
        out[name] = (result["audit"], result["metrics"], result["first"])
    return out


def is_count(metric: str, unit: str) -> bool:
    """A program count that must repeat exactly. GC collection counts are
    not: CPython schedules full collections by the whole process's heap,
    which differs between this process and a fresh one."""
    return unit == "count" and not metric.startswith(("trace.", "gc."))


def check_profile(checks: Checks) -> None:
    with open(PREDICTIONS) as fh:
        predictions = json.load(fh)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    profiles = {seed: traced_profile(seed)
                for seed in (DEFAULT_SEED, HELDOUT_SEED)}
    for seed, profile in profiles.items():
        for name, (audit, metrics, layers) in profile.items():
            checks.expect(audit.correct and metrics["trace.count_drift"] == 0,
                          f"seed {seed} {name}: traced run clean, counts "
                          f"repeat ({audit.failed}/{audit.attempted} failed)")
    default = profiles[DEFAULT_SEED]
    for name, spec in predictions["top_layer"].items():
        for seed, profile in profiles.items():
            layers = profile[name][2]["layer_self_s"]
            got = max(NON_KERNEL_LAYERS, key=layers.get)
            checks.expect(got in spec["measured"],
                          f"{name} seed {seed}: top non-kernel layer {got} "
                          f"(recorded {spec['measured']}, predicted "
                          f"{spec['predicted']}; {describe(layers)})")

    metrics = {name: m for name, (_a, m, _l) in default.items()}
    only = {"ctl.checkpoint.self_s": "session_churn",
            "fleet.gossip.self_s": "fleet_stream",
            "fleet.placement.self_s": "fleet_stream",
            "fleet.frontdoor.self_s": "fleet_stream"}
    for metric, owner in only.items():
        nonzero = sorted(n for n, m in metrics.items() if m[metric] > 0)
        checks.expect(nonzero == [owner], f"{metric} nonzero on {nonzero}")
    overlay = max(metrics, key=lambda n: metrics[n]["tbon.overlay.self_s"])
    checks.expect(overlay == "stream_waves",
                  f"tbon.overlay.self_s largest on {overlay}")
    first = default["wide_launch"][2]
    entries = {name: self_s for name, self_s in first["entry_self_s"].items()
               if first["entry_layer"][name] not in ("simx", "gc")}
    biggest = max(entries, key=entries.get)
    checks.expect(biggest == "message_size",
                  f"wide_launch: largest non-kernel entry point is "
                  f"{biggest} ({entries[biggest]:.3f} s)")

    # counts repeat across processes, not only within one
    for name in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"),
             "--workload", name, "--seed", str(DEFAULT_SEED),
             "--seconds", "0", "--trace", "1"],
            capture_output=True, text=True, cwd=run.ROOT, check=True)
        other = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        drift = sorted(m for m, v in other.items() if is_count(m, units[m])
                       and v["value"] != metrics[name][m])
        checks.expect(not drift, f"{name}: counts repeat across processes"
                                 + (f" (drift: {', '.join(drift)})"
                                    if drift else ""))


def write_pins(seeds) -> None:
    pins = run.load_pins()
    for name, workload in W.WORKLOADS.items():
        for seed in seeds:
            outcome = workload.run(workload.setup(seed))
            if outcome.problems:
                raise SystemExit(f"{name} seed {seed}: {outcome.problems}")
            pins.setdefault(name, {})[str(seed)] = run.digest(outcome.virtual)
            print(f"{name} seed {seed}: {pins[name][str(seed)]}", flush=True)
    with open(run.PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("check", choices=("all", "equivalence",
                                          "plant-output", "plant-delay",
                                          "profile", "pin"))
    parser.add_argument("--seeds", default="0-31",
                        help="seed range for pin, e.g. 0-31")
    args = parser.parse_args(argv)
    if args.check == "pin":
        write_pins(parse_seeds(args.seeds))
        return 0
    checks = Checks()
    if args.check in ("all", "equivalence"):
        check_equivalence(checks)
    if args.check in ("all", "plant-output"):
        check_plant_output(checks)
    if args.check in ("all", "plant-delay"):
        check_plant_delay(checks)
    if args.check in ("all", "profile"):
        check_profile(checks)
    print(f"{len(checks.failures)} check(s) failed")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
