"""The benchmark's four workloads, composed from the library's public API.

Each workload is split where the experiments' entry points are not:
``setup(seed)`` builds the simulated machine and its inputs (timed as
``setup_s``), and ``run(state)`` simulates, then audits, and returns an
:class:`Outcome` (timed as ``wall_s``). The composition is the same code
path as ``measure_stat_startup``, ``run_fleet_once`` and
``measure_stream``; ``selfcheck.py`` proves it by comparing virtual
outputs and event counts with those entry points.

The seed reaches the program only through the generated inputs (cluster
and fleet seeds, which drive network jitter and arrival gaps); it never
changes a workload's size, so host time is comparable across seeds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro import drive, make_env, make_compute_app, make_hang_app
from repro.be import BackEnd
from repro.ctl import ControlPlane, CtlClient
from repro.fleet import audit_fleet, make_fleet_env
from repro.perfmodel import StreamModel
from repro.rm import DaemonSpec
from repro.simx import SeededRNG
from repro.tbon import Overlay, StartupFailure, StreamSpec, TBONTopology
from repro.tools.stat_tool import run_stat_launchmon

__all__ = ["Outcome", "Workload", "WORKLOADS"]


@dataclass
class Outcome:
    """One audited workload run.

    ``virtual`` holds every virtual-time output (hashed into the run's
    digest); ``problems`` lists failed invariants. ``sim`` and ``parts``
    are what the per-layer collectors read after a traced run.
    """

    virtual: dict
    attempted: int
    failed: int
    problems: List[str]
    sim: Any
    parts: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """A named workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    setup: Callable[[int], Any]
    run: Callable[[Any], Outcome]


# ---------------------------------------------------------------------------
# wide_launch: one STAT launch+connect over a 1-deep TBON (fig6's path)
# ---------------------------------------------------------------------------

WIDE_DAEMONS = 2048
WIDE_TASKS_PER_DAEMON = 1
#: make_hang_app's scenario yields exactly three STAT equivalence classes
WIDE_CLASSES = 3


def wide_setup(seed: int):
    env = make_env(n_compute=WIDE_DAEMONS, seed=seed)
    app = make_hang_app(n_tasks=WIDE_DAEMONS * WIDE_TASKS_PER_DAEMON,
                        tasks_per_node=WIDE_TASKS_PER_DAEMON,
                        stuck_ranks=(1,), deadlocked_pair=True)
    return env, app


def wide_simulate(env, app) -> dict:
    """``measure_stat_startup``'s launchmon scenario on a prepared env."""
    box: dict = {}

    def scenario(env):
        job = yield from env.rm.launch_job(app, env.rm.allocate(WIDE_DAEMONS))
        try:
            res = yield from run_stat_launchmon(env.cluster, env.rm, job)
            box["startup"] = res.startup
            box["classes"] = len(res.classes)
            box["n_tasks"] = res.n_tasks
        except StartupFailure as exc:
            box["failure"] = str(exc)
            box["spawned"] = exc.spawned

    drive(env, scenario(env))
    box["sim_events"] = env.sim.stats.events
    return box


def wide_virtual(box: dict) -> dict:
    """Virtual outputs of one ``measure_stat_startup``-shaped result."""
    out = {k: v for k, v in box.items() if k not in ("startup", "sim_events")}
    if "startup" in box:
        out["startup"] = dataclasses.asdict(box["startup"])
    return out


def wide_run(state) -> Outcome:
    env, app = state
    box = wide_simulate(env, app)
    problems = []
    if "failure" in box:
        problems.append(f"startup failed: {box['failure']}")
    else:
        if box["classes"] != WIDE_CLASSES:
            problems.append(f"{box['classes']} STAT classes, "
                            f"expected {WIDE_CLASSES}")
        want = WIDE_DAEMONS * WIDE_TASKS_PER_DAEMON
        if box["n_tasks"] != want:
            problems.append(f"{box['n_tasks']} tasks, expected {want}")
    # a wrong class or task count cannot be pinned on single daemons
    failed = WIDE_DAEMONS if problems else 0
    return Outcome(wide_virtual(box), WIDE_DAEMONS, failed, problems,
                   env.sim, {"rms": [env.rm]})


# ---------------------------------------------------------------------------
# session_churn: many small sessions through the persistent control plane
# ---------------------------------------------------------------------------

CHURN_NODES = 64
CHURN_SESSIONS = 256
CHURN_NODES_PER_SESSION = 8
#: open loop: one submission per period of virtual time
CHURN_PERIOD = 0.05


def churn_setup(seed: int):
    env = make_env(n_compute=CHURN_NODES, seed=seed)
    client = CtlClient(ControlPlane(env.cluster, env.rm))
    client.start()
    return env, client


def churn_run(state) -> Outcome:
    env, client = state
    sim = env.sim
    lives: Dict[int, dict] = {}

    def life(i):
        ctl_id = client.launch("generic-be", CHURN_NODES_PER_SESSION)
        t_submit = sim.now
        waited = yield from client.wait(ctl_id)
        t_ready = sim.now
        ended = yield from client.end(ctl_id)
        lives[i] = {"ctl_id": ctl_id, "t_submit": t_submit,
                    "waited": waited, "t_ready": t_ready, "ended": ended,
                    "t_end": sim.now, "final": client.info(ctl_id)["state"]}

    def driver():
        procs = []
        for i in range(CHURN_SESSIONS):
            procs.append(sim.process(life(i), name=f"session-{i}"))
            yield sim.timeout(CHURN_PERIOD)
        yield sim.all_of(procs)

    drive(env, driver())
    rm = env.rm
    sessions = [lives.get(i) for i in range(CHURN_SESSIONS)]
    bad = sum(1 for s in sessions
              if s is None or s["waited"] != "ready" or s["ended"] is not True
              or s["final"] != "detached")
    problems = []
    leaked = len(rm.live_allocations)
    if leaked or rm.n_free != CHURN_NODES:
        problems.append(f"{leaked} allocations leaked, "
                        f"{CHURN_NODES - rm.n_free} nodes not free")
    if rm.queued_requests:
        problems.append(f"{rm.queued_requests} requests left in the RM queue")
    # a leak or a stuck queue cannot be pinned on single sessions
    failed = CHURN_SESSIONS if problems else bad
    if bad:
        problems.append(f"{bad} sessions did not go ready -> detached")
    virtual = {"sessions": sessions, "t_end": sim.now,
               "alloc_waits": list(rm.alloc_waits)}
    return Outcome(virtual, CHURN_SESSIONS, failed, problems, sim,
                   {"rms": [rm], "store": client.control.store})


# ---------------------------------------------------------------------------
# fleet_stream: open-loop arrivals through the fleet front door, one crash
# ---------------------------------------------------------------------------

FLEET_CLUSTERS = 32
FLEET_RATE = 64.0
FLEET_ARRIVALS = 512
FLEET_NODES_PER_CLUSTER = 8
FLEET_NODES_PER_SESSION = 2
FLEET_TASKS_PER_NODE = 4
FLEET_POLICY = "least-loaded"
FLEET_SHARD = 4
#: ``run_fleet_once``'s session shape: image size and hold time
FLEET_IMAGE_MB = 1.0
FLEET_HOLD = 0.25


def _fleet_daemon(ctx):
    be = BackEnd(ctx)
    yield from be.init()
    yield from be.ready()
    yield from be.finalize()


def _hold_and_detach(fe, session):
    yield fe.cluster.sim.timeout(FLEET_HOLD)
    yield from fe.detach(session, reclaim_job=True)
    return session.id


def fleet_setup(seed: int):
    env = make_fleet_env(n_clusters=FLEET_CLUSTERS,
                         nodes_per_cluster=FLEET_NODES_PER_CLUSTER,
                         policy=FLEET_POLICY, shard_size=FLEET_SHARD,
                         seed=seed)
    app = make_compute_app(
        n_tasks=FLEET_NODES_PER_SESSION * FLEET_TASKS_PER_NODE,
        tasks_per_node=FLEET_TASKS_PER_NODE)
    spec = DaemonSpec("fleet_tool_be", main=_fleet_daemon,
                      image_mb=FLEET_IMAGE_MB)
    rng = SeededRNG(seed, f"fleetexp:{FLEET_CLUSTERS}x{FLEET_RATE}")
    return env, app, spec, rng


def fleet_simulate(env, app, spec, rng):
    """``run_fleet_once``'s arrival stream on a prepared fleet."""
    fleet = env.fleet
    fault_arrival = FLEET_ARRIVALS // 3
    info = {"fault_target": None, "killed": 0}
    handles = []

    def driver():
        for i in range(FLEET_ARRIVALS):
            handle = fleet.submit_launch(
                app, spec, tool_name=f"user{i:03d}", body=_hold_and_detach)
            handles.append(handle)
            if i == fault_arrival:
                yield env.sim.timeout(0.01)
                target = (handle.attempts[0] if handle.attempts
                          else fleet.member_names[0])
                info["fault_target"] = target
                info["killed"] = fleet.crash(target)
            yield env.sim.timeout(rng.expovariate(FLEET_RATE))
        yield from fleet.drain()

    drive(env, driver())
    info["audit"] = audit_fleet(fleet)
    return env, handles, info


def fleet_virtual(env, handles, info) -> dict:
    """Virtual outputs of one ``run_fleet_once``-shaped result."""
    return {
        "handles": [{"cluster": h.cluster, "attempts": list(h.attempts),
                     "failovers": h.failovers, "finished_at": h.finished_at,
                     "launch_latency": h.launch_latency,
                     "error": (type(h.exception).__name__
                               if h.exception is not None else None)}
                    for h in handles],
        "summary": env.fleet.door.summary(),
        "info": info,
        "t_end": env.sim.now,
    }


def fleet_run(state) -> Outcome:
    env, handles, info = fleet_simulate(*state)
    virtual = fleet_virtual(env, handles, info)
    audit = info["audit"]
    problems = []
    if not audit["ok"]:
        problems.append(f"fleet audit failed: {audit}")
    leaked = sum(audit["leaked_allocations"].values())
    if leaked:
        problems.append(f"{leaked} node allocations leaked")
    if len(handles) != FLEET_ARRIVALS:
        problems.append(f"{len(handles)} arrivals submitted, "
                        f"expected {FLEET_ARRIVALS}")
    # a failed audit cannot be pinned on single arrivals
    failed = FLEET_ARRIVALS if problems else sum(
        1 for h in handles if not h.done or h.exception is not None)
    if failed and not problems:
        problems.append(f"{failed} arrivals did not complete")
    return Outcome(virtual, FLEET_ARRIVALS, failed, problems, env.sim,
                   {"rms": [m.rm for m in env.fleet.members],
                    "door": env.fleet.door})


# ---------------------------------------------------------------------------
# stream_waves: sustained credit-flow-controlled fan-in over a TBON
# ---------------------------------------------------------------------------

STREAM_LEAVES = 1024
STREAM_FANOUT = 16
STREAM_FILTER = "histogram"
STREAM_WINDOW = 8
STREAM_CREDIT = 4
STREAM_WAVES = 20
#: ``measure_stream``'s stream id and hang deadline
STREAM_ID = 9
STREAM_DEADLINE = 3600.0


def stream_setup(seed: int):
    topo = TBONTopology.balanced(STREAM_LEAVES, STREAM_FANOUT)
    comms = topo.comm_positions()
    backends = topo.backends()
    env = make_env(n_compute=len(backends) + len(comms), seed=seed)
    placement = {0: env.cluster.front_end}
    for i, pos in enumerate(comms):
        placement[pos] = env.cluster.compute[i]
    for i, pos in enumerate(backends):
        placement[pos] = env.cluster.compute[len(comms) + i]
    overlay = Overlay(env.sim, env.cluster.network, topo, placement,
                      streams={})
    overlay.start_routers()
    stream = overlay.open_stream(StreamSpec(
        STREAM_ID, STREAM_FILTER, credit_limit=STREAM_CREDIT,
        window=STREAM_WINDOW))
    return env, topo, stream


def stream_leaf_payload(pos: int) -> dict:
    """``synthetic_payload`` for the histogram filter."""
    return {f"bin{pos % 8}": 1}


def stream_simulate(env, topo, stream) -> dict:
    """``measure_stream``'s saturating cell on a prepared overlay; returns
    the same dict ``measure_stream`` returns."""
    sim = env.sim

    def leaf(pos):
        for wave in range(STREAM_WAVES):
            yield from stream.publish(pos, wave, stream_leaf_payload(pos))

    waves = []

    def subscriber():
        for _ in range(STREAM_WAVES):
            pkt = yield from stream.next_wave()
            waves.append((pkt.wave, pkt.payload))

    for pos in topo.backends():
        sim.process(leaf(pos), name=f"leaf:{pos}")
    drive(env, subscriber(), until=STREAM_DEADLINE)

    report = stream.report
    model = StreamModel(env.cluster.costs)
    predicted = model.wave_interval_throughput(topo, 0.0,
                                               credit_limit=STREAM_CREDIT)
    measured = report.throughput()
    return {
        "leaves": STREAM_LEAVES, "fanout": STREAM_FANOUT,
        "filter": STREAM_FILTER, "hybrid": False, "n_exact": STREAM_LEAVES,
        "window": STREAM_WINDOW, "credit_limit": STREAM_CREDIT,
        "n_waves": STREAM_WAVES, "delivered": report.n_delivered,
        "throughput": measured, "throughput_model": predicted,
        "model_err": (abs(measured - predicted) / predicted
                      if predicted else 0.0),
        "mean_latency": report.mean_latency(),
        "latency_model": model.wave_latency(topo),
        "phase_totals": report.phase_totals(),
        "total_latency": report.total_latency(),
        "dominant_phase": report.dominant_phase(),
        "max_inbox_depth": report.max_inbox_depth(),
        "n_stalls": report.total_stalls(),
        "t_stalled": report.total_stall_time(),
        "final_state": stream.state_at(0),
        "report": report.as_dict(),
        "waves": waves,
        "sim_events": sim.stats.events,
    }


def stream_virtual(cell: dict) -> dict:
    """Virtual outputs of one ``measure_stream``-shaped result."""
    return {k: v for k, v in cell.items() if k != "sim_events"}


def stream_run(state) -> Outcome:
    env, topo, stream = state
    cell = stream_simulate(env, topo, stream)
    problems = []
    delivered = cell["delivered"]
    if delivered != STREAM_WAVES or len(cell["waves"]) != STREAM_WAVES:
        problems.append(f"{delivered} waves delivered, "
                        f"expected {STREAM_WAVES}")
    expected = {f"bin{b}": STREAM_LEAVES // 8 for b in range(8)}
    wrong = sum(1 for _w, payload in cell["waves"] if payload != expected)
    if wrong:
        problems.append(f"{wrong} waves carry a wrong histogram")
    failed = min(STREAM_WAVES,
                 max(STREAM_WAVES - len(cell["waves"]), 0) + wrong)
    return Outcome(stream_virtual(cell), STREAM_WAVES, failed, problems,
                   env.sim, {"rms": [env.rm]})


#: attempted operations: daemons, sessions, arrivals and waves respectively
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("wide_launch", wide_setup, wide_run),
    Workload("session_churn", churn_setup, churn_run),
    Workload("fleet_stream", fleet_setup, fleet_run),
    Workload("stream_waves", stream_setup, stream_run),
)}
