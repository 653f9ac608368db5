"""Legacy-parity pins: the fail-fast preset reproduces the old contract.

Every launch without an explicit policy runs under
:data:`~repro.launch.policy.LEGACY` (no retries, no timeout, no blacklist,
fail-fast). The values below were captured from the tree that still had a
separate legacy spawn path, so they pin that the preset reproduces it
event for event:

* rsh strategies stop at the first exhausted index and *record* it
  (``report.failed`` / ``report.failure``), keeping what already spawned;
* tree-rsh keeps a daemon whose spawn completes after a sibling subtree
  failed (the failed subtree stops, its siblings' in-flight spawns land);
* rm-bulk reaps the partial set and re-raises the spawn error;
* ``RshRM.run_launcher`` re-raises and leaves ``last_launch_report``
  untouched.

A pin that moves is a behaviour change of the default launch contract,
not a number to refresh.
"""

import pytest

from repro.apps import make_compute_app
from repro.cluster import Cluster, ClusterSpec
from repro.launch import SPAWN_ERRORS, LaunchRequest, get_strategy
from repro.rm import RshRM
from repro.runner import make_env
from repro.simx import Simulator
from tests.conftest import run_gen

N = 12


def _measure(strategy: str, scenario: str) -> tuple:
    """One launch of ``N`` daemons; returns the pinned observables."""
    sim = Simulator()
    spec_kw = {}
    if scenario == "no-rshd":
        spec_kw["compute_rshd"] = False
    elif scenario == "fe-table":
        spec_kw["fe_max_user_procs"] = 4
    cluster = Cluster(sim, ClusterSpec(n_compute=N, seed=5, **spec_kw))
    if scenario == "node3-down":
        cluster.compute[3].fail()
    req = LaunchRequest(
        cluster=cluster, nodes=cluster.compute, executable="toold",
        stage_images=True, image_mb=6.0,
        hold_clients=scenario == "fe-table")

    def body():
        try:
            res = yield from get_strategy(strategy).launch(req)
        except SPAWN_ERRORS as exc:
            return None, type(exc).__name__
        return res, None

    res, raised = run_gen(sim, body())
    if res is None:
        return (None, None, None, None, None, raised, sim.stats.events)
    rep = res.report
    return (res.n_spawned, sorted(res.slots), round(rep.total, 9),
            rep.failed, rep.failure, raised, sim.stats.events)


#: (strategy, scenario) -> (n_spawned, sorted(slots), report.total,
#: report.failed, report.failure, raised exception type, sim events)
PINS = {
    ("serial-rsh", "fault-free"): (
        12, list(range(N)), 2.878193154, False, "", None, 86),
    ("serial-rsh", "node3-down"): (
        3, [0, 1, 2], 0.717800237, True,
        "atlas0003: no route to host (node failure)", None, 25),
    ("serial-rsh", "no-rshd"): (
        0, [], 0.002834267, True,
        "atlas0000: connection refused (no remote access service on this "
        "platform)", None, 4),
    ("serial-rsh", "fe-table"): (
        4, [0, 1, 2, 3], 0.958795727, True,
        "fork on atlas-fe: user 'user' at process limit (4/4)", None, 28),
    ("tree-rsh", "fault-free"): (
        12, list(range(N)), 0.484846491, False, "", None, 115),
    # heads 4-7 finish spawning *after* head 3 failed: they are kept
    ("tree-rsh", "node3-down"): (
        7, [0, 1, 2, 4, 5, 6, 7], 0.259227994, True,
        "atlas0003: no route to host (node failure)", None, 79),
    ("tree-rsh", "no-rshd"): (
        0, [], 0.02273021, True,
        "atlas0000: connection refused (no remote access service on this "
        "platform)", None, 35),
    ("rm-bulk", "fault-free"): (
        12, list(range(N)), 0.036609556, False, "", None, 63),
    ("rm-bulk", "node3-down"): (
        None, None, None, None, None, "NodeDown", 58),
}


@pytest.mark.parametrize("key", sorted(PINS), ids="/".join)
def test_default_contract_matches_legacy(key):
    assert _measure(*key) == PINS[key]


#: (raised exception type, virtual time when the run drained)
RSH_RM_PIN = ("NodeDown", 1.898294099)


def test_rsh_rm_job_launch_failure_propagates():
    """The RM-driven job launch keeps its raise-on-failure contract: the
    spawn error escapes ``run_launcher`` and the RM's last report is the
    one from before the failed launch."""
    env = make_env(n_compute=4, rm_cls=RshRM)
    sentinel = object()
    env.rm.last_launch_report = sentinel
    app = make_compute_app(n_tasks=16, tasks_per_node=8)

    def scenario():
        alloc = env.rm.allocate(2)
        alloc.nodes[1].fail()
        try:
            yield from env.rm.launch_job(app, alloc)
        except SPAWN_ERRORS as exc:
            return type(exc).__name__
        return None

    proc = env.sim.process(scenario())
    env.sim.run()
    assert (proc.value, round(env.sim.now, 9)) == RSH_RM_PIN
    assert env.rm.last_launch_report is sentinel

