"""Tests for TBON topology, overlay routing/filters, and startup paths."""

import pytest

from repro.apps import make_compute_app
from repro.cluster import Cluster, ClusterSpec
from repro.fe import ToolFrontEnd
from repro.runner import drive, make_env
from repro.simx import Simulator
from repro.tbon import (
    Filter,
    Overlay,
    StartupFailure,
    TBONTopology,
    TopologyError,
    launchmon_startup,
    make_filter,
    native_startup,
    register_filter,
)
from repro.tbon.filters import _REGISTRY as REGISTRY
from repro.tbon.overlay import StreamSpec
from repro.tbon.packets import Packet


class TestTopology:
    def test_one_deep_shape(self):
        t = TBONTopology.one_deep(4)
        assert t.size == 5
        assert t.backends() == [1, 2, 3, 4]
        assert t.comm_positions() == []
        assert t.depth() == 1

    def test_balanced_adds_comm_layer(self):
        t = TBONTopology.balanced(32, fanout=8)
        assert len(t.comm_positions()) == 4
        assert len(t.backends()) == 32
        assert t.depth() == 2

    def test_balanced_small_degenerates_to_one_deep(self):
        t = TBONTopology.balanced(4, fanout=8)
        assert t.comm_positions() == []

    def test_jsonable_roundtrip(self):
        t = TBONTopology.balanced(20, fanout=4)
        assert TBONTopology.from_jsonable(t.to_jsonable()) == t

    def test_invalid_topologies_rejected(self):
        with pytest.raises(TopologyError):
            TBONTopology((0, None), ("fe", "be"))  # root not first
        with pytest.raises(TopologyError):
            TBONTopology((None, 0), ("fe", "comm"))  # leaf comm
        with pytest.raises(TopologyError):
            TBONTopology.one_deep(0)


class TestFilters:
    def test_registry_lookup(self):
        assert make_filter("concat").merge([["a"], ["b"]]) == ["a", "b"]
        with pytest.raises(KeyError, match="unknown TBON filter"):
            make_filter("nonexistent")

    def test_register_custom(self):
        class Min(Filter):
            name = "test_min"

            def merge(self, payloads):
                return min(payloads)

        register_filter(Min)
        try:
            assert make_filter("test_min").merge([3, 1, 2]) == 1
        finally:
            del REGISTRY["test_min"]

    def test_sum_and_max(self):
        assert make_filter("sum").merge([1, 2, 3]) == 6
        assert make_filter("max").merge([1, 5, 2]) == 5


class TestOverlayRouting:
    def _overlay(self, sim, n_be=4, filter_name="sum", fanout=2):
        cluster = Cluster(sim, ClusterSpec(n_compute=max(n_be, 2), seed=4))
        topo = (TBONTopology.balanced(n_be, fanout) if fanout
                else TBONTopology.one_deep(n_be))
        placement = {0: cluster.front_end}
        pool = list(cluster.compute)
        for pos in range(1, topo.size):
            placement[pos] = pool[pos % len(pool)]
        ov = Overlay(sim, cluster.network, topo, placement,
                     {1: StreamSpec(1, filter_name)})
        ov.start_routers()
        return ov

    def test_one_deep_reduction(self, sim):
        ov = self._overlay(sim, n_be=4, filter_name="sum", fanout=0)
        got = {}

        def be(pos, value):
            yield from ov.endpoint(pos).send_wave(1, 0, value)

        def fe():
            pkt = yield from ov.endpoint(0).collect_wave()
            got["pkt"] = pkt

        for i, pos in enumerate(ov.topology.backends()):
            sim.process(be(pos, i + 1))
        sim.process(fe())
        sim.run()
        assert got["pkt"].payload == 10  # 1+2+3+4

    def test_multilevel_reduction(self, sim):
        ov = self._overlay(sim, n_be=8, filter_name="sum", fanout=2)
        got = {}

        def be(pos):
            yield from ov.endpoint(pos).send_wave(1, 0, 1)

        def fe():
            pkt = yield from ov.endpoint(0).collect_wave()
            got["v"] = pkt.payload

        for pos in ov.topology.backends():
            sim.process(be(pos))
        sim.process(fe())
        sim.run()
        assert got["v"] == 8

    def test_waves_kept_separate(self, sim):
        ov = self._overlay(sim, n_be=3, filter_name="sum", fanout=0)
        got = []

        def be(pos):
            yield from ov.endpoint(pos).send_wave(1, 0, 1)
            yield from ov.endpoint(pos).send_wave(1, 1, 10)

        def fe():
            for _ in range(2):
                pkt = yield from ov.endpoint(0).collect_wave()
                got.append((pkt.wave, pkt.payload))

        for pos in ov.topology.backends():
            sim.process(be(pos))
        sim.process(fe())
        sim.run()
        assert sorted(got) == [(0, 3), (1, 30)]

    def test_broadcast_reaches_leaves(self, sim):
        ov = self._overlay(sim, n_be=6, filter_name="concat", fanout=3)
        seen = []

        def be(pos):
            pkt = yield from ov.endpoint(pos).recv_broadcast()
            seen.append((pos, pkt.payload))

        def fe():
            yield from ov.endpoint(0).broadcast(1, 0, "sample-now")

        for pos in ov.topology.backends():
            sim.process(be(pos))
        sim.process(fe())
        sim.run()
        assert len(seen) == 6
        assert all(p == "sample-now" for _, p in seen)

    def test_non_root_cannot_broadcast(self, sim):
        ov = self._overlay(sim, n_be=3)
        with pytest.raises(RuntimeError, match="root"):
            next(ov.endpoint(1).broadcast(1, 0, "x"))


class TestNativeStartup:
    def test_spawns_all_daemons(self, sim):
        cluster = Cluster(sim, ClusterSpec(n_compute=6, seed=4))
        box = {}

        def scenario():
            overlay, report = yield from native_startup(
                cluster, cluster.compute[:6], image_mb=2.0)
            box["report"] = report
            box["overlay"] = overlay

        sim.process(scenario())
        sim.run()
        assert box["report"].n_daemons == 6
        assert box["report"].total > 6 * 0.2  # sequential rsh slope
        # rsh clients held on the FE
        assert cluster.front_end.user_proc_count() >= 6

    def test_linear_scaling(self):
        def startup_time(n):
            sim = Simulator()
            cluster = Cluster(sim, ClusterSpec(n_compute=n, seed=4))
            box = {}

            def scenario():
                _, report = yield from native_startup(
                    cluster, cluster.compute[:n], image_mb=2.0)
                box["t"] = report.total

            sim.process(scenario())
            sim.run()
            return box["t"]

        t8, t32 = startup_time(8), startup_time(32)
        assert t32 == pytest.approx(4 * t8, rel=0.25)

    def test_fails_at_fe_proc_limit(self, sim):
        cluster = Cluster(sim, ClusterSpec(n_compute=24, seed=4,
                                           fe_max_user_procs=10))
        box = {}

        def scenario():
            try:
                yield from native_startup(cluster, cluster.compute,
                                          image_mb=2.0)
            except StartupFailure as exc:
                box["spawned"] = exc.spawned

        sim.process(scenario())
        sim.run()
        assert 0 < box["spawned"] < 24

    def test_fails_without_rshd(self, sim):
        cluster = Cluster(sim, ClusterSpec(n_compute=4, seed=4,
                                           compute_rshd=False))
        box = {}

        def scenario():
            try:
                yield from native_startup(cluster, cluster.compute,
                                          image_mb=2.0)
            except StartupFailure as exc:
                box["err"] = str(exc)

        sim.process(scenario())
        sim.run()
        assert "failed after 0 daemons" in box["err"]


class TestLaunchmonStartup:
    def test_connects_and_reports(self):
        env = make_env(n_compute=4)
        app = make_compute_app(n_tasks=32, tasks_per_node=8)
        box = {}

        def scenario(env):
            job = yield from env.rm.launch_job(app, env.rm.allocate(4))
            fe = ToolFrontEnd(env.cluster, env.rm, "tbon-test")
            yield from fe.init()
            session = fe.create_session()
            overlay, report = yield from launchmon_startup(
                fe, session, job, image_mb=2.0)
            box["report"] = report
            box["overlay"] = overlay
            box["fe_procs"] = env.cluster.front_end.user_proc_count()

        drive(env, scenario(env))
        assert box["report"].n_daemons == 4
        assert box["report"].mechanism == "launchmon"
        # no held rsh clients: the FE process count stays small
        assert box["fe_procs"] < 10

    def test_faster_than_native_at_scale(self):
        n = 32
        app = make_compute_app(n_tasks=8 * n, tasks_per_node=8)

        env = make_env(n_compute=n)
        box = {}

        def lmon(env=env, box=box):
            job = yield from env.rm.launch_job(app, env.rm.allocate(n))
            fe = ToolFrontEnd(env.cluster, env.rm, "t")
            yield from fe.init()
            s = fe.create_session()
            _, report = yield from launchmon_startup(fe, s, job, image_mb=2.0)
            box["t"] = report.total

        drive(env, lmon())

        env2 = make_env(n_compute=n)
        box2 = {}

        def native(env=env2, box=box2):
            job = yield from env.rm.launch_job(app, env.rm.allocate(n))
            _, report = yield from native_startup(
                env.cluster, [env.cluster.node(h) for h in
                              {t.host: None for t in job.tasks}],
                image_mb=2.0)
            box["t"] = report.total

        drive(env2, native())
        assert box2["t"] > 5 * box["t"]
