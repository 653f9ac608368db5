"""Filter-registry error paths and Packet routing invariants."""

import pytest

from repro.cluster.network import message_size
from repro.tbon import (
    Filter,
    Packet,
    filter_names,
    make_filter,
    register_filter,
)
from repro.tbon.filters import (
    EwmaRateFilter,
    RunningHistogramFilter,
    TopKFilter,
)
from repro.tbon.filters import _REGISTRY as REGISTRY


class TestRegistryErrorPaths:
    def test_register_filter_replaces_silently(self):
        """Replacement semantics: the registry is last-write-wins (how
        tools override a built-in), and the previous class is simply
        unreachable afterwards."""
        original = type(make_filter("sum"))

        class Negative(Filter):
            name = "sum"

            def merge(self, payloads):
                return -1

        try:
            assert register_filter(Negative) is Negative
            assert make_filter("sum").merge([1, 2, 3]) == -1
        finally:
            register_filter(original)
        assert make_filter("sum").merge([1, 2, 3]) == 6

    def test_register_new_name_and_lookup(self):
        class Min(Filter):
            name = "test_only_min"

            def merge(self, payloads):
                return min(payloads)

        register_filter(Min)
        try:
            assert "test_only_min" in filter_names()
            f = make_filter("test_only_min", window=3)
            assert isinstance(f, Min) and f.window == 3
            assert f.merge([4, 2, 9]) == 2
            # a stateless filter's reduce is its merge, state untouched
            assert f.reduce([4, 2, 9], f.initial_state()) == (2, None)
            with pytest.raises(KeyError, match="stateless"):
                make_filter("test_only_min", k=1)
        finally:
            del REGISTRY["test_only_min"]

    def test_get_filter_unknown_name(self):
        """Looking up an unregistered name (now through make_filter, the
        one lookup) fails with an error that names the offender AND lists
        what IS registered."""
        with pytest.raises(KeyError) as err:
            make_filter("no_such_filter")
        msg = str(err.value)
        assert "no_such_filter" in msg
        assert "concat" in msg and "sum" in msg

    def test_make_filter_unknown_name(self):
        with pytest.raises(KeyError, match="unknown TBON filter"):
            make_filter("no_such_filter")
        # an unknown name + params must report unknown-name (listing the
        # real names, so the 'topk' -> 'top_k' typo is self-diagnosing),
        # not complain about the parameters
        with pytest.raises(KeyError, match="unknown TBON filter.*top_k"):
            make_filter("topk", k=5)

    def test_make_filter_rejects_params_for_stateless(self):
        with pytest.raises(KeyError, match="stateless") as err:
            make_filter("concat", k=3)
        assert str(err.value) == repr(
            "TBON filter 'concat' is stateless; it takes no parameters "
            "['k'] (stateful filters: ['ewma', 'histogram', "
            "'prefix_tree_merge', 'top_k'])")

    def test_register_stateful_filter_subclass(self):
        class Count(Filter):
            name = "test_only_count"

            def initial_state(self):
                return 0

            def merge(self, payloads):
                return len(payloads)

            def reduce(self, payloads, state):
                merged = self.merge(payloads)
                return merged, state + merged

        register_filter(Count)
        try:
            f = make_filter("test_only_count", window=-2)
            assert f.window == 0  # the base class clamps the window
            assert f.merge(["a", "b", "c"]) == 3
            assert f.reduce(["a", "b"], f.initial_state()) == (2, 2)
        finally:
            del REGISTRY["test_only_count"]

    def test_base_filter_reduce_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Filter().reduce([1], None)


class TestStatefulFilterValidation:
    def test_top_k_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k >= 1"):
            TopKFilter(k=0)

    def test_ewma_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            EwmaRateFilter(alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            EwmaRateFilter(alpha=1.5)

    def test_histogram_window_evicts(self):
        f = RunningHistogramFilter(window=2)
        state = f.initial_state()
        for _ in range(3):
            _, state = f.reduce([{"a": 1}], state)
        assert state["running"] == {"a": 2}  # only the last 2 waves

    def test_merge_is_single_wave(self):
        assert make_filter("histogram").merge([{"a": 1}, {"a": 2, "b": 1}]) \
            == {"a": 3, "b": 1}
        assert make_filter("ewma").merge([2, 3]) == 5
        assert make_filter("top_k").merge(
            [[[5, "x"]], [[9, "y"]]])[0] == [9, "y"]
        assert make_filter("top_k", k=1).merge(
            [[[5, "x"]], [[9, "y"]]]) == [[9, "y"]]


class TestPacketInvariants:
    def test_direction_must_be_up_or_down(self):
        Packet(1, 0, "ok", "up")
        Packet(1, 0, "ok", "down")
        with pytest.raises(ValueError, match="direction"):
            Packet(1, 0, "bad", "sideways")

    def test_packets_are_immutable(self):
        pkt = Packet(1, 0, "payload")
        with pytest.raises(AttributeError):
            pkt.wave = 5

    def test_wire_size_is_header_plus_payload(self):
        pkt = Packet(1, 0, b"x" * 100)
        assert pkt.wire_size() == 24 + 100
        # opaque payloads (dicts) fall back to the fixed estimate
        assert Packet(1, 0, {"a": 1}).wire_size() \
            == 24 + message_size({"a": 1})

    def test_up_packets_reduce_down_packets_fan_out(self, sim):
        """The routing invariant: an 'up' packet from every leaf yields
        exactly ONE reduced packet at the root; one 'down' packet from
        the root yields exactly one copy at EVERY leaf."""
        from repro.cluster import Cluster, ClusterSpec
        from repro.tbon import Overlay, TBONTopology
        from repro.tbon.overlay import StreamSpec

        topo = TBONTopology.balanced(6, fanout=3)
        cluster = Cluster(sim, ClusterSpec(n_compute=10, seed=4))
        placement = {0: cluster.front_end}
        for i in range(1, topo.size):
            placement[i] = cluster.compute[i % 10]
        ov = Overlay(sim, cluster.network, topo, placement,
                     {1: StreamSpec(1, "sum")})
        ov.start_routers()
        up_got, down_got = [], []

        def be(pos):
            yield from ov.endpoint(pos).send_wave(1, 0, 1)
            pkt = yield from ov.endpoint(pos).recv_broadcast()
            down_got.append((pos, pkt.direction))

        def fe():
            pkt = yield from ov.endpoint(0).collect_wave()
            up_got.append(pkt)
            yield from ov.endpoint(0).broadcast(1, 1, "ctl")

        for pos in topo.backends():
            sim.process(be(pos))
        sim.process(fe())
        sim.run()
        # exactly one reduced 'up' packet, carrying every contribution
        assert len(up_got) == 1
        assert up_got[0].direction == "up"
        assert up_got[0].payload == 6
        # exactly one 'down' copy per leaf
        assert sorted(p for p, _ in down_got) == topo.backends()
        assert all(d == "down" for _, d in down_got)
