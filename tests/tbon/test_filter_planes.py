"""One filter, two planes: a registered filter reduces the same way in a
one-shot wave reduction and on a persistent stream.

The one-shot plane (an :class:`~repro.tbon.Overlay` declared with a
:class:`~repro.tbon.overlay.StreamSpec`) calls each router's ``merge``;
a persistent stream (:meth:`~repro.tbon.Overlay.open_stream`) calls
``reduce``, which folds the same merge into per-position state. For the
same leaf payloads the root's one-shot packet must therefore equal the
stream's first delivered wave, for every registered filter -- including
one registered by a test through :func:`~repro.tbon.register_filter`.
"""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.experiments.streaming import synthetic_payload
from repro.simx import Simulator
from repro.tbon import (
    Filter,
    Overlay,
    TBONTopology,
    filter_names,
    register_filter,
)
from repro.tbon.filters import _REGISTRY as REGISTRY
from repro.tbon.overlay import StreamSpec

STREAM_ID = 1


def _overlay(streams: dict):
    sim = Simulator()
    topo = TBONTopology.balanced(9, fanout=3)
    cluster = Cluster(sim, ClusterSpec(n_compute=12, seed=4))
    placement = {0: cluster.front_end}
    for pos in range(1, topo.size):
        placement[pos] = cluster.compute[pos % 12]
    return sim, Overlay(sim, cluster.network, topo, placement, streams)


def one_shot_root_payload(name: str, payload_of) -> object:
    sim, ov = _overlay({STREAM_ID: StreamSpec(STREAM_ID, name)})
    ov.start_routers()
    got = []

    def leaf(pos):
        yield from ov.endpoint(pos).send_wave(STREAM_ID, 0, payload_of(pos))

    def root():
        pkt = yield from ov.endpoint(0).collect_wave()
        got.append(pkt.payload)

    for pos in ov.topology.backends():
        sim.process(leaf(pos))
    sim.process(root())
    sim.run()
    assert len(got) == 1
    return got[0]


def first_stream_wave(name: str, payload_of) -> object:
    sim, ov = _overlay({})
    stream = ov.open_stream(StreamSpec(STREAM_ID, name, credit_limit=2))
    got = []

    def leaf(pos):
        yield from stream.publish(pos, 0, payload_of(pos))

    def root():
        pkt = yield from stream.next_wave()
        got.append((pkt.wave, pkt.payload))

    for pos in ov.topology.backends():
        sim.process(leaf(pos))
    sim.process(root())
    sim.run()
    assert len(got) == 1 and got[0][0] == 0
    return got[0][1]


@pytest.mark.parametrize("name", filter_names())
def test_one_shot_root_equals_first_stream_wave(name):
    def payload_of(pos):
        return synthetic_payload(name, pos, 0)

    one_shot = one_shot_root_payload(name, payload_of)
    assert one_shot == first_stream_wave(name, payload_of)


def test_filter_registered_once_works_in_both_planes():
    class Spread(Filter):
        """max - min over numbers, carried as ``[lo, hi]`` pairs."""

        name = "test_only_spread"

        def merge(self, payloads):
            return [min(p[0] for p in payloads), max(p[1] for p in payloads)]

    register_filter(Spread)
    try:
        def payload_of(pos):
            return [pos * 3, pos * 3 + 1]

        one_shot = one_shot_root_payload("test_only_spread", payload_of)
        assert one_shot == first_stream_wave("test_only_spread", payload_of)
        leaves = TBONTopology.balanced(9, fanout=3).backends()
        assert one_shot == [min(leaves) * 3, max(leaves) * 3 + 1]
    finally:
        del REGISTRY["test_only_spread"]
