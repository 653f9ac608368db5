"""Wire-size parity for ICCL collectives.

Gather, scatter, broadcast and barrier send pre-sized envelopes instead
of walking each message's payload per hop. Timing depends on the byte
count only, so every message reaching ``Network.transfer_time`` must
report exactly ``message_size`` of the payload it carries; then every
transfer delay, and with it every virtual time, is what walking the
payload gives. Pinned end times from fixed runs guard the whole path.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.be.iccl import ICCLFabric, TreeTopology
from repro.cluster import Cluster, ClusterSpec
from repro.cluster.network import Sized, message_size
from repro.simx import Simulator

KINDS = ("flat", "binomial", "kary")

payload_strategy = st.recursive(
    st.one_of(st.binary(max_size=40), st.text(max_size=20),
              st.integers(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.tuples(inner, inner)),
    max_leaves=12)


def _contains_envelope(obj):
    if isinstance(obj, Sized):
        return True
    if isinstance(obj, (tuple, list)):
        return any(_contains_envelope(o) for o in obj)
    return False


def run_collectives(kind, payloads, bcast, per_rec=0.001, seed=5):
    """Wire a fabric, then run gather, broadcast, scatter and a barrier
    on every rank. Returns (results, messages seen by transfer_time,
    final time, per-rank collective time)."""
    n = len(payloads)
    sim = Simulator()
    cluster = Cluster(sim, ClusterSpec(n_compute=max(n, 2), seed=seed))
    network = cluster.network
    seen = []
    transfer_time = network.transfer_time

    def recording_transfer_time(message, size=None):
        seen.append(message)
        return transfer_time(message, size)

    # pipes bind the network's transfer_time when they are created
    network.transfer_time = recording_transfer_time
    fabric = ICCLFabric(sim, network, cluster.compute[:n],
                        TreeTopology.make(n, kind, k=3),
                        costs=cluster.costs, rng=cluster.rng,
                        per_rec_cost=per_rec)
    results = {}

    def daemon(rank):
        ep = fabric.endpoint(rank)
        yield from ep.wireup()
        gathered = yield from ep.gather(payloads[rank])
        got = yield from ep.broadcast(bcast if rank == 0 else None)
        mine = yield from ep.scatter(payloads if rank == 0 else None)
        yield from ep.barrier()
        results[rank] = (gathered, got, mine)

    for r in range(n):
        sim.process(daemon(r), name=f"d{r}")
    sim.run()
    times = [fabric.endpoint(r).collective_time for r in range(n)]
    return results, seen, sim.now, times


@given(kind=st.sampled_from(KINDS),
       payloads=st.lists(payload_strategy, min_size=1, max_size=12),
       bcast=payload_strategy)
@settings(max_examples=60, deadline=None)
def test_every_message_reports_its_payload_size(kind, payloads, bcast):
    results, seen, _now, _times = run_collectives(kind, payloads, bcast)
    n = len(payloads)
    assert len(seen) == 7 * (n - 1)  # two barriers of 2 messages per edge
    for message in seen:
        assert isinstance(message, Sized)
        assert not _contains_envelope(message.payload)
        assert message.wire_size() == message_size(message.payload)
        assert message_size(message) == message_size(message.payload)
    assert results[0][0] == payloads
    for rank in range(n):
        gathered, got, mine = results[rank]
        if rank:
            assert gathered is None
        assert got == bcast
        assert mine == payloads[rank]


def _fixed_payloads(n):
    return [(f"host{r:03d}", r * 7, b"x" * (r % 5), [r] * (r % 3))
            for r in range(n)]


#: (final time, sum of per-rank collective time) before envelopes were
#: pre-sized, where every hop walked its payload
PINNED = {
    ("flat", 7): (0.013849747119856188, 0.09129634563080843),
    ("binomial", 16): (0.03283647223309811, 0.5107486030211836),
    ("kary", 23): (0.04623763729881314, 1.044777326693544),
}


@pytest.mark.parametrize("kind,n", sorted(PINNED))
def test_virtual_times_match_walked_sizes(kind, n):
    payloads = _fixed_payloads(n)
    results, _seen, now, times = run_collectives(kind, payloads,
                                                 {"cfg": list(range(9))})
    assert results[0][0] == payloads
    assert (now, sum(times)) == PINNED[(kind, n)]
