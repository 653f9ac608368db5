"""The stream credit race: same event order as ``any_of``, bounded state.

A leaf send races its parent inbox's credit against the end of its
repair epoch. ``Stream._send_from`` used to build
``any_of([credit, epoch_ev])`` per send; every AnyOf stayed subscribed
to the epoch event until the next repair, so a long stream kept one
AnyOf (and its credit event) alive per send ever made. It now races
through one plain event per send and a per-epoch registry that the
epoch event ends with a single callback. :class:`AnyOfStream` below is
the old implementation, kept here as the reference. Hypothesis drives
both over leaves, fanout, credit limit, waves and a comm-node kill plus
``Overlay.repair()`` at a random instant, and compares the
``Simulator.trace`` sequence of ``(time, priority, seq)`` (with the
processes each event resumes), the delivered waves and
``StreamReport.as_dict()``.

The spec has teeth: :class:`EagerCreditStream` yields the credit event
directly when it is already triggered, skipping the race's scheduled
hop. That still delivers every wave, but shifts every later ``seq``,
and the same comparison catches it.

The bounded-state tests pin what the change is for: after any number of
waves without a repair, the epoch event holds one callback, the race
registry holds exactly the sends stalled on a credit, and the events a
finished stream keeps alive do not grow with the number of waves.
"""

import gc

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.simx import Event, Simulator
from repro.tbon import TBONTopology, Overlay
from repro.tbon import overlay as overlay_mod
from repro.tbon.overlay import Stream, StreamSpec


class ObservedStream(Stream):
    """The stream under test, counting the races each epoch end finds
    still pending (sends stalled on a credit)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pending_at_epoch_end = []

    def _teardown_plane(self):
        self.pending_at_epoch_end.append(len(self._races.pending))
        super()._teardown_plane()


class AnyOfStream(Stream):
    """Reference: the pre-registry ``_send_from`` (one AnyOf per send)."""

    def _send_from(self, position, wave, payload, epoch=None):
        if epoch is None:
            epoch = self._epoch
        if self._epoch != epoch:
            return
        parent = self.overlay._parent[position]
        inbox = self._inboxes.get(parent)
        if inbox is None:
            return
        pkt = overlay_mod.Packet(self.spec.stream_id, wave, payload, "up")
        t0 = self.sim.now
        ev = inbox.credit_event()
        if not ev.triggered:
            inbox.note_stall_started()
        yield self.sim.any_of([ev, self._epoch_ev])
        inbox.note_stall_ended(t0)
        if self._epoch != epoch:
            return
        inbox.note_acquired()
        yield self.sim.timeout(self.overlay.network.transfer_time(pkt))
        if self._epoch != epoch:
            return
        inbox.commit(position, pkt)


class EagerCreditStream(Stream):
    """Rejected variant: an already-triggered credit is yielded as is."""

    def _send_from(self, position, wave, payload, epoch=None):
        if epoch is None:
            epoch = self._epoch
        if self._epoch != epoch:
            return
        parent = self.overlay._parent[position]
        inbox = self._inboxes.get(parent)
        if inbox is None:
            return
        pkt = overlay_mod.Packet(self.spec.stream_id, wave, payload, "up")
        t0 = self.sim.now
        credit = inbox.credit_event()
        if credit.triggered:
            yield credit
        else:
            inbox.note_stall_started()
            race = Event(self.sim)
            self._races.pending[credit] = race
            credit.callbacks.append(self._races.won)
            yield race
        inbox.note_stall_ended(t0)
        if self._epoch != epoch:
            return
        inbox.note_acquired()
        yield self.sim.timeout(self.overlay.network.transfer_time(pkt))
        if self._epoch != epoch:
            return
        inbox.commit(position, pkt)


scenario_strategy = st.fixed_dictionaries({
    "fanout": st.integers(2, 4),
    # leaves beyond the fanout, so the tree has comm positions to kill
    "extra_leaves": st.integers(1, 12),
    "credit_limit": st.integers(1, 3),
    "n_waves": st.integers(1, 6),
    "victim": st.integers(0, 7),
    # a leaf's pause between waves, in ms (0: publishers contend)
    "gap_ms": st.integers(0, 3),
    # kill instant in ms; late kills land after the stream drained
    "kill_ms": st.integers(0, 60),
    # the subscriber's pause after each wave, in ms (backpressure)
    "consume_ms": st.integers(0, 20),
})


def build(sim, topo, stream_cls, credit_limit):
    """An overlay over ``topo`` on a fresh cluster, with one ``concat``
    stream of class ``stream_cls``; returns (placement, stream)."""
    cluster = Cluster(sim, ClusterSpec(n_compute=topo.size, seed=3))
    placement = {0: cluster.front_end}
    comms = topo.comm_positions()
    for i, pos in enumerate(comms):
        placement[pos] = cluster.compute[i]
    for i, pos in enumerate(topo.backends()):
        placement[pos] = cluster.compute[len(comms) + i]
    overlay = Overlay(sim, cluster.network, topo, placement, streams={})
    overlay.start_routers()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(overlay_mod, "Stream", stream_cls)
        stream = overlay.open_stream(StreamSpec(
            9, "concat", credit_limit=credit_limit))
    return placement, stream


def observe(stream_cls, sc):
    """Run one scenario; return what the comparison checks."""
    sim = Simulator()
    trace = []

    def on_fire(when, prio, seq, event):
        # the processes this event resumes, so the trace also tells
        # *which* suspended send a fired race wakes
        woken = tuple(cb.proc.name for cb in event.callbacks
                      if getattr(cb, "proc", None) is not None)
        trace.append((when, prio, seq, woken))

    sim.trace = on_fire
    topo = TBONTopology.balanced(sc["fanout"] + sc["extra_leaves"],
                                 sc["fanout"])
    placement, stream = build(sim, topo, stream_cls, sc["credit_limit"])
    overlay = stream.overlay
    comms = topo.comm_positions()
    n_waves = sc["n_waves"]

    def leaf(i, pos):
        yield sim.timeout(0.0005 * i)
        for w in range(n_waves):
            yield from stream.publish(pos, w, [[pos, w]])
            if sc["gap_ms"]:
                yield sim.timeout(sc["gap_ms"] / 1000.0)

    delivered = []

    def subscriber():
        while len(delivered) < n_waves:
            pkt = yield from stream.next_wave()
            delivered.append((pkt.wave, pkt.payload))
            if sc["consume_ms"]:
                yield sim.timeout(sc["consume_ms"] / 1000.0)

    def chaos():
        yield sim.timeout(sc["kill_ms"] / 1000.0)
        placement[comms[sc["victim"] % len(comms)]].fail("race spec")
        yield from overlay.repair()

    for i, pos in enumerate(topo.backends()):
        placement[pos].register_body(
            sim.process(leaf(i, pos), name=f"leaf:{pos}"))
    sub = sim.process(subscriber(), name="subscriber")
    sim.process(chaos(), name="chaos")
    sim.run(until=600)
    assert sub.triggered
    return {"trace": trace, "delivered": delivered,
            "report": stream.report.as_dict()}, stream


#: a scenario whose repair finds several sends stalled on the dead
#: comm's credits, so the epoch end releases more than one race
STALLED = {"fanout": 2, "extra_leaves": 6, "credit_limit": 1,
           "n_waves": 5, "victim": 1, "gap_ms": 2, "kill_ms": 12,
           "consume_ms": 10}


class TestCreditRaceOrder:
    @given(scenario_strategy)
    @example(STALLED)
    @settings(max_examples=60, deadline=None)
    def test_registry_race_matches_any_of(self, sc):
        assert observe(Stream, sc)[0] == observe(AnyOfStream, sc)[0]

    def test_epoch_end_releases_stalled_sends_in_order(self):
        """The pinned scenario really exercises the epoch-end path: the
        repair finds several stalled races, and the comparison holds."""
        new, stream = observe(ObservedStream, STALLED)
        ref, _ = observe(AnyOfStream, STALLED)
        assert stream.pending_at_epoch_end[0] >= 2
        assert new == ref
        assert sorted(w for w, _ in new["delivered"]) == list(range(5))
        assert new["report"]["n_repairs"] == 1

    def test_spec_rejects_eager_credit_shortcut(self):
        """Yielding an already-triggered credit directly delivers the
        same waves but not the same event order."""
        eager, _ = observe(EagerCreditStream, STALLED)
        ref, _ = observe(AnyOfStream, STALLED)
        assert sorted(eager["delivered"]) == sorted(ref["delivered"])
        assert eager["trace"] != ref["trace"]


# ---------------------------------------------------------------------------
# bounded state
# ---------------------------------------------------------------------------

BOUNDED_TOPO = TBONTopology.balanced(32, 8)


def run_waves(stream_cls, n_waves, checkpoints=()):
    """Publish ``n_waves`` waves from every leaf to a slow subscriber (so
    sends stall on credits). At each checkpoint time, record the race
    registry's size and the number of credit getters waiting at the
    leaves' parents. Returns (sim, stream, samples)."""
    sim = Simulator()
    _placement, stream = build(sim, BOUNDED_TOPO, stream_cls, 2)

    def leaf(pos):
        for w in range(n_waves):
            yield from stream.publish(pos, w, [[pos, w]])

    delivered = []

    def subscriber():
        while len(delivered) < n_waves:
            pkt = yield from stream.next_wave()
            delivered.append(pkt.wave)
            yield sim.timeout(0.01)

    for pos in BOUNDED_TOPO.backends():
        sim.process(leaf(pos), name=f"leaf:{pos}")
    sim.process(subscriber(), name="subscriber")
    samples = []
    for t in checkpoints:
        # run(until) returns with both same-time lanes drained, so every
        # credit still pending here is a getter waiting in its store
        sim.run(until=t)
        stalled = sum(len(stream._inboxes[p]._credits._getters)
                      for p in BOUNDED_TOPO.comm_positions())
        samples.append((len(stream._races.pending), stalled))
        assert all(not race.triggered and not credit.triggered
                   for credit, race in stream._races.pending.items())
    sim.run(until=600)
    assert delivered == list(range(n_waves))
    return sim, stream, samples


def live_events():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Event))


def events_kept_alive(stream_cls, n_waves):
    """Events still alive after a finished stream run, with its simulator
    and stream held."""
    before = live_events()
    kept = run_waves(stream_cls, n_waves)
    after = live_events()
    del kept
    return after - before


class TestBoundedState:
    def test_epoch_event_holds_one_callback(self):
        for n_waves in (10, 40):
            _sim, stream, _ = run_waves(Stream, n_waves)
            assert stream._epoch_ev.callbacks == [stream._races.ended]
            assert stream._races.pending == {}

    def test_registry_holds_exactly_the_stalled_sends(self):
        _sim, _stream, samples = run_waves(
            Stream, 20, checkpoints=[0.005 * k for k in range(1, 40)])
        assert any(stalled for _, stalled in samples)
        assert all(pending == stalled for pending, stalled in samples)

    def test_kept_alive_state_independent_of_waves(self):
        assert (events_kept_alive(Stream, 10)
                == events_kept_alive(Stream, 40))

    def test_any_of_reference_grows_with_waves(self):
        """The check above has teeth: the AnyOf race keeps one AnyOf and
        one credit event alive per send until the next repair."""
        leaves = len(BOUNDED_TOPO.backends())
        grown = (events_kept_alive(AnyOfStream, 40)
                 - events_kept_alive(AnyOfStream, 10))
        assert grown >= 2 * 30 * leaves
