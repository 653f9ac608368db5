"""Differential spec: callback-chain channel delivery vs the process path.

``Channel.send`` with a nonzero delay used to spawn one delivery process
per message. It now runs a callback chain (bootstrap -> latency timer ->
``Store.put`` -> ``done``) that must keep every program-visible event in
exactly the old ``(time, priority, seq)`` order. :class:`ProcessChannel`
below is the old process-based implementation, kept here as the
reference; Hypothesis drives both over random send schedules and
compares receive times and order, sender wake-ups (with the channel
counters they observe) and the ``Simulator.trace`` sequence of every
event the program itself creates or waits on.

The spec has teeth: :class:`EagerTimerChannel` starts the latency timer
at ``send`` time instead of at the bootstrap. That reorders exact
float-time ties against timers created in between, and the same
comparison catches it.
"""

from hypothesis import find, given, settings
from hypothesis import strategies as st
import pytest

from repro.simx import Channel, Event, SimulationError, Simulator, Store

#: base latency; a power of two keeps sums of it exact, forcing ties
L = 0.5


class ProcessChannel:
    """Reference: the pre-callback-chain ``Channel`` (one process per
    delayed message)."""

    def __init__(self, sim, latency_fn=None, name=""):
        self.sim = sim
        self.name = name
        self._latency_fn = latency_fn
        self._store = Store(sim)
        self.sent_count = 0
        self.delivered_count = 0

    def send(self, message):
        self.sent_count += 1
        delay = self._latency_fn(message) if self._latency_fn else 0.0
        if delay < 0:
            raise SimulationError("channel latency must be non-negative")
        if delay == 0.0:
            self.delivered_count += 1
            return self._store.put(message)
        done = Event(self.sim)

        def _deliver(sim=self.sim, msg=message):
            yield sim.timeout(delay)
            self.delivered_count += 1
            yield self._store.put(msg)
            done.succeed()

        self.sim.process(_deliver(), name=f"chan-deliver:{self.name}")
        return done

    def recv(self):
        return self._store.get()

    def pending(self):
        return len(self._store)


class EagerTimerChannel(ProcessChannel):
    """Rejected variant: the latency timer is created inside ``send``."""

    def send(self, message):
        self.sent_count += 1
        delay = self._latency_fn(message) if self._latency_fn else 0.0
        if delay == 0.0:
            self.delivered_count += 1
            return self._store.put(message)
        done = Event(self.sim)

        def arrive(_timer):
            self.delivered_count += 1
            put = self._store.put(message)
            put.callbacks.append(lambda _put: done.succeed())

        self.sim.timeout(delay).callbacks.append(arrive)
        return done


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

#: per-channel latency: constant (ties), zero, or carried by the message
LATENCIES = ("const", "zero", "per-msg")

sender_step = st.one_of(
    # (send, channel, wait on done?, latency multiple for per-msg channels)
    st.tuples(st.just("send"), st.integers(0, 2), st.booleans(),
              st.integers(0, 2)),
    st.tuples(st.just("sleep"), st.integers(0, 3)),
)

schedule_strategy = st.fixed_dictionaries({
    "latencies": st.lists(st.sampled_from(LATENCIES), min_size=1,
                          max_size=3),
    "senders": st.lists(st.lists(sender_step, max_size=8), min_size=1,
                        max_size=4),
    # each receiver sleeps k*L before each of its receives (cycled)
    "recv_sleeps": st.lists(st.integers(0, 2), min_size=1, max_size=4),
})


def _latency_fn(kind):
    if kind == "const":
        return lambda msg: L
    if kind == "zero":
        return lambda msg: 0.0
    return lambda msg: msg[2] * L


def observe(channel_cls, schedule, fast_lane):
    """Run one schedule; return everything the program can observe."""
    sim = Simulator(fast_lane=fast_lane)
    chans = [channel_cls(sim, _latency_fn(kind), name=f"c{i}")
             for i, kind in enumerate(schedule["latencies"])]
    # events the program creates or waits on, by id; holding the event
    # keeps its id from being reused by a later (delivery) event
    labels = {}
    trace = []

    def label(event, text):
        labels[id(event)] = (event, text)
        return event

    def on_fire(when, prio, seq, event):
        entry = labels.get(id(event))
        if entry is not None:
            trace.append((when, prio, entry[1]))

    sim.trace = on_fire
    received = []
    wakeups = []

    def snapshot(who):
        wakeups.append((sim.now, who,
                        tuple(c.pending() for c in chans),
                        tuple(c.delivered_count for c in chans),
                        tuple(c.sent_count for c in chans)))

    def sender(s, steps):
        for i, step in enumerate(steps):
            if step[0] == "sleep":
                yield label(sim.timeout(step[1] * L), f"s{s}.{i}:sleep")
            else:
                _, ch, wait, mult = step
                ch %= len(chans)
                done = chans[ch].send((s, i, mult))
                if wait:
                    yield label(done, f"s{s}.{i}:done")
            snapshot(f"s{s}.{i}")

    def receiver(r, count):
        sleeps = schedule["recv_sleeps"]
        for k in range(count):
            pause = sleeps[(r + k) % len(sleeps)]
            if pause:
                yield label(sim.timeout(pause * L), f"r{r}.{k}:sleep")
            msg = yield label(chans[r].recv(), f"r{r}.{k}:recv")
            received.append((sim.now, r, msg))
            snapshot(f"r{r}.{k}")

    sent = [0] * len(chans)
    for steps in schedule["senders"]:
        for step in steps:
            if step[0] == "send":
                sent[step[1] % len(chans)] += 1
    for r, count in enumerate(sent):
        label(sim.process(receiver(r, count), name=f"r{r}"), f"r{r}:exit")
    for s, steps in enumerate(schedule["senders"]):
        label(sim.process(sender(s, steps), name=f"s{s}"), f"s{s}:exit")
    sim.run()
    return {"received": received, "wakeups": wakeups, "trace": trace,
            "now": sim.now}


class TestDeliveryOrder:
    @pytest.mark.parametrize("fast_lane", [True, False])
    @given(schedule_strategy)
    @settings(max_examples=150, deadline=None)
    def test_callback_chain_matches_process_delivery(self, fast_lane,
                                                     schedule):
        assert (observe(Channel, schedule, fast_lane)
                == observe(ProcessChannel, schedule, fast_lane))

    def test_exact_tie_keeps_process_order(self):
        """A sender sleeps exactly one latency after sending on a
        constant-latency channel, then sends on a zero-latency one: its
        timer was created before the delivery timer, so its message is
        received first."""
        schedule = {"latencies": ["const", "zero"],
                    "senders": [[("send", 0, False, 0), ("sleep", 1),
                                 ("send", 1, False, 0)]],
                    "recv_sleeps": [0]}
        for cls in (Channel, ProcessChannel):
            got = observe(cls, schedule, True)["received"]
            assert [r for _t, r, _m in got] == [1, 0]
        eager = observe(EagerTimerChannel, schedule, True)["received"]
        assert [r for _t, r, _m in eager] == [0, 1]

    @pytest.mark.parametrize("fast_lane", [True, False])
    def test_spec_rejects_timer_at_send_time(self, fast_lane):
        """The comparison above fails for the eager-timer variant:
        Hypothesis finds a schedule that tells it apart."""
        found = find(
            schedule_strategy,
            lambda sch: (observe(EagerTimerChannel, sch, fast_lane)
                         != observe(ProcessChannel, sch, fast_lane)),
            settings=settings(max_examples=2000, database=None,
                              deadline=None, derandomize=True))
        assert found["senders"]
