"""Finished processes and completed channel deliveries hold no reference
cycle: with the cyclic collector off they are freed by reference counting
alone. A killed process is the exception by design -- its generator stays
parked in the simulator's graveyard (see ``Process.kill``).

Kernel objects use ``__slots__`` without ``__weakref__``; the tests
observe them through subclasses without ``__slots__``, which gain a weak
reference slot and behave identically otherwise.
"""

import gc
import weakref

import pytest

from repro.simx import Channel, Process, Simulator
from repro.simx import channels


class WeakProcess(Process):
    """A weak-referenceable Process."""


@pytest.fixture
def no_cyclic_gc():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Payload:
    """A weak-referenceable message."""


def test_finished_process_freed_without_collector(no_cyclic_gc):
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return 7

    def parent(proc):
        value = yield proc
        return value + 1

    kid = WeakProcess(sim, child())
    dad = WeakProcess(sim, parent(kid))
    refs = [weakref.ref(kid), weakref.ref(dad),
            weakref.ref(kid._gen), weakref.ref(dad._gen)]
    sim.run()
    assert dad.value == 8
    del kid, dad
    assert [r() for r in refs] == [None] * 4


def test_failed_process_drops_its_waiter(no_cyclic_gc):
    sim = Simulator()

    def boom():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    proc = sim.process(boom())
    proc.defuse()
    sim.run()
    assert isinstance(proc.exception, ValueError)
    assert proc._waiter is None


def test_completed_delivery_freed_without_collector(no_cyclic_gc,
                                                    monkeypatch):
    made = []

    class WeakDelivery(channels._Delivery):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(channels, "_Delivery", WeakDelivery)
    sim = Simulator()
    chan = Channel(sim, lambda msg: 0.5, name="c")
    msg = Payload()
    msg_ref = weakref.ref(msg)
    got = []

    def sender(m):
        yield chan.send(m)

    def receiver():
        got.append((yield chan.recv()))

    sim.process(receiver())
    sim.process(sender(msg))
    del msg
    sim.run()
    assert len(made) == 1 and made[0]() is None
    assert chan.delivered_count == 1 and len(got) == 1
    got.clear()
    assert msg_ref() is None


def test_killed_process_generator_stays_in_graveyard(no_cyclic_gc):
    sim = Simulator()
    gate = sim.event()

    def victim():
        yield gate

    proc = WeakProcess(sim, victim())
    gen_ref = weakref.ref(proc._gen)

    def killer():
        yield sim.timeout(1.0)
        proc.kill()
        yield sim.timeout(1.0)
        gate.succeed()

    sim.process(killer())
    sim.run()
    assert not proc.is_alive and proc.value is None
    del proc
    gen = gen_ref()
    assert gen is not None and any(g is gen for g in sim._graveyard)
    assert gen.gi_frame is not None  # frozen where it suspended
