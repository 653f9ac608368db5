"""The run-scoped freeze: ``Simulator.run`` keeps set-up state out of the
cyclic collector while it runs, and leaves the collector as it found it.

When no caller has frozen the heap, ``run`` calls ``gc.freeze()`` on
entry and ``gc.unfreeze()`` on every exit path. When a caller already
froze it (as ``repro.analysis.ladders`` does around a measured point),
``run`` leaves the collector alone, so the caller's freeze still holds
after the run.
"""

import gc
import weakref

import pytest

from repro.simx import Simulator


class Node:
    """A weak-referenceable object that can sit in a reference cycle."""


def make_cycle():
    """A two-object cycle; returns a weak reference to one member."""
    a, b = Node(), Node()
    a.other, b.other = b, a
    return weakref.ref(a)


@pytest.fixture(autouse=True)
def unfrozen_heap():
    assert gc.get_freeze_count() == 0
    yield
    assert gc.get_freeze_count() == 0


@pytest.fixture
def no_automatic_gc():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def test_heap_frozen_during_run_and_unfrozen_after():
    sim = Simulator()
    seen = []

    def probe():
        seen.append(gc.get_freeze_count())
        yield sim.timeout(1.0)
        seen.append(gc.get_freeze_count())

    sim.process(probe())
    sim.run()
    assert len(seen) == 2 and all(count > 0 for count in seen)
    assert gc.get_freeze_count() == 0


def test_unfrozen_after_a_failure_propagates():
    sim = Simulator()

    def boom():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    sim.process(boom())
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    assert gc.get_freeze_count() == 0


def test_unfrozen_after_run_until():
    sim = Simulator()

    def ticker():
        while True:
            yield sim.timeout(1.0)

    sim.process(ticker())
    sim.run(until=5.5)
    assert sim.now == 5.5
    assert gc.get_freeze_count() == 0
    sim.run(until=7.0)
    assert gc.get_freeze_count() == 0


def test_callers_freeze_stays_in_force():
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        sim = Simulator()
        seen = []

        def probe():
            yield sim.timeout(1.0)
            seen.append(gc.get_freeze_count())

        sim.process(probe())
        sim.run()
        # run neither refroze (which would add the young generations)
        # nor unfroze the caller's heap
        assert seen == [frozen]
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


def test_cyclic_garbage_from_a_run_is_collectable_after_it(no_automatic_gc):
    sim = Simulator()
    refs = []

    def litter():
        for _ in range(3):
            refs.append(make_cycle())
            yield sim.timeout(1.0)

    sim.process(litter())
    sim.run()
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3


def test_set_up_garbage_frozen_by_a_run_is_collectable_after_it(
        no_automatic_gc):
    """Cyclic garbage left over from set-up is frozen with the rest of
    the heap during the run, and is freed by the first collection after
    it: the unfreeze hands it back to the collector."""
    ref = make_cycle()
    sim = Simulator()
    survived = []

    def probe():
        yield sim.timeout(1.0)
        gc.collect()
        survived.append(ref() is not None)

    sim.process(probe())
    sim.run()
    assert survived == [True]
    gc.collect()
    assert ref() is None
