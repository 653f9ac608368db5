"""Message-passing primitives for simulated processes.

:class:`Store` is an unbounded-or-bounded FIFO of Python objects with
event-returning ``put``/``get`` (the DES analogue of a queue). :class:`Channel`
wraps a Store with an optional per-message delivery delay, which the cluster
network layer uses to model link latency.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.simx.core import (Event, SimulationError, Simulator, Timeout,
                             _Initialize)

__all__ = ["Channel", "Store"]


class Store:
    """FIFO store of items with blocking get and (optionally) bounded put.

    ``put(item)`` returns an event that triggers once the item is accepted
    (immediately if below capacity). ``get()`` returns an event that triggers
    with the oldest item once one is available. Waiters are served strictly
    FIFO, which keeps all higher-level protocols deterministic.
    """

    __slots__ = ("sim", "capacity", "_items", "_getters", "_putters")

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("Store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of currently stored items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        ev = Event(self.sim)
        if len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed()
            self._dispatch()
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        ev = Event(self.sim)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def _dispatch(self) -> None:
        while self._getters and self._items:
            getter = self._getters.popleft()
            getter.succeed(self._items.popleft())
            while self._putters and len(self._items) < self.capacity:
                put_ev, item = self._putters.popleft()
                self._items.append(item)
                put_ev.succeed()


class Channel:
    """A unidirectional message channel with per-message delivery latency.

    ``send`` is non-blocking for the sender (the message is committed
    immediately); delivery into the receiver-visible store happens after
    ``latency_fn(message)`` virtual seconds. With zero latency the channel
    degenerates to a plain Store.

    A delayed message is carried by a short callback chain, not by a
    process: an URGENT zero-delay bootstrap event, then the latency
    :class:`~repro.simx.core.Timeout`, then ``Store.put``, whose event's
    callback succeeds the returned ``done`` event. ``send`` schedules the
    bootstrap where a delivery *process* would have scheduled its own
    bootstrap; the timer, the put and ``done`` are scheduled from the
    callbacks of the bootstrap, the timer and the put, exactly where
    that process's first, second and third resumes scheduled them. So
    every event keeps its ``(time, priority, seq)`` rank against all
    other events. The one event dropped is that process's own
    completion, which had no subscribers; removing it only removes a
    ``seq`` value, so the remaining events keep their relative order.
    Starting the timer at the bootstrap, not at ``send`` time, is what
    keeps exact float-time ties with other timers in their original
    order.
    """

    __slots__ = ("sim", "name", "_latency_fn", "_store",
                 "sent_count", "delivered_count")

    def __init__(self, sim: Simulator,
                 latency_fn: Optional[Callable[[Any], float]] = None,
                 name: str = ""):
        self.sim = sim
        self.name = name
        self._latency_fn = latency_fn
        self._store = Store(sim)
        self.sent_count = 0
        self.delivered_count = 0

    def send(self, message: Any) -> Event:
        """Enqueue ``message`` for delivery; returns the delivery event."""
        self.sent_count += 1
        delay = self._latency_fn(message) if self._latency_fn else 0.0
        if delay < 0:
            raise SimulationError("channel latency must be non-negative")
        if delay == 0.0:
            self.delivered_count += 1
            return self._store.put(message)
        return _Delivery(self, message, delay).done

    def recv(self) -> Event:
        """Event triggering with the next delivered message."""
        return self._store.get()

    def pending(self) -> int:
        """Messages delivered but not yet received."""
        return len(self._store)


class _Delivery:
    """One delayed message in flight on a :class:`Channel`.

    Each step is an event callback that schedules the next one; every
    event drops its callbacks once processed, so a completed delivery
    holds no reference cycle and is freed by reference counting.
    """

    __slots__ = ("chan", "msg", "delay", "done")

    def __init__(self, chan: Channel, msg: Any, delay: float):
        self.chan = chan
        self.msg = msg
        self.delay = delay
        self.done = Event(chan.sim)
        _Initialize(chan.sim, self._start)

    def _start(self, _boot: Event) -> None:
        timer = Timeout(self.chan.sim, self.delay)
        timer.callbacks.append(self._arrive)  # type: ignore[union-attr]

    def _arrive(self, _timer: Event) -> None:
        chan = self.chan
        chan.delivered_count += 1
        put = chan._store.put(self.msg)
        put.callbacks.append(self._stored)  # type: ignore[union-attr]

    def _stored(self, _put: Event) -> None:
        self.done.succeed()
