"""Minimal discrete-event simulation kernel (SimPy-flavoured).

The coroutine specification of the event engine
(:mod:`repro.engine.event_sim`) models the FPGA-SDV as communicating
processes (core, VPU pipes, L2 banks, DRAM channel); this module provides
the scheduling substrate: an :class:`Environment` with a time-ordered
event heap, generator-based :class:`Process` coroutines that ``yield``
events, and a FIFO :class:`Resource` for contended units.

Time is counted in **integer cycles**. Hardware schedules on clock edges,
and fractional timestamps were the one source of float-comparison drift
between this kernel and the compiled event engine (``event.c``, behind
:mod:`repro.engine.event_fast`), which must replay the exact same event
order. ``_schedule`` therefore rejects non-integral delays; cost models
quantize their few fractional terms (issue gaps) before they reach the
kernel.

Two scheduling structures keep the hot path cheap:

* a heap of ``(time, seq, event)`` for future events, and
* a plain FIFO deque for **same-time** events scheduled while the current
  timestamp is being processed (the common case: grants, zero-delay
  succeeds, process completions). Draining it directly avoids the old
  pop/re-push churn where every zero-delay event took a full heap round
  trip.

Only the features the event engine needs are implemented — this is not a
general SimPy replacement, but it is a real DES kernel with deterministic
FIFO ordering (ties broken by schedule order), which the tests rely on.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator

from repro.errors import EngineError


class Event:
    """One-shot event; processes waiting on it resume when it succeeds."""

    __slots__ = ("env", "callbacks", "triggered", "value")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self.triggered = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger now (schedules callbacks at the current time)."""
        if self.triggered:
            raise EngineError("event already triggered")
        self.triggered = True
        self.value = value
        self.env._schedule(self, 0)
        return self

    def succeed_at(self, time: float, value: Any = None) -> "Event":
        """Trigger at an absolute future time."""
        if self.triggered:
            raise EngineError("event already triggered")
        if time < self.env.now:
            raise EngineError(
                f"cannot trigger in the past ({time} < {self.env.now})"
            )
        self.triggered = True
        self.value = value
        self.env._schedule(self, time - self.env.now)
        return self


class Timeout(Event):
    """Event that fires after a fixed delay."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float) -> None:
        super().__init__(env)
        if delay < 0:
            raise EngineError(f"negative timeout {delay}")
        self.triggered = True
        env._schedule(self, delay)


class Process(Event):
    """A generator coroutine; itself an event that fires on return.

    The first slice runs **synchronously** at creation (up to the first
    ``yield``), so a spawned process observes the machine state at its
    spawn point — the same convention the compiled event engine's inline
    state-machine starts follow.
    """

    __slots__ = ("_gen",)

    def __init__(self, env: "Environment",
                 gen: Generator[Event, Any, Any]) -> None:
        super().__init__(env)
        self._gen = gen
        self._step(None)

    def _resume(self, event: Event) -> None:
        self._step(event.value)

    def _step(self, value: Any) -> None:
        try:
            target = self._gen.send(value)
        except StopIteration as stop:
            if not self.triggered:
                self.triggered = True
                self.value = stop.value
                self.env._schedule(self, 0)
            return
        if not isinstance(target, Event):
            raise EngineError(
                f"process yielded {type(target).__name__}, expected Event"
            )
        if target.triggered and not target.callbacks and target in \
                self.env._fired:
            # already fired and processed: resume immediately
            boot = Event(self.env)
            boot.triggered = True
            boot.value = target.value
            boot.callbacks.append(self._resume)
            self.env._schedule(boot, 0)
        else:
            target.callbacks.append(self._resume)


class AllOf(Event):
    """Fires when all child events have fired."""

    __slots__ = ("_pending",)

    def __init__(self, env: "Environment", events: list[Event]) -> None:
        super().__init__(env)
        pending = [e for e in events if e not in env._fired]
        self._pending = len(pending)
        if self._pending == 0:
            self.succeed()
            return
        for e in pending:
            e.callbacks.append(self._child_fired)

    def _child_fired(self, _event: Event) -> None:
        self._pending -= 1
        if self._pending == 0 and not self.triggered:
            self.succeed()


class Resource:
    """FIFO resource with fixed capacity (e.g. an L2 bank port)."""

    __slots__ = ("env", "capacity", "_in_use", "_queue")

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise EngineError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._queue: deque[Event] = deque()

    def request(self) -> Event:
        """Event that fires when a unit is granted (FIFO order)."""
        ev = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._queue.append(ev)
        return ev

    def release(self) -> None:
        if self._queue:
            self._queue.popleft().succeed()
        else:
            self._in_use -= 1
            if self._in_use < 0:
                raise EngineError("release without matching request")

    @property
    def queue_length(self) -> int:
        return len(self._queue)


class Environment:
    """Event loop: a heap of (time, seq, event) plus a same-time deque."""

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0
        self._fired: set[Event] = set()
        self._cur: deque[Event] = deque()
        self._running = False

    def _schedule(self, event: Event, delay: float) -> None:
        d = int(delay)
        if d != delay:
            raise EngineError(
                f"non-integral delay {delay!r}: the DES kernel runs on "
                "integer cycles (quantize in the cost model)"
            )
        if d == 0 and self._running:
            # fires within the timestamp currently being drained
            self._cur.append(event)
            return
        heapq.heappush(self._heap, (self.now + d, self._seq, event))
        self._seq += 1

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def event(self) -> Event:
        return Event(self)

    def process(self, gen: Generator[Event, Any, Any]) -> Process:
        return Process(self, gen)

    def all_of(self, events: list[Event]) -> AllOf:
        return AllOf(self, events)

    def _fire(self, event: Event) -> None:
        self._fired.add(event)
        callbacks, event.callbacks = event.callbacks, []
        for cb in callbacks:
            cb(event)
        # callbacks may have re-appended (e.g. AllOf children); drain
        while event.callbacks:
            cbs, event.callbacks = event.callbacks, []
            for cb in cbs:
                cb(event)

    def run(self, until: float | None = None) -> None:
        """Process events until the heap drains (or ``until`` is reached)."""
        # opt-in introspection (repro.obs.record): one local boolean
        # check per active timestamp; fired-event counts are read off the
        # _fired set instead of a per-event counter
        from repro.obs.record import get_recorder

        rec = get_recorder()
        intro = rec.on
        i_ts = 0
        i_fired0 = len(self._fired)
        i_max_drain = 0
        heap = self._heap
        cur = self._cur
        self._running = True
        try:
            while heap:
                time = heap[0][0]
                if until is not None and time > until:
                    self.now = int(until)
                    return
                if time < self.now:
                    raise EngineError("time went backwards")
                self.now = time
                before = len(self._fired) if intro else 0
                # heap entries first (schedule order), then the same-time
                # deque, which collects zero-delay events as they appear
                while heap and heap[0][0] == time:
                    self._fire(heapq.heappop(heap)[2])
                while cur:
                    self._fire(cur.popleft())
                if intro:
                    i_ts += 1
                    d = len(self._fired) - before
                    if d > i_max_drain:
                        i_max_drain = d
        finally:
            self._running = False
            if intro:
                rec.count("event_ref.timestamps", i_ts)
                rec.count("event_ref.events", len(self._fired) - i_fired0)
                rec.high("event_ref.max_drain_depth", i_max_drain)
