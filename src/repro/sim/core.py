"""Core of the discrete-event engine: clock, events, processes.

Time is an integer number of **nanoseconds**.  All hardware cost models in
:mod:`repro.hw` produce integer nanosecond durations, so simulations are
exactly reproducible and there is no floating-point event-ordering jitter.

Every event sits in one heap as a ``(time, priority, seq, event)`` tuple,
so events at the same timestamp and priority are processed in FIFO
scheduling order (a monotonically increasing sequence number breaks
ties), which matches the intuition that a cause scheduled earlier fires
earlier.  Interrupts use :attr:`Environment.PRIORITY_URGENT` and beat
same-time normal events.

Per-event cost is kept low without changing any event: ``run()``
inlines ``step()``, and ``succeed()`` and the hot constructors push their
heap entries directly.  This is the only event kernel (DESIGN.md §9, "One
engine"); ``tests/golden_fingerprints.json`` and
``tests/golden_fuzz_digests.json`` pin its behaviour.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

#: One nanosecond (the base unit of simulated time).
NS = 1
#: One microsecond in nanoseconds.
US = 1_000
#: One millisecond in nanoseconds.
MS = 1_000_000
#: One second in nanoseconds.
SEC = 1_000_000_000


def us(value: float) -> int:
    """Convert microseconds (possibly fractional) to integer nanoseconds."""
    return int(round(value * US))


def ns_to_us(value: int) -> float:
    """Convert integer nanoseconds to (float) microseconds."""
    return value / US


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (double triggering, bad yields...)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries whatever object the interrupter passed;
    the VMMC LCP uses this to preempt its tight sending loop when an
    incoming packet arrives (paper section 5.3).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Sentinel distinguishing "not yet triggered" from "triggered with None".
_PENDING = object()


class Event:
    """A one-shot occurrence that processes may wait on.

    An event is *triggered* once, either successfully (:meth:`succeed`) with
    an optional value, or unsuccessfully (:meth:`fail`) with an exception.
    Callbacks attached before triggering run when the environment processes
    the event; callbacks attached afterwards run immediately.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        self._scheduled = False
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value (or an exception)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # _schedule inlined: an event not yet triggered is not yet queued.
        self._scheduled = True
        env = self.env
        heappush(env._queue, (env._now, Environment.PRIORITY_NORMAL,
                              next(env._seq), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A waiting process receives the exception via ``throw``.  If nobody
        ever waits on a failed event the environment re-raises it when the
        event is processed, so programming errors cannot vanish silently —
        unless :meth:`defuse` was called.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event (chaining)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.defused_fail(event._value)

    def defuse(self) -> None:
        """Mark a failed event as handled so it will not escalate."""
        self._defused = True

    def defused_fail(self, exception: BaseException) -> "Event":
        """Fail, pre-defused (used internally for chained failures)."""
        self.fail(exception)
        self._defused = True
        return self

    # -- composition -------------------------------------------------------
    def __and__(self, other: "Event") -> "Event":
        from repro.sim.conditions import AllOf

        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "Event":
        from repro.sim.conditions import AnyOf

        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        # The hottest constructor: no Event.__init__ or _schedule call.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self._defused = False
        self.delay = delay = int(delay)
        heappush(env._queue, (env._now + delay, Environment.PRIORITY_NORMAL,
                              next(env._seq), self))


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._scheduled = True
        self._defused = False
        heappush(env._queue, (env._now, Environment.PRIORITY_NORMAL,
                              next(env._seq), self))


class Process(Event):
    """Wraps a generator; the process is also an event that fires when the
    generator returns (with its return value) or raises.

    Processes yield events to wait for them; the event's value becomes the
    result of the ``yield`` expression.  Yielding a failed event re-raises
    the exception inside the generator.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator,
                 name: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"process requires a generator, got {generator!r}")
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._scheduled = False
        self._defused = False
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not _PENDING:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        interruption = Event(self.env)
        interruption._ok = False
        interruption._value = Interrupt(cause)
        interruption._defused = True
        interruption.callbacks.append(self._resume)
        self.env._schedule(interruption, priority=Environment.PRIORITY_URGENT)

    def _resume(self, event: Event) -> None:
        self.env._active_process = self
        while True:
            if event._ok:
                try:
                    target = self._generator.send(event._value)
                except StopIteration as exc:
                    self._finish_ok(exc.value)
                    break
                except BaseException as exc:
                    self._finish_fail(exc)
                    break
            else:
                # Deliver the failure into the generator.
                event._defused = True
                try:
                    target = self._generator.throw(event._value)
                except StopIteration as exc:
                    self._finish_ok(exc.value)
                    break
                except BaseException as exc:
                    # Unhandled (or replaced): it becomes our own failure
                    # rather than crashing the engine.
                    self._finish_fail(exc)
                    break
            if not isinstance(target, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}")
                try:
                    self._generator.throw(exc)
                except StopIteration as stop:
                    self._finish_ok(stop.value)
                except BaseException as raised:
                    self._finish_fail(raised)
                break
            if target.callbacks is None:
                # Already processed: loop immediately with its value.
                event = target
                continue
            target.callbacks.append(self._resume)
            self._target = target
            break
        self.env._active_process = None

    def _finish_ok(self, value: Any) -> None:
        self._target = None
        if self._value is _PENDING:
            self.succeed(value)

    def _finish_fail(self, exc: BaseException) -> None:
        self._target = None
        if self._value is _PENDING:
            self._ok = False
            self._value = exc
            self.env._schedule(self)


class Environment:
    """Simulation clock plus event queue.

    Usage::

        env = Environment()

        def ping():
            yield env.timeout(5 * US)
            return "done"

        proc = env.process(ping())
        env.run()
        assert proc.value == "done"
    """

    #: Priority used for interrupts so they beat same-time normal events.
    PRIORITY_URGENT = 0
    #: Default scheduling priority.
    PRIORITY_NORMAL = 1

    def __init__(self, initial_time: int = 0, tracer: Optional[Any] = None):
        self._now = int(initial_time)
        self._queue: list[tuple[int, int, int, Event]] = []
        self._seq = itertools.count()
        self._active_process: Optional[Process] = None
        self.tracer = tracer
        #: Events popped so far (perfbench's ``sim.events_per_op`` and
        #: ``sim.events_per_host_s`` read it).
        self.events_processed = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def now_us(self) -> float:
        """Current simulated time in microseconds."""
        return self._now / US

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- event factories -----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> Event:
        from repro.sim.conditions import AllOf

        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> Event:
        from repro.sim.conditions import AnyOf

        return AnyOf(self, list(events))

    # -- scheduling / execution ---------------------------------------------
    def _schedule(self, event: Event, delay: int = 0,
                  priority: int = PRIORITY_NORMAL) -> None:
        """Push ``event`` at ``now + delay`` with the next sequence number.

        Not an override point: :meth:`Event.succeed`, :class:`Timeout` and
        :class:`Initialize` (a process start) push their heap entries
        directly.
        """
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        heappush(
            self._queue, (self._now + delay, priority, next(self._seq), event))

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the queue is empty."""
        return self._queue[0][0] if self._queue else None

    def step(self) -> None:
        """Process the single next event (:meth:`run` inlines this body)."""
        if not self._queue:
            raise SimulationError("step() on empty event queue")
        when, _prio, _seq, event = heappop(self._queue)
        self._now = when
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused and not callbacks:
            # A failure nobody observed: escalate so bugs surface.
            raise event._value

    def run(self, until: Optional[Any] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be ``None`` (drain the queue), an integer time in
        nanoseconds no earlier than :attr:`now`, or an :class:`Event` —
        in which case its value is returned (or its exception raised).
        Both loops inline :meth:`step`, bumping ``events_processed`` per
        pop as it does.
        """
        queue = self._queue
        if isinstance(until, Event):
            stop = until
            while queue and stop.callbacks is not None:
                when, _prio, _seq, event = heappop(queue)
                self._now = when
                self.events_processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused and not callbacks:
                    raise event._value
            if stop._value is _PENDING:
                raise SimulationError(
                    f"run(until={stop!r}): queue drained before it fired "
                    f"(deadlock at t={self._now} ns?)")
            if stop._ok:
                return stop._value
            stop._defused = True
            raise stop._value
        deadline = None if until is None else int(until)
        if deadline is not None and deadline < self._now:
            raise SimulationError(
                f"run(until={deadline}) is in the past (now={self._now} ns)")
        while queue:
            if deadline is not None and queue[0][0] > deadline:
                break
            when, _prio, _seq, event = heappop(queue)
            self._now = when
            self.events_processed += 1
            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused and not callbacks:
                raise event._value
        if deadline is not None:
            self._now = deadline
        return None
