"""Unit tests for the discrete-event engine core (Environment/Event/Process)."""

import pytest

from repro.sim import (
    US,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
    ns_to_us,
    us,
)


def test_time_helpers_roundtrip():
    assert us(9.8) == 9800
    assert ns_to_us(9800) == pytest.approx(9.8)
    assert us(0) == 0


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0
    assert env.now_us == 0.0


def test_timeout_advances_clock():
    env = Environment()
    done = {}

    def proc():
        yield env.timeout(5 * US)
        done["t"] = env.now

    env.process(proc())
    env.run()
    assert done["t"] == 5 * US
    assert env.now == 5 * US


def test_timeout_value_passed_through():
    env = Environment()
    got = {}

    def proc():
        got["v"] = yield env.timeout(10, value="payload")

    env.process(proc())
    env.run()
    assert got["v"] == "payload"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_process_return_value_is_event_value():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return 42

    p = env.process(proc())
    env.run()
    assert p.triggered and p.ok
    assert p.value == 42


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(3)
        return "done"

    p = env.process(proc())
    assert env.run(until=p) == "done"


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10)

    env.process(proc())
    env.run(until=105)
    assert env.now == 105


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(100)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_waits_on_another_process():
    env = Environment()
    log = []

    def child():
        yield env.timeout(7)
        log.append(("child", env.now))
        return "child-result"

    def parent():
        result = yield env.process(child())
        log.append(("parent", env.now))
        assert result == "child-result"

    env.process(parent())
    env.run()
    assert log == [("child", 7), ("parent", 7)]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    got = {}

    def waiter():
        got["v"] = yield gate

    def opener():
        yield env.timeout(50)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert got["v"] == "open"


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_failed_event_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = {}

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught["exc"] = exc

    def failer():
        yield env.timeout(1)
        gate.fail(ValueError("boom"))

    env.process(waiter())
    env.process(failer())
    env.run()
    assert isinstance(caught["exc"], ValueError)


def test_unhandled_failed_event_escalates():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        env.run()


def test_process_exception_propagates_to_waiter():
    env = Environment()
    caught = {}

    def bad():
        yield env.timeout(1)
        raise KeyError("inner")

    def outer():
        try:
            yield env.process(bad())
        except KeyError as exc:
            caught["exc"] = exc

    env.process(outer())
    env.run()
    assert "exc" in caught


def test_run_until_failed_process_raises():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("surface me")

    p = env.process(bad())
    with pytest.raises(ValueError, match="surface me"):
        env.run(until=p)


def test_yield_non_event_is_error():
    env = Environment()
    caught = {}

    def bad():
        try:
            yield 123
        except SimulationError as exc:
            caught["exc"] = exc

    env.process(bad())
    env.run()
    assert "exc" in caught


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(1000)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def interrupter(target):
        yield env.timeout(10)
        target.interrupt("wake-up")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == [(10, "wake-up")]


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    assert not p.is_alive
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def worker():
        try:
            yield env.timeout(1000)
        except Interrupt:
            log.append("interrupted")
        yield env.timeout(5)
        log.append(env.now)

    def poker(target):
        yield env.timeout(10)
        target.interrupt()

    p = env.process(worker())
    env.process(poker(p))
    env.run()
    assert log == ["interrupted", 15]


def test_run_until_event_deadlock_detected():
    env = Environment()
    never = env.event()
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=never)


def test_peek_and_step():
    env = Environment()
    env.timeout(25)
    assert env.peek() == 25
    env.step()
    assert env.now == 25
    assert env.peek() is None
    with pytest.raises(SimulationError):
        env.step()


def test_already_processed_event_yield_returns_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("early")
    env.run()  # process the event so it is 'processed'
    got = {}

    def late_waiter():
        got["v"] = yield ev
        got["t"] = env.now

    env.process(late_waiter())
    env.run()
    assert got == {"v": "early", "t": 0}


def test_nested_process_chain_times_accumulate():
    env = Environment()

    def inner():
        yield env.timeout(3)
        return 1

    def middle():
        v = yield env.process(inner())
        yield env.timeout(4)
        return v + 1

    def outer():
        v = yield env.process(middle())
        yield env.timeout(5)
        return v + 1

    p = env.process(outer())
    env.run()
    assert p.value == 3
    assert env.now == 12


def test_interrupt_beats_same_time_timeout():
    # An interrupt scheduled at the same timestamp as the timeout the
    # process waits on must be delivered as the interrupt, not the timeout.
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(10)
            log.append("timeout")
        except Interrupt:
            log.append("interrupt")

    def poker(target):
        yield env.timeout(10)
        if target.is_alive:
            target.interrupt()

    p = env.process(sleeper())
    env.process(poker(p))
    env.run()
    # sleeper's timeout fires first in FIFO order (it was scheduled first),
    # so by the time poker runs the process is done and not interrupted.
    assert log == ["timeout"]


def test_many_processes_scale():
    env = Environment()
    counter = {"n": 0}

    def worker(i):
        yield env.timeout(i)
        counter["n"] += 1

    for i in range(1000):
        env.process(worker(i))
    env.run()
    assert counter["n"] == 1000
    assert env.now == 999


# -- coverage gaps: combinators, interrupts, defusing, error propagation ----
def test_event_and_combinator_waits_for_both():
    env = Environment()
    got = {}

    def proc():
        result = yield env.timeout(5, value="a") & env.timeout(9, value="b")
        got["values"] = sorted(result.values())
        got["t"] = env.now

    env.process(proc())
    env.run()
    assert got["values"] == ["a", "b"]
    assert got["t"] == 9


def test_event_or_combinator_fires_on_first():
    env = Environment()
    got = {}

    def proc():
        result = yield env.timeout(5, value="fast") | env.timeout(50)
        got["values"] = list(result.values())
        got["t"] = env.now

    env.process(proc())
    env.run()
    assert got["values"] == ["fast"]
    assert got["t"] == 5


def test_interrupt_during_timeout_preempts_the_wait():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(1000)
            log.append(("slept", env.now))
        except Interrupt as exc:
            log.append(("interrupted", env.now, exc.cause))

    def poker(target):
        yield env.timeout(7)
        target.interrupt("wake up")

    target = env.process(sleeper())
    env.process(poker(target))
    env.run()
    # The interrupt lands mid-timeout; the abandoned timeout still fires
    # at t=1000 but resumes nothing.
    assert log == [("interrupted", 7, "wake up")]
    assert env.now == 1000


def test_defuse_silences_unobserved_failure():
    env = Environment()
    bad = env.event()
    bad.fail(RuntimeError("nobody is listening"))
    bad.defuse()
    env.run()  # would raise without the defuse
    assert not bad.ok


def test_unobserved_failure_escalates_without_defuse():
    env = Environment()
    env.event().fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_defused_fail_combines_fail_and_defuse():
    env = Environment()
    bad = env.event()
    bad.defused_fail(ValueError("pre-handled"))
    env.run()
    assert bad.triggered and not bad.ok
    assert isinstance(bad.value, ValueError)


def test_simulation_error_propagates_through_nested_processes():
    env = Environment()

    def inner():
        yield "not an event"  # engine misuse -> SimulationError

    def middle():
        yield env.process(inner())

    def outer():
        yield env.process(middle())

    top = env.process(outer())
    with pytest.raises(SimulationError, match="non-event"):
        env.run(until=top)


def test_nested_process_exception_can_be_caught_by_parent():
    env = Environment()
    got = {}

    def inner():
        yield env.timeout(1)
        raise ValueError("inner exploded")

    def outer():
        try:
            yield env.process(inner())
        except ValueError as exc:
            got["caught"] = str(exc)

    env.process(outer())
    env.run()
    assert got["caught"] == "inner exploded"


def test_run_until_process_time_and_unfired_event():
    env = Environment()

    def work():
        yield env.timeout(7)
        return "ret"

    assert env.run(until=env.process(work())) == "ret"

    env2 = Environment()
    env2.timeout(100)
    env2.run(until=50)
    assert env2.now == 50
    assert env2.events_processed == 0

    env3 = Environment()
    with pytest.raises(SimulationError, match="deadlock"):
        env3.run(until=env3.event())


# -- kernel contract: what the drain loop and direct pushes must keep -------
def test_same_time_order_timeout_start_succeed_interrupt():
    # Four same-time events made in this order by one process: a
    # timeout(0), a process start, a succeed() and an interrupt.  They
    # fire in seq (creation) order, except the interrupt, whose URGENT
    # priority puts it ahead of all three.
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt:
            log.append(("interrupt", env.now))

    def started():
        log.append(("start", env.now))
        yield from ()

    def driver(target):
        yield env.timeout(10)
        env.timeout(0).callbacks.append(
            lambda _ev: log.append(("timeout", env.now)))
        env.process(started())
        ev = env.event()
        ev.callbacks.append(lambda _ev: log.append(("succeed", env.now)))
        ev.succeed()
        target.interrupt()

    env.process(driver(env.process(sleeper())))
    env.run()
    assert log == [("interrupt", 10), ("timeout", 10), ("start", 10),
                   ("succeed", 10)]
    # The abandoned timeout still pops at 100; every event counted once.
    assert (env.now, env.events_processed) == (100, 11)


def test_resource_grants_by_priority_then_fifo():
    # Priorities [1, 0, 1, 0] behind a holder: the second and fourth
    # requests jump the queue (the sort path), the third lands behind an
    # equal-priority tail (the append path).
    from repro.sim import Resource

    env = Environment()
    res = Resource(env)
    granted = []

    def user(tag, priority):
        with res.request(priority=priority) as req:
            yield req
            granted.append(tag)
            yield env.timeout(1)

    def holder():
        with res.request() as req:
            yield req
            for tag, priority in zip("abcd", [1, 0, 1, 0]):
                env.process(user(tag, priority))
            yield env.timeout(5)

    env.process(holder())
    env.run()
    assert granted == ["b", "d", "a", "c"]


def _contract_workload(env):
    from repro.sim import Resource, Store

    res, store = Resource(env), Store(env)

    def producer(i):
        with res.request(priority=i % 2) as req:
            yield req
            yield env.timeout(3 + i)
        yield store.put(i)

    def consumer():
        for _ in range(6):
            yield store.get()
            yield env.timeout(0)

    for i in range(6):
        env.process(producer(i))
    env.process(consumer())


def test_step_loop_and_run_agree():
    stepped, ran = Environment(), Environment()
    _contract_workload(stepped)
    _contract_workload(ran)
    while stepped.peek() is not None:
        stepped.step()
    ran.run()
    assert stepped.events_processed == ran.events_processed > 0
    assert stepped.now == ran.now > 0


def test_unobserved_failure_escalates_from_both_run_loops():
    env = Environment()
    env.event().fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=10)

    env = Environment()
    stop = env.timeout(5)
    env.event().fail(RuntimeError("bang"))
    with pytest.raises(RuntimeError, match="bang"):
        env.run(until=stop)


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=1000)
    env.timeout(50)
    with pytest.raises(SimulationError, match="past"):
        env.run(until=10)
    assert env.now == 1000
    env.run(until=1000)  # until == now: a no-op
    assert (env.now, env.events_processed) == (1000, 0)
    env.run()
    assert env.now == 1050
