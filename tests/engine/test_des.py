"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.engine.des import Environment, Resource
from repro.errors import EngineError


class TestTimeouts:
    def test_timeout_advances_clock(self):
        env = Environment()
        log = []

        def proc():
            yield env.timeout(5)
            log.append(env.now)
            yield env.timeout(3)
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [5.0, 8.0]

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(EngineError):
            env.timeout(-1)

    def test_zero_timeout_fires_same_time(self):
        env = Environment()
        log = []

        def proc():
            yield env.timeout(0)
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [0.0]

    def test_run_until_stops_early(self):
        env = Environment()
        log = []

        def proc():
            yield env.timeout(10)
            log.append("late")

        env.process(proc())
        env.run(until=5)
        assert log == [] and env.now == 5
        env.run()
        assert log == ["late"]


class TestEvents:
    def test_manual_succeed_resumes_waiter(self):
        env = Environment()
        ev = env.event()
        log = []

        def waiter():
            val = yield ev
            log.append((env.now, val))

        def firer():
            yield env.timeout(7)
            ev.succeed("hello")

        env.process(waiter())
        env.process(firer())
        env.run()
        assert log == [(7.0, "hello")]

    def test_double_succeed_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed()
        with pytest.raises(EngineError):
            ev.succeed()

    def test_succeed_at_future_time(self):
        env = Environment()
        ev = env.event()
        ev.succeed_at(12.0)
        log = []

        def waiter():
            yield ev
            log.append(env.now)

        env.process(waiter())
        env.run()
        assert log == [12.0]

    def test_succeed_at_past_rejected(self):
        env = Environment()

        def proc():
            yield env.timeout(10)
            env.event().succeed_at(5.0)

        env.process(proc())
        with pytest.raises(EngineError):
            env.run()


class TestProcesses:
    def test_process_is_event(self):
        env = Environment()
        log = []

        def child():
            yield env.timeout(4)
            return "result"

        def parent():
            value = yield env.process(child())
            log.append((env.now, value))

        env.process(parent())
        env.run()
        assert log == [(4.0, "result")]

    def test_yield_non_event_rejected(self):
        env = Environment()

        def bad():
            yield 42

        # processes start synchronously, so the bad yield trips at spawn
        with pytest.raises(EngineError):
            env.process(bad())

    def test_waiting_on_already_fired_event(self):
        env = Environment()
        ev = env.event()
        ev.succeed("v")
        log = []

        def late_waiter():
            yield env.timeout(5)   # event fires long before this
            value = yield ev
            log.append((env.now, value))

        env.process(late_waiter())
        env.run()
        assert log == [(5.0, "v")]


class TestAllOf:
    def test_waits_for_all(self):
        env = Environment()
        evs = [env.event() for _ in range(3)]
        log = []

        def waiter():
            yield env.all_of(evs)
            log.append(env.now)

        def firer():
            for i, ev in enumerate(evs):
                yield env.timeout(2)
                ev.succeed()

        env.process(waiter())
        env.process(firer())
        env.run()
        assert log == [6.0]

    def test_empty_list_fires_immediately(self):
        env = Environment()
        log = []

        def waiter():
            yield env.all_of([])
            log.append(env.now)

        env.process(waiter())
        env.run()
        assert log == [0.0]


class TestResource:
    def test_fifo_mutual_exclusion(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []

        def worker(name, hold):
            grant = res.request()
            yield grant
            log.append((name, "start", env.now))
            yield env.timeout(hold)
            res.release()
            log.append((name, "end", env.now))

        env.process(worker("a", 5))
        env.process(worker("b", 3))
        env.run()
        assert log == [
            ("a", "start", 0.0), ("a", "end", 5.0),
            ("b", "start", 5.0), ("b", "end", 8.0),
        ]

    def test_capacity_two_overlaps(self):
        env = Environment()
        res = Resource(env, capacity=2)
        starts = []

        def worker(hold):
            yield res.request()
            starts.append(env.now)
            yield env.timeout(hold)
            res.release()

        for _ in range(3):
            env.process(worker(4))
        env.run()
        assert starts == [0.0, 0.0, 4.0]

    def test_release_without_request_rejected(self):
        env = Environment()
        res = Resource(env, capacity=1)
        with pytest.raises(EngineError):
            res.release()

    def test_queue_length(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def holder():
            yield res.request()
            yield env.timeout(10)
            res.release()

        def waiter():
            yield env.timeout(1)
            yield res.request()
            res.release()

        env.process(holder())
        env.process(waiter())
        env.run(until=2)
        assert res.queue_length == 1

    def test_bad_capacity(self):
        with pytest.raises(EngineError):
            Resource(Environment(), capacity=0)


class TestDeterminism:
    def test_tie_break_by_schedule_order(self):
        env = Environment()
        log = []

        def proc(name):
            yield env.timeout(5)
            log.append(name)

        env.process(proc("first"))
        env.process(proc("second"))
        env.run()
        assert log == ["first", "second"]
