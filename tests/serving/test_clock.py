"""VirtualClock and drained-loop runner semantics."""

import asyncio

import pytest

from repro.core.errors import ServingError
from repro.serving.clock import VirtualClock, run_virtual
from tests.serving.harness import clock_at, run_deterministic


def test_sleep_advances_virtual_time_only():
    async def body(clock):
        await clock.sleep(5.0)
        first = clock.now()
        await clock.sleep(2.5)
        return first, clock.now()

    clock = VirtualClock()
    first, second = run_virtual(body(clock), clock)
    assert first == 5.0
    assert second == 7.5


def test_wakeup_order_earliest_deadline_then_fifo():
    order = []

    async def sleeper(clock, name, delay):
        await clock.sleep(delay)
        order.append(name)

    async def body(clock):
        tasks = [
            asyncio.ensure_future(sleeper(clock, "late", 3.0)),
            asyncio.ensure_future(sleeper(clock, "early", 1.0)),
            asyncio.ensure_future(sleeper(clock, "tie-a", 2.0)),
            asyncio.ensure_future(sleeper(clock, "tie-b", 2.0)),
        ]
        await asyncio.gather(*tasks)

    clock = VirtualClock()
    run_virtual(body(clock), clock)
    assert order == ["early", "tie-a", "tie-b", "late"]
    assert clock.now() == 3.0


def test_zero_delay_sleep_wakes_without_advancing():
    async def body(clock):
        await clock.sleep(0.0)
        return clock.now()

    clock = clock_at(10.0)
    assert run_virtual(body(clock), clock) == 10.0


def test_negative_delay_raises():
    async def body(clock):
        await clock.sleep(-1.0)

    clock = VirtualClock()
    with pytest.raises(ServingError, match="negative"):
        run_virtual(body(clock), clock)


def test_deadlock_detected_not_hung():
    async def body():
        await asyncio.get_running_loop().create_future()  # never resolved

    with pytest.raises(ServingError, match="deadlock"):
        run_virtual(body(), VirtualClock())


def test_cancelled_sleeper_is_skipped():
    async def body(clock):
        task = asyncio.ensure_future(clock.sleep(1.0))
        await asyncio.sleep(0)
        task.cancel()
        await clock.sleep(2.0)
        return clock.now()

    clock = VirtualClock()
    # Time jumps straight to 2.0: the cancelled 1.0 sleeper never wakes.
    assert run_virtual(body(clock), clock) == 2.0


def test_harness_returns_result_and_end_time():
    async def body():
        return "done"

    result, end = run_deterministic(body())
    assert result == "done"
    assert end == 0.0


def test_exception_propagates_and_loop_tears_down():
    async def body(clock):
        await clock.sleep(1.0)
        raise ValueError("boom")

    clock = VirtualClock()
    with pytest.raises(ValueError, match="boom"):
        run_virtual(body(clock), clock)


def test_callbacks_and_sleepers_share_one_deadline_seq_order():
    order = []
    clock = VirtualClock()

    async def sleeper(name, delay):
        await clock.sleep(delay)
        order.append(name)

    async def body():
        clock.call_later(2.0, order.append, "call-2a")
        task = asyncio.ensure_future(sleeper("sleep-2", 2.0))
        await asyncio.sleep(0)  # the sleeper parks behind call-2a
        clock.call_later(2.0, order.append, "call-2b")
        clock.call_later(1.0, order.append, "call-1")
        await task

    run_virtual(body(), clock)  # returns once the sleeper has woken
    assert order == ["call-1", "call-2a", "sleep-2"]
    assert clock.advance() and not clock.advance()
    assert order == ["call-1", "call-2a", "sleep-2", "call-2b"]
    assert clock.now() == 2.0


def test_advance_fires_one_callback_at_its_deadline():
    seen = []
    clock = clock_at(1.0)
    clock.call_later(0.5, lambda arg: seen.append((arg, clock.now())), "x")
    clock.call_later(0.0, seen.append, "now")
    assert clock.advance() and seen == ["now"] and clock.now() == 1.0
    assert clock.advance() and seen == ["now", ("x", 1.5)]
    assert not clock.advance()


def test_cancelled_sleeper_is_skipped_between_callbacks():
    seen = []

    async def body(clock):
        task = asyncio.ensure_future(clock.sleep(1.0))
        await asyncio.sleep(0)
        task.cancel()
        clock.call_later(1.0, seen.append, "call-1")
        clock.call_later(3.0, seen.append, "late")
        await clock.sleep(2.0)
        return clock.now()

    clock = VirtualClock()
    assert run_virtual(body(clock), clock) == 2.0
    assert seen == ["call-1"]  # fired; the cancelled 1.0 sleeper and "late" did not


def test_call_later_refuses_a_negative_delay():
    clock = VirtualClock()
    with pytest.raises(ServingError, match="negative"):
        clock.call_later(-0.5, print)
    assert not clock.advance()
