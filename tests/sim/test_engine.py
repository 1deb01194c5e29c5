"""Unit tests for the discrete-event simulation engine."""

import random

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_run_in_time_order(self, sim):
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_in_insertion_order(self, sim):
        fired = []
        for label in ("first", "second", "third"):
            sim.schedule(5.0, fired.append, label)
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_last_event(self, sim):
        sim.schedule(4.5, lambda: None)
        sim.run()
        assert sim.now == 4.5

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(2.5, fired.append, "x")
        sim.run()
        assert fired == ["x"] and sim.now == 2.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_callback_args_are_passed(self, sim):
        result = {}
        sim.schedule(1.0, result.setdefault, "key", 42)
        sim.run()
        assert result == {"key": 42}

    def test_events_scheduled_during_run_execute(self, sim):
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, fired.append, "inner")

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancelling_one_of_many(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "keep")
        cancelled = sim.schedule(2.0, fired.append, "drop")
        sim.schedule(3.0, fired.append, "keep2")
        cancelled.cancel()
        sim.run()
        assert fired == ["keep", "keep2"]

    def test_step_skips_cancelled_events(self, sim):
        fired = []
        cancelled = sim.schedule(1.0, fired.append, "drop")
        sim.schedule(2.0, fired.append, "keep")
        cancelled.cancel()
        assert sim.step() is True
        assert fired == ["keep"]
        assert sim.now == 2.0
        assert sim.step() is False

    def test_run_until_skips_cancelled_events(self, sim):
        fired = []
        cancelled = sim.schedule(1.0, fired.append, "drop")
        sim.schedule(2.0, fired.append, "keep")
        sim.schedule(10.0, fired.append, "late")
        cancelled.cancel()
        sim.run(until=5.0)
        assert fired == ["keep"]
        assert sim.now == 5.0

    def test_cancelled_head_beyond_until_does_not_fire_later(self, sim):
        fired = []
        late = sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        late.cancel()
        sim.run()
        assert fired == []

    def test_cancelled_flag_visible_on_handle(self, sim):
        event = sim.schedule(1.0, lambda: None)
        assert event.cancelled is False
        event.cancel()
        assert event.cancelled is True

    def test_cancel_is_idempotent(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_after_fire_is_harmless(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        sim.run()
        event.cancel()
        sim.schedule(2.0, fired.append, "y")
        sim.run()
        assert fired == ["x", "y"]


class TestRunWithoutClockAdvance:
    def test_drained_queue_leaves_clock_at_last_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "x")
        sim.run(until=10.0, advance_to_until=False)
        assert fired == ["x"]
        assert sim.now == 1.0

    def test_early_stop_leaves_clock_at_last_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "x")
        sim.schedule(5.0, fired.append, "y")
        sim.run(until=3.0, advance_to_until=False)
        assert fired == ["x"]
        assert sim.now == 1.0

    def test_default_still_advances_to_until(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0


class TestEventHandleHash:
    def test_event_handles_are_hashable(self, sim):
        """Regression: __eq__ under __slots__ used to suppress __hash__,
        so hash(Event(...)) raised TypeError."""
        event = sim.schedule(1.0, lambda: None)
        assert isinstance(hash(event), int)

    def test_hash_consistent_with_equality(self, sim):
        from repro.sim.engine import Event

        a = Event(1.0, 0, lambda: None)
        b = Event(1.0, 0, lambda: None)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_distinct_events_usable_as_dict_keys(self, sim):
        first = sim.schedule(1.0, lambda: None)
        second = sim.schedule(2.0, lambda: None)
        table = {first: "a", second: "b"}
        assert table[first] == "a" and table[second] == "b"


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 5.0
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_advances_clock_with_empty_queue(self, sim):
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_raises_on_runaway(self, sim):
        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(1.0, rearm)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=50)

    def test_step_executes_single_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step() is True
        assert fired == ["a"]
        assert sim.step() is True
        assert sim.step() is False

    def test_processed_events_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.processed_events == 5

    def test_reset_clears_state(self, sim):
        sim.schedule(3.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events == 0
        assert sim.processed_events == 0

    def test_reset_clears_cancellation_bookkeeping(self, sim):
        event = sim.schedule(3.0, lambda: None)
        event.cancel()
        sim.reset()
        assert sim._cancelled == set()
        # Sequence numbers restart after reset; a stale cancellation must
        # not suppress a fresh event that reuses the same seq.
        fired = []
        sim.schedule(1.0, fired.append, "fresh")
        sim.run()
        assert fired == ["fresh"]

    def test_reentrant_run_rejected(self, sim):
        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError, match="re-entrant"):
            sim.run()


class TestMaxEventsBudget:
    """``max_events=N`` lets exactly N events run, in both run loops.

    Regression: the ``until``-bounded loop used to raise right after the
    N-th event, even when the queue then drained or ``until`` was reached;
    it now checks the budget before dispatching, as the drain loop does.
    """

    @pytest.mark.parametrize("until", [None, 100.0])
    def test_exactly_n_events_pass(self, sim, until):
        fired = []
        for i in range(5):
            sim.schedule(float(i), fired.append, i)
        sim.run(until=until, max_events=5)
        assert fired == [0, 1, 2, 3, 4]
        assert sim.processed_events == 5

    @pytest.mark.parametrize("until", [None, 100.0])
    def test_n_plus_one_events_raise(self, sim, until):
        fired = []
        for i in range(6):
            sim.schedule(float(i), fired.append, i)
        with pytest.raises(SimulationError, match="max_events=5 exceeded"):
            sim.run(until=until, max_events=5)
        assert fired == [0, 1, 2, 3, 4]

    def test_events_past_until_do_not_count(self, sim):
        for i in range(8):
            sim.schedule(float(i), lambda: None)
        sim.run(until=4.5, max_events=5)
        assert sim.processed_events == 5 and sim.now == 4.5

    @pytest.mark.parametrize("until", [None, 1e9])
    def test_post_in_livelock_trips_max_events(self, sim, until):
        def rearm():
            sim.post_in(1.0, rearm)

        sim.post_in(0.0, rearm)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(until=until, max_events=50)
        assert sim.processed_events == 50


class TestResetGenerations:
    """Handles are generation-scoped: reset() makes old handles inert."""

    def test_stale_handle_cannot_cancel_new_event(self, sim):
        fired = []
        stale = sim.schedule(1.0, fired.append, "old")
        sim.reset()
        # The new event reuses seq 0 — the stale handle must not kill it.
        sim.schedule(1.0, fired.append, "new")
        stale.cancel()  # inert: silently dropped, not applied to seq 0
        assert not stale.cancelled
        sim.run()
        assert fired == ["new"]

    def test_live_handle_still_cancels(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        handle.cancel()
        sim.run()
        assert fired == ["b"]


# --------------------------------------------------------------------- #
# dispatch order against an independently sorted oracle
# --------------------------------------------------------------------- #
def _run_script(script):
    """Apply a schedule/nest/cancel script to a fresh simulator and run it.

    ``("at", time, tag)`` schedules ``tag``; ``("nest", time, tag, delay)``
    schedules ``tag``, whose callback posts ``tag+nest`` ``delay`` later;
    ``("cancel", index)`` cancels the event scheduled by op ``index``.
    Returns the ``(time, tag)`` firing trace and the processed count.
    """
    sim = Simulator()
    trace = []
    handles = {}

    def fire(tag):
        trace.append((sim.now, tag))

    def fire_and_nest(tag, delay, sub_tag):
        trace.append((sim.now, tag))
        sim.post_in(delay, fire, sub_tag)

    for index, op in enumerate(script):
        if op[0] == "at":
            handles[index] = sim.schedule_at(op[1], fire, op[2])
        elif op[0] == "nest":
            _, time, tag, delay = op
            handles[index] = sim.schedule_at(time, fire_and_nest, tag, delay, f"{tag}+nest")
        elif op[1] in handles:
            handles[op[1]].cancel()
    sim.run()
    return trace, sim.processed_events


def _oracle(script):
    """The same script's firing trace, computed by sorting alone.

    Every scripted event takes the next seq in script order; nested
    children are posted while the run is under way, so their seqs follow
    every scripted one, in the order their parents fire.  Children never
    nest further, so parents fire in plain ``(time, seq)`` order and one
    final sort over parents and children gives the whole trace.
    """
    cancelled = {op[1] for op in script if op[0] == "cancel"}
    events = []  # (time, seq, tag, nest delay or None)
    seq = 0
    for index, op in enumerate(script):
        if op[0] == "cancel":
            continue
        if index not in cancelled:
            events.append((float(op[1]), seq, op[2], op[3] if op[0] == "nest" else None))
        seq += 1
    events.sort()
    children = []
    for time, _, tag, delay in events:
        if delay is not None:
            children.append((time + delay, seq, f"{tag}+nest", None))
            seq += 1
    trace = [(time, tag) for time, _, tag, _ in sorted(events + children)]
    return trace, len(trace)


def _random_script(rng, size):
    """A random mix of schedules, nested schedules and cancellations."""
    script = []
    for i in range(size):
        roll = rng.random()
        time = round(rng.uniform(0.0, 50.0), 3)
        if roll < 0.55:
            script.append(("at", time, f"t{i}"))
        elif roll < 0.8:
            script.append(("nest", time, f"n{i}", round(rng.uniform(0.0, 5.0), 3)))
        elif script:
            script.append(("cancel", rng.randrange(len(script))))
    return script


class TestOracleOrder:
    @pytest.mark.parametrize("seed", range(20))
    def test_randomized_scripts_fire_in_oracle_order(self, seed):
        script = _random_script(random.Random(seed), 120)
        assert _run_script(script) == _oracle(script)

    def test_single_instant_burst(self):
        """10k events at the same instant: pure seq tie-breaking."""
        script = [("at", 1.0, f"t{i}") for i in range(10_000)]
        trace, processed = _run_script(script)
        assert (trace, processed) == _oracle(script)
        assert [tag for _, tag in trace] == [f"t{i}" for i in range(10_000)]

    def test_huge_time_spread(self):
        """Timestamps spanning 12 orders of magnitude."""
        script = [("at", float(10 ** (i % 12)), f"t{i}") for i in range(3_000)]
        assert _run_script(script) == _oracle(script)

    def test_dense_same_time_nesting(self):
        """Zero-delay children landing at the instant being dispatched."""
        script = [("nest", float(i % 7), f"n{i}", 0.0) for i in range(2_000)]
        assert _run_script(script) == _oracle(script)

    def test_bounded_run_then_step_keeps_order(self, sim):
        fired = []
        for i in range(100):
            sim.schedule_at(float(i % 13), fired.append, i)
        sim.run(until=5.0)
        mid = list(fired)
        while sim.step():
            pass
        expected = sorted(range(100), key=lambda i: (i % 13, i))
        assert mid == [i for i in expected if i % 13 <= 5]
        assert fired == expected
