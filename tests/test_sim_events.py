"""Tests for the discrete-event core and work queues."""

from repro.sim.events import EventQueue, WorkQueue


class TestEventQueue:
    def test_runs_in_time_order(self):
        events = EventQueue()
        order = []
        events.at(30, lambda: order.append("c"))
        events.at(10, lambda: order.append("a"))
        events.at(20, lambda: order.append("b"))
        events.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_schedule_order(self):
        events = EventQueue()
        order = []
        events.at(10, lambda: order.append(1))
        events.at(10, lambda: order.append(2))
        events.run()
        assert order == [1, 2]

    def test_now_advances(self):
        events = EventQueue()
        seen = []
        events.at(15, lambda: seen.append(events.now))
        events.at(40, lambda: seen.append(events.now))
        final = events.run()
        assert seen == [15, 40]
        assert final == 40

    def test_past_events_clamp_to_now(self):
        events = EventQueue()
        seen = []

        def schedule_in_past():
            events.at(5, lambda: seen.append(events.now))

        events.at(100, schedule_in_past)
        events.run()
        assert seen == [100]

    def test_callbacks_can_schedule_more(self):
        events = EventQueue()
        seen = []

        def chain(depth):
            seen.append(events.now)
            if depth:
                events.at(events.now + 10, lambda: chain(depth - 1))

        events.at(0, lambda: chain(3))
        assert events.run() == 30
        assert seen == [0, 10, 20, 30]

    def test_empty_run(self):
        assert EventQueue().run() == 0


class TestWorkQueue:
    def test_jobs_run_serially(self):
        events = EventQueue()
        queue = WorkQueue(events)
        spans = []

        def job(start, duration):
            spans.append((start, start + duration))
            return start + duration

        queue.enqueue(0, lambda s: job(s, 100))
        queue.enqueue(0, lambda s: job(s, 50))
        events.run()
        assert spans == [(0, 100), (100, 150)]

    def test_future_arrival_waits(self):
        events = EventQueue()
        queue = WorkQueue(events)
        starts = []
        queue.enqueue(500, lambda s: (starts.append(s), s + 10)[1])
        events.run()
        assert starts == [500]

    def test_idle_gap_absorbed_by_later_job(self):
        """A job arriving during another's wait must still run in order —
        FIFO discipline mirrors the SDIMM message queue."""
        events = EventQueue()
        queue = WorkQueue(events)
        starts = []
        queue.enqueue(500, lambda s: (starts.append(("a", s)), s + 10)[1])
        queue.enqueue(100, lambda s: (starts.append(("b", s)), s + 10)[1])
        events.run()
        assert starts[0][0] == "a"

    def test_done_callback_gets_finish_time(self):
        events = EventQueue()
        queue = WorkQueue(events)
        finishes = []
        queue.enqueue(0, lambda s: s + 77, finishes.append)
        events.run()
        assert finishes == [77]

    def test_completion_chains_new_work(self):
        """Typical backend pattern: op completion enqueues the next op."""
        events = EventQueue()
        queue = WorkQueue(events)
        finishes = []

        def chain(finish):
            finishes.append(finish)
            if len(finishes) < 3:
                queue.enqueue(finish, lambda s: s + 100, chain)

        queue.enqueue(0, lambda s: s + 100, chain)
        events.run()
        assert finishes == [100, 200, 300]

    def test_two_queues_overlap(self):
        """Independent resources genuinely run in parallel."""
        events = EventQueue()
        first = WorkQueue(events, "a")
        second = WorkQueue(events, "b")
        spans = []
        for queue in (first, second):
            queue.enqueue(0, lambda s, q=queue: (spans.append((q.name, s)),
                                                 s + 100)[1])
        events.run()
        assert [start for _, start in spans] == [0, 0]

    def test_jobs_started_counter(self):
        events = EventQueue()
        queue = WorkQueue(events)
        for _ in range(5):
            queue.enqueue(0, lambda s: s + 1)
        events.run()
        assert queue.jobs_started == 5
