"""Tests for repro.queues: bounded FIFOs with backpressure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError, QueueFullError
from repro.queues import BoundedQueue


class TestBoundedQueue:
    def test_fifo_order(self):
        queue = BoundedQueue(capacity=4)
        for value in (1, 2, 3):
            queue.enqueue(value)
        assert [queue.dequeue() for _ in range(3)] == [1, 2, 3]

    def test_capacity_enforced(self):
        queue = BoundedQueue(capacity=2)
        assert queue.try_enqueue("a")
        assert queue.try_enqueue("b")
        assert not queue.try_enqueue("c")
        assert queue.stats.rejected == 1
        with pytest.raises(QueueFullError):
            queue.enqueue("c")

    def test_unbounded_queue(self):
        queue = BoundedQueue(capacity=None)
        for value in range(10_000):
            queue.enqueue(value)
        assert not queue.is_full
        assert len(queue) == 10_000

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            BoundedQueue(capacity=0)

    def test_dequeue_empty_raises(self):
        with pytest.raises(IndexError):
            BoundedQueue(capacity=1).dequeue()

    def test_max_occupancy_tracking(self):
        queue = BoundedQueue(capacity=8)
        for value in range(5):
            queue.enqueue(value)
        for _ in range(3):
            queue.dequeue()
        assert queue.stats.max_occupancy == 5

    def test_clear_counts_as_dequeues(self):
        queue = BoundedQueue(capacity=4)
        queue.enqueue(1)
        queue.enqueue(2)
        queue.clear()
        assert queue.stats.dequeued == 2
        assert queue.is_empty

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 1000)),
            max_size=300,
        ),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_conservation_and_order(self, operations, capacity):
        """Property: no entry is lost or reordered, and occupancy never
        exceeds capacity (the backpressure invariant)."""
        queue = BoundedQueue(capacity=capacity)
        accepted = []
        drained = []
        for is_enqueue, value in operations:
            if is_enqueue:
                if queue.try_enqueue(value):
                    accepted.append(value)
            elif not queue.is_empty:
                drained.append(queue.dequeue())
            assert len(queue) <= capacity
        drained.extend(queue.dequeue() for _ in range(len(queue)))
        assert drained == accepted
        assert queue.stats.enqueued == queue.stats.dequeued
