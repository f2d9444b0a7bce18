"""Tests for parallel_map's serial contract: input order, first error wins."""

import threading

import pytest

from repro.util.parallel import parallel_map


class TestBasics:
    def test_results_in_input_order(self):
        assert parallel_map(lambda x: x * 2, range(10)) == [x * 2 for x in range(10)]

    def test_empty_input(self):
        assert parallel_map(lambda x: x, []) == []

    def test_single_item_runs_inline(self):
        thread_names = []
        parallel_map(lambda x: thread_names.append(threading.current_thread().name), [1])
        assert thread_names == [threading.current_thread().name]


class TestErrors:
    def test_first_error_propagates(self):
        def boom(x):
            if x == 3:
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match="item 3"):
            parallel_map(boom, range(6))

    def test_first_failing_item_wins_over_later_failures(self):
        def boom(x):
            raise ValueError(f"item {x}")

        with pytest.raises(ValueError, match="item 0"):
            parallel_map(boom, range(4))

    def test_items_after_failure_are_not_run(self):
        executed = []

        def task(x):
            executed.append(x)
            if x == 2:
                raise ValueError("third fails")
            return x

        with pytest.raises(ValueError, match="third fails"):
            parallel_map(task, range(20))
        assert executed == [0, 1, 2]
