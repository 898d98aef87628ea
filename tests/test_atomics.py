"""Edge cases of the batch-atomic helpers (repro.runtime.atomics).

The helpers encode the frontier-synchronous equivalent of hardware
atomics; the properties under test are exactly the ones algorithm
correctness leans on: empty batches are no-ops, duplicate targets
accumulate, and each threshold crossing is observed **exactly once** no
matter how many concurrent decrements produced it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.atomics import (
    batch_decrement,
    batch_increment_clamped,
    contention_of,
    segment_contention,
)
from repro.runtime.simulator import SimRuntime


class TestBatchDecrementEmpty:
    def test_empty_targets_is_a_noop(self):
        values = np.array([4, 3, 2], dtype=np.int64)
        out = batch_decrement(values, np.array([], dtype=np.int64), k=2)
        assert out.counts.size == 0
        assert out.crossed.size == 0
        assert out.touched.size == 0
        assert out.old.size == 0
        assert out.new.size == 0
        np.testing.assert_array_equal(values, [4, 3, 2])

    def test_empty_targets_on_empty_values(self):
        values = np.zeros(0, dtype=np.int64)
        out = batch_decrement(values, np.zeros(0, dtype=np.int64), k=0)
        assert out.crossed.size == 0


class TestBatchDecrementDuplicates:
    def test_repeated_target_crosses_threshold_once(self):
        # Three decrements in one batch take vertex 0 from 5 to 2,
        # crossing k=3 inside the batch: reported exactly once.
        values = np.array([5], dtype=np.int64)
        targets = np.array([0, 0, 0], dtype=np.int64)
        out = batch_decrement(values, targets, k=3)
        np.testing.assert_array_equal(out.counts, [3])
        np.testing.assert_array_equal(out.crossed, [0])
        np.testing.assert_array_equal(values, [2])

    def test_exactly_one_crossing_per_vertex(self):
        # Many duplicate decrements across several vertices: `crossed`
        # contains each crossing vertex exactly once (atomicity: one
        # thread observes the crossing), and only genuine crossings.
        values = np.array([10, 4, 4, 3, 1], dtype=np.int64)
        targets = np.array(
            [0, 0, 1, 1, 1, 2, 3, 3, 4, 4, 4], dtype=np.int64
        )
        out = batch_decrement(values, targets, k=3)
        # v0: 10 -> 8 stays above; v1: 4 -> 1 crosses; v2: 4 -> 3
        # crosses; v3: 3 -> 1 was already at/below k (old > k fails);
        # v4: 1 -> -2 likewise.
        np.testing.assert_array_equal(out.crossed, [1, 2])
        assert np.unique(out.crossed).size == out.crossed.size

    def test_already_below_threshold_never_recrosses(self):
        values = np.array([2, 2], dtype=np.int64)
        targets = np.array([0, 1, 1], dtype=np.int64)
        out = batch_decrement(values, targets, k=3)
        assert out.crossed.size == 0

    def test_touched_old_new_alignment(self):
        values = np.array([7, 9, 5], dtype=np.int64)
        targets = np.array([2, 0, 2, 0, 0], dtype=np.int64)
        out = batch_decrement(values, targets, k=0)
        np.testing.assert_array_equal(out.touched, [0, 2])
        np.testing.assert_array_equal(out.old, [7, 5])
        np.testing.assert_array_equal(out.counts, [3, 2])
        np.testing.assert_array_equal(out.new, [4, 3])
        np.testing.assert_array_equal(values, [4, 9, 3])


class TestBatchDecrementFloor:
    def test_floor_clamps_stored_values(self):
        values = np.array([2, 6], dtype=np.int64)
        targets = np.array([0, 0, 0, 1], dtype=np.int64)
        out = batch_decrement(values, targets, k=1, floor=0)
        np.testing.assert_array_equal(values, [0, 5])
        np.testing.assert_array_equal(out.new, [0, 5])
        # Crossing detection still fires for the clamped vertex.
        np.testing.assert_array_equal(out.crossed, [0])

    def test_without_floor_values_go_negative(self):
        values = np.array([1], dtype=np.int64)
        batch_decrement(values, np.array([0, 0, 0]), k=0)
        assert values[0] == -2


class TestBatchIncrementClamped:
    def test_empty_targets_is_a_noop(self):
        counters = np.array([1, 2], dtype=np.int64)
        counts, reached = batch_increment_clamped(
            counters, np.array([], dtype=np.int64), limit=3
        )
        assert counts.size == 0
        assert reached.size == 0
        np.testing.assert_array_equal(counters, [1, 2])

    def test_duplicates_cross_limit_exactly_once(self):
        # Four increments in one batch take the counter from 1 past the
        # limit 3: the "collected enough samples" event fires once.
        counters = np.array([1], dtype=np.int64)
        targets = np.array([0, 0, 0, 0], dtype=np.int64)
        counts, reached = batch_increment_clamped(counters, targets, limit=3)
        np.testing.assert_array_equal(counts, [4])
        np.testing.assert_array_equal(reached, [0])
        assert counters[0] == 5

    def test_counter_already_at_limit_never_refires(self):
        counters = np.array([3, 0], dtype=np.int64)
        targets = np.array([0, 0, 1], dtype=np.int64)
        counts, reached = batch_increment_clamped(counters, targets, limit=3)
        np.testing.assert_array_equal(counts, [2, 1])
        # Vertex 0 was at the limit before the batch: no new event.
        assert reached.size == 0

    def test_exactly_one_event_across_many_counters(self):
        counters = np.array([2, 2, 5], dtype=np.int64)
        targets = np.array([0, 0, 1, 2, 2, 2], dtype=np.int64)
        counts, reached = batch_increment_clamped(counters, targets, limit=3)
        np.testing.assert_array_equal(reached, [0, 1])
        assert np.unique(reached).size == reached.size


class TestContentionOf:
    def test_counts_match_duplicate_multiplicity(self):
        counts = contention_of(np.array([5, 5, 5, 2, 2, 9]))
        np.testing.assert_array_equal(sorted(counts), [1, 2, 3])

    def test_empty(self):
        assert contention_of(np.array([], dtype=np.int64)).size == 0


class TestSegmentContention:
    def test_empty_segment_gives_zero(self):
        counts = np.array([3, 1, 4], dtype=np.int64)
        lengths = np.array([2, 0, 1, 0], dtype=np.int64)
        atomics, peak = segment_contention(counts, lengths)
        assert atomics.tolist() == [4, 0, 4, 0]
        assert peak.tolist() == [3, 0, 4, 0]
        # reduceat alone reports the next segment's first count there.
        starts = np.cumsum(lengths) - lengths
        assert np.add.reduceat(counts, starts[:3])[1] == 4

    def test_no_segments(self):
        atomics, peak = segment_contention(
            np.zeros(0, np.int64), np.zeros(0, np.int64)
        )
        assert atomics.size == 0 and peak.size == 0

    def test_lengths_must_cover_counts(self):
        with pytest.raises(ValueError, match="segments"):
            segment_contention(np.ones(3, np.int64), np.array([1, 1]))

    @settings(max_examples=80, deadline=None)
    @given(
        segments=st.lists(
            st.lists(st.integers(1, 9), max_size=6), max_size=8
        )
    )
    def test_equals_what_parallel_update_takes(self, segments):
        counts = np.array(
            [c for segment in segments for c in segment], dtype=np.int64
        )
        lengths = np.array([len(s) for s in segments], dtype=np.int64)
        atomics, peak = segment_contention(counts, lengths)
        for index, segment in enumerate(segments):
            runtime = SimRuntime()
            runtime.parallel_update(
                np.zeros(1), np.array(segment, dtype=np.int64),
                tag="segment",
            )
            assert atomics[index] == runtime.metrics.atomics
            assert peak[index] == runtime.metrics.max_contention
