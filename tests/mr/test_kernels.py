"""Scatter-min kernel vs the sort-based oracle.

:func:`repro.mr.kernels.scatter_min_rows` must reproduce the tie-break
of :func:`repro.mr.batch.group_min_first` — smallest leading columns,
then earliest arrival — *bit for bit*, on every candidate-set shape the
growing step can produce: equal distances, equal ``(distance, center)``
pairs, duplicate targets, empty batches.  The engine's stable-argsort
shuffle must group every key array exactly, and the engine must produce
identical round output and accounting whichever executor reduces.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mr.batch import group_min_first
from repro.mr.engine import MREngine, _group_batch
from repro.mr.executor import SerialExecutor, VectorExecutor
from repro.mr.kernels import ScatterScratch, scatter_min_rows
from repro.mr.model import MRSpec


def scatter_group_min_first(keys, offsets, values, sort_cols=None):
    """:func:`group_min_first`'s contract, computed by the scatter kernel.

    Each group's index is its scatter id (keys may be far too large for a
    dense domain); rows are in shuffle order, so arrival order within a
    group is input order, as the oracle assumes.
    """
    num_groups = len(keys)
    if num_groups == 0:
        return keys, values, np.zeros(0, dtype=np.int64)
    d = values.shape[1] if sort_cols is None else int(sort_cols)
    ids = np.repeat(np.arange(num_groups, dtype=np.int64), np.diff(offsets))
    cols = tuple(np.ascontiguousarray(values[:, c]) for c in range(d))
    _, rows = scatter_min_rows(ids, cols, domain=num_groups)
    return keys, values[rows], np.ones(num_groups, dtype=np.int64)


def grouped(keys, values):
    """Stable-shuffle a raw batch into the grouped reducer layout."""
    keys = np.asarray(keys, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    return _group_batch(keys, values)


def assert_same_batch(a, b):
    ak, av, ac = a
    bk, bv, bc = b
    np.testing.assert_array_equal(ak, bk)
    np.testing.assert_array_equal(av, bv)
    np.testing.assert_array_equal(ac, bc)


def random_batch(rng, size, num_keys, distinct_values):
    """A candidate-like batch with heavy, adversarial tie collisions."""
    keys = rng.integers(0, num_keys, size=size).astype(np.int64)
    values = np.column_stack(
        (
            rng.integers(0, distinct_values, size=size).astype(np.float64),
            rng.integers(0, distinct_values, size=size).astype(np.float64),
            rng.integers(0, distinct_values, size=size).astype(np.float64),
        )
    )
    return keys, values


class TestScatterGroupMinFirst:
    """The scatter kernel on grouped batches against the lexsort oracle."""

    @pytest.mark.parametrize("sort_cols", [None, 1, 2, 3])
    def test_random_collision_heavy_batches(self, sort_cols):
        rng = np.random.default_rng(1234)
        for size, num_keys, span in [
            (1, 1, 1),
            (50, 3, 1),
            (200, 7, 2),
            (500, 40, 3),
            (2000, 100, 5),
        ]:
            keys, values = random_batch(rng, size, num_keys, span)
            gk, off, gv = grouped(keys, values)
            assert_same_batch(
                scatter_group_min_first(gk, off, gv, sort_cols=sort_cols),
                group_min_first(gk, off, gv, sort_cols=sort_cols),
            )

    def test_all_rows_fully_tied(self):
        # Every candidate identical: the earliest arrival must win in
        # every group, i.e. the first row of each group slice.
        keys = np.array([5, 2, 5, 2, 5, 5], dtype=np.int64)
        values = np.ones((6, 3))
        gk, off, gv = grouped(keys, values)
        assert_same_batch(
            scatter_group_min_first(gk, off, gv, sort_cols=2),
            group_min_first(gk, off, gv, sort_cols=2),
        )

    def test_equal_distance_distinct_centers(self):
        # Ties on the distance column break towards the smaller center.
        keys = np.zeros(4, dtype=np.int64)
        values = np.array(
            [[1.0, 9.0, 0.1], [1.0, 3.0, 0.2], [1.0, 7.0, 0.3], [2.0, 1.0, 0.4]]
        )
        gk, off, gv = grouped(keys, values)
        out = scatter_group_min_first(gk, off, gv, sort_cols=2)
        assert out[1][0, 1] == 3.0  # smallest center among min-distance rows
        assert_same_batch(out, group_min_first(gk, off, gv, sort_cols=2))

    def test_equal_distance_and_center_takes_first_arrival(self):
        # sort_cols=2: the dacc column must NOT break the tie.
        keys = np.zeros(3, dtype=np.int64)
        values = np.array([[1.0, 2.0, 0.9], [1.0, 2.0, 0.1], [1.0, 2.0, 0.5]])
        gk, off, gv = grouped(keys, values)
        out = scatter_group_min_first(gk, off, gv, sort_cols=2)
        assert out[1][0, 2] == 0.9  # first arrival's payload survives
        assert_same_batch(out, group_min_first(gk, off, gv, sort_cols=2))

    def test_empty_batch(self):
        gk = np.empty(0, dtype=np.int64)
        off = np.zeros(1, dtype=np.int64)
        gv = np.empty((0, 3))
        assert_same_batch(
            scatter_group_min_first(gk, off, gv, sort_cols=2),
            group_min_first(gk, off, gv, sort_cols=2),
        )

    @given(
        seed=st.integers(0, 10_000),
        size=st.integers(1, 300),
        num_keys=st.integers(1, 20),
        span=st.integers(1, 4),
        sort_cols=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_oracle(self, seed, size, num_keys, span, sort_cols):
        rng = np.random.default_rng(seed)
        keys, values = random_batch(rng, size, num_keys, span)
        gk, off, gv = grouped(keys, values)
        assert_same_batch(
            scatter_group_min_first(gk, off, gv, sort_cols=sort_cols),
            group_min_first(gk, off, gv, sort_cols=sort_cols),
        )


class TestScatterMinRows:
    """The ungrouped (dense scatter) kernel against the grouped oracle."""

    def oracle(self, ids, cols):
        """Winner rows via the sort path: lexsort + stable first-per-group."""
        order = np.lexsort(tuple(reversed([np.asarray(c) for c in cols])) + (ids,))
        sorted_ids = ids[order]
        firsts = np.concatenate(
            ([0], np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1)
        )
        return sorted_ids[firsts], order[firsts]

    @given(
        seed=st.integers(0, 10_000),
        size=st.integers(0, 300),
        domain=st.integers(1, 25),
        span=st.integers(1, 4),
        ncols=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_oracle(self, seed, size, domain, span, ncols):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, domain, size=size).astype(np.int64)
        cols = tuple(
            rng.integers(0, span, size=size).astype(np.float64)
            for _ in range(ncols)
        )
        got_ids, got_rows = scatter_min_rows(ids, cols, domain=domain)
        if size == 0:
            assert len(got_ids) == len(got_rows) == 0
            return
        exp_ids, exp_rows = self.oracle(ids, cols)
        np.testing.assert_array_equal(got_ids, exp_ids)
        np.testing.assert_array_equal(got_rows, exp_rows)

    def test_scratch_reuse_across_calls_and_domains(self):
        # A shared scratch must not leak state between calls (buffers are
        # reset only on touched ids — a stale minimum would be a bug).
        scratch = ScatterScratch()
        rng = np.random.default_rng(7)
        for domain in (10, 4, 50, 50, 8):
            ids = rng.integers(0, domain, size=120).astype(np.int64)
            cols = (
                rng.integers(0, 3, size=120).astype(np.float64),
                rng.integers(0, 3, size=120).astype(np.float64),
            )
            got = scatter_min_rows(ids, cols, domain=domain, scratch=scratch)
            exp = self.oracle(ids, cols)
            np.testing.assert_array_equal(got[0], exp[0])
            np.testing.assert_array_equal(got[1], exp[1])

    def test_duplicate_targets_single_winner_each(self):
        ids = np.array([3, 3, 3, 3], dtype=np.int64)
        cols = (np.array([2.0, 1.0, 1.0, 1.0]), np.array([0.0, 5.0, 4.0, 4.0]))
        got_ids, got_rows = scatter_min_rows(ids, cols, domain=4)
        np.testing.assert_array_equal(got_ids, [3])
        np.testing.assert_array_equal(got_rows, [2])  # (1.0, 4.0) first arrival


class TestCountingShuffle:
    """The engine's stable-argsort shuffle vs a per-key reference grouping."""

    def reference(self, keys, values):
        """Distinct keys ascending, prefix offsets, rows stable per key."""
        uniq, counts = np.unique(keys, return_counts=True)
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        rows = [values[keys == k] for k in uniq]
        stacked = np.concatenate(rows) if rows else values[:0]
        return uniq, offsets, stacked

    def assert_groups_like_reference(self, keys, values):
        gk, off, gv = _group_batch(keys, values)
        ref_k, ref_off, ref_v = self.reference(keys, values)
        np.testing.assert_array_equal(gk, ref_k)
        np.testing.assert_array_equal(off, ref_off)
        np.testing.assert_array_equal(gv, ref_v)

    @pytest.mark.parametrize(
        "keys",
        [
            np.array([], dtype=np.int64),
            np.zeros(40, dtype=np.int64),  # one hot key
            np.arange(40, dtype=np.int64)[::-1].copy(),  # strictly descending
            np.array([7] * 10 + [0] * 10 + [7] * 10, dtype=np.int64),
            np.array([0, 2, 4, 6, 8], dtype=np.int64),  # gaps in the domain
        ],
    )
    def test_adversarial_key_arrays(self, keys):
        values = np.arange(len(keys), dtype=np.float64).reshape(-1, 1)
        if not len(keys):
            # The engine never shuffles an empty batch; the round still
            # counts, with no output and no messages.
            eng = MREngine(MRSpec(10**9, 10**6, num_workers=2))
            out_k, out_v = eng.round_batch(keys, values, group_min_first)
            assert len(out_k) == 0 and out_v.shape == (0, 1)
            assert eng.counters.rounds == 1 and eng.counters.messages == 0
            return
        self.assert_groups_like_reference(keys, values)

    @given(
        seed=st.integers(0, 10_000),
        size=st.integers(1, 500),
        domain=st.integers(1, 60),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_argsort_grouping(self, seed, size, domain):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, domain, size=size).astype(np.int64)
        values = rng.random((size, 2))
        self.assert_groups_like_reference(keys, values)


class TestEngineScatterPath:
    """round_batch: identical output/accounting on every reduce path."""

    def engine(self, executor, workers=3):
        return MREngine(
            MRSpec(10**9, 10**6, num_workers=workers), executor=executor
        )

    def payload(self, seed=11, size=400, domain=37):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, domain, size=size).astype(np.int64)
        values = np.column_stack(
            (
                rng.integers(0, 4, size=size).astype(np.float64),
                rng.integers(0, 4, size=size).astype(np.float64),
                rng.random(size),
            )
        )
        return keys, values

    def test_scatter_reducer_matches_sort_reducer(self):
        keys, values = self.payload()
        ref = self.engine(VectorExecutor())
        ref_out = ref.round_batch(
            keys, values, partial(group_min_first, sort_cols=2)
        )
        eng = self.engine(VectorExecutor())
        out = eng.round_batch(
            keys, values, partial(scatter_group_min_first, sort_cols=2)
        )
        np.testing.assert_array_equal(out[0], ref_out[0])
        np.testing.assert_array_equal(out[1], ref_out[1])
        assert eng.counters.rounds == ref.counters.rounds
        assert eng.counters.messages == ref.counters.messages
        assert eng.simulated_time == ref.simulated_time

    def test_serial_engine_takes_in_process_scatter_path(self):
        # No run_batch on SerialExecutor: the engine reduces in-process,
        # and must match the vector executor's output and accounting.
        keys, values = self.payload(seed=3)
        ref = self.engine(VectorExecutor())
        ref_out = ref.round_batch(keys, values, partial(group_min_first, sort_cols=2))
        eng = self.engine(SerialExecutor())
        assert not eng.supports_batch
        out = eng.round_batch(
            keys, values, partial(scatter_group_min_first, sort_cols=2)
        )
        np.testing.assert_array_equal(out[0], ref_out[0])
        np.testing.assert_array_equal(out[1], ref_out[1])
        assert eng.counters.messages == ref.counters.messages
        assert eng.simulated_time == ref.simulated_time

    def test_unbounded_keys_fall_back_to_argsort_shuffle(self):
        keys = np.array([0, 2**40, 7, 2**40], dtype=np.int64)
        values = np.column_stack(
            (
                np.array([3.0, 1.0, 2.0, 1.0]),
                np.array([1.0, 2.0, 1.0, 1.0]),
                np.array([0.1, 0.2, 0.3, 0.4]),
            )
        )
        eng = self.engine(VectorExecutor())
        out_k, out_v = eng.round_batch(
            keys, values, partial(scatter_group_min_first, sort_cols=2)
        )
        ref_k, ref_v = self.engine(VectorExecutor()).round_batch(
            keys, values, partial(group_min_first, sort_cols=2)
        )
        np.testing.assert_array_equal(out_k, [0, 7, 2**40])
        np.testing.assert_array_equal(out_k, ref_k)
        np.testing.assert_array_equal(out_v, ref_v)

    def test_memory_limit_enforced_on_scatter_reducer(self):
        from repro.errors import MemoryLimitExceeded

        keys = np.zeros(100, dtype=np.int64)  # one huge group
        values = np.ones((100, 3))
        eng = MREngine(
            MRSpec(10**9, 16, num_workers=2), executor=VectorExecutor()
        )
        with pytest.raises(MemoryLimitExceeded):
            eng.round_batch(
                keys, values, partial(scatter_group_min_first, sort_cols=2)
            )
