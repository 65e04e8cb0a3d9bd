"""Tests for the execution backends."""

from repro.mr.executor import SerialExecutor


def double_reducer(key, values):
    return [(key, 2 * v) for v in values]


class TestSerialExecutor:
    def test_output_and_loads(self):
        ex = SerialExecutor()
        out, loads = ex.run({"a": [1, 2], "b": [3]}, double_reducer, 2)
        assert sorted(out) == [("a", 2), ("a", 4), ("b", 6)]
        assert len(loads) == 2
        # Load counts inputs + outputs across both workers.
        assert sum(loads) == 6

    def test_empty_groups(self):
        ex = SerialExecutor()
        out, loads = ex.run({}, double_reducer, 3)
        assert out == []
        assert loads == [0, 0, 0]
