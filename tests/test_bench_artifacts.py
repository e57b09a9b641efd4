"""The ``BENCH_*.json`` writer refuses artifacts without a wall time."""

import json
import math

import pytest

from benchmarks.conftest import timed_benchmark, write_bench_json


class _DisabledBenchmark:
    """What pytest-benchmark hands a test under ``--benchmark-disable``:
    the function runs once and no statistics are kept."""

    stats = None

    def __call__(self, fn):
        return fn()


@pytest.mark.parametrize("wall", [None, float("nan"), float("inf")])
def test_missing_wall_time_is_rejected(tmp_path, wall):
    with pytest.raises(ValueError, match="wall time"):
        write_bench_json(tmp_path, "demo", wall)
    assert not (tmp_path / "BENCH_demo.json").exists()


def test_disabled_statistical_bench_times_its_one_call(tmp_path):
    calls = []
    result, wall_s = timed_benchmark(_DisabledBenchmark(), lambda: calls.append(1) or 7)
    assert (result, calls) == (7, [1])
    assert math.isfinite(wall_s) and wall_s >= 0.0
    path = write_bench_json(tmp_path, "demo", wall_s, {"devices": 3})
    doc = json.loads(path.read_text())
    assert doc["wall_time_s"] is not None
    assert doc["metrics"] == {"devices": 3}
