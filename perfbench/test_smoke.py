"""Smoke tests: every workload at toy size (n <= 64).

Run from the repository root::

    python3 -m pytest perfbench -q -p no:cacheprovider

They check that each workload emits exactly the metrics ``BENCHMARK.json``
names, with their units, and that the fingerprint checks run and can
fail.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Run, subseeds  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: toy sizes per workload (the benchmark's own are the function defaults)
TOY = {
    "paper_sweep": {"sizes": (24, 48)},
    "service_churn": {"n": 64, "qps": 400.0},
    "city_2x2": {"n": 64},
}


def test_toy_sizes_cover_every_workload():
    assert sorted(TOY) == sorted(WORKLOADS)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(TOY))
def test_workload_emits_every_metric(workload, trace):
    run = Run(seed=3, seconds=0.5, trace=trace, probe=lambda: 0.01)
    WORKLOADS[workload](run, **TOY[workload])
    section = "per_layer" if trace else "end_to_end"
    assert sorted(run.metrics) == sorted(m["name"] for m in SPEC[section])
    for name, (value, unit) in run.metrics.items():
        assert unit == UNITS[name], name
        assert value == value and value >= 0, name  # finite, not NaN
    if not trace:
        assert all(run.metrics[m["name"]][0] > 0 for m in SPEC["end_to_end"])
    assert run.attempted > 0 and run.failed == 0
    assert run.checks and all(ok for *_, ok in run.checks)


def test_recorded_fingerprint_mismatch_is_a_failed_run():
    key = f"city_2x2/n=64/seed={subseeds(3)[0]}/content_hash"
    run = Run(seed=3, seconds=0.1, trace=False, recorded={key: "0" * 64})
    WORKLOADS["city_2x2"](run, n=64)
    assert ("content_hash", "recorded", False) in run.checks
    assert run.failed >= 1


def test_repeat_mismatch_is_a_failed_run():
    run = Run(seed=3, seconds=0.1, trace=False)
    run.check("s", "x", "a")
    run.check("s", "x", "b")
    assert run.checks == [("x", "repeat", True), ("x", "repeat", False)]
    assert run.failed == 1


def test_tracer_self_time_generators_and_restore():
    import types

    from tracer import Tracer

    def leaf(x):
        return x + 1

    def chunks(k):
        yield from range(k)

    mod = types.SimpleNamespace(leaf=leaf, chunks=chunks)
    seen = []
    t = Tracer()
    with t.installed(
        lambda t: t.wrap(mod, "leaf", "leaf"),
        lambda t: t.wrap(
            mod, "chunks", "gen", lambda t, a, k, item: seen.append(item),
            generator=True,
        ),
    ):
        with t.span("root", root=True):
            assert list(mod.chunks(3)) == [0, 1, 2]
            with t.span("root"):  # nested same name: counted once in total
                assert mod.leaf(1) == 2
    assert mod.leaf is leaf and mod.chunks is chunks
    assert seen == [0, 1, 2]
    assert t.total("root") >= t.total("leaf") + t.total("gen")
    covered = t.total("root") - t.self_time("root")
    assert abs(covered - t.total("leaf") - t.total("gen")) < 1e-9
    assert 0.0 <= t.unattributed_share() <= 1.0
