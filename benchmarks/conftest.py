"""Shared benchmark configuration.

Every bench regenerates one of the paper's evaluation artifacts and
writes the rendered rows/series to ``results/<id>.txt`` next to printing
them, plus a machine-readable ``BENCH_<id>.json`` (wall time + headline
metrics) for trend tracking.  ``--bench-json-dir DIR`` redirects the
JSON artifacts; the text renders always land in ``results/``.  Set
``REPRO_BENCH_FULL=1`` to run the paper's full 50–1000-device grid; the
default grid is a faster subset with the same shape.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: Full paper grid vs. CI-friendly subset (same span, fewer points/seeds).
FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"
SCALING_SIZES = (50, 100, 200, 400, 600, 800, 1000) if FULL else (50, 100, 200, 400, 600)
SCALING_SEEDS = (1, 2, 3) if FULL else (1, 2)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--bench-json-dir",
        action="store",
        default=None,
        metavar="DIR",
        help=(
            "directory for the machine-readable BENCH_<name>.json "
            "artifacts (default: the shared results/ directory)"
        ),
    )


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def bench_json_dir(request: pytest.FixtureRequest) -> pathlib.Path:
    raw = request.config.getoption("--bench-json-dir")
    path = pathlib.Path(raw) if raw else RESULTS_DIR
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_and_print(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Persist a rendered artifact and echo it to stdout."""
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n[saved to results/{name}.txt]")


def timed_pedantic(benchmark, fn):
    """Single-shot ``benchmark.pedantic`` run returning ``(result, wall_s)``.

    The figure benches regenerate an artifact exactly once; the wall time
    around the pedantic call is that one regeneration.
    """
    t0 = time.perf_counter()
    result = benchmark.pedantic(fn, rounds=1, iterations=1)
    return result, time.perf_counter() - t0


def timed_benchmark(benchmark, fn):
    """Statistical ``benchmark(fn)`` run returning ``(result, wall_s)``.

    ``wall_s`` is the mean over pytest-benchmark's rounds.  Under
    ``--benchmark-disable`` there are no stats and ``fn`` runs once, so
    it is the wall of that one call.
    """
    t0 = time.perf_counter()
    result = benchmark(fn)
    wall_s = time.perf_counter() - t0
    stats = getattr(benchmark, "stats", None)
    if stats is not None:
        wall_s = float(stats.stats.mean)
    return result, wall_s


def write_bench_json(
    directory: pathlib.Path,
    name: str,
    wall_s: float,
    metrics: dict | None = None,
) -> pathlib.Path:
    """Write the ``BENCH_<name>.json`` machine-readable artifact.

    Raises :class:`ValueError` when ``wall_s`` is missing or not finite:
    an artifact without a wall time cannot be trended or gated.
    """
    if wall_s is None or not math.isfinite(wall_s):
        raise ValueError(f"BENCH_{name}.json needs a finite wall time, got {wall_s!r}")
    payload = {
        "schema": "repro.bench/1",
        "bench": name,
        "wall_time_s": round(float(wall_s), 6),
        "metrics": metrics or {},
    }
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench json saved to {path}]")
    return path
