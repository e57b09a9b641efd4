"""Table I — simulation parameters driven end-to-end.

Builds the Table I scenario and verifies every tabulated parameter is
live in the built simulation (propagation segments, threshold-derived
adjacency, shadowing deviation, slot length, density).
"""

from __future__ import annotations

from benchmarks.conftest import save_and_print, timed_benchmark, write_bench_json
from repro.experiments.table1_parameters import run_table1


def test_table1_parameters(benchmark, results_dir, bench_json_dir):
    result, wall_s = timed_benchmark(benchmark, run_table1)
    save_and_print(results_dir, "table1_parameters", result.render())
    assert result.all_checks_pass
    write_bench_json(
        bench_json_dir,
        "table1_parameters",
        wall_s,
        {"all_checks_pass": result.all_checks_pass},
    )
