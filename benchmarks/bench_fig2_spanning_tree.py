"""Fig. 2 — the basic firefly spanning-tree instance.

Rebuilds the figure's heavy-edge tree on a small deployment and checks
the §V optimality claim: the distributed tree equals the centralized
maximum spanning tree and outweighs random spanning trees.
"""

from __future__ import annotations

from benchmarks.conftest import save_and_print, timed_benchmark, write_bench_json
from repro.experiments.fig2_spanning_tree import run_fig2


def test_fig2_spanning_tree_instance(benchmark, results_dir, bench_json_dir):
    result, wall_s = timed_benchmark(benchmark, run_fig2)
    save_and_print(results_dir, "fig2_spanning_tree", result.render())

    assert result.matches_oracle
    assert result.beats_all_random
    assert len(result.tree_edges) == result.n_devices - 1
    write_bench_json(
        bench_json_dir,
        "fig2_spanning_tree",
        wall_s,
        {
            "devices": result.n_devices,
            "tree_edges": len(result.tree_edges),
            "matches_oracle": result.matches_oracle,
        },
    )
