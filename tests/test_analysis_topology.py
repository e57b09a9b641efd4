"""Tests for topology analytics."""

import pytest

from repro.analysis.topology import connectivity_probability, topology_stats
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.sim.random import RandomStreams


class TestTopologyStats:
    @pytest.fixture(scope="class")
    def stats(self):
        return topology_stats(D2DNetwork(PaperConfig(seed=81)))

    def test_basic_consistency(self, stats):
        assert stats.n_devices == 50
        assert stats.min_degree <= stats.mean_degree <= stats.max_degree
        assert stats.edges == pytest.approx(stats.mean_degree * 50 / 2)

    def test_link_percentiles_ordered(self, stats):
        assert stats.mean_link_m <= stats.max_link_m
        assert stats.p90_link_m <= stats.max_link_m

    def test_links_within_budget_range(self, stats):
        """No edge can exceed the 23 dBm / −95 dBm budget range by much
        (shadowing can stretch it, but not double it)."""
        assert stats.max_link_m < 160.0

    def test_clustering_high_for_geometric_graph(self, stats):
        """Unit-disk-like graphs are strongly clustered."""
        assert stats.clustering > 0.4

    def test_diameter_small_at_table1_density(self, stats):
        assert stats.hop_diameter <= 3


class TestConnectivityProbability:
    def test_dense_scenario_always_connected(self):
        p = connectivity_probability(
            PaperConfig(n_devices=50, area_side_m=100.0), attempts=20, seed=1
        )
        assert p == 1.0

    def test_sparse_scenario_rarely_connected(self):
        p = connectivity_probability(
            PaperConfig(n_devices=5, area_side_m=1500.0), attempts=20, seed=1
        )
        assert p < 0.5

    def test_monotone_in_density(self):
        sparse = connectivity_probability(
            PaperConfig(n_devices=8, area_side_m=500.0), attempts=30, seed=2
        )
        dense = connectivity_probability(
            PaperConfig(n_devices=8, area_side_m=150.0), attempts=30, seed=2
        )
        assert dense >= sparse

    def test_deterministic(self):
        cfg = PaperConfig(n_devices=10, area_side_m=300.0)
        a = connectivity_probability(cfg, attempts=10, seed=3)
        b = connectivity_probability(cfg, attempts=10, seed=3)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            connectivity_probability(PaperConfig(), attempts=0)

    def test_follows_configured_pathloss(self):
        """The estimate is of the channel D2DNetwork builds: free-space
        loss reaches across the whole 400 m area, the paper's does not."""
        cfg = PaperConfig(n_devices=12, area_side_m=400.0)
        paper = connectivity_probability(cfg, attempts=30, seed=1)
        free = connectivity_probability(
            cfg.replace(pathloss_model="freespace"), attempts=30, seed=1
        )
        assert paper < 0.5
        assert free == 1.0

    def test_matches_first_network_draws(self):
        """Each attempt is a D2DNetwork's first placement, clip included."""
        cfg = PaperConfig(n_devices=10, area_side_m=300.0, shadow_clip_sigma=1.0)
        streams = RandomStreams(4)
        first = [
            D2DNetwork(cfg, streams.spawn(a), require_connected=False)
            for a in range(10)
        ]
        expected = sum(net.sparse_budget.is_connected() for net in first) / 10
        assert connectivity_probability(cfg, attempts=10, seed=4) == expected
