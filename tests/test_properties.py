"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import summarize
from repro.oscillator.prc import LinearPRC, MirolloStrogatzPRC, coupling_parameters
from repro.oscillator.sync_metrics import circular_spread, order_parameter
from repro.radio.pathloss import LogDistancePathLoss, PaperPathLoss
from repro.radio.rssi import RSSIRanging
from repro.sim.engine import Engine
from repro.spanningtree.boruvka import distributed_boruvka
from repro.spanningtree.mst import (
    is_spanning_tree,
    maximum_spanning_tree,
    tree_weight,
)
from repro.spanningtree.unionfind import UnionFind

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

phases = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
dissipations = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
epsilons = st.floats(min_value=0.001, max_value=0.9, allow_nan=False)
distances = st.floats(min_value=0.1, max_value=5000.0, allow_nan=False)


@st.composite
def weight_matrices(draw, max_n=12):
    """Random symmetric weight matrix with distinct off-diagonal entries."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return w


# ----------------------------------------------------------------------
# PRC invariants (eq. 5)
# ----------------------------------------------------------------------


class TestPRCProperties:
    @given(dissipations, epsilons, phases)
    def test_prc_never_retreats(self, a, eps, theta):
        prc = LinearPRC.from_dissipation(a, eps)
        assert prc.apply(theta) >= theta - 1e-12

    @given(dissipations, epsilons, phases)
    def test_prc_bounded_by_threshold(self, a, eps, theta):
        prc = LinearPRC.from_dissipation(a, eps)
        assert prc.apply(theta) <= 1.0

    @given(dissipations, epsilons)
    def test_convergence_regime_always(self, a, eps):
        alpha, beta = coupling_parameters(a, eps)
        assert alpha > 1.0 and beta > 0.0

    @given(dissipations, epsilons, phases)
    def test_exact_map_equals_linearization(self, a, eps, theta):
        ms = MirolloStrogatzPRC(a, eps)
        assert ms.apply(theta) == pytest.approx(
            ms.linearized().apply(theta), abs=1e-9
        )

    @given(
        dissipations,
        epsilons,
        st.lists(phases, min_size=2, max_size=2),
    )
    def test_prc_preserves_order(self, a, eps, pair):
        """A pulse never reorders two oscillators' phases."""
        lo, hi = sorted(pair)
        prc = LinearPRC.from_dissipation(a, eps)
        assert prc.apply(lo) <= prc.apply(hi) + 1e-12


# ----------------------------------------------------------------------
# RSSI ranging invariants (eqs 6–12)
# ----------------------------------------------------------------------


class TestRangingProperties:
    @given(distances)
    def test_noise_free_roundtrip(self, d):
        ranging = RSSIRanging(LogDistancePathLoss(4.0, 40.0), tx_power_dbm=23.0)
        rx = 23.0 - ranging.model.loss_db(d)
        assert ranging.estimate(rx) == pytest.approx(d, rel=1e-6)

    @given(st.floats(min_value=-60.0, max_value=60.0, allow_nan=False))
    def test_relative_error_above_minus_one(self, shadow_db):
        ranging = RSSIRanging(LogDistancePathLoss(4.0))
        assert ranging.relative_error(shadow_db) > -1.0

    @given(distances, distances)
    def test_pathloss_monotone(self, d1, d2):
        model = PaperPathLoss()
        lo, hi = sorted((d1, d2))
        assert model.loss_db(lo) <= model.loss_db(hi) + 1e-9


# ----------------------------------------------------------------------
# spanning-tree invariants
# ----------------------------------------------------------------------


class TestSpanningTreeProperties:
    @settings(deadline=None, max_examples=40)
    @given(weight_matrices())
    def test_distributed_matches_oracle(self, w):
        n = w.shape[0]
        adj = ~np.eye(n, dtype=bool)
        result = distributed_boruvka(w, adj)
        assert result.edges == maximum_spanning_tree(w, adj)
        assert is_spanning_tree(result.edges, n)

    @settings(deadline=None, max_examples=40)
    @given(weight_matrices())
    def test_phase_bound(self, w):
        n = w.shape[0]
        adj = ~np.eye(n, dtype=bool)
        result = distributed_boruvka(w, adj)
        assert result.phase_count <= math.ceil(math.log2(n)) + 1

    @settings(deadline=None, max_examples=40)
    @given(weight_matrices(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_max_tree_beats_random_tree(self, w, seed):
        """The paper's §V claim as a property: no spanning tree outweighs it."""
        n = w.shape[0]
        adj = ~np.eye(n, dtype=bool)
        best = tree_weight(w, maximum_spanning_tree(w, adj))
        rng = np.random.default_rng(seed)
        # random Kruskal order
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(edges)
        uf = UnionFind(n)
        total = 0.0
        for u, v in edges:
            if uf.union(u, v):
                total += w[u, v]
        assert total <= best + 1e-9


class TestUnionFindProperties:
    @settings(deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.lists(
            st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=80
        ),
    )
    def test_component_count_invariant(self, n, unions):
        """components = n − successful unions, always."""
        uf = UnionFind(n)
        successes = 0
        for a, b in unions:
            if a < n and b < n:
                successes += uf.union(a, b)
        assert uf.components == n - successes

    @settings(deadline=None)
    @given(
        st.integers(min_value=1, max_value=30),
        st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60),
    )
    def test_sizes_partition_n(self, n, unions):
        uf = UnionFind(n)
        for a, b in unions:
            if a < n and b < n:
                uf.union(a, b)
        roots = {uf.find(i) for i in range(n)}
        assert sum(uf.size_of(r) for r in roots) == n


# ----------------------------------------------------------------------
# synchrony metrics
# ----------------------------------------------------------------------


class TestSyncMetricProperties:
    @given(st.lists(phases, min_size=1, max_size=50))
    def test_order_parameter_in_unit_interval(self, ps):
        r = order_parameter(ps)
        assert -1e-9 <= r <= 1.0 + 1e-9

    @given(st.lists(phases, min_size=1, max_size=50))
    def test_spread_in_unit_interval(self, ps):
        s = circular_spread(ps)
        assert -1e-9 <= s <= 1.0

    @given(
        st.lists(phases, min_size=1, max_size=30),
        st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
    )
    def test_spread_rotation_invariant(self, ps, offset):
        rotated = [(p + offset) % 1.0 for p in ps]
        assert circular_spread(rotated) == pytest.approx(
            circular_spread(ps), abs=1e-6
        )

    @given(
        st.lists(phases, min_size=1, max_size=30),
        st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
    )
    def test_order_parameter_rotation_invariant(self, ps, offset):
        rotated = [(p + offset) % 1.0 for p in ps]
        assert order_parameter(rotated) == pytest.approx(
            order_parameter(ps), abs=1e-6
        )


# ----------------------------------------------------------------------
# engine / slots / stats
# ----------------------------------------------------------------------


class TestInfraProperties:
    @settings(deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=40))
    def test_engine_executes_in_time_order(self, delays):
        eng = Engine()
        fired = []
        for d in delays:
            eng.schedule(d, lambda d=d: fired.append(eng.now))
        eng.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_summary_bounds(self, values):
        s = summarize(values)
        # tolerance: float summation can push the mean an ulp past the bounds
        span = max(abs(s.minimum), abs(s.maximum), 1.0)
        assert s.minimum - 1e-9 * span <= s.mean <= s.maximum + 1e-9 * span
        assert s.std >= 0.0
