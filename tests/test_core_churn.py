"""Tests for the churn session."""

import numpy as np
import pytest

from repro.core.churn import ChurnSession
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.spanningtree.boruvka import distributed_boruvka
from repro.spanningtree.mst import maximum_spanning_tree, tree_weight
from repro.spanningtree.repair import repair_after_failure


@pytest.fixture(scope="module")
def network():
    return D2DNetwork(PaperConfig(seed=41))


class TestInitial:
    def test_starts_spanning_and_optimal(self, network):
        session = ChurnSession(network)
        assert session.is_spanning
        assert session._optimality_ratio() == pytest.approx(1.0)

    def test_partial_activation(self, network):
        session = ChurnSession(network, initially_active=set(range(20)))
        assert session.is_spanning
        assert len(session.tree_edges) == 19

    def test_empty_active_rejected(self, network):
        with pytest.raises(ValueError):
            ChurnSession(network, initially_active=set())


class TestJoin:
    def test_join_attaches_and_spans(self, network):
        session = ChurnSession(network, initially_active=set(range(30)))
        event = session.join(35)
        assert event.succeeded
        assert event.kind == "join"
        assert 35 in session.active
        assert session.is_spanning

    def test_join_constant_messages(self, network):
        session = ChurnSession(network, initially_active=set(range(30)))
        event = session.join(40)
        assert event.messages == network.config.discovery_periods + 2

    def test_join_attaches_to_heaviest(self, network):
        session = ChurnSession(network, initially_active=set(range(30)))
        session.join(45)
        new_edge = session.tree_edges[-1]
        assert 45 in new_edge
        other = new_edge[0] if new_edge[1] == 45 else new_edge[1]
        # the chosen partner is the heaviest active link of device 45
        w = network.weights[45].copy()
        w[~network.adjacency[45]] = -np.inf
        w[[i for i in range(network.n) if i not in session.active or i == 45]] = -np.inf
        assert other == int(np.argmax(w))

    def test_joins_may_drift_from_optimal(self, network):
        """Greedy attachment accumulates (bounded) suboptimality."""
        session = ChurnSession(network, initially_active=set(range(25)))
        for d in range(25, 40):
            session.join(d)
        assert session.is_spanning
        assert session._optimality_ratio() >= 1.0

    def test_double_join_rejected(self, network):
        session = ChurnSession(network, initially_active=set(range(30)))
        session.join(31)
        with pytest.raises(ValueError):
            session.join(31)


class TestFail:
    def test_fail_repairs_spanning(self, network):
        session = ChurnSession(network)
        event = session.fail(10)
        assert event.succeeded
        assert 10 not in session.active
        assert session.is_spanning
        assert all(10 not in e for e in session.tree_edges)

    def test_sequence_of_failures(self, network):
        session = ChurnSession(network)
        for d in (3, 17, 29, 44):
            event = session.fail(d)
            assert event.succeeded
            assert session.is_spanning

    def test_fail_inactive_rejected(self, network):
        session = ChurnSession(network, initially_active=set(range(30)))
        with pytest.raises(ValueError):
            session.fail(45)


class TestRebuild:
    def test_rebuild_restores_optimality(self, network):
        session = ChurnSession(network, initially_active=set(range(25)))
        for d in range(25, 40):
            session.join(d)
        drifted = session._optimality_ratio()
        event = session.rebuild()
        assert event.kind == "rebuild"
        assert session._optimality_ratio() == pytest.approx(1.0)
        assert session._optimality_ratio() <= drifted + 1e-12

    def test_event_log_grows(self, network):
        session = ChurnSession(network, initially_active=set(range(30)))
        session.join(33)
        session.fail(5)
        session.rebuild()
        assert [e.kind for e in session.events] == ["join", "fail", "rebuild"]
        assert [e.active_count for e in session.events] == [31, 30, 30]


class TestSparseBackend:
    """Churn runs entirely on the link CSR: it matches references over
    the dense matrices of a second, identical network, and never
    densifies its own."""

    @pytest.fixture(scope="class")
    def pair(self):
        cfg = PaperConfig(n_devices=48, seed=11)
        return D2DNetwork(cfg), D2DNetwork(cfg)

    ACTIVE = frozenset(range(40))

    @staticmethod
    def _masked(reference, active):
        adj = reference.adjacency.copy()
        inactive = [i for i in range(reference.n) if i not in active]
        adj[inactive, :] = False
        adj[:, inactive] = False
        return adj

    def _ratio(self, reference, tree, active):
        w = reference.weights
        oracle = maximum_spanning_tree(w, self._masked(reference, active))
        return tree_weight(w, tree) / tree_weight(w, oracle)

    def test_initial_tree_and_ratio_match(self, pair):
        reference, network = pair
        session = ChurnSession(network, initially_active=set(self.ACTIVE))
        oracle = maximum_spanning_tree(
            reference.weights, self._masked(reference, self.ACTIVE)
        )
        assert sorted(session.tree_edges) == oracle
        assert session._optimality_ratio() == pytest.approx(1.0, rel=1e-12)
        assert session.is_spanning
        assert not network.densified

    def test_join_parity(self, pair):
        reference, network = pair
        session = ChurnSession(network, initially_active=set(self.ACTIVE))
        active = set(self.ACTIVE)
        for device in (40, 41, 42):
            before = set(session.tree_edges)
            w = np.where(reference.adjacency[device], reference.weights[device], -np.inf)
            w[[i for i in range(reference.n) if i not in active]] = -np.inf
            best = int(np.argmax(w))
            event = session.join(device)
            active.add(device)
            assert event.succeeded
            assert set(session.tree_edges) - before == {
                (min(device, best), max(device, best))
            }
            assert event.optimality_ratio == pytest.approx(
                self._ratio(reference, session.tree_edges, active), rel=1e-12
            )
        assert not network.densified

    def test_fail_parity_repairs_via_csr(self, pair):
        reference, network = pair
        session = ChurnSession(network, initially_active=set(self.ACTIVE))
        tree = list(session.tree_edges)
        active = set(self.ACTIVE)
        for device in (3, 17, 21):
            active.discard(device)
            want = repair_after_failure(
                tree,
                set(range(reference.n)) - active,
                reference.weights,
                reference.adjacency,
            )
            event = session.fail(device)
            assert (event.messages, event.succeeded) == (want.messages, want.repaired)
            assert sorted(session.tree_edges) == sorted(want.tree_edges)
            tree = want.tree_edges
        assert session.is_spanning
        assert not network.densified

    def test_rebuild_parity_and_optimality(self, pair):
        reference, network = pair
        session = ChurnSession(network, initially_active=set(self.ACTIVE))
        for device in (40, 41, 42, 43):
            session.join(device)
        active = set(self.ACTIVE) | {40, 41, 42, 43}
        want = distributed_boruvka(reference.weights, self._masked(reference, active))
        event = session.rebuild()
        assert event.messages == want.counter.total
        assert sorted(session.tree_edges) == maximum_spanning_tree(
            reference.weights, self._masked(reference, active)
        )
        assert session._optimality_ratio() == pytest.approx(1.0)
        assert not network.densified

    def test_mixed_workload_event_log_parity(self, pair):
        _, network = pair
        workload = [
            ("join", 44),
            ("fail", 7),
            ("join", 45),
            ("fail", 44),
            ("rebuild", None),
        ]
        logs = []
        for _ in range(2):
            session = ChurnSession(network, initially_active=set(self.ACTIVE))
            for kind, device in workload:
                getattr(session, kind)(*(() if device is None else (device,)))
            assert session.is_spanning
            logs.append(
                [
                    (e.kind, e.device, e.messages, e.succeeded, e.active_count,
                     e.optimality_ratio)
                    for e in session.events
                ]
            )
        assert logs[0] == logs[1]
        assert [e[4] for e in logs[0]] == [41, 40, 41, 40, 40]
        assert not network.densified, "churn must never densify"


class TestGreedyRepair:
    """Opt-in local repair: spanning preserved at O(damage) cost."""

    def _greedy(self, network, **kwargs):
        return ChurnSession(
            network, set(range(40)), repair="greedy", **kwargs
        )

    def test_rejects_unknown_mode(self, network):
        with pytest.raises(ValueError, match="repair"):
            ChurnSession(network, repair="lazy")

    def test_fail_keeps_tree_spanning(self, network):
        session = self._greedy(network)
        for device in (3, 17, 0, 28, 9):
            event = session.fail(device)
            assert event.kind == "fail"
            assert event.succeeded
            assert session.is_spanning
        assert len(session.tree_edges) == len(session.active) - 1

    def test_messages_proportional_to_damage(self, network):
        session = self._greedy(network)
        degrees = {d: len(session._tree_adj.get(d, ())) for d in range(40)}
        leaf = min(d for d, deg in degrees.items() if deg == 1)
        hub = max(degrees, key=lambda d: (degrees[d], d))
        assert session.fail(leaf).messages == 0  # no split, nothing to pay
        event = session.fail(hub)
        assert session.is_spanning
        # far below the optimal-repair bill, which re-scans the link graph
        assert 0 < event.messages < network.n

    def test_deterministic_across_instances(self, network):
        a, b = self._greedy(network), self._greedy(network)
        for device in (5, 31, 12, 2):
            ea, eb = a.fail(device), b.fail(device)
            assert (ea.messages, ea.succeeded) == (eb.messages, eb.succeeded)
        assert sorted(a.tree_edges) == sorted(b.tree_edges)

    def test_sparse_backend_greedy(self):
        network = D2DNetwork(PaperConfig(n_devices=2048, seed=41))
        session = ChurnSession(
            network,
            set(range(1500)),
            repair="greedy",
            track_optimality=False,
        )
        for device in (1499, 700, 3, 250, 1111):
            assert session.fail(device).kind == "fail"
            assert session.is_spanning
        session.join(1600)
        assert session.is_spanning
        assert not network.densified

    def test_tree_adj_matches_edges_after_churn(self, network):
        session = self._greedy(network)
        for kind, device in [
            ("fail", 8), ("join", 45), ("fail", 45), ("fail", 20), ("join", 47)
        ]:
            getattr(session, kind)(device)
        rebuilt = {}
        for u, v in session.tree_edges:
            rebuilt.setdefault(u, set()).add(v)
            rebuilt.setdefault(v, set()).add(u)
        pruned = {d: s for d, s in session._tree_adj.items() if s}
        assert pruned == rebuilt

    def test_default_mode_unchanged(self, network):
        optimal = ChurnSession(network, set(range(40)))
        assert optimal.repair_mode == "optimal"
        greedy = self._greedy(network)
        optimal.fail(11)
        greedy.fail(11)
        assert optimal.is_spanning and greedy.is_spanning
        # optimal repair restores the oracle tree; greedy may drift
        assert optimal._optimality_ratio() == pytest.approx(1.0)
