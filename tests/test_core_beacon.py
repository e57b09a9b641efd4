"""Tests for slotted beacon discovery."""

import numpy as np
import pytest

from repro.core.beacon import (
    BeaconDiscovery,
    BeaconResult,
    SparseBeaconDiscovery,
    top_k_required,
    top_k_required_csr,
)
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.radio.fading import HashedRayleighFading


def varied_radio(n, seed=0, base_dbm=-60.0, spread_db=25.0):
    rng = np.random.default_rng(seed)
    delta = rng.uniform(-spread_db, 0.0, size=(n, n))
    delta = (delta + delta.T) / 2.0
    m = base_dbm + delta
    np.fill_diagonal(m, -np.inf)
    return m


def make_discovery(mean_rx, preambles=4, **kwargs):
    return BeaconDiscovery(
        mean_rx,
        threshold_dbm=-95.0,
        period_slots=100,
        slot_ms=1.0,
        preambles=preambles,
        **kwargs,
    )


class TestDiscovery:
    def test_full_mesh_discovery_completes(self):
        n = 12
        disc = make_discovery(varied_radio(n, 1))
        result = disc.run(
            np.random.default_rng(1), ~np.eye(n, dtype=bool), max_periods=200
        )
        assert result.complete
        assert result.missing_pairs == 0
        assert (result.decoded | np.eye(n, dtype=bool)).all()

    def test_sparse_requirement_faster_than_full(self):
        n = 30
        mean_rx = varied_radio(n, 2)
        full = make_discovery(mean_rx).run(
            np.random.default_rng(3), ~np.eye(n, dtype=bool), max_periods=500
        )
        adj = ~np.eye(n, dtype=bool)
        top1 = make_discovery(mean_rx).run(
            np.random.default_rng(3), top_k_required(mean_rx, adj, k=1),
            max_periods=500,
        )
        assert top1.complete and full.complete
        assert top1.periods <= full.periods

    def test_time_and_messages_consistent(self):
        n = 10
        disc = make_discovery(varied_radio(n, 4))
        result = disc.run(
            np.random.default_rng(4), ~np.eye(n, dtype=bool), max_periods=200
        )
        assert result.time_ms == result.periods * 100.0
        assert result.messages == result.periods * n

    def test_empty_requirement_completes_immediately(self):
        n = 5
        disc = make_discovery(varied_radio(n, 5))
        result = disc.run(
            np.random.default_rng(5), np.zeros((n, n), dtype=bool)
        )
        assert result.complete
        assert result.periods == 0
        assert result.messages == 0

    def test_undetectable_pair_never_completes(self):
        mean_rx = varied_radio(4, 6)
        mean_rx[0, 3] = mean_rx[3, 0] = -150.0  # below threshold forever
        required = np.zeros((4, 4), dtype=bool)
        required[0, 3] = True
        result = make_discovery(mean_rx).run(
            np.random.default_rng(6), required, max_periods=50
        )
        assert not result.complete
        assert result.missing_pairs == 1

    def test_continuation_from_prior_state(self):
        n = 8
        mean_rx = varied_radio(n, 7)
        required = ~np.eye(n, dtype=bool)
        first = make_discovery(mean_rx).run(
            np.random.default_rng(7), required, max_periods=1
        )
        cont = make_discovery(mean_rx).run(
            np.random.default_rng(8),
            required,
            max_periods=200,
            decoded=first.decoded,
        )
        assert cont.complete

    def test_fading_runs_complete(self):
        n = 10
        disc = make_discovery(
            varied_radio(n, 9), fading=HashedRayleighFading(9)
        )
        result = disc.run(
            np.random.default_rng(9), ~np.eye(n, dtype=bool), max_periods=500
        )
        assert result.complete


class TestCsrEngine:
    def test_matrix_front_end_matches_csr_engine(self):
        """On a network, the all-pairs front end and the pruned radio
        graph decode the same pairs from the same draws."""
        net = D2DNetwork(PaperConfig(n_devices=40, seed=3))
        budget = net.sparse_budget
        cfg = net.config
        opts = dict(
            threshold_dbm=cfg.threshold_dbm,
            period_slots=cfg.period_slots,
            preambles=cfg.beacon_preambles,
        )
        required = top_k_required_csr(budget, k=2)
        csr = SparseBeaconDiscovery(budget, **opts).run(
            np.random.default_rng(5), required, max_periods=300
        )
        assert not net.densified
        assert csr.complete
        assert csr.decoded.shape == (budget.edge_count,)
        assert not (required & ~csr.decoded).any()

        tx, rx = budget.row_ids, budget.indices
        req_matrix = np.zeros((net.n, net.n), dtype=bool)
        req_matrix[rx[required], tx[required]] = True
        dense = BeaconDiscovery(
            net.link_budget.mean_rx_dbm, fading=budget.fading, **opts
        ).run(np.random.default_rng(5), req_matrix, max_periods=300)
        assert (dense.periods, dense.messages) == (csr.periods, csr.messages)
        expected = np.zeros((net.n, net.n), dtype=bool)
        expected[rx[csr.decoded], tx[csr.decoded]] = True
        assert np.array_equal(dense.decoded, expected)


class TestCollisionPhysics:
    def test_more_preambles_never_slower(self):
        n = 60
        mean_rx = varied_radio(n, 10, spread_db=35.0)
        required = ~np.eye(n, dtype=bool)
        slow = make_discovery(mean_rx, preambles=1).run(
            np.random.default_rng(10), required, max_periods=3000
        )
        fast = make_discovery(mean_rx, preambles=16).run(
            np.random.default_rng(10), required, max_periods=3000
        )
        assert fast.periods <= slow.periods

    def test_half_duplex_no_self_decode(self):
        n = 6
        result = make_discovery(varied_radio(n, 11)).run(
            np.random.default_rng(11), ~np.eye(n, dtype=bool), max_periods=200
        )
        assert not result.decoded.diagonal().any()


class TestDutyCycling:
    def test_lower_duty_slower_discovery(self):
        n = 20
        mean_rx = varied_radio(n, 20)
        required = ~np.eye(n, dtype=bool)
        results = {}
        for duty in (1.0, 0.3):
            disc = make_discovery(mean_rx, listen_duty=duty)
            results[duty] = disc.run(
                np.random.default_rng(20), required, max_periods=1000
            )
        assert results[1.0].complete and results[0.3].complete
        assert results[0.3].periods > results[1.0].periods

    def test_duty_one_is_default_behaviour(self):
        n = 10
        mean_rx = varied_radio(n, 21)
        required = ~np.eye(n, dtype=bool)
        a = make_discovery(mean_rx).run(
            np.random.default_rng(21), required, max_periods=200
        )
        b = make_discovery(mean_rx, listen_duty=1.0).run(
            np.random.default_rng(21), required, max_periods=200
        )
        assert a.periods == b.periods

    def test_tiny_duty_still_completes_eventually(self):
        n = 8
        disc = make_discovery(varied_radio(n, 22), listen_duty=0.1)
        result = disc.run(
            np.random.default_rng(22), ~np.eye(n, dtype=bool), max_periods=2000
        )
        assert result.complete

    def test_bad_duty_rejected(self):
        for duty in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                make_discovery(varied_radio(3, 0), listen_duty=duty)


class TestTopKRequired:
    def test_one_per_row(self):
        mean_rx = varied_radio(10, 12)
        adj = ~np.eye(10, dtype=bool)
        req = top_k_required(mean_rx, adj, k=1)
        assert np.all(req.sum(axis=1) == 1)

    def test_selects_heaviest(self):
        w = np.array(
            [[-np.inf, -50.0, -80.0], [-50.0, -np.inf, -60.0], [-80.0, -60.0, -np.inf]]
        )
        adj = ~np.eye(3, dtype=bool)
        req = top_k_required(w, adj, k=1)
        assert req[0, 1] and req[2, 1]

    def test_k_two(self):
        mean_rx = varied_radio(8, 13)
        adj = ~np.eye(8, dtype=bool)
        req = top_k_required(mean_rx, adj, k=2)
        assert np.all(req.sum(axis=1) == 2)

    def test_isolated_node_requires_nothing(self):
        w = varied_radio(4, 14)
        adj = np.zeros((4, 4), dtype=bool)
        adj[1, 2] = adj[2, 1] = True
        req = top_k_required(w, adj, k=1)
        assert req[0].sum() == 0 and req[3].sum() == 0
        assert req[1, 2] and req[2, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            top_k_required(varied_radio(3, 0), ~np.eye(3, dtype=bool), k=0)


class TestValidation:
    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            BeaconDiscovery(np.zeros((2, 3)), threshold_dbm=-95.0, period_slots=10)
        disc = make_discovery(varied_radio(3, 0))
        with pytest.raises(ValueError):
            disc.run(np.random.default_rng(0), np.zeros((2, 2), dtype=bool))

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            BeaconDiscovery(varied_radio(3, 0), threshold_dbm=-95.0, period_slots=0)
        with pytest.raises(ValueError):
            BeaconDiscovery(
                varied_radio(3, 0), threshold_dbm=-95.0, period_slots=10, slot_ms=0.0
            )
        with pytest.raises(ValueError):
            BeaconDiscovery(
                varied_radio(3, 0), threshold_dbm=-95.0, period_slots=10, preambles=0
            )
