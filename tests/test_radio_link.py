"""Tests for the link budget."""

import numpy as np
import pytest

from repro.radio.fading import HashedRayleighFading
from repro.radio.link import LinkBudget
from repro.radio.pathloss import PaperPathLoss
from repro.radio.shadowing import HashedShadowing


def make_budget(positions, **kwargs):
    return LinkBudget(np.asarray(positions, dtype=float), PaperPathLoss(), **kwargs)


class TestMeanPower:
    def test_two_devices_symmetric(self):
        budget = make_budget([[0.0, 0.0], [10.0, 0.0]])
        assert budget.mean_power_dbm(0, 1) == pytest.approx(
            budget.mean_power_dbm(1, 0)
        )

    def test_mean_power_formula(self):
        budget = make_budget([[0.0, 0.0], [10.0, 0.0]], tx_power_dbm=23.0)
        expected = 23.0 - (40.0 + 40.0 * np.log10(10.0))
        assert budget.mean_power_dbm(0, 1) == pytest.approx(expected)

    def test_diagonal_is_minus_inf(self):
        budget = make_budget([[0.0, 0.0], [5.0, 0.0]])
        assert budget.mean_power_dbm(0, 0) == -np.inf

    def test_closer_is_stronger(self):
        budget = make_budget([[0.0, 0.0], [5.0, 0.0], [50.0, 0.0]])
        assert budget.mean_power_dbm(0, 1) > budget.mean_power_dbm(0, 2)

    def test_shadowing_shifts_power(self):
        pos = [[0.0, 0.0], [10.0, 0.0]]
        plain = make_budget(pos)
        shadowed = make_budget(pos, shadowing=HashedShadowing(10.0, key=1))
        assert shadowed.mean_power_dbm(0, 1) != plain.mean_power_dbm(0, 1)


class TestAdjacency:
    def test_in_range_pair_connected(self):
        budget = make_budget([[0.0, 0.0], [20.0, 0.0]], threshold_dbm=-95.0)
        assert budget.adjacency()[0, 1]

    def test_out_of_range_pair_disconnected(self):
        budget = make_budget([[0.0, 0.0], [500.0, 0.0]], threshold_dbm=-95.0)
        assert not budget.adjacency()[0, 1]

    def test_margin_shrinks_adjacency(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 150, size=(40, 2))
        budget = make_budget(pos)
        plain = budget.adjacency().sum()
        tight = budget.adjacency(margin_db=20.0).sum()
        assert tight < plain

    def test_no_self_loops(self):
        budget = make_budget([[0.0, 0.0], [5.0, 0.0]])
        assert not budget.adjacency().diagonal().any()


class TestBroadcast:
    def test_no_fading_matches_mean(self):
        budget = make_budget([[0.0, 0.0], [10.0, 0.0]])
        rx = budget.broadcast(0, np.random.default_rng(0))
        assert len(rx) == 1
        assert rx[0].receiver == 1
        assert rx[0].power_dbm == pytest.approx(budget.mean_power_dbm(0, 1))

    def test_sender_never_receives_itself(self):
        budget = make_budget([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        rx = budget.broadcast(1, np.random.default_rng(0))
        assert all(sig.receiver != 1 for sig in rx)

    def test_fading_makes_marginal_link_flaky(self):
        # place at ~the exact threshold range so fading decides detection
        budget = LinkBudget(
            np.array([[0.0, 0.0], [89.0, 0.0]]),
            PaperPathLoss(),
            fading=HashedRayleighFading(7),
        )
        rng = np.random.default_rng(7)
        outcomes = [len(budget.broadcast(0, rng)) for _ in range(300)]
        assert 0 < sum(outcomes) < 300  # sometimes heard, sometimes not

    def test_broadcast_power_vector_form(self):
        budget = make_budget([[0.0, 0.0], [10.0, 0.0], [400.0, 0.0]])
        power, detected = budget.broadcast_power(0, np.random.default_rng(0))
        assert power.shape == (3,) and detected.shape == (3,)
        assert detected[1] and not detected[2] and not detected[0]

    def test_bad_tx_index(self):
        budget = make_budget([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(IndexError):
            budget.broadcast(5, np.random.default_rng(0))


class TestValidation:
    def test_bad_positions_shape(self):
        with pytest.raises(ValueError, match="shape"):
            LinkBudget(np.zeros((3, 3)), PaperPathLoss())

    def test_distance_matrix(self):
        budget = make_budget([[0.0, 0.0], [3.0, 4.0]])
        assert budget.distance_m[0, 1] == pytest.approx(5.0)
