"""Tests for the mobility re-synchronization session."""

import numpy as np
import pytest

from repro.core.config import PaperConfig
from repro.mobility.resync import MobilitySession
from repro.mobility.waypoint import RandomWaypoint
from repro.radio.pathloss import FreeSpacePathLoss


def make_session(n=25, side=80.0, seed=3):
    cfg = PaperConfig(n_devices=n, area_side_m=side, seed=seed)
    rng = np.random.default_rng(seed)
    mover = RandomWaypoint(
        rng.uniform(0, side, size=(n, 2)),
        side,
        speed_range_mps=(1.0, 3.0),
        pause_range_s=(0.0, 0.0),
        rng=np.random.default_rng(seed + 1),
    )
    return cfg, mover, MobilitySession(cfg, mover, seed=seed + 2)


class TestMobilitySession:
    def test_static_epoch_converges(self):
        _, _, session = make_session()
        epoch = session.run_epoch()
        assert epoch.converged
        assert epoch.epoch == 0
        assert epoch.tree_stability == 1.0  # no previous tree to differ from

    def test_epochs_accumulate(self):
        _, mover, session = make_session()
        for _ in range(3):
            mover.step(5.0)
            session.run_epoch()
        assert len(session.epochs) == 3
        assert [e.epoch for e in session.epochs] == [0, 1, 2]

    def test_motion_perturbs_tree(self):
        """Enough motion must change some tree edges (stability < 1)."""
        _, mover, session = make_session()
        session.run_epoch()
        for _ in range(30):
            mover.step(5.0)  # 150+ m of travel per device
        epoch = session.run_epoch()
        assert epoch.tree_stability < 1.0

    def test_no_motion_identical_tree(self):
        """The shadowing environment is frozen per session, so zero motion
        means identical weights and an identical tree."""
        _, _, session = make_session(seed=5)
        session.run_epoch()
        epoch = session.run_epoch()  # same positions
        assert epoch.tree_stability == 1.0

    def test_resync_cost_small(self):
        """Devices keep their clocks: re-sync costs ~one pulse per device."""
        cfg, mover, session = make_session()
        mover.step(5.0)
        epoch = session.run_epoch()
        assert epoch.converged
        assert epoch.resync_messages <= 5 * cfg.n_devices

    def test_mean_edge_length_positive(self):
        _, _, session = make_session()
        epoch = session.run_epoch()
        assert epoch.mean_tree_edge_m > 0.0

    def test_follows_configured_pathloss(self):
        """The session builds the channel D2DNetwork would: free-space
        loss links all 12 devices across 400 m, so the tree spans and
        the re-sync converges."""
        n, side = 12, 400.0
        cfg = PaperConfig(
            n_devices=n, area_side_m=side, seed=1, pathloss_model="freespace"
        )
        mover = RandomWaypoint(
            np.random.default_rng(1).uniform(0, side, size=(n, 2)),
            side,
            rng=np.random.default_rng(2),
        )
        session = MobilitySession(cfg, mover, seed=3)
        assert isinstance(session._build_budget().pathloss, FreeSpacePathLoss)
        epoch = session.run_epoch()
        assert len(session._prev_tree) == n - 1
        assert epoch.converged
