"""Mobility session: how synchronization and the tree survive motion.

The session starts from a synchronized, tree-organized network.  Each
epoch the devices move (any mobility model with ``positions`` and a step
method), the channel is rebuilt at the new geometry, and the network
re-synchronizes over the *new* maximum-PS spanning tree.  Per-epoch
records capture the re-sync cost (time, messages), how much of the old
tree survived, and the current phase coherence — the quantities a
"realistic scenario" extension of the paper (its §VI) would plot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import PaperConfig
from repro.core.network import _pathloss_for
from repro.core.pulsesync import SparsePulseSyncKernel
from repro.oscillator.prc import LinearPRC
from repro.radio.fading import HashedRayleighFading, NoFading
from repro.radio.shadowing import HashedShadowing, NoShadowing
from repro.radio.sparse_link import SparseLinkBudget
from repro.spanningtree.boruvka import distributed_boruvka_csr


@dataclass(frozen=True)
class MobilityEpoch:
    """One epoch's outcome."""

    epoch: int
    resync_time_ms: float
    resync_messages: int
    converged: bool
    #: fraction of the previous epoch's tree edges still in the new tree
    tree_stability: float
    mean_tree_edge_m: float


class MobilitySession:
    """Move → rebuild channel → re-tree → re-sync, epoch by epoch.

    Parameters
    ----------
    config:
        Scenario parameters (the mobility area is ``config.area_side_m``).
    mover:
        Object exposing ``positions`` (``(n, 2)`` array) that the caller
        advances between :meth:`run_epoch` calls.
    seed:
        Seed for the per-epoch channel and sync draws.
    """

    def __init__(
        self, config: PaperConfig, mover, *, seed: int = 0
    ) -> None:
        self.config = config
        self.mover = mover
        self.rng = np.random.default_rng(seed)
        self.prc = LinearPRC.from_dissipation(config.dissipation, config.epsilon)
        self.epochs: list[MobilityEpoch] = []
        self._prev_tree: set[tuple[int, int]] = set()
        # the per-link shadowing environment is drawn once and held fixed
        # across epochs (buildings don't reshuffle when devices walk), so
        # tree churn measures *geometry* change, not channel re-rolls: a
        # hashed draw is a fixed function of the link, so one session
        # key is one environment
        if config.shadowing_sigma_db > 0:
            self._shadow = HashedShadowing(
                config.shadowing_sigma_db,
                int(self.rng.integers(0, 2**63)),
                clip_sigma=config.shadow_clip_sigma,
            )
        else:
            self._shadow = NoShadowing()

    # ------------------------------------------------------------------
    def _build_budget(self) -> SparseLinkBudget:
        """The channel at the current positions, as ``D2DNetwork`` builds
        it: configured path loss, session shadowing, fresh fading key."""
        cfg = self.config
        fading = (
            HashedRayleighFading(int(self.rng.integers(0, 2**63)))
            if cfg.fading_model == "rayleigh"
            else NoFading()
        )
        return SparseLinkBudget(
            self.mover.positions,
            _pathloss_for(cfg),
            tx_power_dbm=cfg.tx_power_dbm,
            threshold_dbm=cfg.threshold_dbm,
            shadowing=self._shadow,
            fading=fading,
        )

    def run_epoch(self) -> MobilityEpoch:
        """Rebuild the channel at current positions, re-tree, re-sync."""
        cfg = self.config
        n = cfg.n_devices
        budget = self._build_budget()
        boruvka = distributed_boruvka_csr(
            n, budget.link_indptr, budget.link_indices, budget.link_power_dbm
        )
        tree = set(boruvka.edges)
        if self._prev_tree:
            stability = len(tree & self._prev_tree) / max(len(self._prev_tree), 1)
        else:
            stability = 1.0
        self._prev_tree = tree

        # both directions of each tree edge, powers from the radio CSR
        eu = np.array([u for u, _ in boruvka.edges], dtype=np.int64)
        ev = np.array([v for _, v in boruvka.edges], dtype=np.int64)
        tx = np.concatenate((eu, ev))
        rx = np.concatenate((ev, eu))
        kernel = SparsePulseSyncKernel.from_edges(
            n,
            tx,
            rx,
            budget.edge_power_lookup(tx, rx),
            self.prc,
            period_ms=cfg.period_ms,
            threshold_dbm=cfg.threshold_dbm,
            refractory_ms=cfg.refractory_ms,
            sync_window_ms=cfg.sync_window_ms,
            fading=budget.fading,
            collision_policy=cfg.collision_policy,
        )
        # devices kept their clocks through the move: phases start nearly
        # aligned, perturbed by the inter-epoch drift (a few slots)
        base = float(self.rng.uniform(0.0, 0.9))
        jitter = self.rng.uniform(0.0, 0.05, size=n)
        sync = kernel.run(
            self.rng,
            initial_phases=np.clip(base + jitter, 0.0, 1.0 - 1e-9),
            max_time_ms=cfg.max_time_ms,
        )

        pos = budget.positions
        edge_m = (
            float(np.mean(np.hypot(*(pos[eu] - pos[ev]).T))) if tree else 0.0
        )
        record = MobilityEpoch(
            epoch=len(self.epochs),
            resync_time_ms=sync.time_ms,
            resync_messages=sync.messages,
            converged=sync.converged,
            tree_stability=stability,
            mean_tree_edge_m=edge_m,
        )
        self.epochs.append(record)
        return record
