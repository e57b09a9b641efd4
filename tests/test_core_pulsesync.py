"""Tests for the pulse-coupled synchronization kernel."""

import numpy as np
import pytest

from repro.core.pulsesync import SparsePulseSyncKernel
from repro.oscillator.prc import LinearPRC
from repro.radio.fading import HashedRayleighFading
from tests.conftest import csr_pulse_kernel


def perfect_radio(n, power_dbm=-60.0):
    """All-pairs audible mean power matrix (identical powers)."""
    m = np.full((n, n), float(power_dbm))
    np.fill_diagonal(m, -np.inf)
    return m


def varied_radio(n, seed=0, base_dbm=-60.0, spread_db=25.0):
    """All-pairs audible with realistic per-link power variation.

    Capture-based decoding needs power diversity; exactly-equal powers
    make every superposition undecodable forever (a real property the
    equal-power tests below rely on).
    """
    rng = np.random.default_rng(seed)
    delta = rng.uniform(-spread_db, 0.0, size=(n, n))
    delta = (delta + delta.T) / 2.0
    m = base_dbm + delta
    np.fill_diagonal(m, -np.inf)
    return m


def kernel_for(
    n,
    adjacency=None,
    prc=None,
    fading=None,
    policy="tolerant",
    **kwargs,
):
    if adjacency is None:
        adjacency = ~np.eye(n, dtype=bool)
    return csr_pulse_kernel(
        perfect_radio(n),
        adjacency,
        prc or LinearPRC.from_dissipation(3.0, 0.08),
        period_ms=100.0,
        threshold_dbm=-95.0,
        refractory_ms=1.0,
        sync_window_ms=2.0,
        fading=fading,
        collision_policy=policy,
        **kwargs,
    )


class TestBasicSync:
    def test_two_oscillators_synchronize(self):
        result = kernel_for(2).run(np.random.default_rng(1))
        assert result.converged
        assert result.final_spread_ms <= 2.0

    def test_mesh_population_synchronizes(self):
        result = kernel_for(30).run(np.random.default_rng(2))
        assert result.converged

    def test_chain_topology_synchronizes(self):
        n = 10
        adj = np.zeros((n, n), dtype=bool)
        for i in range(n - 1):
            adj[i, i + 1] = adj[i + 1, i] = True
        result = kernel_for(n, adjacency=adj).run(np.random.default_rng(3))
        assert result.converged

    def test_single_active_node_trivially_synced(self):
        active = np.zeros(5, dtype=bool)
        active[2] = True
        result = kernel_for(5).run(np.random.default_rng(4), active=active)
        assert result.converged
        assert result.fires == 1

    def test_messages_equal_fires(self):
        result = kernel_for(10).run(np.random.default_rng(5))
        assert result.messages == result.fires

    def test_phases_identical_after_convergence(self):
        result = kernel_for(15).run(np.random.default_rng(6))
        phases = result.final_phase
        assert np.nanmax(phases) - np.nanmin(phases) <= 0.03


class TestPhysicalConstraints:
    def test_identical_phases_converge_first_instant(self):
        phases = np.full(8, 0.5)
        result = kernel_for(8).run(
            np.random.default_rng(7), initial_phases=phases
        )
        assert result.converged
        assert result.instants == 1

    def test_no_zero_time_network_avalanche(self):
        """One PRC per instant: widely-spread phases cannot collapse in one
        instant over a mesh (the unphysical cascade the kernel forbids)."""
        n = 40
        phases = np.linspace(0.0, 0.975, n)
        result = kernel_for(n).run(
            np.random.default_rng(8), initial_phases=phases
        )
        assert result.converged
        assert result.instants > 3

    def test_subset_active_only_those_fire(self):
        active = np.zeros(10, dtype=bool)
        active[:4] = True
        result = kernel_for(10).run(np.random.default_rng(9), active=active)
        assert result.converged
        phases = result.final_phase
        assert np.isnan(phases[4:]).all()
        assert not np.isnan(phases[:4]).any()

    def test_timeout_returns_not_converged(self):
        # zero-coupling PRC: phases never move toward each other
        noop = LinearPRC(1.0, 0.0)
        result = kernel_for(5, prc=noop).run(
            np.random.default_rng(10), max_time_ms=500.0
        )
        assert not result.converged
        assert result.time_ms <= 500.0 + 100.0


class TestCollisionPolicies:
    def test_tolerant_converges_even_with_equal_powers(self):
        result = kernel_for(8, policy="tolerant").run(np.random.default_rng(11))
        assert result.converged

    def test_capture_converges_with_power_diversity_and_fading(self):
        """Capture-policy sync needs *variation* — fading rotates which copy
        of a group superposition captures, letting groups merge."""
        n = 8
        kernel = csr_pulse_kernel(
            varied_radio(n, seed=11),
            ~np.eye(n, dtype=bool),
            LinearPRC.from_dissipation(3.0, 0.08),
            period_ms=100.0,
            threshold_dbm=-95.0,
            refractory_ms=1.0,
            sync_window_ms=2.0,
            collision_policy="capture",
            fading=HashedRayleighFading(1),
        )
        result = kernel.run(np.random.default_rng(11), max_time_ms=120_000.0)
        assert result.converged

    def test_capture_without_fading_stalls_in_group_mute_plateau(self):
        """Without fading, synchronized groups are permanently undecodable
        superpositions under capture — the near-sync plateau persists."""
        n = 8
        kernel = csr_pulse_kernel(
            varied_radio(n, seed=11),
            ~np.eye(n, dtype=bool),
            LinearPRC.from_dissipation(3.0, 0.08),
            period_ms=100.0,
            threshold_dbm=-95.0,
            refractory_ms=1.0,
            sync_window_ms=2.0,
            collision_policy="capture",
        )
        result = kernel.run(np.random.default_rng(11), max_time_ms=30_000.0)
        assert not result.converged
        # ... but it got close: a small residual spread, not chaos
        assert result.final_spread_ms < 30.0

    def test_equal_power_superposition_is_undecodable(self):
        """With exactly equal powers, capture can never separate a clash —
        synchronized groups go mute to outsiders under 'capture'."""
        tol = kernel_for(12, policy="tolerant").run(np.random.default_rng(12))
        cap = kernel_for(12, policy="capture").run(
            np.random.default_rng(12), max_time_ms=20_000.0
        )
        assert tol.converged
        assert cap.time_ms >= tol.time_ms

    def test_destructive_never_faster_than_tolerant(self):
        tol = kernel_for(20, policy="tolerant").run(np.random.default_rng(12))
        dst = kernel_for(20, policy="destructive").run(
            np.random.default_rng(12), max_time_ms=20_000.0
        )
        assert dst.time_ms >= tol.time_ms


class TestDecodingTracking:
    def _decode_kernel(self, n, seed):
        """Varied powers + fading: both are needed for the capture rule to
        rotate decode winners once the population synchronizes."""
        return csr_pulse_kernel(
            varied_radio(n, seed=seed),
            ~np.eye(n, dtype=bool),
            LinearPRC.from_dissipation(3.0, 0.08),
            period_ms=100.0,
            threshold_dbm=-95.0,
            refractory_ms=1.0,
            sync_window_ms=2.0,
            fading=HashedRayleighFading(seed + 100),
        )

    def test_decoding_stalls_after_synchronization(self):
        """The motivating property of the beacon channel (DESIGN §3): once
        the population synchronizes, PSs superpose every instant and most
        identities become undecodable — in-band discovery starves."""
        n = 6
        required = ~np.eye(n, dtype=bool)
        result = self._decode_kernel(n, 13).run(
            np.random.default_rng(13),
            required_decoding=required,
            max_time_ms=30_000.0,
        )
        # sync succeeded early, yet the decoding requirement starves
        assert np.isfinite(result.sync_time_ms)
        assert not result.converged
        missing = (required & ~result.decoded).sum()
        assert missing > 0

    def test_partial_decoding_happens_before_sync(self):
        """Pre-sync fires are often solo — plenty of pairs decode early."""
        n = 6
        required = ~np.eye(n, dtype=bool)
        result = self._decode_kernel(n, 14).run(
            np.random.default_rng(14),
            required_decoding=required,
            max_time_ms=30_000.0,
        )
        assert result.decoded.sum() >= n  # many pairs learned
        assert result.sync_time_ms <= result.time_ms

    def test_decode_only_mode(self):
        n = 4
        required = ~np.eye(n, dtype=bool)
        noop = LinearPRC(1.0, 0.0)  # no sync will ever happen
        result = kernel_for(n, prc=noop).run(
            np.random.default_rng(15),
            require_sync=False,
            required_decoding=required,
            max_time_ms=60_000.0,
        )
        assert result.converged

    def test_half_duplex_no_self_decode(self):
        n = 4
        required = np.zeros((n, n), dtype=bool)
        result = kernel_for(n).run(
            np.random.default_rng(16),
            required_decoding=required,
        )
        assert not result.decoded.diagonal().any()


class TestFading:
    def test_fading_runs_still_converge(self):
        result = kernel_for(
            15, fading=HashedRayleighFading(17)
        ).run(np.random.default_rng(18), max_time_ms=120_000.0)
        assert result.converged


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="align"):
            SparsePulseSyncKernel(
                np.array([0, 1, 2]),
                np.array([1, 0]),
                np.array([-60.0]),
                LinearPRC(1.1, 0.01),
                period_ms=100.0,
                threshold_dbm=-95.0,
            )

    def test_no_condition_rejected(self):
        with pytest.raises(ValueError, match="convergence condition"):
            kernel_for(3).run(np.random.default_rng(0), require_sync=False)

    def test_no_active_rejected(self):
        with pytest.raises(ValueError):
            kernel_for(3).run(
                np.random.default_rng(0), active=np.zeros(3, dtype=bool)
            )

    def test_bad_phases_rejected(self):
        with pytest.raises(ValueError):
            kernel_for(3).run(
                np.random.default_rng(0), initial_phases=np.array([0.0, 0.5, 1.0])
            )

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            kernel_for(3, policy="bogus")
