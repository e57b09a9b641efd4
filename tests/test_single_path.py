"""The single execution path against oracles that are not backend twins.

Every simulation builds the CSR :class:`~repro.radio.sparse_link.
SparseLinkBudget` and runs the CSR kernels.  What is checked here:

* the CSR link set against a brute-force O(n²)
  :class:`~repro.radio.link.LinkBudget` over the same positions and
  channel keys — every dense link present with bitwise power, nothing
  extra;
* the O(1) replay-ledger answers against a BFS written in this file;
* the heavy-edge forest, its stitching and the required-edge mask
  against dense references;
* every faulted ST/FST case of the former backend-parity suites, run
  once under :class:`~repro.faults.InvariantChecker` and compared with
  result digests recorded before the backends were merged;
* that ``PaperConfig.backend`` stays an accepted input that changes
  nothing: faulted runs under a label other than their size class hit
  the same digests, and ``resolved_backend`` is a label of size alone;
* the pulse-sync and beacon kernels on small matrix radios against
  result digests recorded from the matrix-input kernels before they
  were deleted (every collision policy, hashed and no fading, decoding
  requirements, fault plans, duty cycling, preamble pools, a never-
  detectable required pair and a continued run).
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.conformance.canonical import content_hash
from repro.core.batch import BatchReplayLedger, TreeDistanceOracle
from repro.core.beacon import BeaconDiscovery, top_k_required, top_k_required_csr
from repro.core.config import BATCH_LABEL_DEVICES, SPARSE_LABEL_DEVICES, PaperConfig
from repro.core.fst import FSTSimulation, heavy_edge_forest_csr, stitch_forest_csr
from repro.core.network import D2DNetwork
from repro.core.st import STSimulation
from repro.faults import InvariantChecker
from repro.faults.plan import FaultConfig, FaultPlan
from repro.oscillator.prc import LinearPRC
from repro.radio.fading import HashedRayleighFading, NoFading
from repro.radio.link import LinkBudget
from repro.spanningtree.boruvka import distributed_boruvka_csr
from repro.spanningtree.mst import maximum_spanning_tree
from repro.spanningtree.unionfind import UnionFind
from tests.conftest import csr_pulse_kernel

FAULTS = (
    "beacon_loss=0.05,collision=0.1,crash=0.15,stall=0.05,"
    "ps_loss=0.01,drift=0.001,crash_window_ms=3000,stall_window_ms=3000"
)

#: ``content_hash`` of each faulted run's result, recorded on the batch
#: path of the three-backend code just before the backends were merged;
#: its parity suites held sparse (and, to n = 128, dense) to the same
#: results.  ST n=128 seed 5 and both n=512 runs do not converge: their
#: trim runs to the 300 s horizon (ROADMAP, open item 3).
FAULTED_DIGESTS = {
    ("st", 32, 1): "0fe351e4f4b0ddad48c49697efe5cf947d41c9b2ef2fc64586a25d8bdd86d76f",
    ("st", 32, 5): "94a907e3589ae9d972d5918339756e1b66de7584cc8cafee666ad35d1aa803d4",
    ("st", 128, 1): "9a1b21a9d8f7a06ba75bb7faa7fd87d1a369bca2704e1032f32d8f31455269d0",
    ("st", 128, 5): "c7da6987b3dc90f31c8fe16a6b3df9a98612eb99a688d5fa1a67886dce4919b4",
    ("st", 512, 1): "e663e23eecfd03fe2344b1f0f49e34f11b904f8f0447dafc94964e7be51e6370",
    ("st", 512, 5): "2b12653a9adaa64700a4269d8fe8228df6586bc256f96d1ee4ed823d148c1b2a",
    ("fst", 32, 7): "bb1d00e03bc11055f84e20051d4a93dcb4ffcde59e0fc762bb9754125fcac998",
    ("fst", 128, 7): "41c9aaa79effe422648448ef685735d3c2b8952107886ec39abd824c4757b5f6",
}


#: ``content_hash`` of each kernel case, recorded from the matrix-input
#: pulse-sync kernel and the ``(n, n)`` beacon engine just before they
#: were deleted.
#: Keys: (collision policy, fading, variant).
PULSE_DIGESTS = {
    ("tolerant", "hashed", "plain"): "1369fb6e8e38d3a5ca16c2ec93941944f85d581f70a507997770070aa54f5141",
    ("tolerant", "hashed", "decoding"): "6de43664cae8628614faa444263aa1cf0d3b4b3c29998b3e08ad05dd9547eb8f",
    ("tolerant", "hashed", "faults"): "c9ee56fd4947c737b1deed7284b467e4b1cbc7747b537e3bf5af69d011602c2e",
    ("tolerant", "none", "plain"): "7ab966e5caea6175f34d10e507a0f280b83d5c3f42bd505960ab7f7f01581d7b",
    ("tolerant", "none", "decoding"): "d05918993ebdec5a1920da282c96e469166eac9872bec197f548ee703d98f493",
    ("tolerant", "none", "faults"): "878f79db75623e6d2a14d9b8c45a4abd82fa222e2547cac7f460a90d112f3749",
    ("capture", "hashed", "plain"): "d662e3d95a4851f155466f968064eddec7277580930ec1a86f92ed322784d76c",
    ("capture", "hashed", "decoding"): "d6e2f1a9549ad37ec4a074f7113dbe22a8f930f98afd4a8301c4731c2a0a0470",
    ("capture", "hashed", "faults"): "f0010cc8a6ec788eaf5c2fba0f7dd4305b26d405ece96932225c0a7a94ecf6ef",
    ("capture", "none", "plain"): "de0b23013e50b2c4cad65466a37019386a208c23138973d9c1ad33aac2b3bd85",
    ("capture", "none", "decoding"): "3dfb47257b2c3d51276a764ca5b90645567b9990b21ae7d1c3c0484c4fd15d5f",
    ("capture", "none", "faults"): "d3fa3302a4bbc083f889f1e77251bf843d9037368616e6d59ae2922986bbf032",
    ("destructive", "hashed", "plain"): "ffc8e7fe9e493cd6ecec762dbb34fcd723b752e0784b3845ad7f3e85e8339389",
    ("destructive", "hashed", "decoding"): "0d71b5b39d778d6def96776e1ba74ea38df1858c7a09f0b62034748cd0991cf5",
    ("destructive", "hashed", "faults"): "456697da392c3d53ba152f75a31ca136148f27b2796dcbb67e952e080b93a96d",
    ("destructive", "none", "plain"): "2804284fbb4d449e872aeabce0820923ab4f47bc0bd5bd54f08e83e8b2687953",
    ("destructive", "none", "decoding"): "cd05ec27fea3914344e74019d92fc0e6a5d1c20a56459a95c6f214e0d5c42069",
    ("destructive", "none", "faults"): "d580ba72bb29f3a0c918cd089bbeaacefa30ba48b3a52fdd58ecf3e51d282689",
}

#: Keys: (fading, variant).
BEACON_DIGESTS = {
    ("hashed", "plain"): "9b2d50dfce8a506241435035502568df76cb6cfa5cb420b299384e2e6058d905",
    ("hashed", "faults"): "4a188c43c600a5bba9f9801a5804a29fbdc64e00b905df92fdd6f84998b576ef",
    ("hashed", "duty"): "a99884ee12386ed455bdca0c68b533a16699bda63831e373bbfc870785f4639d",
    ("hashed", "preambles"): "9d1360fcc72d45c74f835787473374c61f0d16b4b7db0e3bd880b7c07b0fdc3b",
    ("hashed", "undetectable"): "59f95716783e313cee53f2d1d393bbe8c11f212c5d492e57dd07b32b32a898e4",
    ("hashed", "continued"): "09bdef23613024e375089bb613926ecd4a98dd050cebcc3e61a5bfbdc4c2eb60",
    ("none", "plain"): "299542b823e941c024b32910dd19e3abf506865904da31afaf05ae15535edc2f",
    ("none", "faults"): "dc32ad23cdc111b58a72cf54db1396a7ecf902eb3ffb3b9dc796a841dfde4206",
    ("none", "duty"): "a0734db727a22b997277953f0393011a9b90d022120a9ccb1f9b0fa145bf2f18",
    ("none", "preambles"): "ce56cad9261660e45ca2f67c797f8d2a6348ebbb27a45159a66bdf39d45e7780",
    ("none", "undetectable"): "37d816777b872f2fbc873d1cca9736d6cb4109fba808308925e2e1957da8faa7",
    ("none", "continued"): "af1e59d729c60c361528bcd8bc40fd5f12d331a6fa58ca9cbda4e2519de18566",
}


def _result_digest(run) -> str:
    return content_hash(
        {
            "converged": run.converged,
            "time_ms": run.time_ms,
            "messages": run.messages,
            "message_breakdown": run.message_breakdown,
            "tree_edges": [list(e) for e in run.tree_edges],
            "extra": run.extra,
        }
    )


def _matrix_radio(seed: int, n: int = 30) -> np.ndarray:
    """Symmetric mean powers spanning well below to well above threshold."""
    m = np.random.default_rng(seed).uniform(-112.0, -60.0, size=(n, n))
    m = np.minimum(m, m.T)
    np.fill_diagonal(m, -np.inf)
    return m


def _case_fading(name: str):
    return HashedRayleighFading(0x5EED) if name == "hashed" else NoFading()


def _case_faults(n: int) -> FaultPlan:
    return FaultPlan(0xFA17, FaultConfig.from_spec(FAULTS), n)


def _brute_force_links(net: D2DNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric adjacency and PS weights from an O(n²) link budget."""
    budget = LinkBudget(
        net.positions,
        net.pathloss,
        tx_power_dbm=net.config.tx_power_dbm,
        threshold_dbm=net.config.threshold_dbm,
        shadowing=net._make_shadowing(net.shadow_key),
        fading=net._make_fading(),
    )
    adjacency = budget.adjacency()
    adjacency &= adjacency.T
    np.fill_diagonal(adjacency, False)
    return adjacency, 0.5 * (budget.mean_rx_dbm + budget.mean_rx_dbm.T)


def _bfs_distances(adj: dict[int, list[int]], src: int) -> dict[int, int]:
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


class TestConfig:
    def test_backend_is_accepted_and_changes_nothing(self):
        base = D2DNetwork(PaperConfig(n_devices=48, seed=2))
        for backend in ("dense", "sparse", "batch"):
            net = D2DNetwork(PaperConfig(n_devices=48, seed=2, backend=backend))
            assert np.array_equal(net.positions, base.positions)
            assert np.array_equal(net.sparse_budget.indptr, base.sparse_budget.indptr)
            assert np.array_equal(
                net.sparse_budget.power_dbm, base.sparse_budget.power_dbm
            )
        with pytest.raises(ValueError):
            PaperConfig(backend="cuda")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PaperConfig(shadow_clip_sigma=-1.0)
        with pytest.raises(ValueError):
            PaperConfig(shadow_clip_sigma=0.0)
        with pytest.raises(ValueError):
            PaperConfig(n_devices=1)
        with pytest.raises(ValueError):
            PaperConfig(faults=3)

    def test_resolved_backend_is_a_size_label(self):
        assert PaperConfig(n_devices=100).resolved_backend == "dense"
        assert PaperConfig(n_devices=2000).resolved_backend == "sparse"
        assert PaperConfig(n_devices=20000).resolved_backend == "batch"
        assert PaperConfig(n_devices=20000, backend="dense").resolved_backend == "batch"

    def test_resolved_backend_label_thresholds(self):
        for n, label in (
            (SPARSE_LABEL_DEVICES - 1, "dense"),
            (SPARSE_LABEL_DEVICES, "sparse"),
            (BATCH_LABEL_DEVICES - 1, "sparse"),
            (BATCH_LABEL_DEVICES, "batch"),
        ):
            for backend in ("auto", "dense", "sparse", "batch"):
                cfg = PaperConfig(n_devices=n, backend=backend)
                assert cfg.resolved_backend == label, (n, backend)


class TestLinkBudgetOracle:
    @pytest.mark.parametrize("n", [32, 128, 512])
    def test_csr_matches_brute_force(self, n):
        net = D2DNetwork(PaperConfig(n_devices=n, seed=3))
        adjacency, weights = _brute_force_links(net)
        sb = net.sparse_budget
        iu, ju = np.nonzero(adjacency)
        assert set(zip(sb.link_row_ids.tolist(), sb.link_indices.tolist())) == set(
            zip(iu.tolist(), ju.tolist())
        )
        assert sb.link_count == iu.size, "no extra CSR links"
        assert np.array_equal(
            sb.link_power_dbm, weights[sb.link_row_ids, sb.link_indices]
        ), "CSR link powers must BE the symmetrized weights, bitwise"
        assert np.array_equal(sb.degrees(), adjacency.sum(axis=1))
        assert not net.densified, "the oracle must not go through the network"

    def test_lazy_views_match_brute_force(self):
        net = D2DNetwork(PaperConfig(n_devices=64, seed=5))
        adjacency, weights = _brute_force_links(net)
        assert np.array_equal(net.adjacency, adjacency)
        assert np.array_equal(net.weights, weights)
        assert net.densified  # and it is recorded


class TestKernelOracles:
    @pytest.mark.parametrize("n", [32, 128, 512])
    def test_top_k_required_matches_dense(self, n):
        net = D2DNetwork(PaperConfig(n_devices=n, seed=3))
        sb = net.sparse_budget
        for k in (1, 3):
            mask = top_k_required_csr(sb, k)
            dense = top_k_required(net.weights, net.adjacency, k)
            tx, rx = sb.row_ids[mask], sb.indices[mask]
            # edge tx -> rx required <=> receiver rx must decode sender tx
            assert set(zip(rx.tolist(), tx.tolist())) == set(
                zip(*(a.tolist() for a in np.nonzero(dense)))
            ), k

    def test_heavy_edge_forest_stitches_to_the_mst(self):
        net = D2DNetwork(PaperConfig(n_devices=128, seed=4))
        sb = net.sparse_budget
        forest = heavy_edge_forest_csr(sb)
        w = np.where(net.adjacency, net.weights, -np.inf)
        best = np.argmax(w, axis=1)
        assert forest == sorted(
            {(min(u, int(v)), max(u, int(v))) for u, v in enumerate(best)}
        )
        tree, stitches = stitch_forest_csr(forest, sb)
        # the heavy-edge forest lies inside the unique maximum spanning
        # tree, so its Kruskal completion is that tree
        assert tree == maximum_spanning_tree(net.weights, net.adjacency)
        assert stitches == len(tree) - len(forest)

    def test_distance_oracle_and_ledger_match_bfs(self):
        net = D2DNetwork(PaperConfig(n_devices=64, seed=4))
        sb = net.sparse_budget
        res = distributed_boruvka_csr(
            64, sb.link_indptr, sb.link_indices, sb.link_power_dbm
        )
        oracle = TreeDistanceOracle(64, res.edges)
        full: dict[int, list[int]] = {}
        for u, v in res.edges:
            full.setdefault(u, []).append(v)
            full.setdefault(v, []).append(u)
        for x in range(64):
            for y, d in _bfs_distances(full, x).items():
                assert oracle.distance(x, y) == d

        ledger = BatchReplayLedger(64, res.edges)
        uf = UnionFind(64)
        partial: dict[int, list[int]] = {}
        for phase in res.phases:
            for u, v in phase.chosen_edges:
                assert ledger.merge(u, v)
                uf.union(u, v)
                partial.setdefault(u, []).append(v)
                partial.setdefault(v, []).append(u)
                # double BFS on the fragment as it stands after the merge
                far = max(_bfs_distances(partial, u).items(), key=lambda kv: kv[1])[0]
                diameter = max(_bfs_distances(partial, far).values())
                assert ledger.diameter_of(u) == diameter
                assert ledger.size_of(v) == uf.size_of(u)
        assert ledger.count == 1
        assert ledger.all_tree_edges() == sorted(res.edges)


class TestKernelDigests:
    """The CSR kernels reproduce the deleted matrix kernels bitwise."""

    @pytest.mark.parametrize("case", sorted(PULSE_DIGESTS), ids=str)
    def test_pulse_sync_matches_recorded_digest(self, case):
        policy, fading, variant = case
        mean = _matrix_radio(21)
        kernel = csr_pulse_kernel(
            mean,
            mean >= -100.0,
            LinearPRC.from_dissipation(3.0, 0.08),
            period_ms=100.0,
            threshold_dbm=-95.0,
            refractory_ms=1.0,
            sync_window_ms=2.0,
            fading=_case_fading(fading),
            collision_policy=policy,
        )
        kwargs = {}
        if variant == "decoding":
            kwargs["required_decoding"] = mean >= -80.0
        elif variant == "faults":
            kwargs["faults"] = _case_faults(mean.shape[0])
        r = kernel.run(np.random.default_rng(3), max_time_ms=20_000.0, **kwargs)
        digest = content_hash(
            {
                "converged": r.converged,
                "time_ms": r.time_ms,
                "messages": r.messages,
                "fires": r.fires,
                "instants": r.instants,
                "final_spread_ms": r.final_spread_ms,
                "sync_time_ms": r.sync_time_ms,
                "discovery_time_ms": r.discovery_time_ms,
                "final_phase": r.final_phase,
                "decoded": r.decoded,
            }
        )
        assert digest == PULSE_DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(BEACON_DIGESTS), ids=str)
    def test_beacon_matches_recorded_digest(self, case):
        fading, variant = case
        mean = _matrix_radio(22)
        required = mean >= -90.0
        options = {}
        kwargs = {"max_periods": 200}
        if variant == "duty":
            options["listen_duty"] = 0.5
        elif variant == "preambles":
            options["preambles"] = 3
        elif variant == "faults":
            kwargs["faults"] = _case_faults(mean.shape[0])
        elif variant == "undetectable":
            mean[0, 1] = mean[1, 0] = -np.inf
            required[0, 1] = required[1, 0] = True
            kwargs["max_periods"] = 60
        disc = BeaconDiscovery(
            mean,
            threshold_dbm=-95.0,
            period_slots=20,
            fading=_case_fading(fading),
            **options,
        )
        rng = np.random.default_rng(4)
        if variant == "continued":
            first = disc.run(rng, required, max_periods=3)
            r = disc.run(rng, required, decoded=first.decoded, **kwargs)
            assert r.decoded is first.decoded  # continued in place
        else:
            r = disc.run(rng, required, **kwargs)
        digest = content_hash(
            {
                "complete": r.complete,
                "periods": r.periods,
                "time_ms": r.time_ms,
                "messages": r.messages,
                "decoded": r.decoded,
                "missing_pairs": r.missing_pairs,
                "retries": r.retries,
                "faults_injected": r.faults_injected,
            }
        )
        assert digest == BEACON_DIGESTS[case]


class TestFaultedRuns:
    """The faulted cases of the former parity suites, digest-pinned."""

    @pytest.mark.parametrize(
        "algorithm,n,seed", sorted(FAULTED_DIGESTS), ids=lambda v: str(v)
    )
    def test_faulted_run_matches_recorded_digest(self, algorithm, n, seed):
        net = D2DNetwork(PaperConfig(n_devices=n, seed=seed, faults=FAULTS))
        sim = STSimulation if algorithm == "st" else FSTSimulation
        run = sim(net, invariants=InvariantChecker()).run()
        assert _result_digest(run) == FAULTED_DIGESTS[(algorithm, n, seed)]
        assert not net.densified, "faulted runs must never densify"

    @pytest.mark.parametrize(
        "algorithm,n,seed",
        sorted(k for k in FAULTED_DIGESTS if k[1] <= 128),
        ids=lambda v: str(v),
    )
    def test_faulted_run_ignores_backend_label(self, algorithm, n, seed):
        # "sparse" is not the size-class label of n <= 128: nothing in a
        # run (fault draws included) may read the backend field
        cfg = PaperConfig(n_devices=n, seed=seed, faults=FAULTS, backend="sparse")
        sim = STSimulation if algorithm == "st" else FSTSimulation
        run = sim(D2DNetwork(cfg)).run()
        assert _result_digest(run) == FAULTED_DIGESTS[(algorithm, n, seed)]

    @pytest.mark.parametrize("backend", ["dense", "sparse", "batch"])
    def test_faulted_run_is_repeatable(self, backend):
        cfg = PaperConfig(n_devices=32, seed=5, faults=FAULTS, backend=backend)
        a = STSimulation(D2DNetwork(cfg)).run()
        b = STSimulation(D2DNetwork(cfg)).run()
        assert _result_digest(a) == _result_digest(b)


def test_ghs_merge_rule_falls_back_to_densify():
    net = D2DNetwork(PaperConfig(n_devices=32, seed=1, merge_rule="ghs"))
    assert STSimulation(net).run().converged
    assert net.densified  # GHS has no CSR port: documented fallback
