"""SparseLinkBudget vs the dense LinkBudget reference — bitwise parity."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.beacon import SparseBeaconDiscovery
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.core.pulsesync import SparsePulseSyncKernel
from repro.oscillator.prc import LinearPRC
from repro.radio.fading import FADE_CAP_DB, HashedRayleighFading, NoFading
from repro.radio.link import LinkBudget
from repro.radio.pathloss import PaperPathLoss
from repro.radio.shadowing import HashedShadowing, NoShadowing
from repro.radio.sparse_link import (
    SparseLinkBudget,
    csr_from_edges,
    csr_is_connected,
    evaluate_links,
    gather_rows,
)


def _make_pair(n=120, seed=0, sigma=8.0, fading=True):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 100, size=(n, 2))
    shadow = HashedShadowing(sigma, key=seed + 1) if sigma > 0 else NoShadowing()
    fade = HashedRayleighFading(seed + 2) if fading else NoFading()
    kwargs = dict(
        tx_power_dbm=23.0, threshold_dbm=-95.0, shadowing=shadow, fading=fade
    )
    dense = LinkBudget(positions, PaperPathLoss(), **kwargs)
    sparse = SparseLinkBudget(positions, PaperPathLoss(), **kwargs)
    return dense, sparse


class TestGatherRows:
    def test_simple(self):
        indptr = np.array([0, 2, 2, 5], dtype=np.int64)
        epos, rows = gather_rows(indptr, np.array([0, 2], dtype=np.int64))
        assert epos.tolist() == [0, 1, 2, 3, 4]
        assert rows.tolist() == [0, 0, 2, 2, 2]

    def test_empty_selection(self):
        indptr = np.array([0, 3, 4], dtype=np.int64)
        epos, rows = gather_rows(indptr, np.empty(0, dtype=np.int64))
        assert epos.size == 0 and rows.size == 0

    def test_repeated_rows(self):
        indptr = np.array([0, 1, 3], dtype=np.int64)
        epos, rows = gather_rows(indptr, np.array([1, 1], dtype=np.int64))
        assert epos.tolist() == [1, 2, 1, 2]
        assert rows.tolist() == [1, 1, 1, 1]


class TestCsrHelpers:
    def test_csr_from_edges_sorts(self):
        tx = np.array([2, 0, 2, 1], dtype=np.int64)
        rx = np.array([1, 2, 0, 0], dtype=np.int64)
        w = np.array([10.0, 20.0, 30.0, 40.0])
        indptr, indices, (wo,) = csr_from_edges(3, tx, rx, w)
        assert indptr.tolist() == [0, 1, 2, 4]
        assert indices.tolist() == [2, 0, 0, 1]
        assert wo.tolist() == [20.0, 40.0, 30.0, 10.0]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_key_sort_equals_lexsort(self, seed):
        rng = np.random.default_rng(seed)
        n = 300
        codes = rng.choice(n * n, size=4000, replace=False)
        tx, rx = codes // n, codes % n
        w = rng.standard_normal(codes.size)
        indptr, indices, (wo,) = csr_from_edges(n, tx, rx, w)
        order = np.lexsort((rx, tx))
        assert np.array_equal(indices, rx[order])
        assert np.array_equal(wo, w[order])
        assert np.array_equal(np.repeat(np.arange(n), np.diff(indptr)), tx[order])

    def test_is_connected(self):
        # path 0-1-2 plus isolated 3
        tx = np.array([0, 1, 1, 2], dtype=np.int64)
        rx = np.array([1, 0, 2, 1], dtype=np.int64)
        indptr, indices, _ = csr_from_edges(4, tx, rx)
        assert not csr_is_connected(4, indptr, indices)
        indptr3, indices3, _ = csr_from_edges(3, tx, rx)
        assert csr_is_connected(3, indptr3, indices3)
        assert csr_is_connected(1, np.array([0, 0]), np.empty(0, dtype=np.int64))


class TestDenseParity:
    @pytest.mark.parametrize("sigma,fading", [(8.0, True), (8.0, False), (0.0, True)])
    def test_link_sets_and_powers_bitwise(self, sigma, fading):
        dense, sparse = _make_pair(sigma=sigma, fading=fading)
        mean = dense.mean_rx_dbm
        adj = dense.adjacency()
        np.fill_diagonal(adj, False)
        iu, ju = np.nonzero(adj)
        got = set(zip(sparse.link_row_ids.tolist(), sparse.link_indices.tolist()))
        assert got == set(zip(iu.tolist(), ju.tolist()))
        assert np.array_equal(
            sparse.link_power_dbm,
            mean[sparse.link_row_ids, sparse.link_indices],
        )

    def test_radio_graph_includes_fading_headroom(self):
        dense, sparse = _make_pair()
        mean = dense.mean_rx_dbm.copy()
        np.fill_diagonal(mean, -np.inf)
        want = mean >= sparse.threshold_dbm - FADE_CAP_DB
        iu, ju = np.nonzero(want)
        got = set(zip(sparse.row_ids.tolist(), sparse.indices.tolist()))
        assert got == set(zip(iu.tolist(), ju.tolist()))
        assert np.array_equal(sparse.power_dbm, mean[sparse.row_ids, sparse.indices])

    def test_point_queries(self):
        dense, sparse = _make_pair(n=60)
        for tx, rx in [(0, 1), (5, 40), (59, 0), (3, 3)]:
            assert sparse.mean_power_dbm(tx, rx) == dense.mean_power_dbm(tx, rx)

    def test_degrees_and_connectivity(self):
        import networkx as nx

        dense, sparse = _make_pair()
        adj = dense.adjacency() & dense.adjacency().T
        np.fill_diagonal(adj, False)
        assert np.array_equal(sparse.degrees(), adj.sum(axis=1))
        assert sparse.is_connected() == nx.is_connected(nx.from_numpy_array(adj))

    @pytest.mark.parametrize("margin", [0.0, 3.0, -FADE_CAP_DB])
    def test_adjacency_pairs(self, margin):
        dense, sparse = _make_pair()
        want = dense.mean_rx_dbm >= dense.threshold_dbm + margin
        np.fill_diagonal(want, False)
        iu, ju = sparse.adjacency_pairs(margin)
        got = np.zeros_like(want)
        got[iu, ju] = True
        assert np.array_equal(got, want)

    def test_link_at_the_range_boundary_is_kept(self):
        """A pair just inside the true link range but beyond the inner end
        of the range bisection is a link in both builds: the candidate
        radius bounds the range from above."""
        positions = np.array([[0.0, 0.0], [89.1250938, 0.0]])
        kw = dict(tx_power_dbm=23.0, threshold_dbm=-95.0)
        dense = LinkBudget(positions, PaperPathLoss(), **kw)
        sparse = SparseLinkBudget(positions, PaperPathLoss(), **kw)
        assert dense.adjacency()[0, 1]
        assert sparse.link_count == 2
        assert PaperPathLoss().loss_db(sparse.r_max_m) > 23.0 - (-95.0)

    def test_adjacency_pairs_below_headroom_rejected(self):
        _, sparse = _make_pair()
        with pytest.raises(ValueError):
            sparse.adjacency_pairs(-FADE_CAP_DB - 1.0)

    def test_edge_position_and_lookup(self):
        _, sparse = _make_pair(n=80)
        tx = sparse.row_ids[::7]
        rx = sparse.indices[::7]
        pos = sparse.edge_position(tx, rx)
        assert np.array_equal(sparse.power_dbm[pos], sparse.edge_power_lookup(tx, rx))
        # absent edge → -1 / KeyError
        far = sparse.edge_position(np.array([0]), np.array([0]))
        assert far[0] == -1
        with pytest.raises(KeyError):
            sparse.edge_power_lookup(np.array([0]), np.array([0]))


class _MatrixShadowing:
    """Shadowing drawn as a whole (n, n) matrix: no per-link draw."""

    sigma_db = 8.0
    max_gain_db = 24.0

    def link_matrix(self, n):
        return np.zeros((n, n))


class _StreamFading:
    """Fading drawn from a generator stream: no per-(event, tx, rx) draw."""

    def sample_db(self, size=1):
        return np.zeros(size)


class TestGuards:
    def test_stream_models_rejected(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 50, size=(20, 2))
        with pytest.raises(TypeError):
            SparseLinkBudget(
                positions,
                PaperPathLoss(),
                tx_power_dbm=23.0,
                threshold_dbm=-95.0,
                shadowing=_MatrixShadowing(),
                fading=NoFading(),
            )
        with pytest.raises(TypeError):
            SparseLinkBudget(
                positions,
                PaperPathLoss(),
                tx_power_dbm=23.0,
                threshold_dbm=-95.0,
                shadowing=NoShadowing(),
                fading=_StreamFading(),
            )
        # the kernels take only counter-based fading too
        budget = SparseLinkBudget(positions, PaperPathLoss())
        with pytest.raises(TypeError):
            SparseBeaconDiscovery(
                budget, threshold_dbm=-95.0, period_slots=10, fading=_StreamFading()
            )
        with pytest.raises(TypeError):
            SparsePulseSyncKernel(
                budget.indptr,
                budget.indices,
                budget.power_dbm,
                LinearPRC(1.1, 0.01),
                period_ms=100.0,
                threshold_dbm=-95.0,
                fading=_StreamFading(),
            )

    def test_chunked_equals_unchunked(self):
        rng = np.random.default_rng(1)
        positions = rng.uniform(0, 100, size=(100, 2))
        kwargs = dict(
            tx_power_dbm=23.0,
            threshold_dbm=-95.0,
            shadowing=HashedShadowing(8.0, key=9),
            fading=HashedRayleighFading(10),
        )
        a = SparseLinkBudget(positions, PaperPathLoss(), **kwargs)
        b = SparseLinkBudget(
            positions, PaperPathLoss(), max_chunk_pairs=101, **kwargs
        )
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.power_dbm, b.power_dbm)


def _brute_force_links(positions, radius, floor, shadowing, ids, slack):
    """Every pair, no grid and no gain bound: the unpruned evaluator."""
    iu, ju = np.triu_indices(positions.shape[0], k=1)
    dx = positions[iu, 0] - positions[ju, 0]
    dy = positions[iu, 1] - positions[ju, 1]
    d2 = dx * dx + dy * dy
    near = d2 <= radius * radius * (1.0 + slack)
    iu, ju = iu[near], ju[near]
    loss = PaperPathLoss().loss_db(np.sqrt(d2[near]))
    power = 23.0 - loss - shadowing.link_db(ids[iu], ids[ju])
    keep = power >= floor
    return int(near.sum()), iu[keep], ju[keep], power[keep]


def _canonical(i, j, p):
    order = np.lexsort((j, i))
    return i[order], j[order], p[order]


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=0, max_value=80),
    side=st.floats(min_value=1.0, max_value=1500.0),
    radius=st.floats(min_value=1.0, max_value=800.0),
    floor=st.floats(min_value=-115.0, max_value=-70.0),
    sigma=st.sampled_from([0.0, 4.0, 10.0]),
    slack=st.sampled_from([0.0, 1e-12]),
    shuffled_ids=st.booleans(),
)
def test_evaluate_links_matches_unpruned_brute_force(
    seed, n, side, radius, floor, sigma, slack, shuffled_ids
):
    """The stencil grid and the gain bound drop only pairs the floor
    would drop: candidates, links and powers equal the all-pairs
    evaluation bitwise."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, side, size=(n, 2))
    shadowing = HashedShadowing(sigma, key=seed) if sigma else NoShadowing()
    ids = (
        rng.permutation(4 * n + 1)[:n].astype(np.int64)
        if shuffled_ids
        else np.arange(n, dtype=np.int64)
    )
    got = evaluate_links(
        positions,
        radius,
        PaperPathLoss(),
        23.0,
        floor,
        shadowing,
        ids=ids if shuffled_ids else None,
        slack=slack,
        max_chunk_pairs=int(rng.integers(1, 200)),
    )
    want = _brute_force_links(positions, radius, floor, shadowing, ids, slack)
    assert got[0] == want[0]
    assert np.all(got[1] < got[2])
    for a, b in zip(_canonical(*got[1:]), _canonical(*want[1:])):
        assert np.array_equal(a, b)


#: SHA-256 of the radio CSR ``(indptr, indices, power_dbm)`` bytes of
#: ``D2DNetwork(PaperConfig(seed=1).with_devices(n))``, recorded before
#: the disk-stencil grid, the gain bound and the one-key CSR sort: each
#: must leave these bytes unchanged.  (n = 20,000 gives
#: 58c436a9c5db0a4f129dd4cb5ec43a4cc158da895ccd84903156c595fc645bf8.)
CSR_SHA256 = {
    300: "fac871aae4ede12282d667c1bc1cd8b04095771b63c2922eaaeabe5c8d3bd81b",
    5000: "678c4488a8af24a00cf385aeffae64562b13ac0c8cd62c37e8f749660d9dbfd7",
}


@pytest.mark.parametrize("n", sorted(CSR_SHA256))
def test_csr_bytes_are_pinned(n):
    budget = D2DNetwork(PaperConfig(seed=1).with_devices(n)).sparse_budget
    h = hashlib.sha256()
    for a in (budget.indptr, budget.indices, budget.power_dbm):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == CSR_SHA256[n]
