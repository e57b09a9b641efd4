"""Sparse (CSR) link budget over spatial-grid candidate pairs.

:class:`SparseLinkBudget` is the O(E) counterpart of
:class:`~repro.radio.link.LinkBudget`: it computes mean received power
only on *candidate* links generated by the cell grid
(:mod:`repro.radio.spatial`) and stores them in CSR form.  Candidates are
streamed in bounded chunks, so nothing of size n² is ever allocated.

Two nested edge sets are kept:

* the **radio graph** — links whose mean power is within the fading cap
  of the detection threshold (``mean ≥ threshold − headroom``).  These
  are the links any kernel event can possibly detect (an up-fade of at
  most :data:`~repro.radio.fading.FADE_CAP_DB` dB), including the
  sub-threshold-mean links that contribute beacon interference;
* the **proximity graph** G(V, E) — the subset with ``mean ≥ threshold``,
  i.e. the paper's adjacency, with the PS-strength weights.

Correctness of the pruning relies on both channel impairments being
bounded: shadowing is clipped (:class:`~repro.radio.shadowing.
HashedShadowing`) and hashed Rayleigh fading is capped, so the candidate
radius ``r_max`` provably covers every possible radio-graph link.  Both
bounds apply identically in the O(n²) :class:`~repro.radio.link.LinkBudget`,
so the CSR link set and powers equal a brute-force build over the same
positions and keys (``tests/test_single_path.py``).
"""

from __future__ import annotations

import numpy as np

from repro.radio.fading import FADE_CAP_DB, HashedRayleighFading, NoFading
from repro.radio.pathloss import PathLossModel, max_range_m
from repro.radio.shadowing import HashedShadowing, NoShadowing
from repro.radio.spatial import DEFAULT_CHUNK_PAIRS, candidate_pair_chunks


def gather_rows(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Edge positions and repeated row ids for a set of CSR rows.

    Returns ``(epos, erow)``: ``epos`` indexes the CSR data arrays for
    every edge of every requested row (rows in given order, edges in-row
    order), ``erow`` is the row id repeated per edge.  Fully vectorized —
    this is the primitive behind every sparse hot loop.
    """
    rows = np.asarray(rows)
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # epos = concat(arange(starts[k], starts[k]+counts[k]) for k)
    excl = np.concatenate(([0], np.cumsum(counts)[:-1]))
    epos = np.arange(total, dtype=np.int64) + np.repeat(starts - excl, counts)
    return epos, np.repeat(rows, counts)


def csr_from_edges(
    n: int, tx: np.ndarray, rx: np.ndarray, *arrays: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Build a CSR (indptr, indices, per-edge data) from directed edges.

    Edges are sorted by ``(tx, rx)``; the data arrays are permuted along.
    """
    tx = np.asarray(tx, dtype=np.int64)
    rx = np.asarray(rx, dtype=np.int64)
    order = np.lexsort((rx, tx))
    indices = rx[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tx, minlength=n), out=indptr[1:])
    return indptr, indices, tuple(a[order] for a in arrays)


def csr_is_connected(n: int, indptr: np.ndarray, indices: np.ndarray) -> bool:
    """BFS connectivity on a symmetric CSR graph (vectorized frontiers)."""
    if n == 0:
        return True
    visited = np.zeros(n, dtype=bool)
    frontier = np.array([0], dtype=np.int64)
    visited[0] = True
    reached = 1
    while frontier.size:
        epos, _ = gather_rows(indptr, frontier)
        nbrs = indices[epos]
        new = nbrs[~visited[nbrs]]
        if new.size == 0:
            break
        new = np.unique(new)
        visited[new] = True
        reached += new.size
        frontier = new
    return reached == n


class SparseLinkBudget:
    """CSR received-power computation over grid-generated candidate links.

    Shares the dense :class:`~repro.radio.link.LinkBudget` constructor
    vocabulary; requires counter-based channel models
    (:class:`HashedShadowing`/:class:`NoShadowing` and
    :class:`HashedRayleighFading`/:class:`NoFading`), whose draws can be
    evaluated per edge.

    Attributes
    ----------
    indptr, indices, power_dbm:
        The radio graph (see module docstring), CSR by transmitter, rows
        sorted by receiver id.  ``power_dbm`` is mean received power.
    link_indptr, link_indices, link_power_dbm:
        The proximity graph (``mean ≥ threshold``) — symmetric, since
        loss and shadowing are.
    """

    def __init__(
        self,
        positions: np.ndarray,
        pathloss: PathLossModel,
        *,
        tx_power_dbm: float = 23.0,
        threshold_dbm: float = -95.0,
        shadowing=None,
        fading=None,
        max_chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
    ) -> None:
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(
                f"positions must have shape (n, 2), got {positions.shape}"
            )
        self.positions = positions
        self.n = n = positions.shape[0]
        self.pathloss = pathloss
        self.tx_power_dbm = float(tx_power_dbm)
        self.threshold_dbm = float(threshold_dbm)
        self.shadowing = shadowing if shadowing is not None else NoShadowing()
        self.fading = fading if fading is not None else NoFading()
        if not hasattr(self.shadowing, "link_db"):
            raise TypeError(
                "SparseLinkBudget needs counter-based shadowing "
                "(HashedShadowing or NoShadowing), got "
                f"{type(self.shadowing).__name__}"
            )
        if isinstance(self.fading, NoFading):
            self.headroom_db = 0.0
        elif isinstance(self.fading, HashedRayleighFading):
            self.headroom_db = FADE_CAP_DB
        else:
            raise TypeError(
                "SparseLinkBudget needs counter-based fading "
                "(HashedRayleighFading or NoFading), got "
                f"{type(self.fading).__name__}"
            )

        # a link can enter the radio graph only if loss ≤ budget:
        #   tx − loss − shadow ≥ threshold − headroom, shadow ≥ −max_gain
        self.r_max_m = max_range_m(
            pathloss,
            tx_power_dbm,
            threshold_dbm - self.headroom_db - self.shadowing.max_gain_db,
            hi=self._bbox_diagonal(positions),
        )

        keep_i: list[np.ndarray] = []
        keep_j: list[np.ndarray] = []
        keep_p: list[np.ndarray] = []
        r2 = self.r_max_m * self.r_max_m
        keep_floor = self.threshold_dbm - self.headroom_db
        x = np.ascontiguousarray(positions[:, 0])
        y = np.ascontiguousarray(positions[:, 1])
        for ci, cj in candidate_pair_chunks(
            positions, self.r_max_m, max_chunk_pairs=max_chunk_pairs
        ):
            # filter on squared distance; sqrt only the survivors (the
            # d² expression matches the dense einsum term-for-term, so
            # the surviving distances stay bitwise-identical)
            dx = x[ci] - x[cj]
            dy = y[ci] - y[cj]
            d2 = dx * dx + dy * dy
            near = d2 <= r2 * (1.0 + 1e-12)
            ci, cj = ci[near], cj[near]
            if ci.size == 0:
                continue
            d = np.sqrt(d2[near])
            power = self._mean_power(ci, cj, d)
            keep = power >= keep_floor
            keep_i.append(ci[keep])
            keep_j.append(cj[keep])
            keep_p.append(power[keep])

        i = np.concatenate(keep_i) if keep_i else np.empty(0, dtype=np.int64)
        j = np.concatenate(keep_j) if keep_j else np.empty(0, dtype=np.int64)
        p = np.concatenate(keep_p) if keep_p else np.empty(0, dtype=float)
        tx = np.concatenate((i, j))
        rx = np.concatenate((j, i))
        pw = np.concatenate((p, p))
        self.indptr, self.indices, (self.power_dbm,) = csr_from_edges(
            n, tx, rx, pw
        )
        #: transmitter id per radio edge (precomputed repeat-by-degree)
        self.row_ids = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self.indptr)
        )
        #: per-radio-edge mask: edge is in the proximity graph
        self.edge_is_link = self.power_dbm >= self.threshold_dbm
        lpos = np.flatnonzero(self.edge_is_link)
        self.link_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.row_ids[lpos], minlength=n),
            out=self.link_indptr[1:],
        )
        self.link_indices = self.indices[lpos]
        self.link_power_dbm = self.power_dbm[lpos]
        self.link_row_ids = self.row_ids[lpos]
        self._edge_codes: np.ndarray | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def _bbox_diagonal(positions: np.ndarray) -> float:
        if positions.shape[0] == 0:
            return 1.0
        span = positions.max(axis=0) - positions.min(axis=0)
        return float(np.sqrt(span[0] ** 2 + span[1] ** 2)) + 1.0

    @staticmethod
    def _pair_distance(
        positions: np.ndarray, i: np.ndarray, j: np.ndarray
    ) -> np.ndarray:
        # mirror the dense einsum exactly: sum of squared differences,
        # then sqrt — bitwise-identical distances
        diff = positions[i] - positions[j]
        return np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])

    def _mean_power(
        self, i: np.ndarray, j: np.ndarray, d: np.ndarray
    ) -> np.ndarray:
        loss = np.asarray(self.pathloss.loss_db(d), dtype=float)
        return self.tx_power_dbm - loss - self.shadowing.link_db(i, j)

    # ------------------------------------------------------------------
    @property
    def edge_count(self) -> int:
        """Directed radio-graph edge count."""
        return int(self.indices.size)

    @property
    def link_count(self) -> int:
        """Directed proximity-graph edge count."""
        return int(self.link_indices.size)

    def degrees(self) -> np.ndarray:
        """Proximity-graph degree per node."""
        return np.diff(self.link_indptr)

    def is_connected(self) -> bool:
        """Connectivity of the proximity graph."""
        return csr_is_connected(self.n, self.link_indptr, self.link_indices)

    def mean_power_dbm(self, tx: int, rx: int) -> float:
        """Mean received power tx→rx (dBm) — dense-compatible query.

        Exact for *any* pair: off-graph pairs are recomputed from first
        principles (same formula, same hash), so the answer always equals
        the dense matrix entry.
        """
        if tx == rx:
            return float("-inf")
        i = np.asarray([tx], dtype=np.int64)
        j = np.asarray([rx], dtype=np.int64)
        d = self._pair_distance(self.positions, i, j)
        return float(self._mean_power(i, j, d)[0])

    def adjacency_pairs(self, margin_db: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Directed (tx, rx) pairs with ``mean ≥ threshold + margin``.

        Supported for ``margin ≥ −headroom`` (below that the radio graph
        no longer covers the requested set).
        """
        if margin_db < -self.headroom_db:
            raise ValueError(
                f"margin_db {margin_db} below the radio-graph floor "
                f"(−{self.headroom_db} dB)"
            )
        mask = self.power_dbm >= self.threshold_dbm + margin_db
        return self.row_ids[mask], self.indices[mask]

    def edge_power_lookup(self, tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
        """Mean power for radio-graph edges (vectorized; edges must exist)."""
        tx = np.asarray(tx, dtype=np.int64)
        rx = np.asarray(rx, dtype=np.int64)
        pos = self.edge_position(tx, rx)
        if np.any(pos < 0):
            raise KeyError("edge not in the radio graph")
        return self.power_dbm[pos]

    def edge_position(self, tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
        """CSR positions of edges tx→rx (−1 where absent), vectorized.

        The CSR is sorted by (tx, rx), so the 64-bit codes
        ``tx << 32 | rx`` are globally sorted — one ``searchsorted`` over
        the precomputed code array answers any batch of queries.
        """
        tx = np.asarray(tx, dtype=np.uint64)
        rx = np.asarray(rx, dtype=np.uint64)
        if self._edge_codes is None:
            self._edge_codes = (
                self.row_ids.astype(np.uint64) << np.uint64(32)
            ) | self.indices.astype(np.uint64)
        codes = (tx << np.uint64(32)) | rx
        pos = np.searchsorted(self._edge_codes, codes)
        pos = np.minimum(pos, max(self._edge_codes.size - 1, 0))
        if self._edge_codes.size == 0:
            return np.full(codes.shape, -1, dtype=np.int64)
        ok = self._edge_codes[pos] == codes
        return np.where(ok, pos, -1).astype(np.int64)

    def __repr__(self) -> str:
        return (
            f"SparseLinkBudget(n={self.n}, edges={self.edge_count}, "
            f"links={self.link_count}, r_max={self.r_max_m:.1f} m)"
        )
