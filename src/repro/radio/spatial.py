"""Uniform cell-grid spatial index for candidate link generation.

The dense pipeline forms an ``(n, n, 2)`` difference tensor to find which
device pairs are in radio range — O(n²) time and memory even when the
proximity graph is sparse.  At constant density the number of pairs
within the maximum detection radius is O(n), so a uniform grid generates
every candidate pair by scanning each cell against the cells that can
hold a partner within the radius: O(n + E_cand) work, streamed in
bounded chunks so nothing of size n² (or even E_cand) is ever resident.

:func:`candidate_pair_chunks` grids at side ``radius / STENCIL_CELLS``
and visits a **disk stencil**: only the cell pairs whose minimum gap is
at most the radius (about 5.6 r² of area against the 9 r² of a 3×3
neighbourhood of radius-side cells).  Each cell is scanned against one
contiguous run of cells per stencil column, with a broadcast
squared-distance test, so only pairs with ``d² ≤ radius²·(1 + slack)``
leave the generator — computed with the consumer's expression, so the
cut is exactly the consumer's own.  When the radius covers the whole
bounding box no pair can be pruned and the generator streams all pairs
untested — the graceful dense fallback.

The generator yields **unordered** pairs ``(i, j)`` with ``i < j``, each
exactly once, in a deterministic order (cells ascending, stencil columns
ascending, members ascending).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

#: Default chunk bound (pairs) for the streamed generator.  Small enough
#: that a chunk's float temporaries (0.5 MB each) stay in cache through
#: the consumer's elementwise passes: at n = 10,000 the link build ran
#: 25% faster than with chunks of 2²¹ pairs.
DEFAULT_CHUNK_PAIRS = 1 << 16

#: Cells per radius in :func:`candidate_pair_chunks`.  Finer cells trace
#: the disk more closely but cost a Python step per cell and column.
STENCIL_CELLS = 4

#: Relative margin on the stencil's gap test: cell pairs whose gap ties
#: the radius are visited, so a point that floor binning moved across a
#: cell border still meets every partner within the radius.
_GAP_MARGIN = 1e-9


def _as_positions(positions: np.ndarray) -> np.ndarray:
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must have shape (n, 2), got {positions.shape}")
    return positions


def half_stencil(reach_cells: float) -> list[tuple[int, int]]:
    """Stencil columns ``(dx, h)`` for cells of side ``radius / reach_cells``.

    Column ``dx ≥ 0`` covers the cells ``dy ∈ [−h, h]`` (``[0, h]`` for
    ``dx = 0``, the cell itself included) whose minimum gap to the home
    cell, ``max(|dx|−1, 0)`` by ``max(|dy|−1, 0)`` cells, is within the
    reach.  With the mirrored columns ``dx < 0`` left to the other cell
    of each pair, every cell pair within the reach is visited once.
    """
    limit = reach_cells * reach_cells * (1.0 + _GAP_MARGIN)
    columns = []
    dx = 0
    while max(dx - 1, 0) ** 2 <= limit:
        gx2 = max(dx - 1, 0) ** 2
        columns.append((dx, 1 + math.isqrt(int(limit - gx2))))
        dx += 1
    return columns


class CellGrid:
    """Uniform grid over 2-D positions with cell side ``cell_m``.

    Members of each occupied cell are kept contiguous in cell-id order
    (``cell = cx · ncy + cy``), so the cells ``cy..cy+h`` of one grid
    column are one slice of the member order.

    Parameters
    ----------
    positions:
        ``(n, 2)`` coordinates in metres.
    cell_m:
        Cell side.
    """

    def __init__(self, positions: np.ndarray, cell_m: float) -> None:
        positions = _as_positions(positions)
        if not cell_m > 0:
            raise ValueError(f"cell_m must be positive, got {cell_m}")
        self.positions = positions
        self.cell_m = float(cell_m)
        n = positions.shape[0]
        if n == 0:
            self.ncx = self.ncy = 0
            cell = np.empty(0, dtype=np.int64)
        else:
            origin = positions.min(axis=0)
            cx = np.floor((positions[:, 0] - origin[0]) / cell_m).astype(np.int64)
            cy = np.floor((positions[:, 1] - origin[1]) / cell_m).astype(np.int64)
            self.ncx = int(cx.max()) + 1
            self.ncy = int(cy.max()) + 1
            cell = cx * self.ncy + cy
        # stable sort → members of each cell stay in ascending node order,
        # making the generated pair order deterministic
        self._order = np.argsort(cell, kind="stable")
        self._cell_ids, starts = np.unique(cell[self._order], return_index=True)
        # member slice of the k-th occupied cell: _order[_bounds[k]:_bounds[k+1]]
        self._bounds = np.append(starts, n).astype(np.int64)

    @property
    def occupied_cells(self) -> int:
        return int(self._cell_ids.size)

    def _column_runs(self, columns: list[tuple[int, int]]) -> np.ndarray:
        """``(k, c, 2)`` member slice of stencil column ``c`` of cell ``k``."""
        ids = self._cell_ids
        cx, cy = np.divmod(ids, self.ncy)
        runs = np.zeros((ids.size, len(columns), 2), dtype=np.int64)
        for c, (dx, h) in enumerate(columns):
            lo = cy if dx == 0 else np.maximum(cy - h, 0)
            hi = np.minimum(cy + h, self.ncy - 1)
            base = (cx + dx) * self.ncy
            k0 = np.searchsorted(ids, base + lo, side="left")
            k1 = np.searchsorted(ids, base + hi, side="right")
            k1 = np.where(cx + dx < self.ncx, k1, k0)
            runs[:, c, 0] = self._bounds[k0]
            runs[:, c, 1] = self._bounds[k1]
        return runs

    def pair_chunks(
        self,
        radius_m: float,
        *,
        slack: float = 0.0,
        max_chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Stream pairs ``(i, j)``, ``i < j``, with ``d² ≤ radius²·(1+slack)``.

        Every such pair appears exactly once, ``d²`` computed as
        ``dx·dx + dy·dy`` on the coordinate differences.  Chunks hold at
        least ``max_chunk_pairs`` pairs (the last one fewer), and each
        tested block holds at most ~``max_chunk_pairs`` pairs (one row
        at least), keeping transient memory bounded regardless of n.
        """
        if max_chunk_pairs < 1:
            raise ValueError("max_chunk_pairs must be >= 1")
        cutoff = radius_m * radius_m * (1.0 + slack)
        runs = self._column_runs(half_stencil(math.sqrt(cutoff) / self.cell_m))
        order = self._order
        xs = self.positions[order, 0]
        ys = self.positions[order, 1]
        buf_i: list[np.ndarray] = []
        buf_j: list[np.ndarray] = []
        buffered = 0
        for k in range(self.occupied_cells):
            s, e = int(self._bounds[k]), int(self._bounds[k + 1])
            for c, (c0, c1) in enumerate(runs[k].tolist()):
                if c1 <= c0:
                    continue
                rows_per_block = max(1, max_chunk_pairs // (c1 - c0))
                for r0 in range(s, e, rows_per_block):
                    r1 = min(r0 + rows_per_block, e)
                    # column 0 starts at the home cell: scan from the
                    # block's first row and keep only the upper triangle
                    lo = r0 if c == 0 else c0
                    dx = xs[r0:r1, None] - xs[None, lo:c1]
                    dy = ys[r0:r1, None] - ys[None, lo:c1]
                    dx *= dx
                    dy *= dy
                    dx += dy
                    near = dx <= cutoff
                    if c == 0:
                        near = np.triu(near, 1)
                    rr, cc = np.nonzero(near)
                    a = order[r0 + rr]
                    b = order[lo + cc]
                    buf_i.append(np.minimum(a, b))
                    buf_j.append(np.maximum(a, b))
                    buffered += rr.size
                    if buffered >= max_chunk_pairs:
                        yield _flush(buf_i, buf_j)
                        buffered = 0
        if buffered:
            yield _flush(buf_i, buf_j)


def _flush(
    buf_i: list[np.ndarray], buf_j: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    i = np.concatenate(buf_i)
    j = np.concatenate(buf_j)
    buf_i.clear()
    buf_j.clear()
    return i, j


def _all_pair_chunks(
    n: int, max_chunk_pairs: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every pair ``i < j`` of ``range(n)``, in row blocks of ≤ ~max pairs."""
    if max_chunk_pairs < 1:
        raise ValueError("max_chunk_pairs must be >= 1")
    rows_per_block = max(1, max_chunk_pairs // max(n, 1))
    for r0 in range(0, n, rows_per_block):
        r1 = min(r0 + rows_per_block, n)
        il, jl = np.triu_indices(r1 - r0, k=1)
        tail = np.arange(r1, n, dtype=np.int64)
        block = np.arange(r0, r1, dtype=np.int64)
        i = np.concatenate((r0 + il, np.repeat(block, tail.size)))
        j = np.concatenate((r0 + jl, np.tile(tail, block.size)))
        if i.size:
            yield i, j


def candidate_pair_chunks(
    positions: np.ndarray,
    radius_m: float,
    *,
    slack: float = 0.0,
    max_chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream all unordered pairs within ``radius_m``, each exactly once.

    Every pair with ``d² ≤ radius_m²·(1 + slack)`` appears.  On a
    disk-stencil grid (:meth:`CellGrid.pair_chunks`) no other pair does;
    when the radius covers the bounding box, every pair is streamed
    untested (all are within the radius, up to the rounding of d²), so
    the consumer still applies its own distance test.
    """
    positions = _as_positions(positions)
    if radius_m <= 0:
        return iter(())
    n = positions.shape[0]
    if n == 0:
        return iter(())
    span = positions.max(axis=0) - positions.min(axis=0)
    if span[0] * span[0] + span[1] * span[1] <= radius_m * radius_m:
        return _all_pair_chunks(n, max_chunk_pairs)
    return CellGrid(positions, radius_m / STENCIL_CELLS).pair_chunks(
        radius_m, slack=slack, max_chunk_pairs=max_chunk_pairs
    )
