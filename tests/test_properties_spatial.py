"""Property-based tests: the cell grid never misses an in-range pair."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio.spatial import (
    STENCIL_CELLS,
    CellGrid,
    candidate_pair_chunks,
    half_stencil,
)


@st.composite
def scattered_positions(draw, max_n=48):
    n = draw(st.integers(min_value=0, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    side = draw(st.floats(min_value=1.0, max_value=500.0))
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, side, size=(n, 2)), side


radii = st.floats(min_value=0.5, max_value=200.0)


def _collect(positions, radius, **kw):
    pairs = set()
    for i, j in candidate_pair_chunks(positions, radius, **kw):
        for a, b in zip(i.tolist(), j.tolist()):
            assert a < b, "pairs must be emitted with i < j"
            assert (a, b) not in pairs, "pair emitted twice"
            pairs.add((a, b))
    return pairs


def _squared_distances(positions):
    """``d²`` of every pair ``i < j``, with the link evaluator's expression."""
    iu, ju = np.triu_indices(positions.shape[0], k=1)
    dx = positions[iu, 0] - positions[ju, 0]
    dy = positions[iu, 1] - positions[ju, 1]
    return iu, ju, dx * dx + dy * dy


def _brute_force(positions, radius, slack=0.0):
    iu, ju, d2 = _squared_distances(positions)
    close = d2 <= radius * radius * (1.0 + slack)
    return set(zip(iu[close].tolist(), ju[close].tolist()))


def _covers(positions, radius):
    if positions.shape[0] == 0:
        return True
    span = positions.max(axis=0) - positions.min(axis=0)
    return span[0] * span[0] + span[1] * span[1] <= radius * radius


@settings(deadline=None, max_examples=60)
@given(scattered_positions(), radii, st.sampled_from([0.0, 1e-12, 1e-6, 0.3]))
def test_stencil_emits_exactly_the_pairs_within_the_radius(layout, radius, slack):
    """Every pair within r is emitted exactly once (``_collect`` checks
    once), and on a refined grid nothing else is."""
    positions, _side = layout
    candidates = _collect(positions, radius, slack=slack)
    required = _brute_force(positions, radius, slack)
    if _covers(positions, radius):
        n = positions.shape[0]
        assert len(candidates) == n * (n - 1) // 2
    else:
        assert candidates == required


@settings(deadline=None, max_examples=40)
@given(scattered_positions(), radii)
def test_candidates_superset_of_brute_force(layout, radius):
    positions, _side = layout
    candidates = _collect(positions, radius)
    required = _brute_force(positions, radius)
    assert required <= candidates
    # the stencil's reach is the radius itself: a refined grid tests every
    # pair, and the one-cell fallback only runs when the bounding box
    # diagonal is within the radius (up to the rounding of d²)
    for a, b in candidates:
        d = float(np.linalg.norm(positions[a] - positions[b]))
        assert d <= radius * (1.0 + 1e-12)


@pytest.mark.parametrize("radius", [4.0, 0.7, 123.45])
@pytest.mark.parametrize("shift", [0.0, 0.3, -17.0])
def test_points_on_cell_borders_keep_pairs_at_exactly_the_radius(radius, shift):
    """A lattice at the cell pitch puts every point on a cell border and
    many pairs at exactly ``r``: binning by ``floor`` must drop none."""
    pitch = radius / STENCIL_CELLS
    k = np.arange(11)
    gx, gy = np.meshgrid(k, k, indexing="ij")
    positions = np.column_stack((gx.ravel() * pitch, gy.ravel() * pitch)) + shift
    candidates = _collect(positions, radius)
    required = _brute_force(positions, radius)
    assert not _covers(positions, radius)
    assert candidates == required


def test_stencil_widens_with_the_slack():
    """The cut is ``r²·(1 + slack)``, so the stencil must reach that far."""
    positions = np.random.default_rng(0).uniform(0.0, 100.0, size=(400, 2))
    for slack in (0.3, 1.0):
        assert _collect(positions, 10.0, slack=slack) == _brute_force(
            positions, 10.0, slack
        )


def test_lattice_pairs_at_exactly_the_radius_are_emitted():
    positions = np.column_stack((np.arange(9.0), np.zeros(9)))  # pitch r/4
    candidates = _collect(positions, 4.0)
    assert {(i, i + 4) for i in range(5)} <= candidates
    assert (0, 5) not in candidates


def test_half_stencil_is_the_disk_of_gaps_within_the_reach():
    """Columns of the k=4 stencil: a cell pair is visited iff the gap
    between the cells is at most the radius (ties included)."""
    assert half_stencil(STENCIL_CELLS) == [
        (0, 5), (1, 5), (2, 4), (3, 4), (4, 3), (5, 1),
    ]
    # cells of side r: the 3×3 neighbourhood plus the cells one gap away
    assert half_stencil(1.0) == [(0, 2), (1, 2), (2, 1)]
    # cells of side 2r: the 3×3 neighbourhood alone
    assert half_stencil(0.5) == [(0, 1), (1, 1)]


@settings(deadline=None, max_examples=40)
@given(scattered_positions(), radii, st.integers(min_value=1, max_value=64))
def test_chunking_does_not_change_the_pair_set(layout, radius, chunk):
    positions, _side = layout
    assert _collect(positions, radius, max_chunk_pairs=chunk) == _collect(
        positions, radius
    )


@settings(deadline=None, max_examples=40)
@given(scattered_positions())
def test_degenerate_radius_covers_everything(layout):
    """A radius covering the bounding box degrades to all pairs."""
    positions, side = layout
    n = positions.shape[0]
    candidates = _collect(positions, np.sqrt(2.0) * side + 1.0)
    assert len(candidates) == n * (n - 1) // 2


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        CellGrid(np.zeros((3, 3)), 1.0)
    with pytest.raises(ValueError):
        CellGrid(np.zeros((3, 2)), 0.0)
    with pytest.raises(ValueError):
        candidate_pair_chunks(np.zeros((3, 3)), 1.0)
    assert list(candidate_pair_chunks(np.zeros((3, 2)), -1.0)) == []
