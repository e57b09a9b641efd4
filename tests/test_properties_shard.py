"""Property-based tests for the sharding tier's border handling.

Two promises carry the whole halo design (docs/sharding.md):

* **Partition** — every cross-tile link (a pair within the halo radius
  whose mean power clears the threshold) that a brute-force search
  finds is found by *exactly one* shard (the pair's smaller tile id),
  with the same power: no drops, no double counting, for random
  positions, tile sizes and radii; restricting the search to the border
  bands loses nothing; and a link's power does not depend on the
  tiling.
* **Injectivity** — shard-seed derivation is injective across
  (city_seed, shard_id) in practice, so no two shards anywhere in a
  campaign ever share a deployment stream.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PaperConfig
from repro.radio.pathloss import PaperPathLoss
from repro.radio.shadowing import HashedShadowing
from repro.shard.halo import border_band, cross_links, cross_radius_m, links_digest
from repro.shard.tiling import CityConfig, Tiling, city_channel_key, shard_seed

#: the city whose channel prices the links (its own tiling is unused:
#: every test passes the tile ids of the layout it draws)
CITY = CityConfig(PaperConfig(seed=7), 1, 1)


@st.composite
def city_layouts(draw, max_n=48, max_tiles=4):
    rows = draw(st.integers(min_value=1, max_value=max_tiles))
    cols = draw(st.integers(min_value=1, max_value=max_tiles))
    tile_side = draw(st.floats(min_value=5.0, max_value=200.0))
    n = draw(st.integers(min_value=0, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    positions = rng.uniform(
        [0.0, 0.0], [cols * tile_side, rows * tile_side], size=(n, 2)
    )
    return Tiling(rows, cols, tile_side), positions


radii = st.floats(min_value=0.5, max_value=300.0)


def _brute_cross_links(positions, ids, tiles, radius, city=CITY):
    """Reference: every cross-tile pair within the radius, and the links.

    Uses the identical float expressions as the link evaluator
    (``dx*dx + dy*dy <= r*r``, then ``tx − loss(√d²) − shadow`` on the
    global pair) so the comparison is exact, not tolerance-based.
    Returns ``(candidates, {(gi, gj): power})`` with ``gi < gj``.
    """
    n = positions.shape[0]
    pairs = []
    d2s = []
    r2 = radius * radius
    for i in range(n):
        for j in range(i + 1, n):
            if tiles[i] == tiles[j]:
                continue
            dx = positions[i, 0] - positions[j, 0]
            dy = positions[i, 1] - positions[j, 1]
            d2 = dx * dx + dy * dy
            if d2 <= r2:
                pairs.append((min(ids[i], ids[j]), max(ids[i], ids[j])))
                d2s.append(d2)
    if not pairs:
        return 0, {}
    cfg = city.base
    gi, gj = (np.array(c, dtype=np.int64) for c in zip(*pairs))
    shadow = HashedShadowing(
        cfg.shadowing_sigma_db, city.channel_key(), clip_sigma=cfg.shadow_clip_sigma
    )
    power = (
        cfg.tx_power_dbm
        - PaperPathLoss().loss_db(np.sqrt(np.array(d2s)))
        - shadow.link_db(gi, gj)
    )
    keep = power >= cfg.threshold_dbm
    links = dict(zip(zip(gi[keep].tolist(), gj[keep].tolist()), power[keep].tolist()))
    return len(pairs), links


def _as_dict(gi, gj, power):
    links = dict(zip(zip(gi.tolist(), gj.tolist()), power.tolist()))
    assert len(links) == gi.size, "a link was emitted twice"
    return links


def _owned_links(city, positions, ids, tiles, radius, count):
    """Union over owners of ``cross_links``; checks ownership on the way."""
    candidates = 0
    seen: dict[tuple[int, int], int] = {}
    links: dict[tuple[int, int], float] = {}
    tile_of = dict(zip(ids.tolist(), tiles.tolist()))
    for owner in range(count):
        n_cand, gi, gj, power = cross_links(
            city, positions, ids, tiles, radius, owner=owner
        )
        candidates += n_cand
        assert np.all(power >= city.base.threshold_dbm)
        for (a, b), p in _as_dict(gi, gj, power).items():
            assert a < b
            assert (a, b) not in seen, (
                f"link {(a, b)} found by shards {seen[(a, b)]} and {owner}"
            )
            seen[(a, b)] = owner
            # ownership rule: the pair's smaller tile id
            assert min(tile_of[a], tile_of[b]) == owner
            links[(a, b)] = p
    return candidates, links


@settings(deadline=None, max_examples=60)
@given(city_layouts(), radii)
def test_every_cross_pair_found_by_exactly_one_shard(layout, radius):
    tiling, positions = layout
    ids = np.arange(positions.shape[0], dtype=np.int64)
    tiles = tiling.tile_of(positions)
    expected_candidates, expected = _brute_cross_links(positions, ids, tiles, radius)

    candidates, links = _owned_links(
        CITY, positions, ids, tiles, radius, tiling.count
    )
    assert candidates == expected_candidates
    assert set(links) == set(expected), (
        f"dropped: {set(expected) - set(links)}; extra: {set(links) - set(expected)}"
    )
    assert links == expected  # bitwise-equal powers


@settings(deadline=None, max_examples=40)
@given(city_layouts(), radii)
def test_unowned_union_equals_partition(layout, radius):
    tiling, positions = layout
    # shuffled, sparse global ids: links are keyed and ordered on them
    rng = np.random.default_rng(positions.shape[0])
    ids = rng.permutation(10 * max(positions.shape[0], 1))[: positions.shape[0]]
    ids = ids.astype(np.int64)
    tiles = tiling.tile_of(positions)
    n_cand, gi, gj, power = cross_links(CITY, positions, ids, tiles, radius)
    assert np.all(gi < gj)
    assert np.all(np.diff(gi) >= 0), "links not in canonical (gi, gj) order"
    assert (n_cand, _as_dict(gi, gj, power)) == _brute_cross_links(
        positions, ids, tiles, radius
    )
    assert (n_cand, _as_dict(gi, gj, power)) == _owned_links(
        CITY, positions, ids, tiles, radius, tiling.count
    )


@settings(deadline=None, max_examples=40)
@given(city_layouts(), st.floats(min_value=0.5, max_value=120.0))
def test_border_bands_lose_no_cross_pairs(layout, radius):
    """A cross-tile pair within the radius has both endpoints within the
    radius of a tile border, so searching only the bands is lossless."""
    tiling, positions = layout
    n = positions.shape[0]
    ids = np.arange(n, dtype=np.int64)
    tiles = tiling.tile_of(positions)

    in_band = np.zeros(n, dtype=bool)
    for tile in range(tiling.count):
        mine = tiles == tile
        if not mine.any():
            continue
        band = border_band(positions[mine], tiling, tile, radius)
        in_band[np.flatnonzero(mine)[band]] = True

    full = cross_links(CITY, positions, ids, tiles, radius)
    sub = np.flatnonzero(in_band)
    banded = cross_links(CITY, positions[sub], ids[sub], tiles[sub], radius)
    assert full[0] == banded[0]
    for a, b in zip(full[1:], banded[1:]):
        assert np.array_equal(a, b)


@settings(deadline=None, max_examples=40)
@given(city_layouts(max_tiles=3), radii, st.integers(min_value=2, max_value=3))
def test_link_power_does_not_depend_on_tiling(layout, radius, split):
    """Subdividing every tile only adds cross-tile pairs; a link present
    under both tilings has bitwise the same power, and a different city
    seed prices it differently."""
    tiling, positions = layout
    ids = np.arange(positions.shape[0], dtype=np.int64)
    fine = Tiling(tiling.rows * split, tiling.cols * split, tiling.tile_side_m / split)
    coarse_links = _as_dict(
        *cross_links(CITY, positions, ids, tiling.tile_of(positions), radius)[1:]
    )
    fine_links = _as_dict(
        *cross_links(CITY, positions, ids, fine.tile_of(positions), radius)[1:]
    )
    assert set(coarse_links) <= set(fine_links)
    assert all(fine_links[k] == p for k, p in coarse_links.items())

    other = CityConfig(CITY.base.replace(seed=CITY.base.seed + 1), 1, 1)
    other_links = _as_dict(
        *cross_links(other, positions, ids, fine.tile_of(positions), radius)[1:]
    )
    shared = set(fine_links) & set(other_links)
    assert not shared or any(fine_links[k] != other_links[k] for k in shared)


def test_city_halo_matches_brute_force():
    """At the halo radius of a real 2×2 city every owner's links, their
    count of candidates and their digest equal the brute-force reference."""
    city = CityConfig(PaperConfig(n_devices=256, seed=3), 2, 2)
    rng = np.random.default_rng(0)
    positions = rng.uniform(0, city.base.area_side_m, size=(256, 2))
    ids = np.arange(256, dtype=np.int64)
    tiles = city.tiling.tile_of(positions)
    radius = cross_radius_m(city.base)
    for owner in range(city.count):
        owned = np.flatnonzero(
            np.isin(tiles, [t for t in range(city.count) if t >= owner])
        )
        n_cand, gi, gj, power = cross_links(
            city, positions, ids, tiles, radius, owner=owner
        )
        # brute force over this owner's pairs: one endpoint in its tile
        mine = tiles[owned] == owner
        expected_candidates, expected = _brute_cross_links(
            positions[owned], ids[owned], np.where(mine, 0, 1), radius, city
        )
        assert n_cand == expected_candidates
        assert _as_dict(gi, gj, power) == expected
        keys = sorted(expected)
        assert links_digest(gi, gj, power) == links_digest(
            np.array([k[0] for k in keys], dtype=np.int64),
            np.array([k[1] for k in keys], dtype=np.int64),
            np.array([expected[k] for k in keys]),
        )


@settings(deadline=None, max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**63 - 1),
            st.integers(min_value=0, max_value=2**20),
        ),
        min_size=1,
        max_size=64,
        unique=True,
    )
)
def test_shard_seed_injective_across_seed_and_shard(pairs):
    seeds = [shard_seed(city, shard) for city, shard in pairs]
    assert len(set(seeds)) == len(pairs), "shard seed collision"


@settings(deadline=None, max_examples=100)
@given(
    st.integers(min_value=0, max_value=2**63 - 1),
    st.integers(min_value=0, max_value=2**20),
)
def test_streams_never_alias(city_seed, shard_id):
    """The shard-seed and city-channel streams are mutually disjoint and
    never echo the raw city seed."""
    s = shard_seed(city_seed, shard_id)
    k = city_channel_key(city_seed)
    assert s != k
    assert s != city_seed or k != city_seed  # both echoing is impossible
    assert 0 <= s < 2**63 and 0 <= k < 2**63


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=1.0, max_value=500.0),
)
def test_tiling_geometry_roundtrip(rows, cols, seed, tile_side):
    tiling = Tiling(rows, cols, tile_side)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(
        [0, 0], [cols * tile_side, rows * tile_side], size=(16, 2)
    )
    tiles = tiling.tile_of(pts)
    assert np.all((0 <= tiles) & (tiles < tiling.count))
    for t in range(tiling.count):
        # neighbor symmetry
        for u in tiling.neighbors(t):
            assert t in tiling.neighbors(u)
        # a tile's own origin-corner quadrant maps back to it
        ox, oy = tiling.origin(t)
        probe = np.array([[ox + tile_side * 0.5, oy + tile_side * 0.5]])
        assert tiling.tile_of(probe)[0] == t
