"""Halo exchange: cross-tile proximity at shard borders.

Shards simulate their tiles independently; devices near a tile border
can additionally be in proximity of devices in neighbouring tiles.  The
halo layer finds those **cross-tile** links deterministically:

* Each shard exports its **border band** — devices within the halo
  radius of its tile's border (:func:`border_band`).  A cross-tile pair
  within the radius necessarily has both endpoints inside their tiles'
  bands (the segment between them crosses the shared border), so bands
  are a lossless exchange set.
* Cross-tile links come from the one link evaluator the CSR budget
  also uses (:func:`~repro.radio.sparse_link.evaluate_links`): cell-grid
  candidates at the halo radius, the exact distance filter, then the
  mean power against the threshold, chunk by chunk (:func:`cross_links`).
* Every cross-tile pair is **owned by exactly one shard**: the one with
  the smaller tile id, applied as the evaluator's pair filter.  The
  union over shards of ``cross_links(..., owner=s)`` is a partition of
  the cross-tile links — no drops, no double counting
  (``tests/test_properties_shard.py``).
* Link power uses the city-level channel: the configured path loss plus
  hashed shadowing keyed on :func:`~repro.shard.tiling.city_channel_key`
  over **global** device ids — a pure function of (city seed, global
  pair), independent of sharding layout.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.core.config import PaperConfig
from repro.core.network import _pathloss_for, _shadowing_for
from repro.radio.pathloss import max_range_m
from repro.radio.sparse_link import evaluate_links
from repro.radio.spatial import DEFAULT_CHUNK_PAIRS
from repro.shard.tiling import CityConfig, Tiling


def cross_radius_m(config: PaperConfig) -> float:
    """Maximum distance at which a cross-tile pair can be in proximity.

    Proximity is **mean** received power clearing the threshold, so the
    bound is the range at the maximum possible shadowing gain
    (``sigma × clip``); fading never enters the mean.  It is the inner
    end of the range bisection (:func:`~repro.radio.pathloss.max_range_m`),
    so it can fall short of the true bound by up to the 1e-6 m
    bisection tolerance; the value is recorded in city documents
    (``halo.radius_m``) and therefore in their content hashes.
    """
    max_gain = (
        config.shadowing_sigma_db * config.shadow_clip_sigma
        if config.shadowing_sigma_db > 0
        else 0.0
    )
    return max_range_m(
        _pathloss_for(config),
        config.tx_power_dbm,
        config.threshold_dbm - max_gain,
        hi=config.area_side_m * math.sqrt(2.0) + 1.0,
    )


def halo_reach(tiling: Tiling, radius_m: float) -> int:
    """How many tiles the halo radius can span (Chebyshev reach)."""
    return max(1, int(math.ceil(radius_m / tiling.tile_side_m)))


def border_band(
    positions_city: np.ndarray, tiling: Tiling, tile: int, radius_m: float
) -> np.ndarray:
    """Boolean mask: positions within ``radius_m`` of the tile's border.

    ``positions_city`` are city-frame coordinates of the tile's own
    devices.  The band includes the outer city boundary sides — a few
    extra devices at the city edge, in exchange for a rule that depends
    only on the tile geometry.
    """
    positions = np.asarray(positions_city, dtype=float)
    x0, y0 = tiling.origin(tile)
    side = tiling.tile_side_m
    dist_to_border = np.minimum.reduce(
        [
            positions[:, 0] - x0,
            (x0 + side) - positions[:, 0],
            positions[:, 1] - y0,
            (y0 + side) - positions[:, 1],
        ]
    )
    return dist_to_border <= radius_m


def cross_links(
    city: CityConfig,
    positions_city: np.ndarray,
    ids: np.ndarray,
    tile_ids: np.ndarray,
    radius_m: float,
    *,
    owner: int | None = None,
    max_chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Cross-tile links within ``radius_m`` whose mean power clears the
    threshold, on the city channel.

    Parameters
    ----------
    positions_city:
        ``(m, 2)`` city-frame coordinates of the devices under
        consideration (typically the union of border bands).
    ids:
        ``(m,)`` global device ids, parallel to ``positions_city``.
    tile_ids:
        ``(m,)`` owning tile per device.
    owner:
        When given, keep only pairs owned by this shard — the pair's
        smaller tile id.  ``None`` keeps every cross-tile pair.

    One pass of :func:`~repro.radio.sparse_link.evaluate_links` — the
    evaluator the CSR budget uses — with the cross-tile/owner pair
    filter, shadow keys on global ids and the floor at the threshold;
    candidates stream in bounded chunks and never materialize.  Returns
    ``(candidates, gi, gj, power_dbm)``: the count of cross-tile pairs
    within the radius, and the links with ``gi < gj`` globally, sorted
    by ``(gi, gj)`` — a canonical order independent of input
    permutation and chunking.
    """
    cfg = city.base
    positions = np.asarray(positions_city, dtype=float)
    ids = np.asarray(ids, dtype=np.int64)
    tiles = np.asarray(tile_ids, dtype=np.int64)
    if radius_m <= 0 or positions.shape[0] < 2:
        empty = np.empty(0, dtype=np.int64)
        return 0, empty, empty.copy(), np.empty(0, dtype=float)

    def owned(ci: np.ndarray, cj: np.ndarray) -> np.ndarray:
        keep = tiles[ci] != tiles[cj]
        if owner is not None:
            keep &= np.minimum(tiles[ci], tiles[cj]) == owner
        return keep

    candidates, ci, cj, power = evaluate_links(
        positions,
        radius_m,
        _pathloss_for(cfg),
        cfg.tx_power_dbm,
        cfg.threshold_dbm,
        _shadowing_for(cfg, city.channel_key()),
        ids=ids,
        pair_filter=owned,
        max_chunk_pairs=max_chunk_pairs,
    )
    a, b = ids[ci], ids[cj]
    gi = np.minimum(a, b)
    gj = np.maximum(a, b)
    # pairs are unique, so one key sorts them as lexsort((gj, gi)) would
    order = np.argsort(gi * (int(ids.max()) + 1) + gj)
    return candidates, gi[order], gj[order], power[order]


def links_digest(gi: np.ndarray, gj: np.ndarray, power_dbm: np.ndarray) -> str:
    """Bitwise-sensitive digest of a cross-link set (raw array bytes)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(gi, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(gj, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(power_dbm, dtype=np.float64).tobytes())
    return h.hexdigest()
