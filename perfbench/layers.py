"""Which calls the traced run wraps, and the per-layer metrics it derives.

Each ``install_*`` function wraps one group of layers on a
:class:`~tracer.Tracer`.  A workload installs only the groups its
operation passes through, so a layer it never calls reports 0 and no
wrapper runs inside the city's pool workers.  Spans the program already
records (``st_run`` → ``discovery``/``construction``/``trim``,
``fst_run`` → ``mesh_sync``/``discovery``/``stitch``) are read from the
ambient :class:`repro.obs.Observability` through
:func:`repro.obs.profile.profile_table`.
"""

from __future__ import annotations

from typing import Any

from tracer import Tracer

#: Every per-layer metric, in print order: name -> unit.
PER_LAYER_UNITS: dict[str, str] = {
    "radio.network_s": "s",
    "radio.build_s": "s",
    "radio.enum_s": "s",
    "radio.pathloss_s": "s",
    "radio.shadow_s": "s",
    "radio.csr_s": "s",
    "radio.connect_s": "s",
    "radio.filter_self_s": "s",
    "radio.candidates": "count",
    "radio.links": "count",
    "radio.link_yield": "ratio",
    "radio.placement_attempts": "count",
    "radio.dense_build_s": "s",
    "beacon.run_s": "s",
    "beacon.topk_s": "s",
    "beacon.periods": "count",
    "beacon.messages": "count",
    "boruvka.run_s": "s",
    "boruvka.phases": "count",
    "st.run_s": "s",
    "st.replay_s": "s",
    "st.trim_s": "s",
    "pulsesync.run_s": "s",
    "pulsesync.fires": "count",
    "fst.run_s": "s",
    "fst.mesh_sync_s": "s",
    "fst.stitch_s": "s",
    "world.boot_s": "s",
    "app.handle_s": "s",
    "app.encode_s": "s",
    "app.requests": "count",
    "app.not_found_share": "ratio",
    "live.near_s": "s",
    "world.step_s": "s",
    "world.step_p50_ms": "ms",
    "world.step_p90_ms": "ms",
    "churn.join_s": "s",
    "churn.fail_s": "s",
    "churn.events": "count",
    "engine.events": "count",
    "liveview.rebuild_s": "s",
    "liveview.rebuilds": "count",
    "shard.pool_s": "s",
    "shard.run_s_max": "s",
    "shard.imbalance": "ratio",
    "shard.halo_s": "s",
    "shard.halo_candidates": "count",
    "shard.halo_links": "count",
    "shard.halo_yield": "ratio",
    "shard.reassembly_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _count(counter: str, attr: str):
    def hook(t: Tracer, _args, _kwargs, result) -> None:
        t.count(counter, getattr(result, attr))

    return hook


# ----------------------------------------------------------------------
# radio: placement, candidate pairs, path loss, shadowing, CSR, connectivity
# ----------------------------------------------------------------------
def install_radio(t: Tracer) -> None:
    import repro.radio.sparse_link as sparse_link
    from repro.core.network import D2DNetwork
    from repro.radio.link import LinkBudget
    from repro.radio.pathloss import (
        FreeSpacePathLoss,
        LogDistancePathLoss,
        PaperPathLoss,
    )
    from repro.radio.shadowing import HashedShadowing

    def network_done(t: Tracer, args, _kwargs, _result) -> None:
        t.count("radio.placement_attempts", args[0].placement_attempts)

    def budget_done(t: Tracer, args, _kwargs, _result) -> None:
        t.count("radio.links", args[0].link_count)

    def chunk(t: Tracer, _args, _kwargs, item) -> None:
        t.count("radio.candidates", len(item[0]))

    t.wrap(D2DNetwork, "__init__", "radio.network", network_done)
    t.wrap(D2DNetwork, "_is_connected", "radio.connect")
    t.wrap(sparse_link.SparseLinkBudget, "__init__", "radio.build", budget_done)
    t.wrap(sparse_link.SparseLinkBudget, "is_connected", "radio.connect")
    t.wrap(sparse_link, "candidate_pair_chunks", "radio.enum", chunk, generator=True)
    t.wrap(sparse_link, "csr_from_edges", "radio.csr")
    t.wrap(LinkBudget, "__init__", "radio.dense_build")
    for model in (PaperPathLoss, LogDistancePathLoss, FreeSpacePathLoss):
        t.wrap(model, "loss_db", "radio.pathloss")
    for method in ("link_db", "link_matrix"):
        t.wrap(HashedShadowing, method, "radio.shadow")


# ----------------------------------------------------------------------
# simulation kernels: beacon decode, Borůvka, pulse sync, ST/FST simulations
# ----------------------------------------------------------------------
def install_kernels(t: Tracer) -> None:
    import repro.core.churn as churn
    import repro.core.st as st
    from repro.core.beacon import BeaconDiscovery, SparseBeaconDiscovery
    from repro.core.fst import FSTSimulation
    from repro.core.pulsesync import _PulseSyncBase

    def beacon_done(t: Tracer, _args, _kwargs, result) -> None:
        t.count("beacon.periods", result.periods)
        t.count("beacon.messages", result.messages)

    # the batch discovery inherits the sparse run
    for cls in (BeaconDiscovery, SparseBeaconDiscovery):
        t.wrap(cls, "run", "beacon.run", beacon_done)
    for fn in ("top_k_required", "top_k_required_csr", "top_k_required_batch"):
        t.wrap(st, fn, "beacon.topk")
    phases = _count("boruvka.phases", "phase_count")
    for module in (st, churn):
        for fn in (
            "distributed_boruvka",
            "distributed_boruvka_csr",
            "distributed_boruvka_batch",
        ):
            if hasattr(module, fn):
                t.wrap(module, fn, "boruvka.run", phases)
    t.wrap(_PulseSyncBase, "run", "pulsesync.run", _count("pulsesync.fires", "fires"))
    t.wrap(st.STSimulation, "run", "st.run")
    t.wrap(FSTSimulation, "run", "fst.run")


# ----------------------------------------------------------------------
# service: request path, world step, churn, engine, live views
# ----------------------------------------------------------------------
def install_service(t: Tracer) -> None:
    import repro.service.app as app
    from repro.core.churn import ChurnSession
    from repro.discovery.live import LiveNeighborView
    from repro.service.world import SteadyStateWorld
    from repro.sim.engine import Engine
    from repro.spanningtree.liveview import FragmentView

    def handled(t: Tracer, _args, _kwargs, response) -> None:
        t.count("app.requests")
        if response.status == 404:
            t.count("app.not_found")

    def advanced(t: Tracer, _args, _kwargs, processed) -> None:
        t.count("engine.events", processed)

    def churned(t: Tracer, _args, _kwargs, _event) -> None:
        t.count("churn.events")

    def rebuilt(t: Tracer, _args, _kwargs, _result) -> None:
        t.count("liveview.rebuilds")

    t.keep_samples.add("world.step")
    t.wrap(SteadyStateWorld, "__init__", "world.boot")
    t.wrap(SteadyStateWorld, "step", "world.step")
    t.wrap(app.DiscoveryApp, "handle", "app.handle", handled)
    t.wrap(app, "canonical_json", "app.encode")
    t.wrap(LiveNeighborView, "near", "live.near")
    t.wrap(ChurnSession, "join", "churn.join", churned)
    t.wrap(ChurnSession, "fail", "churn.fail", churned)
    t.wrap(Engine, "advance", "engine.advance", advanced)
    t.wrap(FragmentView, "__init__", "liveview.rebuild", rebuilt)


# ----------------------------------------------------------------------
# city tier: shard pool, halo exchange, reassembly (parent process only)
# ----------------------------------------------------------------------
def install_shard(t: Tracer) -> None:
    import repro.shard.runner as runner

    def city_done(t: Tracer, _args, _kwargs, result) -> None:
        walls = result.shard_walls
        t.count("shard.run_s_max", max(walls))
        t.count("shard.imbalance", max(walls) * len(walls) / sum(walls))
        t.count("shard.halo_candidates", result.halo["candidates"])
        t.count("shard.halo_links", result.halo["links"])
        t.count("shard.cities")

    # run_city dispatches two pool stages through one helper: the shard
    # simulations, then the halo exchange; the rest of run_city is the
    # deterministic reassembly
    stage_of = {runner._shard_job: "shard.pool", runner._halo_job: "shard.halo"}
    t.wrap(runner, "_pool_map", lambda args: stage_of.get(args[0], "shard.pool"))
    t.wrap(runner, "run_city", "shard.run_city", city_done)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _obs_totals(obs: Any) -> dict[str, float]:
    """Total seconds per span name the program recorded itself."""
    if obs is None:
        return {}
    from repro.obs.profile import profile_table

    return {row.name: row.total_ms / 1000.0 for row in profile_table(obs.spans)}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _percentile_ms(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    import numpy as np

    return float(np.percentile(np.asarray(samples), q)) * 1000.0


def layer_metrics(t: Tracer, obs: Any, overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric from one traced run (0 where a layer idled)."""
    spans = _obs_totals(obs)
    c = t.counts
    cities = c.get("shard.cities", 0.0)
    values = {
        "radio.network_s": t.total("radio.network"),
        "radio.build_s": t.total("radio.build"),
        "radio.enum_s": t.total("radio.enum"),
        "radio.pathloss_s": t.total("radio.pathloss"),
        "radio.shadow_s": t.total("radio.shadow"),
        "radio.csr_s": t.total("radio.csr"),
        "radio.connect_s": t.total("radio.connect"),
        "radio.filter_self_s": t.self_time("radio.build"),
        "radio.candidates": c.get("radio.candidates", 0.0),
        "radio.links": c.get("radio.links", 0.0),
        # undirected proximity links per candidate pair
        "radio.link_yield": _ratio(
            c.get("radio.links", 0.0) / 2, c.get("radio.candidates", 0.0)
        ),
        "radio.placement_attempts": c.get("radio.placement_attempts", 0.0),
        "radio.dense_build_s": t.total("radio.dense_build"),
        "beacon.run_s": t.total("beacon.run"),
        "beacon.topk_s": t.total("beacon.topk"),
        "beacon.periods": c.get("beacon.periods", 0.0),
        "beacon.messages": c.get("beacon.messages", 0.0),
        "boruvka.run_s": t.total("boruvka.run"),
        "boruvka.phases": c.get("boruvka.phases", 0.0),
        "st.run_s": t.total("st.run"),
        "st.replay_s": spans.get("construction", 0.0)
        - spans.get("merge_schedule", 0.0),
        "st.trim_s": spans.get("trim", 0.0),
        "pulsesync.run_s": t.total("pulsesync.run"),
        "pulsesync.fires": c.get("pulsesync.fires", 0.0),
        "fst.run_s": t.total("fst.run"),
        "fst.mesh_sync_s": spans.get("mesh_sync", 0.0),
        "fst.stitch_s": spans.get("stitch", 0.0),
        "world.boot_s": t.total("world.boot"),
        "app.handle_s": t.total("app.handle"),
        "app.encode_s": t.total("app.encode"),
        "app.requests": c.get("app.requests", 0.0),
        "app.not_found_share": _ratio(
            c.get("app.not_found", 0.0), c.get("app.requests", 0.0)
        ),
        "live.near_s": t.total("live.near"),
        "world.step_s": t.total("world.step"),
        "world.step_p50_ms": _percentile_ms(t.samples["world.step"], 50),
        "world.step_p90_ms": _percentile_ms(t.samples["world.step"], 90),
        "churn.join_s": t.total("churn.join"),
        "churn.fail_s": t.total("churn.fail"),
        "churn.events": c.get("churn.events", 0.0),
        "engine.events": c.get("engine.events", 0.0),
        "liveview.rebuild_s": t.total("liveview.rebuild"),
        "liveview.rebuilds": c.get("liveview.rebuilds", 0.0),
        "shard.pool_s": t.total("shard.pool"),
        "shard.run_s_max": _ratio(c.get("shard.run_s_max", 0.0), cities),
        "shard.imbalance": _ratio(c.get("shard.imbalance", 0.0), cities),
        "shard.halo_s": t.total("shard.halo"),
        "shard.halo_candidates": c.get("shard.halo_candidates", 0.0),
        "shard.halo_links": c.get("shard.halo_links", 0.0),
        "shard.halo_yield": _ratio(
            c.get("shard.halo_links", 0.0), c.get("shard.halo_candidates", 0.0)
        ),
        "shard.reassembly_s": t.self_time("shard.run_city"),
        "trace.unattributed_share": t.unattributed_share(),
        "trace.overhead_ratio": overhead_ratio,
    }
    assert values.keys() == PER_LAYER_UNITS.keys()
    return values
