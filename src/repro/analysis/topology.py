"""Topology analytics for the proximity graph.

Utilities the scenario-design sections of DESIGN.md/EXPERIMENTS.md rely
on: degree statistics, link-length percentiles, hop structure, and the
connectivity probability of a (config) scenario across placement seeds —
the quantity that decides whether ``D2DNetwork``'s connected-redraw loop
is cheap or a sign the scenario is under-dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.sim.random import RandomStreams


@dataclass(frozen=True)
class TopologyStats:
    """Summary of one proximity graph."""

    n_devices: int
    edges: int
    mean_degree: float
    min_degree: int
    max_degree: int
    hop_diameter: int
    mean_link_m: float
    p90_link_m: float
    max_link_m: float
    clustering: float


def topology_stats(network: D2DNetwork) -> TopologyStats:
    """Compute the summary for a built network."""
    g = network.graph()
    degrees = [d for _, d in g.degree()]
    dist = network.true_distances()
    iu, ju = np.nonzero(np.triu(network.adjacency, k=1))
    link_m = dist[iu, ju]
    return TopologyStats(
        n_devices=network.n,
        edges=g.number_of_edges(),
        mean_degree=float(np.mean(degrees)),
        min_degree=int(np.min(degrees)),
        max_degree=int(np.max(degrees)),
        hop_diameter=int(nx.diameter(g)),
        mean_link_m=float(link_m.mean()),
        p90_link_m=float(np.percentile(link_m, 90)),
        max_link_m=float(link_m.max()),
        clustering=float(nx.average_clustering(g)),
    )


def connectivity_probability(
    config: PaperConfig, *, attempts: int = 50, seed: int = 0
) -> float:
    """Fraction of random placements whose proximity graph is connected.

    Builds ``attempts`` independent networks of the scenario exactly as
    :class:`~repro.core.network.D2DNetwork` does — configured path loss,
    clipped hashed shadowing — and tests the first placement of each,
    without the redraw loop, so the estimate is unbiased.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    streams = RandomStreams(seed)
    connected = 0
    for attempt in range(attempts):
        net = D2DNetwork(config, streams.spawn(attempt), require_connected=False)
        if net.sparse_budget.is_connected():
            connected += 1
    return connected / attempts
