"""The traced benchmark's seams still resolve and come back intact.

``perfbench/layers.py`` times the program from outside by replacing the
attributes through which one layer calls the next (module globals and
class attributes).  A refactor that renames or moves one of them breaks
the traced run, which the tier-1 suite does not collect.  This guard
loads the tracer and the layer table by path, installs every
``install_*`` group, uninstalls them, and checks that each patched
attribute is back to its original object.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perfbench_modules(monkeypatch):
    tracer = _load("tracer")
    # layers.py imports its tracer as a top-level module
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    return tracer, _load("layers")


def test_every_install_group_restores_its_originals(perfbench_modules):
    tracer_mod, layers = perfbench_modules
    groups = [
        getattr(layers, name) for name in sorted(vars(layers))
        if name.startswith("install_")
    ]
    assert [g.__name__ for g in groups] == [
        "install_kernels",
        "install_radio",
        "install_service",
        "install_shard",
    ]

    tracer = tracer_mod.Tracer()
    for install in groups:
        install(tracer)
    patches = list(tracer._patches)
    assert patches, "no seam was wrapped"
    # every seam now holds a wrapper around the original
    for owner, attr, raw in patches:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is not raw, f"{owner!r}.{attr} was not wrapped"

    tracer.uninstall()
    for owner, attr, raw in patches:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is raw, f"{owner!r}.{attr} not restored"


def test_candidate_stream_is_read_through_the_module_global(perfbench_modules):
    """The CSR build and the halo find their candidate pairs through the
    ``repro.radio.sparse_link`` module global, so the traced
    ``radio.enum`` layer sees every chunk."""
    import numpy as np

    import repro.radio.sparse_link as sparse_link
    from repro.radio.pathloss import PaperPathLoss

    from repro.core.config import PaperConfig
    from repro.shard.halo import cross_links
    from repro.shard.tiling import CityConfig

    def streamed(radius):
        return sum(
            ci.size for ci, _ in sparse_link.candidate_pair_chunks(positions, radius)
        )

    tracer_mod, layers = perfbench_modules
    positions = np.random.default_rng(0).uniform(0.0, 100.0, size=(40, 2))
    tracer = tracer_mod.Tracer()
    with tracer.installed(layers.install_radio):
        budget = sparse_link.SparseLinkBudget(positions, PaperPathLoss())
    assert tracer.counts["radio.candidates"] == streamed(budget.r_max_m) > 0
    assert tracer.counts["radio.links"] == budget.link_count > 0
    assert tracer.total("radio.enum") > 0.0

    tracer = tracer_mod.Tracer()
    city = CityConfig(PaperConfig(seed=1), 1, 1)
    tiles = (positions[:, 0] >= 50.0).astype(np.int64)
    ids = np.arange(40, dtype=np.int64)
    with tracer.installed(layers.install_radio):
        cross_links(city, positions, ids, tiles, 60.0)
    assert tracer.counts["radio.candidates"] == streamed(60.0) > 0
