"""Shared pytest configuration.

Adds the ``--update-goldens`` flag: golden-corpus tests re-record the
committed corpus under ``tests/goldens/`` instead of asserting against
it.  Run after an intentional behaviour change, then commit the diff:

    PYTHONPATH=src python -m pytest tests/test_conformance_golden.py \
        --update-goldens
"""

import pathlib

import numpy as np
import pytest

from repro.core.pulsesync import SparsePulseSyncKernel

GOLDENS_DIR = pathlib.Path(__file__).parent / "goldens"


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="re-record the conformance golden corpus instead of "
        "asserting against it",
    )


@pytest.fixture(scope="session")
def goldens_dir() -> pathlib.Path:
    """Location of the committed golden corpus."""
    return GOLDENS_DIR


@pytest.fixture(scope="session")
def update_goldens(request) -> bool:
    """True when the run should re-record goldens rather than assert."""
    return request.config.getoption("--update-goldens")


def csr_pulse_kernel(mean_rx_dbm, adjacency, prc, **kwargs) -> SparsePulseSyncKernel:
    """The pulse-sync kernel over the coupling pairs of a matrix radio.

    ``adjacency[i, j]`` couples transmitter ``i`` to receiver ``j`` at
    mean power ``mean_rx_dbm[i, j]``.
    """
    tx, rx = np.nonzero(adjacency)
    return SparsePulseSyncKernel.from_edges(
        mean_rx_dbm.shape[0], tx, rx, mean_rx_dbm[tx, rx], prc, **kwargs
    )
