"""Log-normal shadowing (medium-scale fading).

Paper §III eq. (9): the received power deviates from the path-loss mean by
a Gaussian zero-mean random variable ``x`` with variance σ² in dB
(Table I: σ = 10 dB).  Shadowing is a property of the *environment between
two positions*, so we model it per-link, symmetric, and static for the
duration of a run — the standard assumption for stationary devices.
:class:`HashedShadowing` draws it as a pure function of the run key and
the link; :class:`NoShadowing` is the oracle-channel stand-in.
"""

from __future__ import annotations

import numpy as np

from repro.radio.chanhash import link_normal


class HashedShadowing:
    """Counter-based per-link shadowing — layout-independent draws.

    Each link's value is a pure function of ``(key, {i, j})`` (see
    :mod:`repro.radio.chanhash`), so a dense ``link_matrix`` and a sparse
    per-edge :meth:`link_db` produce bitwise-identical values for the
    same links, and a fixed key is a fixed shadowing environment
    whichever links a run evaluates.

    Draws are clipped to ``±clip_sigma`` standard deviations.  Unbounded
    Gaussian shadowing admits arbitrarily large *gains*, which would make
    every pair of devices a potential link and defeat any spatial pruning;
    measured shadowing is bounded in practice, and the clip (default 3σ,
    i.e. 30 dB at Table I's σ = 10 dB) perturbs 0.27 % of draws.

    Parameters
    ----------
    sigma_db:
        Standard deviation in dB (Table I uses 10 dB).
    key:
        64-bit run key (drawn once from the shadowing stream).
    clip_sigma:
        Two-sided clip in units of sigma.
    """

    def __init__(self, sigma_db: float, key: int, *, clip_sigma: float = 3.0) -> None:
        if sigma_db < 0:
            raise ValueError(f"sigma_db must be >= 0, got {sigma_db}")
        if clip_sigma <= 0:
            raise ValueError(f"clip_sigma must be positive, got {clip_sigma}")
        self.sigma_db = float(sigma_db)
        self.key = int(key)
        self.clip_sigma = float(clip_sigma)

    @property
    def max_gain_db(self) -> float:
        """Largest possible shadowing *gain* (negative draw magnitude)."""
        return self.clip_sigma * self.sigma_db

    def link_db(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Shadowing (dB, added to the loss) on links ``i ↔ j`` (broadcasts)."""
        z = link_normal(self.key, i, j)
        np.clip(z, -self.clip_sigma, self.clip_sigma, out=z)
        return self.sigma_db * z

    def link_matrix(self, n: int) -> np.ndarray:
        """Dense materialization of :meth:`link_db`, zero diagonal."""
        if n < 0:
            raise ValueError("n must be >= 0")
        idx = np.arange(n)
        sym = self.link_db(idx[:, None], idx[None, :])
        np.fill_diagonal(sym, 0.0)
        return sym

    def __repr__(self) -> str:
        return (
            f"HashedShadowing(sigma_db={self.sigma_db}, key={self.key}, "
            f"clip_sigma={self.clip_sigma})"
        )


class NoShadowing:
    """Deterministic zero-shadowing stand-in (oracle-channel ablations)."""

    sigma_db = 0.0
    max_gain_db = 0.0

    def link_matrix(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be >= 0")
        return np.zeros((n, n))

    def link_db(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return np.zeros(np.broadcast(i, j).shape)

    def __repr__(self) -> str:
        return "NoShadowing()"
