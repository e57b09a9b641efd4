"""Path-loss models.

All models are vectorized: ``loss_db`` accepts scalars or NumPy arrays of
distances in metres and returns losses in dB.  Distances below a small
floor are clamped so log10 never sees zero (two devices can legitimately
be placed arbitrarily close by the uniform placement process).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

#: Minimum distance (m) fed into the log-distance formulas.
MIN_DISTANCE_M = 0.1


@runtime_checkable
class PathLossModel(Protocol):
    """Anything that maps distance (m) to path loss (dB)."""

    def loss_db(self, distance_m: np.ndarray | float) -> np.ndarray | float:
        """Path loss in dB at ``distance_m`` metres."""
        ...


def _clamp(distance_m: np.ndarray | float) -> np.ndarray:
    d = np.asarray(distance_m, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be non-negative")
    return np.maximum(d, MIN_DISTANCE_M)


class PaperPathLoss:
    """Table I propagation model (3GPP D2D UMi, outdoor NLOS).

    ``PL = 4.35 + 25·log10(d)`` for d < 6 m,
    ``PL = 40.0 + 40·log10(d)`` otherwise, with d in metres.

    Note the model is intentionally discontinuous at d = 6 m (the paper
    reproduces the two-segment 3GPP R1-130598 fit verbatim); we keep the
    discontinuity rather than smoothing it.
    """

    BREAKPOINT_M = 6.0

    def loss_db(self, distance_m: np.ndarray | float) -> np.ndarray | float:
        d = _clamp(distance_m)
        near = 4.35 + 25.0 * np.log10(d)
        far = 40.0 + 40.0 * np.log10(d)
        out = np.where(d < self.BREAKPOINT_M, near, far)
        return float(out) if np.isscalar(distance_m) else out

    def __repr__(self) -> str:
        return "PaperPathLoss()"


class LogDistancePathLoss:
    """Classic log-distance model (paper eq. 7): ``PL = PL0 + 10·n·log10(d/d0)``.

    Parameters
    ----------
    exponent:
        Path-loss exponent ``n`` — the paper notes 2 indoor, 4 outdoor and
        adopts the outdoor value.
    reference_loss_db:
        Loss at the reference distance ``d0``.
    reference_distance_m:
        Reference distance ``d0`` in metres.
    """

    def __init__(
        self,
        exponent: float = 4.0,
        reference_loss_db: float = 40.0,
        reference_distance_m: float = 1.0,
    ) -> None:
        if exponent <= 0:
            raise ValueError(f"exponent must be positive, got {exponent}")
        if reference_distance_m <= 0:
            raise ValueError("reference_distance_m must be positive")
        self.exponent = float(exponent)
        self.reference_loss_db = float(reference_loss_db)
        self.reference_distance_m = float(reference_distance_m)

    def loss_db(self, distance_m: np.ndarray | float) -> np.ndarray | float:
        d = _clamp(distance_m)
        out = self.reference_loss_db + 10.0 * self.exponent * np.log10(
            d / self.reference_distance_m
        )
        return float(out) if np.isscalar(distance_m) else out

    def __repr__(self) -> str:
        return (
            f"LogDistancePathLoss(exponent={self.exponent}, "
            f"reference_loss_db={self.reference_loss_db}, "
            f"reference_distance_m={self.reference_distance_m})"
        )


class FreeSpacePathLoss:
    """Free-space (Friis) path loss at carrier frequency ``freq_ghz``.

    ``PL = 20·log10(d) + 20·log10(f) + 32.45`` with d in km → converted
    here so d is in metres:  ``PL = 20·log10(d_m) + 20·log10(f_GHz) − 27.55``.
    Included as a best-case reference for ablations.
    """

    def __init__(self, freq_ghz: float = 2.0) -> None:
        if freq_ghz <= 0:
            raise ValueError("freq_ghz must be positive")
        self.freq_ghz = float(freq_ghz)

    def loss_db(self, distance_m: np.ndarray | float) -> np.ndarray | float:
        d = _clamp(distance_m)
        out = (
            20.0 * np.log10(d)
            + 20.0 * np.log10(self.freq_ghz * 1000.0)  # MHz form
            - 27.55
        )
        return float(out) if np.isscalar(distance_m) else out

    def __repr__(self) -> str:
        return f"FreeSpacePathLoss(freq_ghz={self.freq_ghz})"


def range_bracket_m(
    model: PathLossModel,
    tx_power_dbm: float,
    threshold_dbm: float,
    *,
    hi: float = 10_000.0,
    tol: float = 1e-6,
) -> tuple[float, float]:
    """Bisection bracket ``(lo, hi)`` around the mean-power link range.

    ``lo`` meets the threshold and ``hi`` does not, ``hi − lo ≤ tol``: for
    a monotone model every in-range distance is below ``hi``, so ``hi`` is
    the radius a candidate search must use to miss no link.  Works for
    any monotone model, including the discontinuous Table I model.
    ``(0, 0)`` when no distance meets the threshold; ``(hi, hi)`` when the
    given ``hi`` already does (callers pass a ``hi`` no pair exceeds).
    """
    budget = tx_power_dbm - threshold_dbm
    if budget < 0:
        return 0.0, 0.0
    if model.loss_db(hi) <= budget:
        return hi, hi
    lo = MIN_DISTANCE_M
    if model.loss_db(lo) > budget:
        return 0.0, 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if model.loss_db(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo, hi


def max_range_m(
    model: PathLossModel,
    tx_power_dbm: float,
    threshold_dbm: float,
    *,
    hi: float = 10_000.0,
    tol: float = 1e-6,
) -> float:
    """Largest distance (within ``tol``) that meets the threshold.

    The inner end of :func:`range_bracket_m`: a distance known to be in
    range, up to ``tol`` short of the true range.
    """
    return range_bracket_m(
        model, tx_power_dbm, threshold_dbm, hi=hi, tol=tol
    )[0]
