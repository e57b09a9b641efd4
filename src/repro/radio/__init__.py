"""Radio substrate: propagation, shadowing, fading, RSSI ranging, RACH.

Implements the channel model of the paper's §III (equations 6–12) and
Table I:

* piecewise path loss ``PL = 4.35 + 25·log10(d)`` (d < 6 m) /
  ``40.0 + 40·log10(d)`` (otherwise),
* log-normal shadowing with 10 dB standard deviation,
* UMi NLOS fast fading (Rayleigh magnitude, expressed in dB),
* RSSI distance estimation with relative error ``ε = 10^{x/10n} − 1``,
* two orthogonal RACH codecs used as the paper's PS carriers.
"""

from repro.radio.fading import HashedRayleighFading, NoFading
from repro.radio.interference import CollisionModel, SlotOutcome
from repro.radio.link import LinkBudget, ReceivedSignal
from repro.radio.pathloss import (
    FreeSpacePathLoss,
    LogDistancePathLoss,
    PaperPathLoss,
    PathLossModel,
)
from repro.radio.rach import RACH_KEEP_ALIVE, RACH_MERGE, RACHCodec, RACHMessage
from repro.radio.rssi import RSSIRanging, expected_ranging_error
from repro.radio.shadowing import HashedShadowing, NoShadowing

__all__ = [
    "CollisionModel",
    "FreeSpacePathLoss",
    "HashedRayleighFading",
    "HashedShadowing",
    "LinkBudget",
    "LogDistancePathLoss",
    "NoFading",
    "NoShadowing",
    "PaperPathLoss",
    "PathLossModel",
    "RACHCodec",
    "RACHMessage",
    "RACH_KEEP_ALIVE",
    "RACH_MERGE",
    "RSSIRanging",
    "ReceivedSignal",
    "SlotOutcome",
    "expected_ranging_error",
]
