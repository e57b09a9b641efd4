"""RACH codec abstraction.

The paper uses a *pair* of RACH preamble codecs as the carriers of its
Proximity Signals (PSs):

* ``RACH1`` (keep-alive) — the regular firefly synchronization pulse;
* ``RACH2`` (merge/event) — inter-fragment coordination in ``H_Connect``.

Because LTE-A's OFDMA keeps distinct preambles orthogonal, transmissions
on different codecs never interfere; transmissions on the *same* codec in
the same slot may (intra-group interference), which the paper notes the
firefly algorithm tolerates — the pulse-sync kernel's ``collision_policy``
(:class:`~repro.core.pulsesync.SparsePulseSyncKernel`) models it.

Codecs additionally carry a small ``service`` tag: the paper's application-
level discovery multiplexes the service-interest identifier onto the codec
scheme ("different codecs scheme indicate different services").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class RACHCodec:
    """One orthogonal RACH preamble sequence.

    Parameters
    ----------
    index:
        Preamble index (0–63 in LTE; we only validate non-negativity).
    purpose:
        Human-readable role, e.g. ``"keep-alive"``.
    """

    index: int
    purpose: str = ""

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"codec index must be >= 0, got {self.index}")

    def orthogonal_to(self, other: "RACHCodec") -> bool:
        """Distinct preamble indices never interfere (OFDMA orthogonality)."""
        return self.index != other.index


#: The paper's two codecs.
RACH_KEEP_ALIVE = RACHCodec(1, "keep-alive")   # regular firefly PS
RACH_MERGE = RACHCodec(2, "merge")             # sub-tree synchronization


@dataclass(frozen=True)
class RACHMessage:
    """One PS transmission: who sent what, on which codec, in which slot.

    ``payload`` carries protocol fields (fragment ids, service interest,
    phase info) — in a real system these ride in the message body
    multiplexed with the preamble, MEMFIS-style.
    """

    sender: int
    codec: RACHCodec
    slot: int
    service: int = 0
    payload: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sender < 0:
            raise ValueError(f"sender must be >= 0, got {self.sender}")
        if self.slot < 0:
            raise ValueError(f"slot must be >= 0, got {self.slot}")
        if self.service < 0:
            raise ValueError(f"service must be >= 0, got {self.service}")

    def interferes_with(self, other: "RACHMessage") -> bool:
        """Same slot *and* same codec — the only intra-group clash case."""
        return self.slot == other.slot and not self.codec.orthogonal_to(
            other.codec
        )
