"""Unidirectional link model.

A physical cable between two nodes is modelled as two independent
unidirectional :class:`Link` objects (one per direction), each owned by the
output port of its sending node.  A link has a bandwidth (bits/second) and a
propagation delay (seconds); the store-and-forward transmission delay of a
packet is computed from the packet size and the link bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Link:
    """A unidirectional link from ``src`` to ``dst``.

    Attributes:
        src: Name of the sending node.
        dst: Name of the receiving node.
        bandwidth_bps: Link rate in bits per second.
        propagation_delay: One-way propagation delay in seconds.
    """

    src: str
    dst: str
    bandwidth_bps: float
    propagation_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError(
                f"link {self.src}->{self.dst}: bandwidth must be positive, "
                f"got {self.bandwidth_bps}"
            )
        if self.propagation_delay < 0:
            raise ValueError(
                f"link {self.src}->{self.dst}: propagation delay must be "
                f"non-negative, got {self.propagation_delay}"
            )

    @property
    def name(self) -> str:
        """Human-readable link name."""
        return f"{self.src}->{self.dst}"

    def transmission_delay(self, size_bytes: float) -> float:
        """Time to serialize a packet of ``size_bytes`` onto this link.

        Bandwidth was validated at construction, so no per-call checks: this
        runs on scheduling hot paths (same formula as
        :func:`repro.utils.units.transmission_delay`).
        """
        return size_bytes * 8 / self.bandwidth_bps
