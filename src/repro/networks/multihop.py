"""Multi-hop extension — the conclusion's claim, quantified.

Paper, Section 6: *"The advantages of our approach are expected to be
amplified when multi-hop networks are considered since it avoids buffering
at intermediate switches.  This may be particularly efficient if we use
LVDS-based switching where signals are not converted from the differential
domain to the digital domain at the switches."*

This module models a path of ``h`` switches between source and destination
under both paradigms, extending the paper's single-switch accounting
additively:

* **multiplexed circuit (TDM)** — the pipe is established end to end once
  (the request/grant handshake crosses the path), after which every byte
  flows through passive LVDS switches: per hop only a cable delay plus a
  negligible (<2 ns) differential-domain traversal; **no buffering, no
  per-hop arbitration, no SerDes at switches**;
* **wormhole** — every worm head arbitrates at *every* switch (the 80 ns
  scheduler pass of Section 5), each digital switch adds its 10 ns
  traversal, and each switch must provide at least a worm of buffering so
  a blocked worm does not corrupt the link.

:class:`MultiHopModel` returns contention-free message latency, sustained
streaming efficiency, and switch buffering requirements as functions of
hop count; the ablation bench A7 prints the comparison table.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..params import SystemParams

__all__ = ["MultiHopModel", "HopComparison"]


@dataclass(slots=True, frozen=True)
class HopComparison:
    """Latency/efficiency/buffering of both paradigms at one hop count."""

    hops: int
    tdm_first_message_ns: float  # includes path establishment
    tdm_cached_message_ns: float  # connection already in the working set
    wormhole_message_ns: float
    tdm_stream_efficiency: float
    wormhole_stream_efficiency: float
    wormhole_buffer_bytes: int
    tdm_buffer_bytes: int


class MultiHopModel:
    """Additive multi-hop extension of the paper's timing accounting."""

    def __init__(self, params: SystemParams, msg_bytes: int, k: int = 4) -> None:
        if msg_bytes <= 0:
            raise ConfigurationError("message size must be positive")
        if k < 1:
            raise ConfigurationError("multiplexing degree must be >= 1")
        self.params = params
        self.msg_bytes = msg_bytes
        self.k = k

    # -- path latencies ------------------------------------------------------------

    def tdm_path_fill_ps(self, hops: int) -> int:
        """Pipe fill time over ``hops`` passive LVDS switches."""
        p = self._check(hops)
        per_hop = p.cable_ps + p.lvds_switch_ps
        return (
            p.nic_delay_ps
            + p.serdes_ps
            + per_hop * hops
            + p.cable_ps  # final cable into the destination
            + p.serdes_ps
            + p.nic_delay_ps
        )

    def tdm_establishment_ps(self, hops: int) -> int:
        """Request + distributed schedule + grant across the path.

        The request and grant signals cross the same physical distance;
        each switch's scheduler contributes one pass (a hierarchical
        control plane could overlap these, so this is conservative).
        """
        p = self._check(hops)
        wire = p.request_wire_ps + p.grant_wire_ps
        return wire + hops * p.scheduler_pass_ps

    def tdm_transfer_ps(self) -> int:
        """Slot-quantised transfer time of one message.

        The stream holds every slot: idle-slot skipping hands it each one
        while the rest of the network is quiet, the contention-free case
        that matches the contention-free wormhole numbers.
        """
        p = self.params
        return p.slots_for(self.msg_bytes) * p.slot_ps

    def tdm_first_message_ps(self, hops: int) -> int:
        return (
            self.tdm_establishment_ps(hops)
            + self.tdm_transfer_ps()
            + self.tdm_path_fill_ps(hops)
        )

    def tdm_cached_message_ps(self, hops: int) -> int:
        """Connection already cached: transfer plus pipe fill only."""
        return self.tdm_transfer_ps() + self.tdm_path_fill_ps(hops)

    def wormhole_message_ps(self, hops: int) -> int:
        """Contention-free wormhole delivery over ``hops`` digital switches.

        The head arbitrates (80 ns) and traverses (10 ns) at every switch;
        worms of one message pipeline, so the body streams behind the head
        and the message completes one worm-serialisation after the head
        path plus the final worm's body.
        """
        p = self._check(hops)
        head_path = (
            p.nic_delay_ps
            + p.serdes_ps
            + hops * (p.cable_ps + p.scheduler_pass_ps + p.digital_switch_ps)
            + p.cable_ps
            + p.serdes_ps
            + p.nic_delay_ps
        )
        n_worms = -(-self.msg_bytes // p.worm_max_bytes)
        last_worm = self.msg_bytes - (n_worms - 1) * p.worm_max_bytes
        # successive worms each re-arbitrate at every switch, but those
        # passes overlap the previous worm's body when bodies are longer
        # than a pass; the steady-state inter-worm gap is the max of the two
        worm_gap = max(
            p.worm_max_bytes * p.byte_ps, p.scheduler_pass_ps
        )
        return head_path + (n_worms - 1) * worm_gap + last_worm * p.byte_ps

    # -- sustained streaming --------------------------------------------------------

    def tdm_stream_efficiency(self, hops: int) -> float:
        """Sustained share of link bandwidth for a cached TDM stream.

        Hop count does not matter: the pipe is passive.  The cost is the
        slot quantisation — a message of ``b`` bytes occupies
        ``ceil(b / slot_bytes)`` whole slots — plus any guard band folded
        into ``slot_bytes``.
        """
        self._check(hops)
        p = self.params
        slots = p.slots_for(self.msg_bytes)
        return self.msg_bytes * p.byte_ps / (slots * p.slot_ps)

    def wormhole_stream_efficiency(self, hops: int) -> float:
        """Sustained wormhole throughput share over ``hops`` switches.

        Each worm's head re-arbitrates per switch; heads of successive
        worms pipeline across switches, so the bottleneck is one 80 ns
        arbitration per worm at whichever switch is busiest.
        """
        self._check(hops)
        p = self.params
        worm_ps = p.worm_max_bytes * p.byte_ps
        return worm_ps / (worm_ps + p.scheduler_pass_ps)

    # -- buffering -------------------------------------------------------------------

    def wormhole_buffer_bytes(self, hops: int) -> int:
        """Minimum switch buffering: one worm per traversed switch."""
        self._check(hops)
        return hops * self.params.worm_max_bytes

    # -- the comparison table -----------------------------------------------------------

    def compare(self, hops: int) -> HopComparison:
        return HopComparison(
            hops=hops,
            tdm_first_message_ns=self.tdm_first_message_ps(hops) / 1000.0,
            tdm_cached_message_ns=self.tdm_cached_message_ps(hops) / 1000.0,
            wormhole_message_ns=self.wormhole_message_ps(hops) / 1000.0,
            tdm_stream_efficiency=self.tdm_stream_efficiency(hops),
            wormhole_stream_efficiency=self.wormhole_stream_efficiency(hops),
            wormhole_buffer_bytes=self.wormhole_buffer_bytes(hops),
            tdm_buffer_bytes=0,
        )

    def sweep(self, hop_counts: tuple[int, ...] = (1, 2, 4, 8)) -> list[HopComparison]:
        return [self.compare(h) for h in hop_counts]

    def _check(self, hops: int) -> SystemParams:
        if hops < 1:
            raise ConfigurationError("need at least one hop")
        return self.params
