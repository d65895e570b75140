"""The fault model: what can break in the paper's switching plant.

The fault surface follows the Figure-1/Figure-2 hardware split:

* **links** — the serial LVDS pipes between a NIC and the crossbar.  A
  *transient* failure (connector glitch, clock slip) takes the port's
  links down for a bounded window; a *permanent* failure kills the port
  for the rest of the run.  Both directions of a port share a cable
  bundle, so a port fault affects traffic from *and* to the port.
* **configuration registers** — one of the K slot registers can get
  *stuck* (writes are lost, the frozen configuration keeps being applied
  until the management plane quarantines the slot) or *corrupted* (a
  detected parity error invalidates the slot's contents, evicting every
  connection cached there).
* **request wires** — a request-latch glitch loses one (u, v) request bit
  at the scheduler; the NIC still believes its request line is up, so
  only a NIC-side timeout can notice the connection is never granted.
* **SL cells** — one cell of the N x N scheduling-logic array dies: the
  dynamic scheduler can never again toggle that connection, and the
  management plane must place it in a slot directly.

Every fault is a plain frozen value object so fault timelines are
hashable, comparable, and trivially serialisable — the determinism
guarantees of :mod:`repro.faults.schedule` rest on that.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["FaultKind", "FaultEvent", "DEFAULT_WEIGHTS"]


class FaultKind(enum.Enum):
    """The six fault classes the injector can arm."""

    LINK_TRANSIENT = "link-transient"
    LINK_FAIL = "link-fail"
    REG_STUCK = "reg-stuck"
    REG_CORRUPT = "reg-corrupt"
    REQ_DROP = "req-drop"
    SL_DEAD = "sl-dead"


#: default mix of fault kinds (probability weights for the schedule
#: generator): glitches dominate, hard failures are rare — roughly the
#: shape of field failure data for board-level interconnect
DEFAULT_WEIGHTS: dict[FaultKind, float] = {
    FaultKind.LINK_TRANSIENT: 0.35,
    FaultKind.REQ_DROP: 0.25,
    FaultKind.REG_CORRUPT: 0.15,
    FaultKind.REG_STUCK: 0.10,
    FaultKind.SL_DEAD: 0.10,
    FaultKind.LINK_FAIL: 0.05,
}


@dataclass(slots=True, frozen=True)
class FaultEvent:
    """One scheduled fault.

    Field usage depends on ``kind``:

    =================  =========================================
    kind               meaningful fields
    =================  =========================================
    LINK_TRANSIENT     ``port``, ``duration_ps``
    LINK_FAIL          ``port``
    REG_STUCK          ``slot``
    REG_CORRUPT        ``slot``
    REQ_DROP           ``src``, ``dst``
    SL_DEAD            ``src``, ``dst``
    =================  =========================================

    Unused fields are ``-1`` / ``0`` so events stay comparable.
    """

    time_ps: int
    kind: FaultKind
    port: int = -1
    slot: int = -1
    src: int = -1
    dst: int = -1
    duration_ps: int = 0
