"""The asyncio front door: ``repro serve``.

:class:`ServiceDaemon` wraps one deterministic
:class:`~repro.service.core.SwitchService` in a line-delimited-JSON TCP
protocol and paces its virtual clock against the wall clock.  The daemon
adds *no* service behaviour — every admission, grant, shed, and ladder
decision happens in the core, in virtual time; the daemon only decides
*when* virtual time advances (a fixed number of virtual microseconds per
wall second) and at which virtual instant an external request lands.

All state is touched from one asyncio event loop, and no handler awaits
mid-mutation, so the simulator needs no locking.

Protocol (one JSON object per line, response per request)::

    -> {"op": "request", "src": 0, "dst": 5, "hold_ns": 8000}
    <- {"ok": true, "req_id": 17, "outcome": "pending"}
    -> {"op": "poll", "req_id": 17}
    <- {"ok": true, "req_id": 17, "outcome": "granted", "latency_ps": 240000}
    -> {"op": "release", "req_id": 17}
    <- {"ok": true, "req_id": 17, "released": true}
    -> {"op": "stats"}
    <- {"ok": true, "stats": {...}}         # see SwitchService.stats()
"""

from __future__ import annotations

import asyncio
import json

from ..errors import ConfigurationError, ReproError
from ..sim.clock import PS_PER_NS, PS_PER_US
from .core import SwitchService
from .model import Outcome

__all__ = ["ServiceDaemon"]


class ServiceDaemon:
    """Serve one :class:`SwitchService` over line-JSON TCP."""

    def __init__(
        self,
        service: SwitchService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        us_per_wall_s: float = 200.0,
        tick_s: float = 0.005,
    ) -> None:
        if us_per_wall_s <= 0:
            raise ConfigurationError(f"pacing rate must be positive, got {us_per_wall_s}")
        if tick_s <= 0:
            raise ConfigurationError(f"pacing tick must be positive, got {tick_s}")
        self.service = service
        self.host = host
        self.port = port
        #: virtual microseconds simulated per wall-clock second
        self.us_per_wall_s = us_per_wall_s
        self.tick_s = tick_s
        self._server: asyncio.AbstractServer | None = None
        self._pacer: asyncio.Task | None = None
        self._stopping = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the virtual-clock pacer."""
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]
        self._pacer = asyncio.create_task(self._pace())

    async def stop(self) -> None:
        self._stopping.set()
        if self._pacer is not None:
            self._pacer.cancel()
            try:
                await self._pacer
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _pace(self) -> None:
        """Advance virtual time in fixed steps, executing due events."""
        step_ps = max(1, int(self.tick_s * self.us_per_wall_s * PS_PER_US))
        while not self._stopping.is_set():
            await asyncio.sleep(self.tick_s)
            self.service.sim.run(until=self.service.sim.now + step_ps)

    # -- the wire protocol ---------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while line := await reader.readline():
                reply = self.handle_line(line.decode("utf-8", errors="replace"))
                writer.write((json.dumps(reply, separators=(",", ":")) + "\n").encode())
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()

    def handle_line(self, line: str) -> dict:
        """Process one protocol line synchronously (virtual clock frozen)."""
        try:
            msg = json.loads(line)
        except json.JSONDecodeError as exc:
            return {"ok": False, "error": f"bad json: {exc.msg}"}
        if not isinstance(msg, dict):
            return {"ok": False, "error": "expected a json object"}
        op = msg.get("op")
        try:
            if op == "request":
                return self._op_request(msg)
            if op == "poll":
                return self._op_poll(msg)
            if op == "release":
                return self._op_release(msg)
            if op == "stats":
                return {"ok": True, "stats": self.service.stats()}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except ReproError as exc:
            return {"ok": False, "error": str(exc)}
        except (KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "error": f"bad request: {exc}"}

    def _op_request(self, msg: dict) -> dict:
        hold_ps = int(msg["hold_ns"]) * PS_PER_NS if "hold_ns" in msg else int(msg["hold_ps"])
        req = self.service.submit(int(msg["src"]), int(msg["dst"]), hold_ps)
        return {"ok": True, "req_id": req.req_id, "outcome": req.outcome.value}

    def _find(self, msg: dict):
        req_id = int(msg["req_id"])
        requests = self.service.requests
        if not 0 <= req_id < len(requests):
            raise ConfigurationError(f"unknown req_id {req_id}")
        return requests[req_id]

    def _op_poll(self, msg: dict) -> dict:
        req = self._find(msg)
        reply = {"ok": True, "req_id": req.req_id, "outcome": req.outcome.value}
        if req.outcome is Outcome.GRANTED:
            reply["latency_ps"] = req.latency_ps
            reply["released"] = req.released
        return reply

    def _op_release(self, msg: dict) -> dict:
        """Release a granted lease early (before its hold expires)."""
        req = self._find(msg)
        if req.outcome is not Outcome.GRANTED:
            return {"ok": False, "error": f"req {req.req_id} is {req.outcome.value}, not granted"}
        self.service._release(req)
        return {"ok": True, "req_id": req.req_id, "released": req.released}
