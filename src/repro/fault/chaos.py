"""A frame-aware TCP chaos proxy for one pipeline link.

``ChaosProxy`` listens on a local port, dials the real stage, and
relays protocol frames in both directions — applying a
:class:`~repro.fault.plan.FaultPlan`'s frame rules to the traffic
without either endpoint's cooperation.  Because it splits the actual
frame stream (rather than splicing raw bytes), its drop/duplicate/
corrupt faults land on whole protocol messages, which is what the
resume protocol must survive.  It forwards each frame's own wire bytes
without decoding the body — a binary frame crosses it byte-identical —
and its injector reads only the type byte.

Use it in-process::

    proxy = ChaosProxy("127.0.0.1", real_port, plan)
    await proxy.start()
    ... point the downstream stage at proxy.port ...
    await proxy.stop()

or standalone::

    python -m repro.fault.chaos --listen 9000 --target 127.0.0.1:8000 \
        --fault-json '{"frame_faults": [{"action": "drop", "frame": "data", "nth": 3}]}'
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Sequence

from repro.core.errors import EdenError
from repro.fault.inject import FaultInjector
from repro.fault.plan import FaultPlan
from repro.net.framing import (
    BINARY_FLAG,
    CHAN_FLAG,
    FrameError,
    FrameProtocol,
    FrameType,
)
from repro.net.metrics import NetStats

__all__ = ["ChaosProxy", "main"]


class ChaosProxy:
    """Relay frames between clients and one target, injecting faults.

    Faults are applied per direction: ``plan`` governs frames flowing
    *toward the target* (requests), ``reply_plan`` (default: the same
    plan) governs frames flowing back.  Counters land in ``stats``
    (``frames_relayed``, ``fault_drop``, ...).
    """

    def __init__(
        self,
        target_host: str,
        target_port: int,
        plan: FaultPlan,
        reply_plan: FaultPlan | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.target_host = target_host
        self.target_port = target_port
        self.host = host
        self.port = port
        self.stats = NetStats()
        self._forward = FaultInjector(
            plan.frame_faults, stats=self.stats, label="chaos-fwd"
        )
        self._reverse = FaultInjector(
            (reply_plan if reply_plan is not None else plan).frame_faults,
            stats=self.stats,
            label="chaos-rev",
        )
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> "ChaosProxy":
        """Open the listener; ``self.port`` holds the bound port."""
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            up_reader, up_writer = await asyncio.open_connection(
                self.target_host, self.target_port
            )
        except (ConnectionError, OSError):
            self.stats.bump("connect_failures")
            writer.close()
            return
        await asyncio.gather(
            self._pump(FrameProtocol(reader, writer, decoding=False),
                       up_writer, self._forward),
            self._pump(FrameProtocol(up_reader, up_writer, decoding=False),
                       writer, self._reverse),
            return_exceptions=True,
        )
        for half in (writer, up_writer):
            try:
                half.close()
                await half.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _pump(
        self,
        frames: FrameProtocol,
        writer: asyncio.StreamWriter,
        injector: FaultInjector,
    ) -> None:
        """Relay one direction frame-by-frame until EOF or link error."""
        try:
            while True:
                wire = await frames.recv_wire()
                if wire is None:
                    break
                self.stats.bump("frames_relayed")
                # The type byte, after the magic, with its flags off.
                name = FrameType(wire[4] & ~(BINARY_FLAG | CHAN_FLAG)).name
                for chunk in await injector.outgoing(name, wire):
                    writer.write(chunk)
                    await writer.drain()
        except (ConnectionError, OSError, FrameError):
            self.stats.bump("link_errors")
        finally:
            try:
                writer.write_eof()
            except (ConnectionError, OSError, RuntimeError):
                pass


def _address(text: str) -> tuple[str, int]:
    host, _sep, port = text.rpartition(":")
    return (host or "127.0.0.1", int(port))


async def _serve_forever(proxy: ChaosProxy) -> None:
    await proxy.start()
    print(
        f"chaos proxy: {proxy.host}:{proxy.port} -> "
        f"{proxy.target_host}:{proxy.target_port}",
        file=sys.stderr,
    )
    assert proxy._server is not None
    async with proxy._server:
        await proxy._server.serve_forever()


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: run one chaos proxy until interrupted."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.fault.chaos",
        description="Frame-aware TCP chaos proxy for one pipeline link.",
    )
    parser.add_argument("--listen", type=int, required=True, metavar="PORT")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--target", type=_address, required=True,
                        metavar="HOST:PORT")
    parser.add_argument("--fault-json", default="{}", metavar="JSON",
                        help="FaultPlan JSON applied to both directions")
    options = parser.parse_args(argv)
    try:
        plan = FaultPlan.from_json(options.fault_json)
    except EdenError as error:
        print(f"chaos: {error}", file=sys.stderr)
        return 2
    proxy = ChaosProxy(
        options.target[0], options.target[1], plan,
        host=options.host, port=options.listen,
    )
    try:
        asyncio.run(_serve_forever(proxy))
    except KeyboardInterrupt:
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
