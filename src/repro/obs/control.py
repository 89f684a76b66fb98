"""Live fleet introspection over the frame codec (CTRL / CTRL_REPLY).

Every ``eden-stage`` can open a *control listener* next to its data
listener (``--control-port``).  A control client sends one ``CTRL``
frame per request — ``{"cmd": "stats" | "spans" | "health"}`` — and
gets one ``CTRL_REPLY`` back: ``{"ok": true, "payload": ...}`` on
success, ``{"ok": false, "error": ...}`` otherwise.

Control traffic deliberately bypasses :class:`repro.net.protocol.
Connection`: requests and replies are written with
:func:`~repro.net.framing.write_frame` and read through a bare
:class:`~repro.net.framing.FrameProtocol`, with no counting layer on
top, so **observing a stage never perturbs the frame counts** the
paper's cost model predicts (C1/C2 hold with or without a watcher
attached).  No handshake is required either — the control port carries
no stream data, only locally produced snapshots.  The client's
protocol refuses a reply longer than :data:`MAX_CONTROL_REPLY` at its
header, and every way a reply can fail to arrive whole is a
:class:`ControlError`.

Commands are an open vocabulary: the server is built from a mapping of
command name to handler, and ``eden-stage`` installs:

- ``stats`` — the full instrument snapshot
  (:func:`repro.obs.registry.snapshot_payload`);
- ``spans`` — recent completed span events (JSONL-shaped dicts);
- ``health`` — identity, uptime, and flow policy.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Mapping

from repro.core.errors import EdenError
from repro.net.framing import (
    Frame,
    FrameError,
    FrameProtocol,
    FrameType,
    write_frame,
)

__all__ = [
    "ControlError",
    "MAX_CONTROL_REPLY",
    "start_control_server",
    "query_async",
    "query",
]

#: Control replies are snapshots, not stream data: anything past this
#: bound is a runaway handler or a corrupt length field, and the
#: observer refuses to buffer it (the frame layer's own cap is 16 MB).
MAX_CONTROL_REPLY = 4 * 1024 * 1024

#: A command handler: request body (without ``cmd``) -> JSON-safe payload.
ControlHandler = Callable[[dict[str, Any]], Any]


class ControlError(EdenError):
    """A control request failed, locally or on the stage."""


async def _serve_client(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    handlers: Mapping[str, ControlHandler],
) -> None:
    try:
        frames = FrameProtocol(reader, writer)
        while True:
            frame, _wire_bytes = await frames.recv()
            if frame is None:
                return
            if frame.type is not FrameType.CTRL:
                await write_frame(writer, Frame(FrameType.CTRL_REPLY, {
                    "ok": False,
                    "error": f"control port got {frame.type.name}",
                }))
                return
            body = dict(frame.body)
            cmd = str(body.pop("cmd", ""))
            handler = handlers.get(cmd)
            if handler is None:
                await write_frame(writer, Frame(FrameType.CTRL_REPLY, {
                    "ok": False,
                    "error": f"unknown command {cmd!r}",
                    "commands": sorted(handlers),
                }))
                continue
            try:
                payload = handler(body)
            except Exception as error:  # handler bug: report, keep serving
                await write_frame(writer, Frame(FrameType.CTRL_REPLY, {
                    "ok": False,
                    "error": f"{type(error).__name__}: {error}",
                }))
                continue
            await write_frame(writer, Frame(FrameType.CTRL_REPLY, {
                "ok": True, "cmd": cmd, "payload": payload,
            }))
    except (ConnectionError, OSError, EdenError):
        return  # observer went away mid-request; nothing to clean up
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def start_control_server(
    handlers: Mapping[str, ControlHandler],
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.AbstractServer:
    """Open a control listener; caller closes the returned server.

    ``port=0`` picks a free port — read it back from
    ``server.sockets[0].getsockname()[1]``.
    """

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        await _serve_client(reader, writer, handlers)

    return await asyncio.start_server(handle, host=host, port=port)


async def query_async(
    host: str, port: int, cmd: str, timeout: float = 5.0, **args: Any
) -> Any:
    """Send one control request; return the payload or raise.

    Every failure mode — unreachable port, timeout, truncated or
    oversized or undecodable reply — raises :class:`ControlError`.
    """
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=timeout
        )
    except (ConnectionError, OSError, asyncio.TimeoutError) as error:
        raise ControlError(f"cannot reach {host}:{port}: {error}") from error
    try:
        await write_frame(writer, Frame(FrameType.CTRL, {"cmd": cmd, **args}))
        frames = FrameProtocol(reader, writer, cap=MAX_CONTROL_REPLY)
        reply, _wire_bytes = await asyncio.wait_for(frames.recv(), timeout=timeout)
    except FrameError as error:  # truncated, oversized, not a frame at all
        raise ControlError(f"undecodable control reply: {error}") from error
    except (ConnectionError, OSError, asyncio.TimeoutError) as error:
        raise ControlError(f"control request failed: {error}") from error
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    if reply is None:
        raise ControlError(f"{host}:{port} closed without replying")
    if reply.type is not FrameType.CTRL_REPLY:
        raise ControlError(f"unexpected {reply.type.name} on control port")
    if not reply.body.get("ok"):
        raise ControlError(str(reply.body.get("error", "request failed")))
    return reply.body.get("payload")


def query(host: str, port: int, cmd: str, timeout: float = 5.0,
          **args: Any) -> Any:
    """Blocking form of :func:`query_async` (for the CLI tools)."""
    return asyncio.run(query_async(host, port, cmd, timeout=timeout, **args))
