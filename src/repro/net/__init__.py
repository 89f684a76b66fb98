"""repro.net: the asymmetric stream protocol on real TCP sockets.

The simulator (:mod:`repro.core`) proves the paper's claims under a
virtual clock; :mod:`repro.aio` shows the four primitives working on
coroutines inside one process.  This package takes the final step the
ROADMAP asks for: the same :class:`~repro.transput.filterbase.
Transducer` filters running in *separate OS processes*, connected by
length-prefixed frames over TCP.

Layer map:

- :mod:`repro.net.framing` — the binary frame codec (``READ``,
  ``DATA``, ``WRITE``, ``ACK``, ``END``, ``ERROR`` + handshake frames),
  with channel identifiers on every stream frame (paper §5).
- :mod:`repro.net.handshake` — the UID/capability hello: a connection
  is accepted only if it presents a genuine ticket UID, mirroring the
  simulated kernel's forgery check (paper §5, claim C4).
- :mod:`repro.net.protocol` — the four primitives as wire roles:
  active input issues ``READ`` and receives ``DATA`` (the read-only
  discipline); active output pushes ``WRITE`` under a credit window
  granted by the passive input (the write-only discipline).
- :mod:`repro.net.stage` — an asyncio server/client hosting one
  pipeline stage, runnable as ``python -m repro.net.stage`` (installed
  as ``eden-stage``).
- :mod:`repro.net.metrics` — on-wire frame/byte counters shaped like
  :class:`~repro.core.stats.KernelStats`, so integration tests can
  check the paper's invocation formulas (n+1 vs 2n+2) on real traffic.
"""

from repro._lazy import lazy_front

__getattr__, __dir__, __all__ = lazy_front(globals(), {
    "repro.net.framing": (
        "Frame", "FrameDecoder", "FrameError", "FrameType", "MAX_FRAME_BODY",
        "decode_frame", "decode_payload", "encode_frame", "encode_payload",
        "write_frame",
    ),
    "repro.net.handshake": (
        "HandshakeError", "HandshakeLinkDown", "TicketBook", "expect_hello",
        "send_hello",
    ),
    "repro.net.launch": (
        "FleetError", "FleetResult", "FleetSupervisor", "StagePlan",
        "plan_linear_fleet", "run_fleet",
    ),
    "repro.net.metrics": ("NetStats", "merge_stats"),
    "repro.net.mux": (
        "CONTROL_CHANNEL", "ChannelMux", "FairWriter", "HostedReadable",
        "HostedWritable", "MuxChannel",
    ),
    "repro.net.protocol": (
        "Connection", "LinkDown", "RemoteReadable", "RemoteWritable",
        "connect_with_backoff", "serve_pull", "serve_push",
    ),
})
