"""The simulated Eden substrate: UIDs, invocation, Ejects, the kernel.

Public surface of the substrate layer.  Higher layers (``repro.transput``
and friends) are built exclusively on these names.
"""

from repro._lazy import lazy_front

__getattr__, __dir__, __all__ = lazy_front(globals(), {
    "repro.core.capability": (
        "ChannelCapability", "ChannelId", "ChannelMinter", "PRIMARY_CHANNEL",
        "REPORT_CHANNEL",
    ),
    "repro.core.checkpoint": ("PassiveRepresentation", "StableStore"),
    "repro.core.clock": ("VirtualClock",),
    "repro.core.eject": ("Eject",),
    "repro.core.errors": (
        "BufferOverflowError", "ChannelSecurityError", "CheckpointError",
        "EdenError", "EjectCrashedError", "EjectDeactivatedError",
        "EndOfStreamError", "ForgeryError", "InvocationError", "KernelError",
        "NoSuchChannelError", "NoSuchOperationError", "ProcessFailedError",
        "StreamProtocolError", "UnknownUIDError",
    ),
    "repro.core.kernel": ("Kernel",),
    "repro.core.message": ("Invocation", "Reply", "ReplyStatus"),
    "repro.core.node": ("Node",),
    "repro.core.process": ("Process", "ProcessState"),
    "repro.core.registry": ("TypeRegistry",),
    "repro.core.scheduler": ("Scheduler",),
    "repro.core.stats": ("KernelStats", "StatsSnapshot"),
    "repro.core.syscalls": (
        "AwaitReply", "Call", "Deactivate", "DoCheckpoint", "ExitProcess",
        "GetTime", "Invoke", "NotifySignal", "Receive", "SendReply", "Signal",
        "Sleep", "Spawn", "Syscall", "WaitSignal", "YieldControl",
    ),
    "repro.core.tracing": ("TraceEvent", "Tracer", "load_jsonl"),
    "repro.core.transport": ("Transport", "TransportCosts"),
    "repro.core.uid": ("UID", "UIDFactory"),
    "repro.core.workers": ("WorkerPoolEject",),
})
