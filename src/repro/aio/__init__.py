"""asyncio binding of the asymmetric stream system.

The same Transducer filters, the same four primitives, running on real
coroutines instead of the deterministic simulator.
"""

from repro._lazy import lazy_front

__getattr__, __dir__, __all__ = lazy_front(globals(), {
    "repro.aio.pipeline": (
        "stream_conventional", "stream_readonly", "stream_segment",
        "stream_writeonly",
    ),
    "repro.aio.streams": (
        "AioCollector", "AioPipe", "AioReadOnlyStage", "AioSource",
        "AioWriteOnlyStage", "Readable", "Writable", "collect", "iterate",
    ),
})
