"""Asymmetric stream transput: the paper's primary contribution.

The four primitives (:mod:`repro.transput.primitives`), the Sequence
protocol (:mod:`~repro.transput.stream`), the three disciplines
(read-only, write-only, conventional), passive buffers, channel
identifiers, flow control and pipeline builders.
"""

from repro._lazy import lazy_front

__getattr__, __dir__, __all__ = lazy_front(globals(), {
    "repro.transput.buffer": ("DEFAULT_CAPACITY", "PassiveBuffer"),
    "repro.transput.channels": ("ChannelTable",),
    "repro.transput.conventional": ("ConventionalFilter",),
    "repro.transput.filterbase": (
        "OUTPUT", "REPORT", "ReportingTransducer", "Transducer",
        "apply_reporting", "apply_transducer", "as_reporting", "compose_apply",
        "filter_transducer", "identity_transducer", "make_transducer",
        "map_transducer",
    ),
    "repro.transput.flow": ("FlowPolicy",),
    "repro.transput.iolib": (
        "ConventionalStyleFilter", "END_OF_INPUT", "InputPort", "OutputPort",
    ),
    "repro.transput.merge": ("TaggedMerger",),
    "repro.transput.pipeline": (
        "DISCIPLINES", "Pipeline", "compose_conventional_pipeline",
        "compose_readonly_pipeline", "compose_segment",
        "compose_writeonly_pipeline",
    ),
    "repro.transput.primitives": (
        "Primitive", "READ_OP", "TRANSFER_OP", "TransputEject", "WRITE_OP",
        "active_input", "active_output", "passive_input", "passive_output",
        "read_stream", "write_stream",
    ),
    "repro.transput.readonly": ("ReadOnlyFilter",),
    "repro.transput.sink": (
        "ActiveSink", "CollectorSink", "NullSink", "PassiveSink",
    ),
    "repro.transput.source": (
        "ActiveSource", "FunctionSource", "ListSource", "PassiveSource",
    ),
    "repro.transput.stream": (
        "END_TRANSFER", "StreamAssembler", "StreamEndpoint", "StreamStatus",
        "Transfer", "WriteAck",
    ),
    "repro.transput.writeonly": ("WriteOnlyFilter",),
})
