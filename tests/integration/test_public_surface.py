"""The public surface did not move when the package fronts went lazy.

``SURFACE`` was generated at commit a84a46f — the last one with eager
``__init__`` import blocks — from each ``__init__``'s import statements
and ``__all__``: package -> {module the name was imported from: names}.
Every name must still be exported, and must still be the very object
its source module holds.
"""

import importlib
import pathlib
import re

import pytest

import repro
from tests.conftest import fresh_python

ROOT = pathlib.Path(__file__).resolve().parents[2]

SURFACE = {
    "repro": {
        "repro.core": "EdenError Eject Kernel Node TransportCosts UID",
        "repro.figures": (
            "build_figure1 build_figure2 build_figure3 build_figure4"
        ),
        "repro.shell": "Shell",
        "repro.transput": (
            "FlowPolicy Pipeline Transducer "
            "compose_conventional_pipeline "
            "compose_readonly_pipeline compose_segment "
            "compose_writeonly_pipeline"
        ),
    },
    "repro.aio": {
        "repro.aio.pipeline": (
            "stream_conventional stream_readonly "
            "stream_segment stream_writeonly"
        ),
        "repro.aio.streams": (
            "AioCollector AioPipe AioReadOnlyStage AioSource "
            "AioWriteOnlyStage Readable Writable collect iterate"
        ),
    },
    "repro.analysis": {
        "repro.analysis.comparison": (
            "Measurement measure_pipeline sweep_pipeline_lengths"
        ),
        "repro.analysis.cost_model": (
            "EdgePrediction PipelineShape conventional_shape "
            "invocation_savings predict_edge_invocations "
            "predict_graph_invocations predicted_invocations "
            "predicted_lazy_makespan predicted_pipelined_makespan "
            "readonly_shape shape_for writeonly_shape"
        ),
        "repro.analysis.report": "format_ratio format_table",
        "repro.analysis.trace_tools": (
            "TimelineEntry format_sequence_diagram interaction_histogram "
            "invocation_timeline participants"
        ),
    },
    "repro.api": {
        "repro.api.execute": "GraphResult RUNTIMES TCP_ONLY_KNOBS run_graph",
        "repro.api.facade": "DISCIPLINES Pipeline",
        "repro.api.graph": (
            "Graph GraphBuilder GraphEdge GraphError GraphNode JOIN_OPS "
            "NODE_KINDS SCATTER_POLICIES SPLIT_OPS"
        ),
    },
    "repro.broker": {
        "repro.broker.client": "BrokerClient",
        "repro.broker.daemon": "Broker BrokerError",
        "repro.broker.host": "HostConfig StageHost",
        "repro.broker.launch": "plan_hosted_fleet",
    },
    "repro.core": {
        "repro.core.capability": (
            "ChannelCapability ChannelId ChannelMinter PRIMARY_CHANNEL "
            "REPORT_CHANNEL"
        ),
        "repro.core.checkpoint": "PassiveRepresentation StableStore",
        "repro.core.clock": "VirtualClock",
        "repro.core.eject": "Eject",
        "repro.core.errors": (
            "BufferOverflowError ChannelSecurityError CheckpointError "
            "EdenError EjectCrashedError EjectDeactivatedError "
            "EndOfStreamError ForgeryError InvocationError KernelError "
            "NoSuchChannelError NoSuchOperationError ProcessFailedError "
            "StreamProtocolError UnknownUIDError"
        ),
        "repro.core.kernel": "Kernel",
        "repro.core.message": "Invocation Reply ReplyStatus",
        "repro.core.node": "Node",
        "repro.core.process": "Process ProcessState",
        "repro.core.registry": "TypeRegistry",
        "repro.core.scheduler": "Scheduler",
        "repro.core.stats": "KernelStats StatsSnapshot",
        "repro.core.syscalls": (
            "AwaitReply Call Deactivate DoCheckpoint ExitProcess GetTime "
            "Invoke NotifySignal Receive SendReply Signal Sleep Spawn Syscall "
            "WaitSignal YieldControl"
        ),
        "repro.core.tracing": "TraceEvent Tracer load_jsonl",
        "repro.core.transport": "Transport TransportCosts",
        "repro.core.uid": "UID UIDFactory",
        "repro.core.workers": "WorkerPoolEject",
    },
    "repro.devices": {
        "repro.devices.printer": "PrinterServer",
        "repro.devices.sources": (
            "ClockSource NullSource RandomSource random_lines"
        ),
        "repro.devices.terminal": "Keyboard Terminal",
        "repro.devices.window": "PassiveReportWindow ReportWindow",
        "repro.transput.sink": "NullSink",
    },
    "repro.fault": {
        "repro.fault.chaos": "ChaosProxy",
        "repro.fault.inject": (
            "FaultInjector KillSwitch KillingReadable KillingWritable "
            "killing_transducer"
        ),
        "repro.fault.plan": (
            "FAULT_ACTIONS FaultError FaultPlan FrameFault KILLED_EXIT_CODE"
        ),
    },
    "repro.filesystem": {
        "repro.filesystem.bootstrap": "UnixFile UnixFileSystem",
        "repro.filesystem.concatenator": "DirectoryConcatenator",
        "repro.filesystem.directory": "Directory",
        "repro.filesystem.file": "EdenFile FileReader",
        "repro.filesystem.hostfs": "HostFileSystem split_path",
        "repro.filesystem.mapfile": "MapFile MapIndexError",
        "repro.filesystem.transactions": "TransactionalDirectory",
    },
    "repro.filters": {
        "repro.filters.basic": (
            "batch_lines expand_tabs fold identity lower_case prepend repeat "
            "reverse_line strip_whitespace translate upper_case"
        ),
        "repro.filters.columns": "cut paste rle_decode rle_encode",
        "repro.filters.compare": "DiffRecord DifferenceFilter MISSING",
        "repro.filters.editor": (
            "EditorCommandError StreamEditor parse_command"
        ),
        "repro.filters.pattern": (
            "between comment_stripper delete_matching grep substitute"
        ),
        "repro.filters.reporting": "ErrorReporting fanout with_reports",
        "repro.filters.sortedmerge": "SortedMergeFilter",
        "repro.filters.spellcheck": (
            "DEFAULT_WORDS SpellCheckReporter SpellChecker"
        ),
        "repro.filters.text": (
            "WordCountSummary head number_lines paginate pretty_print "
            "sort_lines tail unique_adjacent word_count"
        ),
    },
    "repro.net": {
        "repro.net.framing": (
            "Frame FrameDecoder FrameError FrameType MAX_FRAME_BODY "
            "decode_frame decode_payload encode_frame encode_payload "
            "write_frame"
        ),
        "repro.net.handshake": (
            "HandshakeError HandshakeLinkDown TicketBook expect_hello "
            "send_hello"
        ),
        "repro.net.launch": (
            "FleetError FleetResult FleetSupervisor StagePlan "
            "plan_linear_fleet run_fleet"
        ),
        "repro.net.metrics": "NetStats merge_stats",
        "repro.net.mux": (
            "CONTROL_CHANNEL ChannelMux FairWriter HostedReadable "
            "HostedWritable MuxChannel"
        ),
        "repro.net.protocol": (
            "Connection LinkDown RemoteReadable RemoteWritable "
            "connect_with_backoff serve_pull serve_push"
        ),
    },
    "repro.obs": {
        "repro.obs.context": "bind_span current_span",
        "repro.obs.merge": (
            "ChainReport SpanRecord StageLog TraceTree load_span_log "
            "merge_span_logs verify_invocation_chains"
        ),
        "repro.obs.registry": (
            "DEFAULT_LATENCY_BUCKETS_MS snapshot_payload stats_from_payload "
            "to_prometheus"
        ),
        "repro.obs.spans": "CLOCK_KIND SPAN_KIND SpanContext SpanIds",
    },
    "repro.shell": {
        "repro.shell.ast": (
            "AssignStmt PipelineStmt Redirect Script SetStmt ShowStmt Stage"
        ),
        "repro.shell.builtins": "BUILTINS build_transducer",
        "repro.shell.interpreter": "Shell ShellResult",
        "repro.shell.lexer": "Token tokenize",
        "repro.shell.parser": "parse_line",
        "repro.shell.repl": "run_repl",
    },
    "repro.transput": {
        "repro.transput.buffer": "DEFAULT_CAPACITY PassiveBuffer",
        "repro.transput.channels": "ChannelTable",
        "repro.transput.conventional": "ConventionalFilter",
        "repro.transput.filterbase": (
            "OUTPUT REPORT ReportingTransducer Transducer apply_reporting "
            "apply_transducer as_reporting compose_apply filter_transducer "
            "identity_transducer make_transducer map_transducer"
        ),
        "repro.transput.flow": "FlowPolicy",
        "repro.transput.iolib": (
            "ConventionalStyleFilter END_OF_INPUT InputPort OutputPort"
        ),
        "repro.transput.merge": "TaggedMerger",
        "repro.transput.pipeline": (
            "DISCIPLINES Pipeline "
            "compose_conventional_pipeline "
            "compose_readonly_pipeline compose_segment "
            "compose_writeonly_pipeline"
        ),
        "repro.transput.primitives": (
            "Primitive READ_OP TRANSFER_OP TransputEject WRITE_OP "
            "active_input active_output passive_input passive_output "
            "read_stream write_stream"
        ),
        "repro.transput.readonly": "ReadOnlyFilter",
        "repro.transput.sink": "ActiveSink CollectorSink NullSink PassiveSink",
        "repro.transput.source": (
            "ActiveSource FunctionSource ListSource PassiveSource"
        ),
        "repro.transput.stream": (
            "END_TRANSFER StreamAssembler StreamEndpoint StreamStatus "
            "Transfer WriteAck"
        ),
        "repro.transput.writeonly": "WriteOnlyFilter",
    },
}

PACKAGES = sorted(SURFACE)


def expected(package):
    """name -> module the parent commit's ``__init__`` imported it from."""
    return {
        name: module
        for module, names in SURFACE[package].items()
        for name in names.split()
    }


def test_snapshot_covers_every_package():
    source_root = pathlib.Path(repro.__file__).parent
    found = {
        ".".join(path.parent.relative_to(source_root.parent).parts)
        for path in source_root.rglob("__init__.py")
    }
    assert found == set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_the_snapshot(package):
    names = importlib.import_module(package).__all__
    want = set(expected(package))
    if package == "repro":
        want.add("__version__")
    assert len(names) == len(set(names))
    assert set(names) == want


@pytest.mark.parametrize("package", PACKAGES)
def test_every_name_is_its_source_modules_object_and_is_cached(package):
    front = importlib.import_module(package)
    for name, module in expected(package).items():
        value = getattr(front, name)
        assert value is getattr(importlib.import_module(module), name), name
        # In the package's namespace now: __getattr__ will not run again.
        assert vars(front)[name] is value, name


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_and_dir_see_the_whole_surface(package):
    front = importlib.import_module(package)
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(front.__all__) <= set(namespace)
    assert set(front.__all__) <= set(dir(front))


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_naming_the_package(package):
    front = importlib.import_module(package)
    with pytest.raises(AttributeError, match=re.escape(repr(package))):
        front.no_such_name
    assert not hasattr(front, "no_such_name")


def test_version_is_still_a_plain_attribute():
    assert repro.__version__ == "1.0.0"


def console_script_modules():
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]")[1].split("[")[0]
    return sorted(re.findall(r'= "([\w.]+):\w+"', scripts))


def test_pyproject_declares_seven_console_scripts():
    assert len(console_script_modules()) == 7


@pytest.mark.parametrize("module", PACKAGES + console_script_modules())
def test_imports_first_in_a_fresh_interpreter(module):
    """No import cycle was hiding behind an eager ``__init__``."""
    fresh_python("-W", "error", "-c", f"import {module}")


def test_stage_runs_as_a_module_without_a_runpy_warning():
    stdout = fresh_python("-W", "error", "-m", "repro.net.stage", "--help")
    assert stdout.startswith("usage: eden-stage")
