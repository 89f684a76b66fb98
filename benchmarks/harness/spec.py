"""The benchmark's fixed tables: workloads, metrics, bounds.

Everything a later issue cites by name lives here.  ``N`` is fixed per
workload so numbers stay comparable across commits; the sizes are a
fraction of the ones the issue was drafted with because the builder
contract caps a run at ~20 s wall and many short samples are steadier
than few long ones (see README.md, "Sizes").
"""

from __future__ import annotations

from dataclasses import dataclass

IDENTITY = "repro.transput:identity_transducer"
#: Identity filters every chain has, and every record of the diamond
#: passes through (head, one branch, tail).
FILTERS = 3

#: Timed samples every untraced run takes at least (after one warm-up).
MIN_SAMPLES = 10
#: One-record front-door runs that give the spawned workloads' ``setup_s``
#: (five, because the hosted set-up is bimodal: the host's connect
#: back-off reaches the broker on its second or its third try).
SETUP_SAMPLES = 5
#: Repetitions of every ladder row in a traced run.
LADDER_REPS = 10
#: Records the ladder replays per repetition (a prefix of the workload's).
LADDER_RECORDS = 8_000
#: Hard ceiling on one sample; a sample that exceeds it counts as failed.
SAMPLE_TIMEOUT_S = 60.0
#: A budget gap above this names an unmeasured layer (README, "Budget").
GAP_LIMIT = 0.15


@dataclass(frozen=True)
class Workload:
    name: str
    #: "pull" / "push": in-loop TCP chain driven from the sink / source;
    #: "graph": the diamond through ``Graph.run``; "hosted": the facade
    #: with ``placement="hosted"``.
    kind: str
    n: int
    quick_n: int
    why: str
    runtime: str = "tcp"
    codec: str = "json"
    batch: int = 1
    depth: int = 1

    @property
    def spawned(self) -> bool:
        """Runs OS processes through the front door (own setup samples)."""
        return self.kind == "hosted" or (
            self.kind == "graph" and self.runtime == "tcp")

    @property
    def in_loop(self) -> bool:
        return self.kind in ("pull", "push")

    @property
    def wire(self) -> bool:
        """Traffic crosses sockets (the ``net.*`` rows apply)."""
        return self.runtime == "tcp"


WORKLOADS = (
    Workload(
        "pull_bulk", "pull", 20_000, 640, codec="binary", batch=32, depth=8,
        why="many records per frame, bursts of frames: framing, bufpool, "
            "vectored writes and serve_pull reply bursts do the work",
    ),
    Workload(
        "pull_rtt", "pull", 1_000, 48,
        why="one record per invocation: per-frame syscalls, loop wake-ups "
            "and protocol bookkeeping dominate; the only invocation latency",
    ),
    Workload(
        "push_bulk", "push", 1_000, 48, codec="binary", batch=32,
        why="the same framing/protocol layers driven the other way "
            "(WRITE/ACK credit); filters re-send one WRITE per record",
    ),
    Workload(
        "diamond_sim", "graph", 1_000, 48, runtime="sim",
        why="core scheduler/kernel/eject and transput do all the work; "
            "no socket is opened; the sim >=5x item is claimed here",
    ),
    Workload(
        "diamond_aio", "graph", 25_000, 640, runtime="aio",
        why="aio is fast enough that api.execute and record routing show; "
            "the single-threaded baseline of the same job",
    ),
    Workload(
        "diamond_tcp", "graph", 2_500, 48, codec="binary", batch=32,
        why="what a user's stopwatch sees: 12 spawned stages over 3 "
            "segments; launch planning, supervisor spawn/teardown dominate",
    ),
    Workload(
        "hosted_chain", "hosted", 300, 24,
        why="the only workload where the broker relay, ChannelMux and "
            "FairWriter carry the stream (broker + one host process)",
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
ALL = tuple(BY_NAME)
WIRE = tuple(w.name for w in WORKLOADS if w.wire)
IN_LOOP = tuple(w.name for w in WORKLOADS if w.in_loop)
DIAMONDS = tuple(w.name for w in WORKLOADS if w.kind == "graph")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: How far the median may worsen before ``--compare`` calls it worse
    #: (a share of the older median); 0.0 marks an exact count.
    bound: float | None
    workloads: tuple[str, ...]


#: The nine end-to-end metrics, measured with tracing off.  The timing
#: bounds are three times the run-to-run spread seen on the 2-core
#: sandbox, whose noise comes in spells longer than a run (README.md,
#: "Bounds"); the issue drafted 7 / 10 / 15 / 15 / 7 %.
END_TO_END = (
    Metric("records_per_s", "records/s", "higher", 0.25, ALL),
    Metric("invoke_p50_ms", "ms", "lower", 0.25, ("pull_rtt",)),
    Metric("invoke_p99_ms", "ms", "lower", 0.25, ("pull_rtt",)),
    Metric("setup_s", "s", "lower", 0.25, ALL),
    Metric("invocations_per_record", "count", "lower", 0.0, ALL),
    Metric("wire_bytes_per_record", "bytes", "lower", 0.01, WIRE),
    Metric("cpu_us_per_record", "us", "lower", 0.25, ALL),
    Metric("peak_rss_mb", "MiB", "lower", 0.10, ALL),
    Metric("failed_share", "ratio", "lower", 0.0, ALL),
)

_PULLS = ("pull_bulk", "pull_rtt", "diamond_tcp", "hosted_chain")
_NOT_SIM = tuple(name for name in ALL if name != "diamond_sim")

#: Per-layer metrics (layer = module name), measured by the traced run.
#: No bounds: they explain a move in an end-to-end metric, they are not
#: gated themselves.
PER_LAYER = (
    Metric("net.framing.encode_us_per_record", "us", "lower", None, WIRE),
    Metric("net.framing.decode_us_per_record", "us", "lower", None, WIRE),
    Metric("net.framing.frames_per_record", "count", "lower", None, WIRE),
    Metric("net.framing.bytes_per_frame", "bytes", "higher", None, WIRE),
    Metric("net.bufpool.hit_rate", "ratio", "higher", None, IN_LOOP),
    Metric("net.vectored.write_us_per_burst", "us", "lower", None, WIRE),
    Metric("net.vectored.sendmsg_share", "ratio", "higher", None, WIRE),
    Metric("net.protocol.pull_hop_us_per_record", "us", "lower", None, _PULLS),
    Metric("net.protocol.pull_self_us_per_record", "us", "lower", None, _PULLS),
    Metric("net.protocol.push_hop_us_per_record", "us", "lower", None,
           ("push_bulk",)),
    Metric("net.handshake.hello_ms", "ms", "lower", None, WIRE),
    Metric("net.stage.hop_us_per_record", "us", "lower", None, IN_LOOP),
    Metric("aio.stage_us_per_record", "us", "lower", None, _NOT_SIM),
    Metric("aio.segment_us_per_record", "us", "lower", None, ("diamond_aio",)),
    Metric("core.run_us_per_invocation", "us", "lower", None, ("diamond_sim",)),
    Metric("core.context_switches_per_record", "count", "lower", None,
           ("diamond_sim",)),
    Metric("core.events_per_record", "count", "lower", None, ("diamond_sim",)),
    Metric("transput.compose_ms", "ms", "lower", None, ("diamond_sim",)),
    Metric("api.graph.build_ms", "ms", "lower", None, DIAMONDS),
    Metric("api.graph.route_us_per_record", "us", "lower", None, DIAMONDS),
    Metric("api.execute.overhead_us_per_record", "us", "lower", None,
           ("diamond_sim", "diamond_aio")),
    Metric("analysis.cost_model.predict_ms", "ms", "lower", None, DIAMONDS),
    Metric("analysis.cost_model.edge_error", "count", "lower", None, DIAMONDS),
    Metric("net.launch.plan_ms", "ms", "lower", None,
           IN_LOOP + ("diamond_tcp",)),
    Metric("net.launch.spawn_s", "s", "lower", None, ("diamond_tcp",)),
    Metric("net.launch.restarts", "count", "lower", None,
           ("diamond_tcp", "hosted_chain")),
    Metric("broker.spawn_s", "s", "lower", None, ("hosted_chain",)),
    Metric("broker.relay_us_per_invocation", "us", "lower", None,
           ("hosted_chain",)),
    Metric("net.mux.relay_us_per_frame", "us", "lower", None,
           ("hosted_chain",)),
    Metric("obs.flight.digest_us_per_frame", "us", "lower", None, WIRE),
    Metric("budget.sum_us_per_record", "us", "lower", None, ALL),
    Metric("budget.gap_share", "ratio", "lower", None, ALL),
    Metric("trace.overhead_share", "ratio", "lower", None, ALL),
)

METRICS = {metric.name: metric for metric in END_TO_END + PER_LAYER}
