"""repro.api: one dataflow definition, runnable on all three runtimes.

Each runtime runs one linear pipeline its own way: the simulator
composes it into a kernel (:func:`repro.transput.compose_segment`),
asyncio runs it as one :data:`repro.aio.pipeline.RUNNERS` coroutine,
and TCP plans it as a fleet (:func:`repro.net.launch.plan_linear_fleet`,
or :func:`repro.broker.launch.plan_hosted_fleet` when hosted) under
one :class:`~repro.net.launch.FleetSupervisor` per run.  This package
is the one vocabulary over all of them, and one graph runner
(:mod:`repro.api.execute`) wires every program's boundaries the same
way on each, in two tiers:

**Linear** — :class:`Pipeline`, the facade every earlier PR used::

    from repro.api import Pipeline

    result = Pipeline(
        stages=[("repro.filters:comment_stripper", ["C"]),
                "repro.filters:strip_whitespace"],
        discipline="readonly",
        source=["C a comment", "      REAL X"],
    ).run(runtime="sim")          # or "aio", or "tcp"

    result.output       # ['REAL X']
    result.invocations  # (n+1)(m+1) — identical on every runtime

**Graphs** — :class:`Graph` / :class:`GraphBuilder`, validated
dataflow DAGs with scatter/gather, merge and broadcast (paper claim
C3's fan-out/fan-in duality made executable)::

    from repro.api import GraphBuilder

    graph = (GraphBuilder(source=records, discipline="readonly")
             .chain("repro.filters:strip_whitespace")
             .scatter(["pkg:branch_a"], ["pkg:branch_b"], policy="hash")
             .gather()
             .build())           # validation happens HERE, eagerly
    result = graph.run(runtime="tcp")

A :class:`Pipeline` is literally the degenerate Graph —
:meth:`Pipeline.to_graph` compiles it to a single-path DAG, and its
runs, sharded or hosted, execute through the same graph runner.  Invalid
topologies (cycles, dangling ports, fan-out without channel ids,
discipline mismatches, unsatisfiable buffer bounds) raise
:class:`GraphError` at build time with a positioned message — never at
run time.  Per-edge invocation costs are predicted analytically by
:func:`repro.analysis.cost_model.predict_graph_invocations`.

Stages are **specs** — ``"module:factory"`` strings or ``(spec, args)``
pairs — so the same pipeline or graph object can be replayed on any
runtime (each run instantiates fresh transducers; the TCP runtime
ships the spec across the process boundary).  Already-built
:class:`~repro.transput.filterbase.Transducer` instances are accepted
for the in-process runtimes (``sim``/``aio``) but rejected with an
explanation for ``tcp``.

All runtimes return the same result shape, and all knobs use one
vocabulary (``batch``, ``credit_window``, ``lookahead``, ``timeout``,
``max_restarts``, ...) validated eagerly — a knob that a runtime
cannot honour raises ``ValueError`` instead of being silently ignored.
"""

from repro._lazy import lazy_front

__getattr__, __dir__, __all__ = lazy_front(globals(), {
    "repro.api.execute": (
        "GraphResult", "RUNTIMES", "TCP_ONLY_KNOBS", "run_graph",
    ),
    "repro.api.facade": ("DISCIPLINES", "Pipeline"),
    "repro.api.graph": (
        "Graph", "GraphBuilder", "GraphEdge", "GraphError", "GraphNode",
        "JOIN_OPS", "NODE_KINDS", "SCATTER_POLICIES", "SPLIT_OPS",
    ),
})
