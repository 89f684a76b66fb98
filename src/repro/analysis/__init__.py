"""Analysis: the paper's analytic cost model, measurement harness and
table formatting for benchmark output."""

from repro._lazy import lazy_front

__getattr__, __dir__, __all__ = lazy_front(globals(), {
    "repro.analysis.comparison": (
        "Measurement", "measure_pipeline", "sweep_pipeline_lengths",
    ),
    "repro.analysis.cost_model": (
        "EdgePrediction", "PipelineShape", "conventional_shape",
        "invocation_savings", "predict_edge_invocations",
        "predict_graph_invocations", "predicted_invocations",
        "predicted_lazy_makespan", "predicted_pipelined_makespan",
        "readonly_shape", "shape_for", "writeonly_shape",
    ),
    "repro.analysis.report": ("format_ratio", "format_table"),
    "repro.analysis.trace_tools": (
        "TimelineEntry", "format_sequence_diagram", "interaction_histogram",
        "invocation_timeline", "participants",
    ),
})
