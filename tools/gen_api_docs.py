#!/usr/bin/env python3
"""Generate docs/api.md: an index of every public module and name.

Run from the repository root::

    python tools/gen_api_docs.py

The index lists each module's first docstring line and, for every
public class/function, its signature-free one-liner.  Regenerate after
API changes; tests check the file is fresh.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
OUT = ROOT / "docs" / "api.md"


def first_line(docstring: str | None) -> str:
    if not docstring:
        return "(undocumented)"
    return docstring.strip().splitlines()[0].rstrip(".")


def public_items(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                kind = "class" if isinstance(node, ast.ClassDef) else "def"
                yield kind, node.name, first_line(ast.get_docstring(node))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and not target.id.startswith("_")
                    and target.id.isupper()
                ):
                    yield "const", target.id, ""


PREAMBLE = """\
# API index

Generated by `python tools/gen_api_docs.py` — do not edit by hand
(edit the PREAMBLE in that script for the prose).

## Start here: `repro.api.Graph` / `repro.api.GraphBuilder`

One validated dataflow DAG, runnable on all three runtimes.  Paper
claim C3 proves fan-in and fan-out are symmetric under the asymmetric
discipline and that *channel identifiers* restore fan-out; the graph
layer makes that executable:

```python
from repro.api import GraphBuilder

graph = (GraphBuilder(source=records, discipline="readonly")
         .chain("repro.filters:strip_whitespace")        # linear stages
         .scatter(["pkg:branch_a"],                      # partition the
                  ["pkg:branch_b"], policy="hash")       # stream 2 ways
         .gather()                                       # fan back in
         .chain("repro.transput:identity_transducer")
         .build())                  # ← ALL validation happens here

result = graph.run(runtime="sim")   # or "aio", or "tcp"
result.output                # identical on every runtime
result.invocations           # == sum of the per-edge C1/C2 predictions
result.segment_invocations   # measured per linear segment / per block
```

Validation is eager: cycles, dangling ports, duplicate node names,
fan-out without channel identifiers, discipline mismatches inside one
segment, and unsatisfiable buffer bounds all raise `GraphError` — with
a positioned message naming the offending node or edge — at `build()`
time, never at run time.  Invalid topologies cannot produce a `Graph`
object at all.

### Combinators

| combinator | shape | semantics |
|---|---|---|
| `.chain(*stages, **edge_knobs)` | linear | append stages in order (the degenerate DAG; what `Pipeline` compiles to) |
| `.scatter(*branches, policy=..., **edge_knobs)` | fan-out | partition the stream across N parallel branches — `policy="hash"` (the stable content hash shards use) or `"round_robin"`; each branch is a linear list of stage specs, `[]` for a pass-through branch |
| `.broadcast(*branches, **edge_knobs)` | fan-out | copy the *whole* stream to every branch |
| `.gather(**edge_knobs)` | fan-in | close the open parallel block, concatenating branch outputs in channel-id order |
| `.merge(**edge_knobs)` | fan-in | close the open parallel block, interleaving branch outputs round-robin (one record per live branch per round, deterministic) |
| `.build()` | — | validate and freeze; returns the immutable `Graph` |

`Graph.linear(stages, source=..., ...)` is the one-call shortcut for a
linear graph; `Graph(nodes=[...], edges=[...], ...)` spells the DAG
out explicitly when the builder's series-parallel shapes are not
enough (same validation either way).  `Graph.to_spec()` /
`Graph.from_spec()` round-trip a graph of `"module:factory"` stage
specs through a JSON-portable dict.

### Per-edge knobs

Every combinator call accepts edge knobs that land on the edges it
creates; `None` inherits the graph-level default.  Edges of one linear
segment share a wire, so these must agree within a segment (a mismatch
is a positioned build-time error — split the chain with
scatter/gather to vary them):

| edge knob | runtimes | what it does |
|---|---|---|
| `discipline=` | all | `"readonly"` / `"writeonly"` / `"conventional"` for this segment (defaults to the graph's) |
| `batch=` | all | records per Read/Write invocation on these hops |
| `lookahead=` | all | anticipatory prefetch depth (readonly) |
| `credit_window=` | all | push credit (records) granted by passive inputs (writeonly); default: `inbox_capacity` if bounded, else `max(lookahead, batch)` — one invocation in flight |
| `buffer_capacity=` | all | conventional pipe capacity (conventional-only; must hold ≥ one batch) |
| `codec=` | tcp only | wire codec for this segment's links (`"binary"` / `"json"`); raises eagerly on `sim`/`aio` |
| `channel=` | all | explicit C3 channel identifier on a split's out-edges (auto-assigned positionally by the builder) |

The analytic cost model extends per edge:
`repro.analysis.cost_model.predict_graph_invocations(graph)` returns
one `EdgePrediction` per edge — `ceil(records/batch) + 1` invocations
per asymmetric hop (data + END), double for conventional hops, with
scatter bucket sizes computed by actually routing the records.  The
T17 benchmark gates every runtime's measured counts against the
per-edge sum.

## The linear facade: `repro.api.Pipeline`

One *linear* pipeline description — a thin wrapper that compiles to a
program of the graph runner: a single-path `Graph`
(`Pipeline.to_graph()`), or with `shards=N` one parallel block.  Every
run returns the same `GraphResult` a graph run does:

```python
from repro.api import Pipeline

result = Pipeline(
    stages=[("repro.filters:comment_stripper", ["C"]),
            "repro.filters:number_lines"],
    discipline="readonly",          # or "writeonly" / "conventional"
    source=["C a comment", "      REAL X"],
).run(runtime="sim")                # or "aio", or "tcp"

result.output        # the sink's records — identical on every runtime
result.invocations   # the paper's C1/C2 cost — identical on every runtime
```

### Migrating from linear `stages=[...]` to a graph

| linear | graph |
|---|---|
| `Pipeline(stages=[a, b], discipline=d, source=s)` | `GraphBuilder(source=s, discipline=d).chain(a, b).build()` |
| `Pipeline(..., flow=FlowPolicy(batch=4))` | `GraphBuilder(..., flow=FlowPolicy(batch=4))` or per-edge `.chain(a, batch=4)` |
| `Pipeline(..., shards=N)` (same stages per shard) | `Pipeline(shards=N)` is a one-block program: the parallel block a `scatter("hash")…gather()` runs, without the graph's boundary hops (ROADMAP item 6); `.scatter([...], [...], policy="hash")` for explicit branches |
| `result.output` / `result.invocations` | the same `GraphResult` either way; a sharded run's per-shard outputs are `result.branch_outputs["shards"]` |
| n/a | `.broadcast(...)`, `.merge()`, per-branch stages, per-edge disciplines — graphs only |

`Pipeline` remains the right front door for linear work, sharded
fleets (`shards=N`) and hosted placement; reach for `GraphBuilder`
when the topology itself branches.

All knobs use one vocabulary (`batch`, `credit_window`, `lookahead`,
`timeout`, `max_restarts`, ...) and are validated eagerly: a knob the
chosen runtime cannot honour raises `ValueError`, never a silent
no-op — uniformly, whether it arrives as a `run()` keyword, a per-edge
setting, or inside a `FlowPolicy` (`pipeline_depth` is TCP-only
however it is spelled).  The fault-tolerance knobs
(`faults`, `resume`, `max_restarts`, `io_timeout`, `trace`, `workdir`,
`timeout`) belong to the supervised TCP fleet; `placement` to the
simulator.  See `docs/fault_tolerance.md` for the chaos/recovery
side.

The data-plane knobs added for throughput (`docs/protocol.md` has the
wire-level detail):

| knob | where | what it does |
|---|---|---|
| `shards=N` | `Pipeline(...)` | partition the stream by content hash across N parallel copies of the pipeline — the graph runner's parallel block: one shared kernel on `sim`, one `asyncio.gather` on `aio`, per-shard sub-fleets (`<workdir>/branch-<i>`) under one supervisor on `tcp`; `result.branch_outputs["shards"]` keeps each shard's ordered output, `result.output` concatenates them in shard order |
| `codec="binary"` | `run(runtime="tcp")` | negotiate the compact binary frame body per link (JSON fallback for legacy peers) |
| `pipeline_depth=k` | `run(runtime="tcp")` | keep up to k READs in flight per link; 1 (default) is the paper's strict alternation |
| `placement="hosted"` | `Pipeline(...)` | run every stage inside one `eden-host` process attached to an `eden-broker` control plane — same stream semantics, restarts and span traces, but 2 processes however long the pipeline (readonly/writeonly, unsharded, TCP runtime only; `docs/protocol.md` has the broker handshake) |
| `broker="host:port"` | `Pipeline(...)` | with `placement="hosted"`, attach to an externally running `eden-broker` instead of planning one |
| `placement_policy="cores"` | `run(runtime="tcp")` | pin each shard's sub-fleet (or each stage host) to its own CPU core, round-robin over the cores the container allows — the multi-core scaling path `docs/performance.md` measures; `"none"` restores free scheduling, and a 1-core machine pins nothing (needs `shards > 1` or `placement="hosted"`) |
| `flight="dir"` | `run(runtime="tcp")` | flight recorder: every stage captures its wire traffic (timestamped frames, both directions) into `dir/<stage>/seg-*.efl`; pass `("dir", "digest")` to keep CRCs instead of payloads (~20 B/frame, benchmark-gated ≤ 5 % overhead). Inspect with `eden-flight`, re-execute a full capture deterministically with `eden-flight --replay` — `docs/observability.md` has the time-travel workflow |

`shards` composes with every runtime; the `run()` knobs in this table
are TCP-only and raise on the in-process runtimes.  `faults` and
`shards > 1` are mutually exclusive (faults address the stage serials
of one linear fleet — the same check that rejects them for any graph
with a split), as are `placement="hosted"` and `shards > 1`.

## Per-runtime entry points

Most callers want the facade or the graph builder rather than the
per-runtime names: the simulator builders (`compose_segment`,
`compose_*_pipeline`) remain for placement/custom-sink work,
`repro.aio` (`stream_segment`) for embedding stages in a live event
loop, and `plan_linear_fleet`/`run_fleet` for hand-tuned fleets.

"""


def render() -> str:
    lines = [PREAMBLE]
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(ROOT / "src")
        module = str(relative.with_suffix("")).replace("/", ".")
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        tree = ast.parse(path.read_text())
        lines.append(f"## `{module}`")
        lines.append("")
        lines.append(first_line(ast.get_docstring(tree)) + ".")
        lines.append("")
        items = list(public_items(tree))
        if items:
            for kind, name, doc in items:
                if kind == "const":
                    lines.append(f"- `{name}` (constant)")
                else:
                    lines.append(f"- `{name}` ({kind}) — {doc}")
            lines.append("")
    return "\n".join(lines) + "\n"


def main() -> None:
    OUT.write_text(render())
    print(f"wrote {OUT} ({len(OUT.read_text().splitlines())} lines)")


if __name__ == "__main__":
    main()
