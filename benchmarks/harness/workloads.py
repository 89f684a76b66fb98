"""The seven workloads: inputs, one sample of each, and the checks.

Every workload is a closed loop with one driver: this process, one
thread, one driver connection; the next invocation is issued when the
previous reply arrives (``pull_bulk`` keeps its READ window full, which
is still closed).  All stages run the identity transducer, so what is
timed is communication.  TCP traffic crosses the host's loopback
interface.

A sample returns a plain dict (see :func:`run_sample`); checking the
output against the reference happens outside the timed interval.
"""

from __future__ import annotations

import asyncio
import collections
import os
import random
import resource
import shutil
import time
from typing import Any, Sequence

from repro.aio.streams import reference
from repro.analysis.cost_model import (
    predict_graph_invocations,
    predicted_invocations,
)
from repro.api import GraphBuilder, Pipeline
from repro.net.bufpool import POOL
from repro.net.handshake import TicketBook
from repro.net.launch import IDENTITY as IDENTITY_SPEC, plan_linear_fleet
from repro.net.metrics import NetStats
from repro.net.protocol import RemoteReadable, RemoteWritable
from repro.net.stage import config_from_args, run_stage
from repro.transput.filterbase import identity_transducer
from repro.transput.flow import FlowPolicy
from repro.transput.stream import END_TRANSFER, Transfer

from spec import FILTERS, IDENTITY, SAMPLE_TIMEOUT_S, Workload
from stats import SpanRecorder

_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"
#: The fleet planner picks listening ports by bind-and-release, so two
#: stages of one plan can be handed the same port (about one sample in
#: 600 here).  That is a planning accident, not a data-plane failure:
#: such a sample is planned again, and the retry is reported.
PORT_RETRIES = 2
_PORT_CLASH = "address already in use"


def make_records(seed: int, count: int) -> list[str]:
    """``count`` text records of mixed lengths 8-64 B, from ``seed``."""
    rng = random.Random(seed)
    return ["".join(rng.choices(_ALPHABET, k=rng.randint(8, 64)))
            for _ in range(count)]


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


# ---------------------------------------------------------------------------
# Checking an output against its reference.
# ---------------------------------------------------------------------------


def count_failures(output: Sequence[Any], expected: Sequence[Any]) -> int:
    """Records missing + duplicated (or foreign) + out of order.

    A record is out of order when it arrives after one that follows it
    in ``expected``; a dropped record therefore costs one failure, not
    one per record behind it.
    """
    if list(output) == list(expected):
        return 0
    positions: dict[Any, collections.deque[int]] = collections.defaultdict(
        collections.deque)
    for index, record in enumerate(expected):
        positions[record].append(index)
    matched = extra = disorder = 0
    high = -1
    for record in output:
        queue = positions.get(record)
        if not queue:
            extra += 1
            continue
        index = queue.popleft()
        matched += 1
        if index < high:
            disorder += 1
        else:
            high = index
    return (len(expected) - matched) + extra + disorder


def chain_failures(output: Sequence[Any], records: Sequence[Any],
                   filters: int) -> int:
    """Failures of a linear chain's output against the functional
    reference (:func:`repro.aio.streams.reference`)."""
    expected = reference([identity_transducer() for _ in range(filters)],
                         records)
    return count_failures(output, expected)


def diamond_failures(output: Sequence[Any],
                     branches: Sequence[Sequence[Any]],
                     records: Sequence[Any]) -> int:
    """Failures of the diamond: the output is the source as a multiset,
    every branch keeps source order, and the gather concatenates the
    branches in channel order."""
    failed = count_failures(sorted(output), sorted(records))
    for branch in branches:
        members = collections.Counter(branch)
        in_source_order = [r for r in records if r in members]
        failed += count_failures(branch, in_source_order)
    gathered = [record for branch in branches for record in branch]
    failed += count_failures(output, gathered)
    return failed


def tamper(output: list[Any], how: str | None) -> None:
    """Self-test hook: break ``output`` in place the way a faulty data
    plane would (``drop`` / ``dup`` / ``swap``)."""
    if how is None or len(output) < 2:
        return
    middle = len(output) // 2
    if how == "drop":
        del output[middle]
    elif how == "dup":
        output.insert(middle, output[middle])
    elif how == "swap":
        output[middle - 1], output[middle] = output[middle], output[middle - 1]
    else:
        raise ValueError(f"unknown tamper mode {how!r}")


# ---------------------------------------------------------------------------
# One sample of each kind.
# ---------------------------------------------------------------------------


def chain_flow(workload: Workload) -> FlowPolicy:
    return FlowPolicy(
        batch=workload.batch,
        pipeline_depth=workload.depth if workload.depth > 1 else None,
    )


def _wire_counters(stats_list: Sequence[Any]) -> dict[str, int]:
    names = ("invocations_sent", "bytes_sent", "frames_sent",
             "sendmsg_writes", "coalesced_writes", "sendmsg_partial_writes")
    return {name: sum(stats.get(name) for stats in stats_list)
            for name in names}


async def _cancel(tasks: Sequence[asyncio.Task]) -> None:
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


async def _chain_sample(workload: Workload, records: list[str], workdir: str,
                        spans: SpanRecorder, filters: int) -> dict[str, Any]:
    """An in-loop TCP chain: ``run_stage`` tasks for the passive stages,
    this coroutine as the active end."""
    pull = workload.kind == "pull"
    flow = chain_flow(workload)
    with spans.span("net.launch.plan_linear_fleet"):
        plans = plan_linear_fleet(
            "readonly" if pull else "writeonly",
            [IDENTITY_SPEC] * filters, workdir,
            # The push chain's source is this process; the planner still
            # wants one to assign ports and serials.
            source_items=records if pull else [],
            flow=flow, codec=workload.codec,
        )
    with spans.span("net.stage.config_from_args"):
        configs = [config_from_args(plan.argv) for plan in plans]
    active = next(c for c in configs
                  if c.role == ("sink" if pull else "source"))
    passive = [c for c in configs if c is not active]
    book = TicketBook(space=active.ticket_space, seed=active.ticket_seed)
    stats = NetStats()
    pool_hits, pool_misses = POOL.hits, POOL.misses
    output: list[Any] = []
    latencies: list[float] = []
    setup = None
    cpu_start = cpu_seconds()
    started = time.perf_counter()
    with spans.span("net.stage.run_stage.launch"):
        tasks = [asyncio.create_task(run_stage(c)) for c in passive]
    try:
        if pull:
            host, port = active.upstream
            reader = RemoteReadable(
                host, port, uid=book.ticket(active.serial), book=book,
                stats=stats, codec=workload.codec,
                pipeline_depth=flow.effective_pipeline_depth(),
                connect_deadline=active.connect_deadline,
            )
            while True:
                called = time.perf_counter()
                with spans.span("net.protocol.RemoteReadable.read"):
                    transfer = await reader.read(workload.batch)
                returned = time.perf_counter()
                if setup is None:
                    setup = returned - started
                latencies.append(returned - called)
                if transfer.at_end:
                    break
                output.extend(transfer.items)
            wall = time.perf_counter() - started
            cpu = cpu_seconds() - cpu_start
            stages = await asyncio.gather(*tasks)
        else:
            host, port = active.downstream
            writer = RemoteWritable(
                host, port, uid=book.ticket(active.serial), book=book,
                stats=stats, codec=workload.codec,
                connect_deadline=active.connect_deadline,
            )
            for start in range(0, len(records), workload.batch):
                chunk = records[start:start + workload.batch]
                with spans.span("net.protocol.RemoteWritable.write"):
                    await writer.write(Transfer.of(chunk))
                if setup is None:
                    setup = time.perf_counter() - started
            with spans.span("net.protocol.RemoteWritable.write"):
                await writer.write(END_TRANSFER)
            with spans.span("net.stage.run_stage.finish"):
                stages = await asyncio.gather(*tasks)
            output = next(s.collected for s in stages
                          if s.config.role == "sink")
            wall = time.perf_counter() - started
            cpu = cpu_seconds() - cpu_start
    except BaseException:
        await _cancel(tasks)
        raise
    counters = _wire_counters([stats] + [stage.stats for stage in stages])
    return {
        "wall": wall, "setup": setup, "cpu": cpu, "output": output,
        "latencies": latencies, "restarts": 0,
        "pool_hits": POOL.hits - pool_hits,
        "pool_misses": POOL.misses - pool_misses,
        **counters,
    }


def diamond(records: Sequence[str], workload: Workload):
    """The diamond every ``diamond_*`` workload runs."""
    return (GraphBuilder(source=records, discipline="readonly",
                         flow=FlowPolicy(batch=workload.batch),
                         name=workload.name)
            .chain(IDENTITY)
            .scatter([IDENTITY], [IDENTITY], policy="hash")
            .gather()
            .chain(IDENTITY)
            .build())


def _front_door_sample(workload: Workload, records: list[str], workdir: str,
                       spans: SpanRecorder) -> dict[str, Any]:
    """``Graph.run`` / ``Pipeline.run``: what a user's stopwatch sees."""
    knobs: dict[str, Any] = {}
    if workload.wire:
        knobs = {"workdir": workdir, "timeout": SAMPLE_TIMEOUT_S}
        if workload.codec != "json":
            knobs["codec"] = workload.codec
    cpu_start = cpu_seconds()
    started = time.perf_counter()
    if workload.kind == "hosted":
        with spans.span("api.facade.Pipeline"):
            job = Pipeline([IDENTITY] * FILTERS, placement="hosted",
                           source=records)
        built = time.perf_counter()
        with spans.span("api.facade.Pipeline.run"):
            result = job.run(runtime="tcp", **knobs)
        branches = None
    else:
        with spans.span("api.graph.build"):
            job = diamond(records, workload)
        built = time.perf_counter()
        with spans.span("api.execute.run_graph"):
            result = job.run(runtime=workload.runtime, **knobs)
        (branches,) = result.branch_outputs.values()
    wall = time.perf_counter() - started
    cpu = cpu_seconds() - cpu_start
    counters = result.stats.get("counters", {})
    sample = {
        "wall": wall, "setup": built - started, "cpu": cpu,
        "run_wall": wall - (built - started),
        "output": list(result.output), "branches": branches,
        "restarts": result.restarts,
        "invocations_sent": result.invocations,
        "segment_invocations": getattr(result, "segment_invocations", {}),
        "kernel": {name: counters.get(name, 0)
                   for name in ("context_switches", "events_processed")},
    }
    if workload.wire:
        for name in ("bytes_sent", "frames_sent", "sendmsg_writes",
                     "coalesced_writes", "sendmsg_partial_writes"):
            sample[name] = int(counters.get(name, 0))
    return sample


def run_sample(workload: Workload, records: list[str], workdir: str,
               spans: SpanRecorder, filters: int | None = None,
               tamper_how: str | None = None) -> dict[str, Any]:
    """One sample: run it under a deadline, then check it.

    Returns the sample dict with ``failed`` (records) and ``attempted``
    added; a sample that raised or timed out fails all its records and
    carries ``error`` (a port clash in planning is retried first).  The
    per-sample ``workdir`` is removed either way.
    """
    filters = FILTERS if filters is None else filters
    for attempt in range(PORT_RETRIES + 1):
        os.makedirs(workdir, exist_ok=True)
        try:
            if workload.in_loop:
                sample = asyncio.run(asyncio.wait_for(
                    _chain_sample(workload, records, workdir, spans, filters),
                    SAMPLE_TIMEOUT_S,
                ))
            else:
                sample = _front_door_sample(workload, records, workdir, spans)
            break
        except Exception as error:  # a failed sample is a result, not a crash
            text = f"{type(error).__name__}: {error}"
            if _PORT_CLASH in text.lower() and attempt < PORT_RETRIES:
                continue
            return {"error": text, "failed": len(records),
                    "attempted": len(records)}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    sample["port_retries"] = attempt
    output = sample.pop("output")
    tamper(output, tamper_how)
    branches = sample.pop("branches", None)
    if branches is not None:
        failed = diamond_failures(output, branches, records)
    else:
        failed = chain_failures(output, records, filters)
    sample["failed"] = min(failed, len(records))
    sample["attempted"] = len(records)
    return sample


def predicted(workload: Workload, records: Sequence[str]) -> int | None:
    """The analytic invocation count, where the paper's model gives one
    (every depth-1 workload whose stages forward batches unchanged)."""
    if workload.kind == "graph":
        return sum(edge.invocations for edge in
                   predict_graph_invocations(diamond(records, workload)))
    if workload.kind == "hosted" or (
            workload.kind == "pull" and workload.depth == 1):
        return predicted_invocations("readonly", FILTERS,
                                     len(records), workload.batch)
    return None
