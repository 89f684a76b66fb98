"""Sharded pipelines keep their numbers on every runtime.

``Pipeline(stages, shards=N)`` partitions the stream by content hash
across N copies of its stages and gathers the copies' outputs in shard
order.  Each row below pins, for two identity filters over 200 records,
the gathered output and every shard's output (as CRC-32s of the
newline-joined records), the invocation count, and on the simulator the
kernel counters a different schedule would move first.

The literals were generated at commit 2c15497 — before sharding became
the graph runner's parallel block — by running this file as a script
(``PYTHONPATH=src python tests/api/test_sharded_numbers.py``) with
``shard_outputs`` below reading that commit's ``result.shard_outputs``.
One set of rows is not the parent's: aio on the conventional discipline
at ``batch=4`` counted one WRITE per record there (612 where the sim
and the cost model count 312); its filter now writes one transfer per
inbound transfer, so those rows equal the sim's, which is what the
table holds for both runtimes.
"""

from __future__ import annotations

import zlib

import pytest

from repro.analysis import predicted_invocations
from repro.api import GraphResult, Pipeline
from repro.transput.flow import shard_of

IDENTITY = "repro.transput:identity_transducer"
ITEMS = [f"rec-{index:03d}" for index in range(200)]
FILTERS = 2

#: (discipline, shards, batch) -> (CRC-32 of the output, CRC-32 of each
#: shard's output, invocations on sim and aio, sim context_switches,
#: sim events_processed).
GOLDEN = {
    ("conventional", 2, 1): (
        2464225241, (4017522104, 2442224370), 1212, 3650, 2424),
    ("conventional", 2, 4): (
        2464225241, (4017522104, 2442224370), 312, 950, 624),
    ("conventional", 4, 1): (
        2650359623, (4215944415, 183691281, 3562880819, 635823101),
        1224, 3700, 2448),
    ("conventional", 4, 4): (
        2650359623, (4215944415, 183691281, 3562880819, 635823101),
        336, 1036, 672),
    ("readonly", 2, 1): (
        2464225241, (4017522104, 2442224370), 606, 1826, 1212),
    ("readonly", 2, 4): (
        2464225241, (4017522104, 2442224370), 156, 476, 312),
    ("readonly", 4, 1): (
        2650359623, (4215944415, 183691281, 3562880819, 635823101),
        612, 1852, 1224),
    ("readonly", 4, 4): (
        2650359623, (4215944415, 183691281, 3562880819, 635823101),
        168, 520, 336),
    ("writeonly", 2, 1): (
        2464225241, (4017522104, 2442224370), 606, 2642, 1212),
    ("writeonly", 2, 4): (
        2464225241, (4017522104, 2442224370), 156, 992, 312),
    ("writeonly", 4, 1): (
        2650359623, (4215944415, 183691281, 3562880819, 635823101),
        612, 2684, 1224),
    ("writeonly", 4, 4): (
        2650359623, (4215944415, 183691281, 3562880819, 635823101),
        168, 1068, 336),
}

#: The one TCP row: readonly, two shards, batch 4, binary codec.
TCP_GOLDEN = (2464225241, (4017522104, 2442224370), 156)


def crc(records) -> int:
    return zlib.crc32("\n".join(records).encode("utf-8"))


def shard_outputs(result) -> list[list[str]]:
    return result.branch_outputs["shards"]


def run(discipline, shards, batch, runtime, **knobs):
    pipeline = Pipeline([IDENTITY] * FILTERS, discipline=discipline,
                        source=ITEMS, shards=shards)
    return pipeline.run(runtime=runtime, batch=batch, **knobs)


def modelled(discipline, shards, batch) -> int:
    """Σ over shards of the linear model on that shard's bucket."""
    sizes = [0] * shards
    for record in ITEMS:
        sizes[shard_of(record, shards)] += 1
    return sum(predicted_invocations(discipline, FILTERS, size, batch=batch)
               for size in sizes)


def row_id(key) -> str:
    return "-".join(map(str, key))


def fingerprint(result) -> tuple:
    return (crc(result.output),
            tuple(crc(lines) for lines in shard_outputs(result)),
            result.invocations)


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=row_id)
def test_sim_row(key):
    output, shards, invocations, switches, events = GOLDEN[key]
    result = run(*key, runtime="sim")
    assert isinstance(result, GraphResult)
    assert fingerprint(result) == (output, shards, invocations)
    counters = result.stats["counters"]
    assert counters["context_switches"] == switches
    assert counters["events_processed"] == events
    assert counters["invocations_sent"] == invocations
    assert invocations == modelled(*key)


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=row_id)
def test_aio_row(key):
    output, shards, invocations, _switches, _events = GOLDEN[key]
    result = run(*key, runtime="aio")
    assert isinstance(result, GraphResult)
    assert fingerprint(result) == (output, shards, invocations)
    assert invocations == modelled(*key)


def test_tcp_row(tmp_path):
    result = run("readonly", 2, 4, runtime="tcp", workdir=str(tmp_path),
                 codec="binary", timeout=90.0)
    assert isinstance(result, GraphResult)
    assert fingerprint(result) == TCP_GOLDEN
    assert result.invocations == 156 == modelled("readonly", 2, 4)


if __name__ == "__main__":  # regenerate the GOLDEN literals
    import tempfile

    print("GOLDEN = {")
    for key in sorted(
            (discipline, shards, batch)
            for discipline in ("readonly", "writeonly", "conventional")
            for shards in (2, 4) for batch in (1, 4)):
        sim = run(*key, runtime="sim")
        counters = sim.stats["counters"]
        print(f"    {key!r}: {fingerprint(sim) + (counters['context_switches'], counters['events_processed'])!r},")
        aio = fingerprint(run(*key, runtime="aio"))
        if aio != fingerprint(sim):
            print(f"    # aio differs: {aio!r}")
    print("}")
    with tempfile.TemporaryDirectory() as workdir:
        tcp = run("readonly", 2, 4, runtime="tcp", workdir=workdir,
                  codec="binary", timeout=90.0)
    print(f"TCP_GOLDEN = {fingerprint(tcp)!r}")
