"""Golden transput accounting: every Eject's own counts, pinned.

The serve loops of the lazy read-only path (the read-only filter, the
passive source and the active sink) count their primitives inline
rather than through the library routines, so a dropped or doubled
count would not move a schedule.  Each case below runs one simulation
and checks, for every Eject in it, its ``primitive_use`` and whichever
of ``reads_served``, ``pulls_issued`` and ``reads_issued`` it keeps,
together with the kernel-wide ``prim_*`` counters.  The literals were
generated at the commit before those loops by running this file as a
script (``PYTHONPATH=src python tests/transput/test_accounting_golden.py``).
"""

from __future__ import annotations

import pytest

import repro.core.kernel as kernel_module
from repro.api import GraphBuilder
from repro.core.kernel import Kernel
from repro.transput.filterbase import identity_transducer
from repro.transput.flow import FlowPolicy
from repro.transput.pipeline import compose_segment

ITEMS = [f"rec-{index:02d}" for index in range(23)]
FLOWS = {
    "default": FlowPolicy(),
    "batch4": FlowPolicy(batch=4),
    "lookahead4": FlowPolicy(lookahead=4),
}
COUNTS = ("reads_served", "pulls_issued", "reads_issued")


def accounts(kernels: list[Kernel]) -> tuple:
    """Per kernel: every live Eject's counts, then the prim_* counters."""
    result = []
    for kernel in kernels:
        ejects = tuple(
            (eject.name,
             tuple(sorted((primitive.value, count) for primitive, count
                          in eject.primitive_use.items())),
             *(getattr(eject, name, None) for name in COUNTS))
            for eject in sorted(kernel.live_ejects(), key=lambda e: e.name)
        )
        prims = tuple(sorted((name, kernel.stats.get(name))
                             for name in kernel.stats.names()
                             if name.startswith("prim_")))
        result.append((ejects, prims))
    return tuple(result)


def chain_accounts(flow: str) -> tuple:
    """A source, three identity filters and a sink in one kernel."""
    kernel = Kernel()
    pipeline = compose_segment(
        kernel, "readonly", ITEMS,
        [identity_transducer(f"f{index}") for index in range(3)],
        flow=FLOWS[flow],
    )
    assert pipeline.run_to_completion() == ITEMS
    return accounts([kernel])


def diamond_accounts(monkeypatch=None) -> tuple:
    """The harness's ``diamond_sim`` graph at 40 records: one kernel per
    segment (head, the two-branch block, tail)."""
    kernels: list[Kernel] = []

    class Recorded(Kernel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            kernels.append(self)

    if monkeypatch is not None:
        monkeypatch.setattr(kernel_module, "Kernel", Recorded)
    else:  # script mode
        kernel_module.Kernel = Recorded
    records = [f"record-{index:06d}" for index in range(40)]
    identity = "repro.filters:identity"
    graph = (
        GraphBuilder(source=records, discipline="readonly",
                     flow=FlowPolicy(batch=1), name="diamond")
        .chain(identity)
        .scatter([identity], [identity], policy="hash")
        .gather()
        .chain(identity)
        .build()
    )
    assert sorted(graph.run(runtime="sim").output) == records
    return accounts(kernels)


CHAIN = {'default': (((('CollectorSink-4', (('active_input', 24),), None, None, 24),
               ('ListSource-0', (('passive_output', 24),), 24, None, None),
               ('ReadOnlyFilter-1',
                (('active_input', 24), ('passive_output', 24)),
                24,
                24,
                None),
               ('ReadOnlyFilter-2',
                (('active_input', 24), ('passive_output', 24)),
                24,
                24,
                None),
               ('ReadOnlyFilter-3',
                (('active_input', 24), ('passive_output', 24)),
                24,
                24,
                None)),
              (('prim_active_input', 96), ('prim_passive_output', 96))),),
 'batch4': (((('CollectorSink-4', (('active_input', 7),), None, None, 7),
              ('ListSource-0', (('passive_output', 7),), 7, None, None),
              ('ReadOnlyFilter-1',
               (('active_input', 7), ('passive_output', 7)),
               7,
               7,
               None),
              ('ReadOnlyFilter-2',
               (('active_input', 7), ('passive_output', 7)),
               7,
               7,
               None),
              ('ReadOnlyFilter-3',
               (('active_input', 7), ('passive_output', 7)),
               7,
               7,
               None)),
             (('prim_active_input', 28), ('prim_passive_output', 28))),),
 'lookahead4': (((('CollectorSink-4', (('active_input', 24),), None, None, 24),
                  ('ListSource-0', (('passive_output', 24),), 24, None, None),
                  ('ReadOnlyFilter-1',
                   (('active_input', 24), ('passive_output', 24)),
                   24,
                   24,
                   None),
                  ('ReadOnlyFilter-2',
                   (('active_input', 24), ('passive_output', 24)),
                   24,
                   24,
                   None),
                  ('ReadOnlyFilter-3',
                   (('active_input', 24), ('passive_output', 24)),
                   24,
                   24,
                   None)),
                 (('prim_active_input', 96), ('prim_passive_output', 96))),)}
DIAMOND = (((('CollectorSink-2', (('active_input', 41),), None, None, 41),
   ('ListSource-0', (('passive_output', 41),), 41, None, None),
   ('ReadOnlyFilter-1',
    (('active_input', 41), ('passive_output', 41)),
    41,
    41,
    None)),
  (('prim_active_input', 82), ('prim_passive_output', 82))),
 ((('CollectorSink-2', (('active_input', 21),), None, None, 21),
   ('CollectorSink-5', (('active_input', 21),), None, None, 21),
   ('ListSource-0', (('passive_output', 21),), 21, None, None),
   ('ListSource-3', (('passive_output', 21),), 21, None, None),
   ('ReadOnlyFilter-1',
    (('active_input', 21), ('passive_output', 21)),
    21,
    21,
    None),
   ('ReadOnlyFilter-4',
    (('active_input', 21), ('passive_output', 21)),
    21,
    21,
    None)),
  (('prim_active_input', 84), ('prim_passive_output', 84))),
 ((('CollectorSink-2', (('active_input', 41),), None, None, 41),
   ('ListSource-0', (('passive_output', 41),), 41, None, None),
   ('ReadOnlyFilter-1',
    (('active_input', 41), ('passive_output', 41)),
    41,
    41,
    None)),
  (('prim_active_input', 82), ('prim_passive_output', 82))))


@pytest.mark.parametrize("flow", sorted(CHAIN))
def test_chain_accounting_is_unchanged(flow):
    assert chain_accounts(flow) == CHAIN[flow]


def test_harness_diamond_accounting_is_unchanged(monkeypatch):
    assert diamond_accounts(monkeypatch) == DIAMOND


if __name__ == "__main__":  # regenerate the literals
    import pprint

    chain = {flow: chain_accounts(flow) for flow in FLOWS}
    print(f"CHAIN = {pprint.pformat(chain, width=79, sort_dicts=False)}")
    print(f"DIAMOND = {pprint.pformat(diamond_accounts(), width=79)}")
