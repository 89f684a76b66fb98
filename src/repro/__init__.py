"""repro: a reproduction of Black's "An Asymmetric Stream Communication
System" (SOSP 1983).

The package implements the Eden object/invocation substrate as a
deterministic discrete-event simulation, the paper's four transput
primitives, and the read-only, write-only and conventional stream
disciplines — then runs the same dataflow graph on that simulator, on
asyncio coroutines and on fleets of OS processes over TCP.

Quickstart::

    from repro.api import GraphBuilder

    graph = (GraphBuilder(source=["C a comment", "      REAL X"],
                          discipline="readonly")
             .chain(("repro.filters:comment_stripper", ["C"]))
             .build())
    result = graph.run(runtime="sim")     # or "aio", or "tcp"
    print(result.output)                  # ['      REAL X']
    print(result.invocations)             # 5: one Read per record per hop + END

Layers (every front is lazy — see :mod:`repro._lazy` — so importing
one layer loads only what it runs):

- :mod:`repro.api` — the front door: validated dataflow graphs and the
  linear ``Pipeline`` facade, runnable on every runtime.
- :mod:`repro.core` — the simulated Eden kernel (UIDs, invocation,
  Ejects, checkpointing, nodes, transport).
- :mod:`repro.transput` — the four primitives and three disciplines.
- :mod:`repro.filters` — the filter/transducer library.
- :mod:`repro.filesystem` — Eden files, directories, bootstrap Unix FS.
- :mod:`repro.devices` — terminals, printers, windows, workload sources.
- :mod:`repro.shell` — a pipeline command language with ``n>`` redirects.
- :mod:`repro.figures` — the paper's Figures 1-4 as configurations.
- :mod:`repro.analysis` — cost model and measurement harness.
- :mod:`repro.aio` — the same design over asyncio.
- :mod:`repro.net` — the same design between OS processes, over TCP
  (``eden-stage``, fleet planning and supervision).
- :mod:`repro.broker` — hosted placement: ``eden-broker`` and
  ``eden-host``, many stages in one process over one connection.
- :mod:`repro.obs` — spans, metrics, the flight recorder, ``eden-top``
  / ``eden-trace`` / ``eden-flight``.
- :mod:`repro.fault` — fault plans, injection and the chaos proxy.
"""

from repro._lazy import lazy_front

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_front(globals(), {
    "repro.core.eject": ("Eject",),
    "repro.core.errors": ("EdenError",),
    "repro.core.kernel": ("Kernel",),
    "repro.core.node": ("Node",),
    "repro.core.transport": ("TransportCosts",),
    "repro.core.uid": ("UID",),
    "repro.figures": (
        "build_figure1", "build_figure2", "build_figure3", "build_figure4",
    ),
    "repro.shell.interpreter": ("Shell",),
    "repro.transput.filterbase": ("Transducer",),
    "repro.transput.flow": ("FlowPolicy",),
    "repro.transput.pipeline": (
        "Pipeline", "compose_conventional_pipeline",
        "compose_readonly_pipeline", "compose_segment",
        "compose_writeonly_pipeline",
    ),
})
__all__.append("__version__")
