"""repro.fault: fault injection and supervised recovery for the wire runtime.

The paper's asymmetric disciplines buy their halved invocation count by
directly coupling neighbours — which means a crashed filter stalls the
whole pipeline, exactly the decoupling a passive buffer would have
bought.  This package makes that trade measurable and survivable:

- :mod:`repro.fault.plan` — :class:`FaultPlan` / :class:`FrameFault`:
  a declarative, JSON-portable description of the faults one stage (or
  one link) should suffer: dropped, delayed, duplicated or corrupted
  frames, a crash after the k-th datum, refused connections.
- :mod:`repro.fault.inject` — the runtime hooks: a frame-level
  :class:`FaultInjector` consulted by every outgoing data frame, and
  the kill switches that crash a stage mid-stream.
- :mod:`repro.fault.chaos` — a frame-aware TCP chaos proxy that sits
  between two stages and applies a :class:`FaultPlan` to the link
  without either stage's cooperation.

Supervised recovery lives with the orchestrator
(:class:`repro.net.launch.FleetSupervisor`); the session-resume
protocol that makes restarts lossless lives in
:mod:`repro.net.protocol` (see ``docs/fault_tolerance.md``).
"""

from repro._lazy import lazy_front

__getattr__, __dir__, __all__ = lazy_front(globals(), {
    "repro.fault.chaos": ("ChaosProxy",),
    "repro.fault.inject": (
        "FaultInjector", "KillSwitch", "KillingReadable", "KillingWritable",
        "killing_transducer",
    ),
    "repro.fault.plan": (
        "FAULT_ACTIONS", "FaultError", "FaultPlan", "FrameFault",
        "KILLED_EXIT_CODE",
    ),
})
