"""Device Ejects: terminals, printers, windows, clock and workload
sources.

Devices are ordinary Ejects speaking the stream protocol — the paper's
point that "there is no distinction between input redirection from a
file and from a program" extends to devices.
"""

from repro._lazy import lazy_front

__getattr__, __dir__, __all__ = lazy_front(globals(), {
    "repro.devices.printer": ("PrinterServer",),
    "repro.devices.sources": ("ClockSource", "NullSource", "RandomSource"),
    "repro.devices.terminal": ("Keyboard", "Terminal"),
    "repro.devices.window": ("PassiveReportWindow", "ReportWindow"),
    "repro.devices.workload": ("random_lines",),
    "repro.transput.sink": ("NullSink",),
})
