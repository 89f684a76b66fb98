"""A transducer that tags each record with the CPUs its process may use.

Spawned stages import it by spec (``tests.net.affinity_probe:
affinity_tag``), so a test can read, from the pipeline's output alone,
the affinity mask of the process that ran each filter.
"""

from __future__ import annotations

import os

from repro.transput.filterbase import Transducer, map_transducer


def mask_text(mask) -> str:
    """An affinity mask as the text :func:`affinity_tag` appends."""
    return ",".join(str(core) for core in sorted(mask))


def affinity_tag() -> Transducer:
    """Append ``@<cpus>``: this process's affinity mask, to every line."""
    return map_transducer(
        lambda line: f"{line}@{mask_text(os.sched_getaffinity(0))}",
        name="affinity_tag",
    )
