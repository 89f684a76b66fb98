"""A transducer that tags each record with what its stage process sees.

Spawned stages import it by spec (``tests.net.fork_probe:fork_tag``),
so a test can read, from the output alone, what a forked process
inherited from the driver: the sockets it holds, how it and every
process of its fleet handle signals, and what it blocks.
"""

from __future__ import annotations

import json
import os
import signal

from repro.transput.filterbase import Transducer, map_transducer


def _status(pid: int | str) -> dict[str, str]:
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        return dict(line.rstrip("\n").split(":\t", 1) for line in handle
                    if ":\t" in line)


def _fleet() -> list[int]:
    """This process, the zygote that forked it, and its siblings."""
    parent = os.getppid()
    with open(f"/proc/{parent}/task/{parent}/children",
              encoding="utf-8") as handle:
        siblings = [int(pid) for pid in handle.read().split()]
    return sorted({os.getpid(), parent, *siblings})


def report() -> dict:
    """What this process sees, as JSON-ready values."""
    sockets = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # the directory's own descriptor, closed by now
        if target.startswith("socket:"):
            sockets.append(target)
    sigpipe_ignored, blocked = [], []
    for pid in _fleet():
        try:
            status = _status(pid)
        except OSError:
            continue  # exited while we looked
        sigpipe_ignored.append(
            bool(int(status["SigIgn"], 16) >> (signal.SIGPIPE - 1) & 1))
        blocked.append(int(status["SigBlk"], 16))
    handler = signal.getsignal(signal.SIGTERM)
    return {
        "sockets": sorted(sockets),
        "sigterm": getattr(handler, "name", repr(handler)),
        "sigpipe_ignored": sigpipe_ignored,
        "blocked": blocked,
    }


def fork_tag() -> Transducer:
    """Append ``@<report>``, this process's :func:`report` as JSON."""
    return map_transducer(
        lambda line: f"{line}@{json.dumps(report(), sort_keys=True)}",
        name="fork_tag",
    )


def reports(record: str) -> list[dict]:
    """Every report the probes along its path appended to ``record``."""
    return [json.loads(part) for part in record.split("@")[1:]]
