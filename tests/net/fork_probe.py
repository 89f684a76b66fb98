"""A transducer that tags each record with what its stage process sees.

Spawned stages import it by spec (``tests.net.fork_probe:fork_tag``),
so a test can read, from the output alone, what a forked process
inherited from the driver: the sockets it and every other process of
its run hold, how it and every process of its fleet handle signals,
and what it blocks.
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


def _sockets(pid: int | str) -> list[str]:
    """The sockets process ``pid`` holds, as ``socket:[inode]``."""
    sockets = []
    try:
        fds = os.listdir(f"/proc/{pid}/fd")
    except OSError:
        return sockets  # exited while we looked
    for fd in fds:
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue  # closed by now, like the listing's own descriptor
        if target.startswith("socket:"):
            sockets.append(target)
    return sorted(sockets)


def report() -> dict:
    """What this process sees, as JSON-ready values."""
    zygote = os.getppid()
    driver = int(_status(zygote)["PPid"])
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
        "pid": os.getpid(),
        "driver": str(driver),
        "sockets": _sockets("self"),
        # Every other process of the run: the zygote, the driver that
        # forked it, and this process's siblings.
        "others": {str(pid): _sockets(pid)
                   for pid in {*_fleet(), driver} - {os.getpid()}},
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
