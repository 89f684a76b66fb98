"""One warm interpreter that forks every process of a fleet.

A stage process spends most of its start-up on the interpreter and on
importing what it runs, far more than its stream costs.  The kernel in
the paper keeps a type registry for the same reason: activating an
Eject does not reload its type's code.  ``python -m repro.net.zygote
MODULE...`` imports the named modules once, then forks one child per
request and runs that module's ``main(argv)`` in it, the entry point
its ``eden-*`` console script calls.  A fleet supervisor
(:class:`repro.net.launch.FleetSupervisor`) starts one zygote and asks
it for each process when that process's segment starts.

The zygote speaks one JSON object per line.  It reads requests on
stdin:

- ``{"fork": ID, "module": M, "argv": [...], "stdout": PATH,
  "stderr": PATH, "append": BOOL}`` forks a child that runs
  ``M.main(argv)`` with ``/dev/null`` on fd 0 and its two logs on fds
  1 and 2 (appended to on a restart, truncated otherwise);
- ``{"kill": ID, "signal": N}`` sends signal ``N`` to that child if it
  is still running;
- ``{"sync": N}`` reaps every child that has exited and replies
  ``{"sync": N}`` after their reports.

It replies on stdout with ``{"id": ID, "pid": PID}`` once a child is
forked and ``{"id": ID, "rc": RC}`` once it has exited and been
reaped.  ``RC`` follows :attr:`subprocess.Popen.returncode`: the exit
status, or minus the signal that killed it.  When stdin closes (its
driver is done, or dead), the zygote SIGKILLs and reaps every child
still running and exits 0, without a word.  It reaps every child it
forks, so their CPU time reaches whoever reaps the zygote.

Forking happens only here.  The zygote never starts a thread or an
event loop, so every fork copies one thread that holds no lock.
Importing this module loads no other ``repro`` module.
"""

from __future__ import annotations

import importlib
import json
import os
import select
import signal
import sys
import traceback
from typing import Any, Sequence

__all__ = ["main", "preload"]


def preload(modules: Sequence[str]) -> None:
    """Import ``modules`` into this interpreter, for every fork to share."""
    for module in modules:
        importlib.import_module(module)


def _run(module: str, argv: list[str]) -> int:
    """``module.main(argv)`` as its console script runs it: an exit code."""
    sys.argv = [module, *argv]
    try:
        code = importlib.import_module(module).main(argv)
    except SystemExit as exit_:
        code = exit_.code
    if code is None or isinstance(code, int):
        return code or 0
    print(code, file=sys.stderr)
    return 1


class _Zygote:
    """The request loop: fork, signal and reap children, report exits."""

    def __init__(self) -> None:
        #: pid -> request id, for every child not yet reaped.
        self.children: dict[int, Any] = {}
        self.wake_r, self.wake_w = os.pipe()
        os.set_blocking(self.wake_r, False)
        os.set_blocking(self.wake_w, False)
        # A child's exit writes a byte to the wakeup pipe, so the
        # select below returns for it as it does for a request.
        signal.signal(signal.SIGCHLD, lambda *_: None)
        signal.set_wakeup_fd(self.wake_w)

    def serve(self) -> None:
        pending = b""
        try:
            while True:
                ready = select.select([0, self.wake_r], [], [])[0]
                if self.wake_r in ready:
                    while True:
                        try:
                            if not os.read(self.wake_r, 512):
                                break
                        except BlockingIOError:
                            break
                    self.reap()
                if 0 in ready:
                    chunk = os.read(0, 65536)
                    if not chunk:
                        return
                    *lines, pending = (pending + chunk).split(b"\n")
                    for line in lines:
                        if line.strip():
                            self.handle(json.loads(line))
        except BrokenPipeError:
            return  # the driver stopped reading: it is done, or dead
        finally:
            self.shutdown()

    def reply(self, message: dict[str, Any]) -> None:
        os.write(1, (json.dumps(message) + "\n").encode())

    def handle(self, request: dict[str, Any]) -> None:
        if "sync" in request:
            self.reap()
            self.reply(request)
            return
        if "kill" in request:
            for pid, ident in self.children.items():
                if ident == request["kill"]:
                    try:
                        os.kill(pid, request["signal"])
                    except ProcessLookupError:
                        pass  # exited; the reap reports it
            return
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            self.child(request)  # never returns
        self.children[pid] = request["fork"]
        self.reply({"id": request["fork"], "pid": pid})

    def child(self, request: dict[str, Any]) -> None:
        """Become the requested process; leave only by ``os._exit``."""
        code = 1
        try:
            # Open the logs before fd 0 is replaced: were fd 0 free, a
            # log could land on it.
            mode = os.O_WRONLY | os.O_CREAT | (
                os.O_APPEND if request["append"] else os.O_TRUNC)
            logs = [os.open(os.devnull, os.O_RDONLY),
                    os.open(request["stdout"], mode, 0o666),
                    os.open(request["stderr"], mode, 0o666)]
            signal.set_wakeup_fd(-1)
            signal.signal(signal.SIGCHLD, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.default_int_handler)
            for target, fd in enumerate(logs):
                os.dup2(fd, target)
            for fd in (*logs, self.wake_r, self.wake_w):
                os.close(fd)
            code = _run(request["module"], list(request["argv"]))
        except BaseException:  # a child never returns into the loop above
            traceback.print_exc()
        finally:
            for stream in (sys.stdout, sys.stderr):
                try:
                    stream.flush()
                except (OSError, ValueError):
                    pass  # a log that is gone or closed: nothing to keep
            os._exit(code)

    def reap(self) -> None:
        while self.children:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return
            self.reply({"id": self.children.pop(pid),
                        "rc": os.waitstatus_to_exitcode(status)})

    def shutdown(self) -> None:
        """Kill and reap every child still running."""
        for pid in self.children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        while self.children:
            try:
                pid, _status = os.waitpid(-1, 0)
            except ChildProcessError:
                break
            self.children.pop(pid, None)


def main(argv: Sequence[str] | None = None) -> int:
    """Preload the modules ``argv`` names, then serve forks until EOF."""
    # A ^C reaches the whole process group; the driver decides what
    # happens to the fleet, and closing stdin is how it says so.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    preload(sys.argv[1:] if argv is None else argv)
    _Zygote().serve()
    return 0


if __name__ == "__main__":
    sys.exit(main())
