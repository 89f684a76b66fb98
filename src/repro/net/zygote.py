"""The zygote: one fork of the driver that forks every process of a fleet.

A stage process spends most of its start-up on the interpreter and on
importing what it runs, far more than its stream costs.  The kernel in
the paper keeps a type registry for the same reason: activating an
Eject does not reload its type's code.  :func:`start` forks the driver,
so the zygote holds every module the driver imported, and imports the
named modules the driver has not (the broker's, on a hosted run).  It
forks one child per request and runs that module's ``main(argv)`` in
it, the entry point its ``eden-*`` console script calls.  A fleet
supervisor (:class:`repro.net.launch.FleetSupervisor`) starts one zygote
and asks it for every process of a run when the run starts.

Before it serves, the fork makes itself look like the interpreter it
replaces: its pipes and log on fds 0-2 under new ``sys.std*``, every
other driver descriptor on ``/dev/null``, no driver object finalised,
and a new interpreter's signals, but SIGINT ignored: the driver decides
what a ^C does to the fleet, by closing stdin.  The one exception is
the listeners :func:`start` is given: sockets the driver bound for the
fleet's processes before it forked the zygote, so that nothing that
dials a process is refused while it starts.  The zygote keeps each
until it forks the process it was bound for, and the driver closes its
own copies once the zygote has started.

The zygote speaks one JSON object per line.  It reads requests on
stdin:

- ``{"fork": ID, "module": M, "argv": [...], "stdout": PATH,
  "stderr": PATH, "append": BOOL}`` forks a child that runs
  ``M.main(argv)`` with ``/dev/null`` on fd 0 and its two logs on fds
  1 and 2 (appended to on a restart, truncated otherwise).  An optional
  ``"listener": FD`` names one of the zygote's listeners: the child
  gets it on fd 3 (:data:`repro.net.protocol.LISTENER_FD`) and the
  zygote closes its own copy, so only the child holds it.  A child
  holds no other listener;
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
forks, and its driver reaps it, so their CPU time reaches the driver.

Forking happens only here.  The zygote never starts a thread or an
event loop, so every fork copies one thread that holds no lock.
Importing this module loads no other ``repro`` module.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import select
import signal
import sys
import traceback
from typing import Any, Callable, NoReturn, Sequence

__all__ = ["Handle", "preload", "start"]

#: Where a child finds the listener its fork request names: the first
#: descriptor after its logs (``repro.net.protocol.LISTENER_FD``).
_LISTENER_FD = 3


def preload(modules: Sequence[str]) -> None:
    """Import ``modules`` into this interpreter, for every fork to share."""
    for module in modules:
        importlib.import_module(module)


def _flush() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):
            pass  # none, gone or closed: nothing to keep


def _exit_with(life: Callable[[], int]) -> NoReturn:
    """A fork's whole life: exit with ``life()``'s code, 1 if it raises."""
    code = 1
    try:
        code = life()
    except BaseException:
        traceback.print_exc()
    finally:
        _flush()
        os._exit(code)


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

    def __init__(self, listeners: Sequence[int]) -> None:
        #: pid -> request id, for every child not yet reaped.
        self.children: dict[int, Any] = {}
        #: The listeners no child has been handed yet.
        self.listeners = set(listeners)
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
        _flush()
        pid = os.fork()
        if pid == 0:
            _exit_with(lambda: self.child(request))
        listener = request.get("listener")
        if listener in self.listeners:  # the child's now, and only its
            self.listeners.discard(listener)
            os.close(listener)
        self.children[pid] = request["fork"]
        self.reply({"id": request["fork"], "pid": pid})

    def child(self, request: dict[str, Any]) -> int:
        """Become the requested process: its exit code."""
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
        own = request.get("listener")
        for fd in (*logs, self.wake_r, self.wake_w,
                   *(self.listeners - {own})):
            os.close(fd)
        if own in self.listeners and own != _LISTENER_FD:
            os.dup2(own, _LISTENER_FD, inheritable=False)
            os.close(own)
        return _run(request["module"], list(request["argv"]))

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


class Handle:
    """The driver's end of a zygote: its pid and the two pipes."""

    def __init__(self, pid: int, stdin: Any, stdout: Any) -> None:
        self.pid, self.stdin, self.stdout = pid, stdin, stdout
        self.returncode: int | None = None

    def wait(self) -> int:
        """Reap the zygote; its exit status, or minus its signal."""
        if self.returncode is None:
            status = os.waitpid(self.pid, 0)[1]
            self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode


def start(modules: Sequence[str], stderr_path: str,
          listeners: Sequence[int] = ()) -> Handle:
    """Fork a zygote of this process that logs to ``stderr_path``.

    ``listeners`` are the descriptors of listening sockets the zygote
    keeps, under the same numbers, for its fork requests to hand out.
    """
    requests, reports = os.pipe(), os.pipe()
    log = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    # Text left in the driver's buffers is written once, by the driver.
    _flush()
    try:
        pid = os.fork()
    except OSError:
        for fd in (*requests, *reports, log):
            os.close(fd)
        raise
    if pid == 0:
        _exit_with(lambda: _become(modules, (requests[0], reports[1], log),
                                   listeners))
    for fd in (requests[0], reports[1], log):
        os.close(fd)
    return Handle(pid, open(requests[1], "wb", 0), open(reports[0], "rb"))


def _become(modules: Sequence[str], ends: Sequence[int],
            listeners: Sequence[int]) -> int:
    """Turn a fork of the driver into a zygote on ``ends`` as fds 0-2,
    keeping ``listeners``."""
    gc.freeze()
    signal.set_wakeup_fd(-1)
    for signum in signal.valid_signals():
        if signum in (signal.SIGPIPE, signal.SIGXFSZ, signal.SIGINT):
            signal.signal(signum, signal.SIG_IGN)
        elif callable(signal.getsignal(signum)):
            signal.signal(signum, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_SETMASK, ())
    # This frame outlives every fork: no stream it replaces is finalised.
    replaced = (sys.stdin, sys.stdout, sys.stderr,  # noqa: F841
                sys.__stdin__, sys.__stdout__, sys.__stderr__)
    held = {int(fd) for fd in os.listdir("/dev/fd")} - {0, 1, 2, *listeners}
    # Pipes and log were opened in this order, so each end's number is
    # above its target's and no dup2 overwrites an end still to come.
    for target, fd in enumerate(ends):
        os.dup2(fd, target)
    null = os.open(os.devnull, os.O_RDWR | os.O_CLOEXEC)
    for fd in held - {null}:  # null may reuse the listing's number
        os.dup2(null, fd, inheritable=False)
    os.close(null)
    sys.stdin = sys.__stdin__ = open(0, closefd=False)
    sys.stdout = sys.__stdout__ = open(1, "w", closefd=False)
    sys.stderr = sys.__stderr__ = open(
        2, "w", buffering=1, errors="backslashreplace", closefd=False)
    preload(modules)
    _Zygote(listeners).serve()
    return 0
