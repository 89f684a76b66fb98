"""Language-level processes: generator coroutines owned by Ejects.

The Eden programming language provides each Eject with multiple
processes (paper §1).  Here a process wraps a generator; the scheduler
resumes it with syscall results and collects the next syscall.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.core.errors import KernelError
from repro.core.message import Invocation
from repro.core.syscalls import (
    AwaitReply,
    ProcessBody,
    Receive,
    Sleep,
    Syscall,
    WaitSignal,
)


class ProcessState(enum.Enum):
    """Lifecycle of a process."""

    READY = "ready"  # runnable, queued for the CPU
    RUNNING = "running"  # currently being stepped
    BLOCKED = "blocked"  # waiting on a reply, invocation, timer or signal
    DONE = "done"  # body returned or ExitProcess
    FAILED = "failed"  # body raised


_RUNNING = ProcessState.RUNNING
_DONE = ProcessState.DONE
_FAILED = ProcessState.FAILED


class Process:
    """One schedulable generator coroutine.

    Attributes:
        name: unique printable name, ``<eject>/<process>``.
        owner: the owning Eject (``None`` for kernel-internal drivers).
        state: current :class:`ProcessState`.
        blocked_on: what a blocked process is parked on, as data: the
            ``Sleep`` / ``WaitSignal`` / ``Receive`` / ``AwaitReply``
            syscall it issued or, for a ``Call``, the in-flight
            :class:`~repro.core.message.Invocation` whose reply it
            awaits.  :attr:`blocked_reason` renders it.
        pending_value, pending_exception: what the next :meth:`step`
            sends or throws into the body.  Both are ``None`` while the
            process runs or is parked; whoever makes it ready sets one.
    """

    __slots__ = (
        "_body", "name", "owner", "state", "blocked_on", "pending_value",
        "pending_exception", "failure", "result", "current_span",
    )

    def __init__(self, body: ProcessBody, name: str, owner: Any = None) -> None:
        if not hasattr(body, "send"):
            raise TypeError(
                f"process body must be a generator, got {type(body).__name__}; "
                "did you call the generator function?"
            )
        self._body = body
        self.name = name
        self.owner = owner
        self.state = ProcessState.READY
        self.blocked_on: Syscall | Invocation | None = None
        self.pending_value: Any = None
        self.pending_exception: BaseException | None = None
        self.failure: BaseException | None = None
        self.result: Any = None
        # Span context of the invocation this process is currently
        # serving (set by the kernel when span tracing is on): the
        # causal parent for any invocation this process sends.
        self.current_span: Any = None

    @property
    def alive(self) -> bool:
        """Whether the process can still run."""
        state = self.state
        return state is not _DONE and state is not _FAILED

    @property
    def blocked_reason(self) -> str | None:
        """Printable form of :attr:`blocked_on` (``None`` if not parked)."""
        on = self.blocked_on
        if on is None:
            return None
        if isinstance(on, Invocation):
            return f"call({on.operation}#{on.ticket})"
        if isinstance(on, Receive):
            ops = sorted(on.operations) if on.operations else "any"
            return f"receive({ops})"
        if isinstance(on, AwaitReply):
            return f"await(#{on.ticket})"
        if isinstance(on, Sleep):
            return f"sleep({on.duration})"
        if isinstance(on, WaitSignal):
            return f"wait({on.signal.name})"
        return str(on)

    def resume_with(self, value: Any) -> None:
        """Arrange for ``value`` to be sent into the body next step."""
        self.pending_value = value
        self.pending_exception = None

    def resume_with_exception(self, exc: BaseException) -> None:
        """Arrange for ``exc`` to be thrown into the body next step."""
        self.pending_value = None
        self.pending_exception = exc

    def step(self) -> Syscall | None:
        """Advance the body to its next syscall.

        Returns the syscall it yielded, or ``None`` if the body
        finished.  On an uncaught exception the process moves to
        ``FAILED`` and the exception is re-raised for the scheduler to
        report.
        """
        state = self.state
        if state is _DONE or state is _FAILED:
            raise KernelError(f"cannot step {state.value} process {self.name}")
        self.state = _RUNNING
        self.blocked_on = None
        try:
            exc = self.pending_exception
            if exc is not None:
                self.pending_exception = None
                yielded = self._body.throw(exc)
            else:
                value = self.pending_value
                self.pending_value = None
                yielded = self._body.send(value)
        except StopIteration as stop:
            self.state = _DONE
            self.result = stop.value
            return None
        except BaseException as exc:
            self.state = _FAILED
            self.failure = exc
            raise
        if not isinstance(yielded, Syscall):
            self.state = _FAILED
            error = KernelError(
                f"process {self.name} yielded {yielded!r}, which is not a Syscall"
            )
            self.failure = error
            raise error
        return yielded

    def kill(self) -> None:
        """Terminate the process without running it further."""
        if self.alive:
            self._body.close()
            self.state = _DONE

    def __repr__(self) -> str:
        reason = self.blocked_reason
        suffix = f" blocked_on={reason}" if reason else ""
        return f"Process({self.name}, {self.state.value}{suffix})"
