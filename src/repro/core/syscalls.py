"""Syscall records yielded by Eject processes.

Language-level processes (paper §4: Concurrent Euclid processes inside
an Eject) are Python generators.  A process requests kernel services by
``yield``-ing one of the records below; the scheduler resumes it with
the result.  This style keeps the whole simulation single-threaded and
deterministic while faithfully modelling processes that are "waiting for
incoming invocations, waiting for replies to invocations, or running"
(paper §1).

Typical process body::

    def main(self):
        request = yield Receive(operations={"Read"})
        yield SendReply(request, result="hello")
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable

from repro.core.capability import ChannelId
from repro.core.message import Invocation
from repro.core.uid import UID

#: The type of a process body: a generator yielding syscalls.
ProcessBody = Generator["Syscall", Any, Any]


class Syscall:
    """Base class for everything a process may ``yield``.

    Syscalls are plain slotted records.  The scheduler dispatches on
    ``type(syscall)``: each class below has one handler, installed by
    the scheduler (process control, time, signals) or by the kernel
    (messaging, checkpoints); a subclass is served by the handler of
    its nearest registered base.
    """

    __slots__ = ()


@dataclass(slots=True)
class Invoke(Syscall):
    """Send an invocation without waiting; resumes with a ticket (int).

    This is Eden's asynchronous invocation: "The sending of an
    invocation does not suspend the execution of the sending Eject."
    Await the reply later with :class:`AwaitReply`.
    """

    target: UID
    operation: str
    args: tuple[Any, ...] = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    channel: ChannelId | None = None


@dataclass(slots=True)
class AwaitReply(Syscall):
    """Block until the reply for ``ticket`` arrives; resumes with the
    invocation's result (or raises the carried error in the process)."""

    ticket: int


@dataclass(slots=True)
class Call(Syscall):
    """Invoke and await the reply in one step (request/response RPC).

    Counts as exactly one invocation plus one reply — identical on the
    wire to :class:`Invoke` followed by :class:`AwaitReply`.
    """

    target: UID
    operation: str
    args: tuple[Any, ...] = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    channel: ChannelId | None = None


@dataclass(frozen=True, slots=True)
class Receive(Syscall):
    """Block until a matching invocation arrives; resumes with the
    :class:`~repro.core.message.Invocation`.

    ``operations`` restricts matching to the named operations (``None``
    accepts any).  ``channels`` restricts matching to invocations whose
    channel qualifier is in the set (``None`` accepts any, including
    unqualified).  Matching is FIFO over the Eject's mailbox.
    """

    operations: frozenset[str] | None = None
    channels: frozenset | None = None

    def accepts(self, invocation: Invocation) -> bool:
        """Whether ``invocation`` satisfies this Receive."""
        return (
            self.operations is None or invocation.operation in self.operations
        ) and (self.channels is None or invocation.channel in self.channels)

    @staticmethod
    def of(
        operations: Iterable[str] | None = None,
        channels: Iterable[ChannelId] | None = None,
    ) -> "Receive":
        """Convenience constructor accepting any iterables."""
        ops = frozenset(operations) if operations is not None else None
        chans = frozenset(channels) if channels is not None else None
        return Receive(operations=ops, channels=chans)


#: A Receive matching any invocation: what a generic server loop waits
#: on.  A Receive is frozen, so one serves every receive.
RECEIVE_ANY = Receive()


@dataclass(slots=True)
class SendReply(Syscall):
    """Reply to a previously received invocation; resumes with ``None``.

    ``span`` optionally carries the causal origin of the data being
    returned (a :class:`repro.obs.spans.SpanContext`): a passive buffer
    answering a Read with a record that was deposited under some other
    trace attaches that trace here, and the kernel re-roots the
    reader's request span onto it (*datum-follows-trace*).
    """

    invocation: Invocation
    result: Any = None
    error: BaseException | None = None
    span: Any = None


@dataclass(slots=True)
class AdoptSpan(Syscall):
    """Make ``span`` the process's causal context; resumes with ``None``.

    Used where a datum crosses an in-Eject queue between two processes
    (e.g. a write-only filter's receiver hands records to its worker):
    the worker adopts the deposit's span so its downstream Write joins
    the datum's trace instead of rooting a fresh one.
    """

    span: Any = None


@dataclass(slots=True)
class Sleep(Syscall):
    """Block for ``duration`` units of virtual time; resumes with ``None``."""

    duration: float


@dataclass(slots=True)
class GetTime(Syscall):
    """Resumes immediately with the current virtual time (float)."""


@dataclass(slots=True)
class Spawn(Syscall):
    """Start another process inside the same Eject.

    ``body_factory`` is called with no arguments and must return a
    generator.  Resumes with the new process's name (str).
    """

    body_factory: Callable[[], ProcessBody]
    name: str = "worker"


@dataclass(slots=True)
class ExitProcess(Syscall):
    """Terminate the yielding process immediately."""


@dataclass(slots=True)
class YieldControl(Syscall):
    """Give other ready processes a turn; resumes with ``None``."""


@dataclass(slots=True)
class DoCheckpoint(Syscall):
    """Write the Eject's passive representation to stable storage.

    Resumes with ``None``.  The Eject's ``passive_representation()``
    hook supplies the data.
    """


@dataclass(slots=True)
class Deactivate(Syscall):
    """Deactivate the whole Eject (all its processes stop).

    If it has checkpointed, the kernel can reactivate it on the next
    invocation; otherwise it disappears (paper §7: the UnixFile Eject
    "deactivates itself and, since it has never Checkpointed,
    disappears").
    """


class Signal:
    """An intra-Eject condition variable for process cooperation.

    The paper's "standard IO module" shares a buffer between the filter
    process and a server process; they coordinate through signals.
    Signals are kernel objects but carry no messages — waiting/notifying
    never touches the transport and costs no invocations.
    """

    _counter = 0

    def __init__(self, name: str | None = None) -> None:
        Signal._counter += 1
        self.name = name or f"signal-{Signal._counter}"

    def __repr__(self) -> str:
        return f"Signal({self.name})"


@dataclass(slots=True)
class WaitSignal(Syscall):
    """Block until the signal is notified; resumes with the notify value."""

    signal: Signal


@dataclass(slots=True)
class NotifySignal(Syscall):
    """Wake every process waiting on ``signal``; resumes with the number
    of processes woken."""

    signal: Signal
    value: Any = None
