"""The Eject: Eden's active object.

An Eject has a UID, a concrete Eden type, its own processes, a mailbox
of pending invocations, and may Checkpoint a passive representation
(paper §1).  This class provides the dispatcher machinery; concrete
types either

* override :meth:`main` (or :meth:`process_bodies`) with explicit
  process loops yielding syscalls — the style used by filters, or
* define ``op_<Operation>`` generator methods and inherit the default
  server loop, which receives any invocation and dispatches it — the
  style used by directories, files and devices.

Handler example::

    class Greeter(Eject):
        eden_type = "Greeter"

        def op_Greet(self, invocation):
            name, = invocation.args
            return f"hello, {name}"
            yield  # makes this a generator even with no syscalls

(Any ``op_`` method may be a plain function or a generator function:
what a plain function returns is the result; a returned generator is
run to completion and *its* return value is the result.)
"""

from __future__ import annotations

from collections import deque
from types import GeneratorType
from typing import Any, Iterable, TYPE_CHECKING

from repro.core.capability import ChannelCapability, ChannelId, ChannelMinter
from repro.core.errors import EdenError, NoSuchOperationError
from repro.core.message import Invocation
from repro.core.process import Process
from repro.core.syscalls import (
    AwaitReply,
    Call,
    DoCheckpoint,
    Deactivate,
    Invoke,
    ProcessBody,
    RECEIVE_ANY,
    Receive,
    SendReply,
)
from repro.core.uid import UID

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.kernel import Kernel
    from repro.core.node import Node


class Eject:
    """Base class for every Eden object in the simulation.

    Construction happens through :meth:`Kernel.create`, which issues the
    UID, places the Eject on a node and starts its processes.  Concrete
    subclasses set :attr:`eden_type` to their registered type name.
    """

    #: Registered Eden type name; subclasses must override.
    eden_type: str = "Eject"

    def __init__(self, kernel: "Kernel", uid: UID, name: str | None = None) -> None:
        self.kernel = kernel
        self.uid = uid
        self.name = name or f"{type(self).__name__}-{uid.serial}"
        self.node: "Node | None" = None
        self.active = True
        self.crashed = False
        self.mailbox: deque[Invocation] = deque()
        #: processes parked on a Receive, in wait order.
        self._waiting_receivers: list[tuple[Process, Receive]] = []
        self.processes: list[Process] = []
        self.channels = ChannelMinter(uid)
        self.received_count = 0
        self.replied_count = 0

    # ------------------------------------------------------------------
    # Lifecycle hooks for subclasses
    # ------------------------------------------------------------------

    def process_bodies(self) -> Iterable[tuple[str, ProcessBody]]:
        """The processes to start on (re)activation.

        Default: a single ``main`` process running :meth:`main`.
        """
        return [("main", self.main())]

    def main(self) -> ProcessBody:
        """Default server loop: receive anything, dispatch to ``op_*``."""
        while True:
            invocation = yield RECEIVE_ANY
            yield from self.dispatch(invocation)

    def passive_representation(self) -> Any:
        """State to checkpoint; override in durable types."""
        return None

    def restore(self, data: Any) -> None:
        """Reconstruct state from a passive representation; override."""

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------

    def dispatch(self, invocation: Invocation) -> ProcessBody:
        """Run the ``op_`` handler for ``invocation`` and reply.

        Errors raised by the handler (any :class:`EdenError`) are turned
        into error replies rather than killing the server process.
        """
        handler = getattr(self, f"op_{invocation.operation}", None)
        if handler is None:
            yield SendReply(
                invocation,
                error=NoSuchOperationError(invocation.operation, self.name),
            )
            return
        try:
            result = handler(invocation)
            if isinstance(result, GeneratorType):
                result = yield from result
        except EdenError as error:
            yield SendReply(invocation, error=error)
        else:
            yield SendReply(invocation, result)

    # ------------------------------------------------------------------
    # Syscall construction helpers (for readable process bodies)
    # ------------------------------------------------------------------

    def invoke(
        self,
        target: UID,
        operation: str,
        *args: Any,
        channel: ChannelId | None = None,
        **kwargs: Any,
    ) -> Invoke:
        """Build an asynchronous :class:`Invoke` syscall."""
        return Invoke(target, operation, args, kwargs, channel)

    def call(
        self,
        target: UID,
        operation: str,
        *args: Any,
        channel: ChannelId | None = None,
        **kwargs: Any,
    ) -> Call:
        """Build a synchronous :class:`Call` syscall."""
        return Call(target, operation, args, kwargs, channel)

    def await_reply(self, ticket: int) -> AwaitReply:
        """Build an :class:`AwaitReply` syscall."""
        return AwaitReply(ticket=ticket)

    def receive(
        self,
        operations: Iterable[str] | None = None,
        channels: Iterable[ChannelId] | None = None,
    ) -> Receive:
        """Build a :class:`Receive` syscall."""
        return Receive.of(operations, channels)

    def reply(
        self, invocation: Invocation, result: Any = None,
        error: BaseException | None = None, span: Any = None,
    ) -> SendReply:
        """Build a :class:`SendReply` syscall.

        ``span`` is the causal origin of the returned data, if it was
        deposited under a different trace (datum-follows-trace).
        """
        return SendReply(invocation, result, error, span)

    def checkpoint(self) -> DoCheckpoint:
        """Build a :class:`DoCheckpoint` syscall."""
        return DoCheckpoint()

    def deactivate(self) -> Deactivate:
        """Build a :class:`Deactivate` syscall."""
        return Deactivate()

    # ------------------------------------------------------------------
    # Channel helpers (paper §5)
    # ------------------------------------------------------------------

    def mint_channel(self, name: str) -> ChannelCapability:
        """Mint (or fetch) the unforgeable capability for channel ``name``."""
        return self.channels.mint(name)

    def validate_channel(self, presented: ChannelId | None) -> str | None:
        """Resolve a presented channel identifier to a channel name.

        Integer/string identifiers resolve to themselves (no security);
        capabilities must have been minted by this Eject.
        """
        if presented is None:
            return None
        if isinstance(presented, ChannelCapability):
            return self.channels.validate(presented)
        return str(presented) if isinstance(presented, int) else presented

    # ------------------------------------------------------------------
    # Mailbox machinery (driven by the kernel)
    # ------------------------------------------------------------------

    def _enqueue(self, invocation: Invocation) -> Process | None:
        """Accept a delivered invocation.

        Returns the waiting process that should be resumed with it, or
        ``None`` if no process matched (the invocation stays queued).
        """
        self.received_count += 1
        for index, (process, receive) in enumerate(self._waiting_receivers):
            if receive.accepts(invocation):
                del self._waiting_receivers[index]
                return process
        self.mailbox.append(invocation)
        return None

    def _register_receiver(
        self, process: Process, receive: Receive
    ) -> Invocation | None:
        """Park ``process`` on ``receive``, or satisfy it from the mailbox.

        Returns the matching queued invocation if one exists (FIFO),
        otherwise ``None`` after registering the waiter.
        """
        for index, queued in enumerate(self.mailbox):
            if receive.accepts(queued):
                del self.mailbox[index]
                return queued
        self._waiting_receivers.append((process, receive))
        return None

    def _drop_waiters(self) -> None:
        """Forget parked receivers (crash/deactivate path)."""
        self._waiting_receivers.clear()

    def __repr__(self) -> str:
        state = "crashed" if self.crashed else ("active" if self.active else "passive")
        return f"<{type(self).__name__} {self.name} {self.uid} {state}>"
