"""The four transput primitives (the paper's central idea).

    "there are *four* primitive transput operations, not two: the
    corresponding pairs are passive input and active output, and
    active input and passive output."

Each primitive is a small sub-generator to be driven with ``yield
from`` inside an Eject process.  Every use is recorded on the Eject
(:attr:`TransputEject.primitive_use`) and in the kernel stats, so tests
and benchmarks can *prove* statements like "a read-only pipeline uses
only active input and passive output at Eject interfaces" (paper §8).

Correspondence rules (enforced by construction):

- :func:`active_input` sends a ``Read`` invocation; the far end answers
  with :func:`passive_output` (replying with a Transfer).
- :func:`active_output` sends a ``Write`` invocation carrying a
  Transfer; the far end answers with :func:`passive_input` (accepting
  it and replying with a WriteAck).
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import Any, Generator, TYPE_CHECKING

from repro.core.eject import Eject
from repro.core.message import Invocation
from repro.core.syscalls import Receive, Syscall
from repro.transput.stream import END_TRANSFER, StreamEndpoint, Transfer, WriteAck

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel import Kernel
    from repro.core.uid import UID

#: Operation name carried by active-input invocations.
READ_OP = "Read"
#: Synonym used by the Eden prototype's bootstrap transput (paper §7).
TRANSFER_OP = "Transfer"
#: Operation name carried by active-output invocations.
WRITE_OP = "Write"

#: The operations passive output answers.
READ_OPS = frozenset({READ_OP, TRANSFER_OP})
#: What a process serving passive output receives: any Read (or
#: Transfer).  A Receive is frozen, so every server yields this one,
#: never a fresh set per receive.
RECEIVE_READS = Receive(READ_OPS)


class Primitive(enum.Enum):
    """The four transput primitives."""

    ACTIVE_INPUT = "active_input"
    PASSIVE_OUTPUT = "passive_output"
    ACTIVE_OUTPUT = "active_output"
    PASSIVE_INPUT = "passive_input"

    def __init__(self, label: str) -> None:
        #: The kernel-wide counter each use is tallied under.
        self.counter = f"prim_{label}"

    # Members are singletons, so identity hashing agrees with Enum's
    # hash-by-name; unlike it, it runs no Python frame on each
    # ``primitive_use[p] += 1`` (two per invocation).
    __hash__ = object.__hash__

    @property
    def corresponding(self) -> "Primitive":
        """The primitive this one connects to (paper §3)."""
        return _CORRESPONDENCE[self]

    @property
    def active(self) -> bool:
        """Whether the primitive takes the initiative."""
        return self in (Primitive.ACTIVE_INPUT, Primitive.ACTIVE_OUTPUT)


_CORRESPONDENCE = {
    Primitive.ACTIVE_INPUT: Primitive.PASSIVE_OUTPUT,
    Primitive.PASSIVE_OUTPUT: Primitive.ACTIVE_INPUT,
    Primitive.ACTIVE_OUTPUT: Primitive.PASSIVE_INPUT,
    Primitive.PASSIVE_INPUT: Primitive.ACTIVE_OUTPUT,
}


class TransputEject(Eject):
    """An Eject that participates in stream transput.

    Adds per-primitive usage accounting on top of the plain Eject; all
    sources, sinks, filters, buffers and devices derive from this.
    """

    eden_type = "TransputEject"

    def __init__(self, kernel: "Kernel", uid: "UID", name: str | None = None) -> None:
        super().__init__(kernel, uid, name=name)
        #: How many times this Eject performed each primitive.
        self.primitive_use: Counter[Primitive] = Counter()

    def note_primitive(self, primitive: Primitive) -> None:
        """Record one use of ``primitive`` (Eject-local and kernel-wide)."""
        self.primitive_use[primitive] += 1
        self.kernel.stats.counters[primitive.counter] += 1

    def interface_primitives(self) -> frozenset[Primitive]:
        """The set of primitives this Eject has actually used."""
        return frozenset(p for p, n in self.primitive_use.items() if n > 0)


def active_input(
    eject: TransputEject, endpoint: StreamEndpoint, batch: int = 1
) -> Generator[Syscall, Any, Transfer]:
    """Perform active input: send a ``Read`` and wait for the Transfer.

    Returns the :class:`Transfer` supplied by the correspondent's
    passive output.
    """
    eject.note_primitive(Primitive.ACTIVE_INPUT)
    transfer = yield eject.call(
        endpoint.uid, READ_OP, batch, channel=endpoint.channel
    )
    return transfer


def passive_output(
    eject: TransputEject, invocation: Invocation, transfer: Transfer
) -> Generator[Syscall, Any, None]:
    """Perform passive output: answer a pending ``Read`` with data.

    "The adjective passive indicates that the [responder] is responding
    to an initiative of [the reader]'s" (paper §3).
    """
    eject.note_primitive(Primitive.PASSIVE_OUTPUT)
    yield eject.reply(invocation, transfer)


def active_output(
    eject: TransputEject, endpoint: StreamEndpoint, transfer: Transfer
) -> Generator[Syscall, Any, WriteAck]:
    """Perform active output: send a ``Write`` carrying ``transfer``.

    Blocks until the correspondent's passive input acknowledges —
    acknowledgement delay is the flow-control mechanism.
    """
    eject.note_primitive(Primitive.ACTIVE_OUTPUT)
    ack = yield eject.call(
        endpoint.uid, WRITE_OP, transfer, channel=endpoint.channel
    )
    return ack


def passive_input(
    eject: TransputEject, invocation: Invocation
) -> Generator[Syscall, Any, Transfer]:
    """Perform passive input: accept a delivered ``Write``.

    Replies the acknowledgement immediately and returns the carried
    :class:`Transfer`.  Receivers that must exert backpressure reply
    later instead — see :class:`~repro.transput.buffer.PassiveBuffer`.
    """
    eject.note_primitive(Primitive.PASSIVE_INPUT)
    transfer = invocation.args[0]
    count = len(transfer.items) if isinstance(transfer, Transfer) else 0
    yield eject.reply(invocation, WriteAck(accepted=count))
    return transfer


def read_stream(
    eject: TransputEject, endpoint: StreamEndpoint, batch: int = 1
) -> Generator[Syscall, Any, list]:
    """Drain ``endpoint`` to END via repeated active input.

    Returns the full item list.  (A library routine in the sense of
    paper §6 — a helper that "helps user Ejects obey" the protocol.)
    """
    items: list = []
    while True:
        transfer = yield from active_input(eject, endpoint, batch)
        if transfer.at_end:
            return items
        items.extend(transfer.items)


def write_stream(
    eject: TransputEject,
    endpoint: StreamEndpoint,
    items: list,
    batch: int = 1,
) -> Generator[Syscall, Any, int]:
    """Send every item then END via repeated active output.

    Returns the number of Write invocations performed (including the
    final END write).
    """
    writes = 0
    for start in range(0, len(items), batch):
        chunk = items[start : start + batch]
        yield from active_output(eject, endpoint, Transfer.of(chunk))
        writes += 1
    yield from active_output(eject, endpoint, END_TRANSFER)
    writes += 1
    return writes
