"""Invocation and reply messages.

An *invocation* is "a request to perform some named operation, and may
be thought of as a kind of remote procedure call" (paper §1).  Replies
travel back on a ticket that the sender may await later — sending an
invocation does not suspend the sender.

Messages are plain slotted records; the transport and kernel route
them.  The sender's UID is needed "so that the reply may be returned
correctly" but, exactly as the paper argues in §5, it is *private to
the kernel*: it is kept on the kernel's own record of the outstanding
invocation and never travels on the message, so the receiving Eject's
type code cannot see it.  (Tests assert this.)
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, ClassVar

from repro.core.capability import ChannelId
from repro.core.uid import UID

_ticket_counter = itertools.count(1)


def _next_ticket() -> int:
    return next(_ticket_counter)


class ReplyStatus(Enum):
    """Outcome of an invocation, carried on the reply message."""

    OK = "ok"
    ERROR = "error"


@dataclass(slots=True)
class Invocation:
    """One invocation message, in flight or queued at the target.

    Attributes:
        target: UID of the Eject being invoked.
        operation: name of the requested operation.
        args: positional-style payload tuple.
        kwargs: keyword payload mapping.
        channel: optional channel qualifier (paper §5); ``None`` means
            the invocation is not channel-qualified.
        ticket: correlation id used to route the reply.
        span: causal span context (:class:`repro.obs.spans.SpanContext`)
            assigned by the kernel when span tracing is on; ``None``
            otherwise.  It is kernel bookkeeping but *not* secret —
            observability tooling reads it from traces.
        sender: always ``None``, and not assignable: the originator is
            kernel-private (see module docstring).
    """

    target: UID
    operation: str
    args: tuple[Any, ...] = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    channel: ChannelId | None = None
    ticket: int = field(default_factory=_next_ticket)
    span: Any = None
    sender: ClassVar[None] = None

    def __str__(self) -> str:
        chan = f" on {self.channel}" if self.channel is not None else ""
        return f"{self.operation}{chan} -> {self.target.brief()} #{self.ticket}"

    def payload_size(self) -> int:
        """Crude size estimate (in 'bytes') used by the transport model."""
        return _estimate_size(self.args) + _estimate_size(self.kwargs)


@dataclass(slots=True)
class Reply:
    """The reply to one invocation.

    ``span`` optionally carries the causal origin of the returned data
    (datum-follows-trace): when a passive buffer answers a Read with a
    record deposited under another trace, the kernel re-roots the
    reader's request span onto this context at delivery.
    """

    ticket: int
    status: ReplyStatus
    result: Any = None
    error: BaseException | None = None
    span: Any = None

    @property
    def ok(self) -> bool:
        """Whether the invocation completed successfully."""
        return self.status is ReplyStatus.OK

    def payload_size(self) -> int:
        """Crude size estimate (in 'bytes') used by the transport model."""
        return _estimate_size(self.result)

    def unwrap(self) -> Any:
        """Return the result, raising the carried error on failure."""
        if self.status is ReplyStatus.ERROR:
            assert self.error is not None
            raise self.error
        return self.result


def _estimate_size(value: Any) -> int:
    """Estimate the wire size of a payload value, in bytes.

    Only needs to be stable and roughly proportional to content; it
    feeds the transport's bandwidth model, not any correctness logic.
    Dataclass records (Transfers, WriteAcks, …) are traversed so bulk
    payloads are charged for what they carry.
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, enum.Enum):
        return 4
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8", errors="replace"))
    if isinstance(value, (list, tuple, set, frozenset)):
        return 8 + sum(_estimate_size(item) for item in value)
    if isinstance(value, dict):
        return 8 + sum(
            _estimate_size(k) + _estimate_size(v) for k, v in value.items()
        )
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return 8 + sum(
            _estimate_size(getattr(value, field.name))
            for field in dataclasses.fields(value)
        )
    # Opaque objects: flat estimate.
    return 16
