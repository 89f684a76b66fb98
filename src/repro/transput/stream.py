"""The Sequence protocol: what moves on an Eden stream.

Paper §6: "The Eden transput package is nothing more than ... a protocol
designed to support the abstraction of a Sequence, together with a
collection of library routines which help user Ejects to obey it."

A stream is a homogeneous sequence of records (not necessarily bytes —
§6 again).  One protocol interaction moves a :class:`Transfer`: a batch
of records plus a status.  ``END`` signals end-of-stream; after END no
further data may follow (tests enforce this with
:class:`~repro.core.errors.StreamProtocolError`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from operator import is_, itemgetter
from typing import Any, Iterable

from repro.core.capability import ChannelId
from repro.core.errors import StreamProtocolError
from repro.core.uid import UID


class StreamStatus(enum.Enum):
    """Status of one Transfer."""

    DATA = "data"
    END = "end"


class Transfer(tuple):
    """One protocol interaction's worth of stream content.

    A ``DATA`` transfer carries one or more records; an ``END`` transfer
    carries none and terminates the stream.  (A Read may also return an
    empty DATA transfer if the responder chooses, but the standard
    library routines never produce one.)

    An immutable ``(status, items)`` pair: every invocation on every
    runtime moves one, so building and reading it are C-level tuple
    operations.  Every END transfer is :data:`END_TRANSFER` itself,
    which is what lets ``at_end`` be an identity test.
    """

    __slots__ = ()

    def __new__(cls, status: StreamStatus, items: Iterable[Any] = ()) -> "Transfer":
        items = tuple(items)
        if status is StreamStatus.END:
            if items:
                raise StreamProtocolError("END transfer must not carry items")
            return END_TRANSFER
        return _new(cls, (status, items))

    status = property(itemgetter(0), doc="DATA or END.")
    items = property(itemgetter(1), doc="The records, a tuple.")

    def __reduce__(self) -> tuple[Any, ...]:
        return Transfer, tuple(self)

    def __repr__(self) -> str:
        return f"Transfer(status={self.status!r}, items={self.items!r})"

    @staticmethod
    def of(items: Iterable[Any]) -> "Transfer":
        """A DATA transfer of ``items`` (which must be non-empty)."""
        batch = tuple(items)
        if not batch:
            raise StreamProtocolError("DATA transfer must carry items")
        return _new(Transfer, (_DATA, batch))

    @staticmethod
    def single(item: Any) -> "Transfer":
        """A DATA transfer of exactly one record."""
        return _new(Transfer, (_DATA, (item,)))


_new = tuple.__new__
_DATA = StreamStatus.DATA

#: The canonical end-of-stream transfer: the only END there is.
END_TRANSFER = _new(Transfer, (StreamStatus.END, ()))

# An identity test run by C code, no Python frame: every read asks it.
Transfer.at_end = property(  # type: ignore[attr-defined]
    partial(is_, END_TRANSFER), doc="Whether this transfer terminates the stream.")


@dataclass(frozen=True)
class WriteAck:
    """Acknowledgement payload for a Write (the reply to passive input).

    ``accepted`` counts records taken; flow-controlled receivers may
    delay the reply (not refuse records), so ``accepted`` always equals
    the records sent once the reply arrives.
    """

    accepted: int = 0


@dataclass(frozen=True)
class StreamEndpoint:
    """Where a stream is read from or written to.

    An endpoint is a UID plus an optional channel qualifier — exactly
    the information the paper says a consumer needs: "the sinks must be
    told not only F's UID but also the channel identifier that should
    be used on each request" (§5).
    """

    uid: UID
    channel: ChannelId | None = None

    def __str__(self) -> str:
        if self.channel is None:
            return str(self.uid)
        return f"{self.uid}[{self.channel}]"


class StreamAssembler:
    """Host-side helper assembling transfers back into an item list.

    Guards the protocol invariant that nothing follows END.
    """

    def __init__(self) -> None:
        self.items: list[Any] = []
        self.ended = False
        self.transfers = 0

    def accept(self, transfer: Transfer) -> bool:
        """Fold one transfer in; returns True when the stream has ended."""
        if self.ended:
            raise StreamProtocolError("transfer received after END")
        self.transfers += 1
        if transfer.at_end:
            self.ended = True
        else:
            self.items.extend(transfer.items)
        return self.ended
