"""Unforgeable unique identifiers (UIDs) for Ejects.

The paper: "Each Eject has a unique unforgeable identifier (UID); one
Eject may communicate with another only by knowing its UID."

In a real capability system unforgeability is enforced by the kernel.
In this in-process reproduction we model it with a *sparse secret*: every
UID carries a nonce drawn from a random stream private to the kernel's
:class:`UIDFactory`.  Constructing a UID without the factory requires
guessing a 64-bit nonce; the kernel verifies the nonce on every use, so
tests can demonstrate that fabricated UIDs are rejected (paper §5, the
channel-security argument).

The nonce stream is seeded so simulations are fully deterministic.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import Iterator

from repro.core.errors import ForgeryError

#: Number of bits of secret in a UID nonce.
NONCE_BITS = 64


class UID(tuple):
    """An unforgeable identifier for one Eject.

    UIDs are value objects: equality and hashing include the secret
    nonce, so two UIDs naming the same serial but carrying different
    nonces are different (and at most one of them is genuine).

    An immutable ``(space, serial, nonce)`` triple: the kernel looks up
    the target of every invocation by its UID, so hashing one is the
    C-level tuple hash.  Equality is UID-only: a bare tuple of the same
    three fields hashes alike but is never equal, so it cannot stand in
    for a UID as a dict key (the kernel's records, the stable store).
    Ordering is the tuple's, field by field.

    Attributes:
        space: identifies the issuing kernel (one simulated Eden system).
        serial: issue order within that kernel; purely informational.
        nonce: the sparse secret that makes the UID unforgeable.
    """

    __slots__ = ()

    def __new__(cls, space: int, serial: int, nonce: int) -> "UID":
        return tuple.__new__(cls, (space, serial, nonce))

    space = property(itemgetter(0), doc="The issuing kernel's space.")
    serial = property(itemgetter(1), doc="Issue order within that kernel.")
    nonce = property(itemgetter(2), doc="The sparse secret.")

    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UID):
            return tuple.__eq__(self, other)
        # A tuple's own comparison would match the fields: refuse it.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __reduce__(self) -> tuple:
        return UID, tuple(self)

    def __repr__(self) -> str:
        return f"UID(space={self.space!r}, serial={self.serial!r})"

    def __str__(self) -> str:
        return f"uid:{self.space}.{self.serial}"

    def brief(self) -> str:
        """Short printable form used in traces and shell output."""
        return f"{self.space}.{self.serial}"


class UIDFactory:
    """Issues UIDs and verifies their authenticity.

    One factory belongs to one kernel.  ``seed`` makes the nonce stream
    (and therefore whole-simulation behaviour) reproducible.
    """

    def __init__(self, space: int = 0, seed: int = 0) -> None:
        self._space = space
        self._serial = 0
        self._rng = random.Random(f"uid:{space}:{seed}")
        self._issued: dict[int, int] = {}  # serial -> nonce

    @property
    def space(self) -> int:
        """The space (kernel) identifier stamped on every issued UID."""
        return self._space

    @property
    def issued_count(self) -> int:
        """How many UIDs this factory has issued so far."""
        return self._serial

    def issue(self) -> UID:
        """Issue a fresh, genuine UID."""
        serial = self._serial
        self._serial += 1
        nonce = self._rng.getrandbits(NONCE_BITS)
        self._issued[serial] = nonce
        return UID(space=self._space, serial=serial, nonce=nonce)

    def issue_many(self, count: int) -> Iterator[UID]:
        """Issue ``count`` fresh UIDs."""
        for _ in range(count):
            yield self.issue()

    def is_genuine(self, uid: UID) -> bool:
        """Return whether ``uid`` was really issued by this factory."""
        if not isinstance(uid, UID):
            return False
        if uid.space != self._space:
            return False
        return self._issued.get(uid.serial) == uid.nonce

    def verify(self, uid: UID) -> UID:
        """Return ``uid`` unchanged, or raise :class:`ForgeryError`.

        The kernel calls this on the target of every invocation, which
        is what makes guessing UIDs useless in this reproduction.
        """
        if not self.is_genuine(uid):
            raise ForgeryError(f"{uid!r} was not issued by this kernel")
        return uid
