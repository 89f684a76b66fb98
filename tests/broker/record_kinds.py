"""Transducers for the direct-route tests, loaded by spec
(``tests.broker.record_kinds:<factory>``).

``kinds`` turns the ``i``-th record into the ``i``-th value of
:data:`KINDS` (round robin): records of types a codec converts or tags,
so a test can check that they arrive as a socket would deliver them.
``refuse_fifth`` passes records through and raises at the fifth.
"""

from __future__ import annotations

import collections
import enum
import itertools

from repro.core.uid import UID
from repro.transput.filterbase import Transducer, make_transducer


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


Pair = collections.namedtuple("Pair", "left right")

#: Non-exact record types: an ``IntEnum``, a named tuple, a dict with
#: ``int`` keys, ``bytes``, a ``float``, a ``UID``, and a list of them.
KINDS = [
    Level.HIGH, Pair(1, "r"), {1: "one", 2: [Level.LOW]}, b"\x00raw",
    2.5, UID(3, 4, 5), [Pair(Level.LOW, b"b"), 0.25],
]


def kinds() -> Transducer:
    turn = itertools.cycle(KINDS)
    return make_transducer(lambda _item: (next(turn),), name="kinds")


def refuse_fifth() -> Transducer:
    seen = itertools.count(1)

    def step(item):
        if next(seen) == 5:
            raise ValueError(f"refused the fifth record {item!r}")
        return (item,)

    return make_transducer(step, name="refuse_fifth")
