"""Source devices: clock, random workload, null.

Paper §4: "An Eject which responds to a read invocation by returning
the current date and time is a source."
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.core.message import Invocation
from repro.core.syscalls import GetTime
from repro.devices.workload import random_lines as random_lines  # re-export
from repro.transput.primitives import Primitive
from repro.transput.source import PassiveSource
from repro.transput.stream import END_TRANSFER, Transfer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel import Kernel
    from repro.core.uid import UID


class ClockSource(PassiveSource):
    """Answers every Read with the current (virtual) date and time.

    An *infinite* source: it never replies END, so connect it to a
    bounded sink (``max_items``) or read it explicitly.
    """

    eden_type = "ClockSource"

    def __init__(
        self,
        kernel: "Kernel",
        uid: "UID",
        name: str | None = None,
        template: str = "time={now:.3f}",
    ) -> None:
        super().__init__(kernel, uid, name=name)
        self.template = template

    def op_Read(self, invocation: Invocation):
        self.channel_table.resolve(invocation.channel)
        batch = invocation.args[0] if invocation.args else 1
        now = yield GetTime()
        self.reads_served += 1
        self.note_primitive(Primitive.PASSIVE_OUTPUT)
        stamp = self.template.format(now=now)
        return Transfer.of([stamp] * max(1, int(batch)))

    op_Transfer = op_Read


class RandomSource(PassiveSource):
    """A deterministic pseudo-random workload generator.

    Produces ``count`` lines of ``width`` lowercase words each, from a
    seeded PRNG — the synthetic stand-in for the paper's "data of
    interest ... in the Unix file system" when benchmarks need bulk
    data of controllable size.
    """

    eden_type = "RandomSource"

    def __init__(
        self,
        kernel: "Kernel",
        uid: "UID",
        count: int = 100,
        width: int = 8,
        seed: int = 0,
        name: str | None = None,
        work_cost: float = 0.0,
    ) -> None:
        super().__init__(kernel, uid, name=name, work_cost=work_cost)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self.count = count
        self.width = width
        self.seed = seed

    def generate(self):
        rng = random.Random(f"random-source:{self.seed}")
        vocabulary = [
            "stream", "eject", "kernel", "filter", "invoke", "reply",
            "read", "write", "buffer", "channel", "active", "passive",
        ]
        for _ in range(self.count):
            yield " ".join(rng.choice(vocabulary) for _ in range(self.width))


class NullSource(PassiveSource):
    """Immediately at end of stream: the empty source."""

    eden_type = "NullSource"

    def op_Read(self, invocation: Invocation):
        self.channel_table.resolve(invocation.channel)
        self.reads_served += 1
        self.note_primitive(Primitive.PASSIVE_OUTPUT)
        return END_TRANSFER

    op_Transfer = op_Read
