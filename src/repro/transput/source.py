"""Stream sources.

"any Eject which responds to Read invocations is by definition a
source" (paper §4).  Two base classes, one per discipline:

- :class:`PassiveSource` answers ``Read`` invocations (passive output)
  — the read-only discipline's producer role.
- :class:`ActiveSource` issues ``Write`` invocations (active output) —
  the write-only and conventional disciplines' producer role.

Concrete sources supply their records through :meth:`generate`;
:class:`ListSource` / :class:`ActiveListSource` are the everyday ones.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterable, Iterator, TYPE_CHECKING

from repro.core.errors import EdenError
from repro.core.syscalls import RECEIVE_ANY, SendReply, Sleep
from repro.transput.channels import ChannelTable
from repro.transput.filterbase import OUTPUT
from repro.transput.primitives import (
    Primitive,
    READ_OPS,
    TransputEject,
    active_output,
)
from repro.transput.stream import (
    END_TRANSFER,
    StreamEndpoint,
    Transfer,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel import Kernel
    from repro.core.uid import UID


class PassiveSource(TransputEject):
    """A source that supplies data only in response to ``Read``s.

    Laziness is the point: "no computation need be done until the
    result is requested" (§4).  ``work_cost`` charges virtual time per
    record produced, modelling a source that computes its output.
    """

    eden_type = "PassiveSource"
    #: Operations the serve loop answers (for behaviour specs).
    answers_operations = ("Read", "Transfer")

    def __init__(
        self,
        kernel: "Kernel",
        uid: "UID",
        name: str | None = None,
        work_cost: float = 0.0,
        channel_mode: str = "open",
    ) -> None:
        super().__init__(kernel, uid, name=name)
        self.work_cost = work_cost
        self.channel_table = ChannelTable(self, [OUTPUT], mode=channel_mode)
        self._iterator: Iterator[Any] | None = None
        self.reads_served = 0

    def generate(self) -> Iterable[Any]:
        """The records this source produces; override in subclasses."""
        return ()

    def output_endpoint(self) -> StreamEndpoint:
        """The endpoint consumers should Read from."""
        if self.channel_table.mode == "capability":
            return StreamEndpoint(
                self.uid, self.channel_table.capability(OUTPUT)
            )
        return StreamEndpoint(self.uid, None)

    def _take(self, batch: int) -> list[Any]:
        """Up to ``batch`` more records (none once the source is done)."""
        if self._iterator is None:
            self._iterator = iter(self.generate())
        return list(islice(self._iterator, batch))

    def main(self):
        """Serve every Read (or Transfer, the Eden prototype's synonym
        for it, §7) in one loop: the passive-output half of the read
        pair.  Any other operation goes to its ``op_`` handler through
        :meth:`dispatch`; a subclass with its own ``op_Read`` (a clock)
        is served entirely that way.
        """
        if getattr(self, "op_Read", None) is not None:
            yield from super().main()
            return
        resolve = self.channel_table.resolve
        use = self.primitive_use
        counters = self.kernel.stats.counters
        served = Primitive.PASSIVE_OUTPUT
        while True:
            invocation = yield RECEIVE_ANY
            if invocation.operation not in READ_OPS:
                yield from self.dispatch(invocation)
                continue
            try:
                resolve(invocation.channel)
                batch = invocation.args[0] if invocation.args else 1
                taken = self._take(max(1, int(batch)))
            except EdenError as error:
                yield SendReply(invocation, error=error)
                continue
            if self.work_cost and taken:
                yield Sleep(self.work_cost * len(taken))
            self.reads_served += 1
            use[served] += 1  # note_primitive(PASSIVE_OUTPUT), inline
            counters[served.counter] += 1
            yield SendReply(
                invocation, Transfer.of(taken) if taken else END_TRANSFER
            )


class ListSource(PassiveSource):
    """A passive source over a fixed list of records."""

    eden_type = "ListSource"

    def __init__(
        self,
        kernel: "Kernel",
        uid: "UID",
        items: Iterable[Any] = (),
        name: str | None = None,
        work_cost: float = 0.0,
        channel_mode: str = "open",
    ) -> None:
        super().__init__(
            kernel, uid, name=name, work_cost=work_cost, channel_mode=channel_mode
        )
        self.items = list(items)
        self._position = 0

    def generate(self) -> Iterable[Any]:
        while self._position < len(self.items):
            item = self.items[self._position]
            self._position += 1
            yield item

    def _take(self, batch: int) -> list[Any]:
        """The next records :meth:`generate` would give, as one slice."""
        start = self._position
        taken = self.items[start : start + batch]
        self._position = start + len(taken)
        return taken

    # -- durability ----------------------------------------------------

    def passive_representation(self) -> Any:
        return {"items": list(self.items), "position": self._position}

    def restore(self, data: Any) -> None:
        self.items = list(data["items"])
        self._position = int(data["position"])

    @classmethod
    def reactivate_blank(cls, kernel: "Kernel", uid: "UID", name: str) -> "ListSource":
        return cls(kernel, uid, items=(), name=name)


class FunctionSource(PassiveSource):
    """A passive source whose records come from a callable.

    ``producer`` is called once, lazily, at the first Read; it returns
    the iterable of records.  (The date/time source of §4 is the
    motivating example — see :mod:`repro.devices.clock_source`.)
    """

    eden_type = "FunctionSource"

    def __init__(
        self,
        kernel: "Kernel",
        uid: "UID",
        producer=None,
        name: str | None = None,
        work_cost: float = 0.0,
        channel_mode: str = "open",
    ) -> None:
        super().__init__(
            kernel, uid, name=name, work_cost=work_cost, channel_mode=channel_mode
        )
        self._producer = producer

    def generate(self) -> Iterable[Any]:
        if self._producer is None:
            return ()
        return self._producer()


class ActiveSource(TransputEject):
    """A source that pushes its records with ``Write`` invocations.

    The write-only discipline's producer ("Data sources would
    continually attempt to perform write invocations", §5).  Fan-out is
    natural here: every record is written to *each* output endpoint.

    The source starts pushing as soon as its outputs are connected —
    either at construction or later via :meth:`connect`.
    """

    eden_type = "ActiveSource"

    def __init__(
        self,
        kernel: "Kernel",
        uid: "UID",
        items: Iterable[Any] = (),
        outputs: Iterable[StreamEndpoint] = (),
        name: str | None = None,
        batch: int = 1,
        work_cost: float = 0.0,
    ) -> None:
        super().__init__(kernel, uid, name=name)
        self.items = list(items)
        self.outputs = list(outputs)
        self.batch = max(1, int(batch))
        self.work_cost = work_cost
        self.done = False
        self.writes_issued = 0

    def connect(self, endpoint: StreamEndpoint) -> None:
        """Add one more output endpoint (before the simulation runs)."""
        self.outputs.append(endpoint)

    def main(self):
        if not self.outputs:
            return  # nothing to push to; stay inert
        for start in range(0, len(self.items), self.batch):
            chunk = self.items[start : start + self.batch]
            if self.work_cost:
                yield Sleep(self.work_cost * len(chunk))
            for endpoint in self.outputs:
                yield from active_output(self, endpoint, Transfer.of(chunk))
                self.writes_issued += 1
        for endpoint in self.outputs:
            yield from active_output(self, endpoint, END_TRANSFER)
            self.writes_issued += 1
        self.done = True
