"""The simulated Eden kernel.

The kernel is the meeting point of the substrate: it issues UIDs, maps
them to live Ejects, routes invocations and replies through the
transport, activates passive Ejects on demand, writes passive
representations to the stable store, and simulates crashes of Ejects
and whole nodes.

It also serves the messaging syscalls — ``Invoke``, ``AwaitReply``,
``Call``, ``Receive``, ``SendReply``, ``DoCheckpoint``, ``Deactivate``
and ``AdoptSpan`` — by installing one handler per syscall class in the
scheduler's table (see :mod:`repro.core.scheduler`).

Simulation drivers (tests, examples, benchmarks) interact through
:meth:`spawn_client`, :meth:`call_sync` and :meth:`run`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Type, TypeVar

from repro.core.capability import ChannelId
from repro.core.checkpoint import StableStore
from repro.core.clock import VirtualClock
from repro.core.eject import Eject
from repro.core.errors import (
    EdenError,
    EjectCrashedError,
    EjectDeactivatedError,
    KernelError,
    ProcessFailedError,
    UnknownUIDError,
)
from repro.core.message import Invocation, Reply, ReplyStatus
from repro.core.node import Node
from repro.core.process import Process
from repro.core.registry import TypeRegistry
from repro.core.scheduler import Scheduler
from repro.core.stats import KernelStats
from repro.core.syscalls import (
    AdoptSpan,
    AwaitReply,
    Call,
    Deactivate,
    DoCheckpoint,
    Invoke,
    Receive,
    SendReply,
)
from repro.core.tracing import Tracer
from repro.core.transport import Transport, TransportCosts
from repro.core.uid import UID, UIDFactory

E = TypeVar("E", bound=Eject)


@dataclass(slots=True)
class _TicketState:
    """The kernel's private record of one outstanding invocation.

    The originator lives here, never on the message (paper §5): its
    UID, the node it sent from (which prices the reply hop) and the
    process, if any, parked on the reply.
    """

    target: UID
    sender: UID | None
    origin_node: Node | None
    waiter: Process | None = None
    reply: Reply | None = None
    replied: bool = False
    # Span bookkeeping (populated only when span tracing is on).
    span: Any = None
    op: str = ""
    invoker: str = ""
    started: float = 0.0
    rerooted: bool = False


@dataclass
class _EjectRecord:
    """Kernel-side record of one UID's current status."""

    eject: Eject | None  # live instance, or None while passive
    node_name: str | None
    deactivated: bool = False
    parked_mail: list[Invocation] = field(default_factory=list)


class Kernel:
    """One simulated Eden system.

    Args:
        seed: seeds the UID nonce stream (full determinism).
        costs: transport cost model; default is uniform unit cost.
        trace: enable structured event tracing.
        spans: also assign causal span contexts to every invocation and
            record a ``span`` trace event per request/reply pair
            (implies ``trace``).  Off by default so golden traces and
            zero-instrumentation benchmarks are unchanged.
    """

    def __init__(
        self,
        seed: int = 0,
        costs: TransportCosts | None = None,
        trace: bool = False,
        spans: bool = False,
    ) -> None:
        from repro.obs.spans import SpanIds

        self.clock = VirtualClock()
        self.stats = KernelStats()
        self.tracer = Tracer(enabled=trace or spans)
        self.spans_enabled = spans
        self._span_ids = SpanIds(prefix="k")
        self.scheduler = Scheduler(
            clock=self.clock, stats=self.stats, tracer=self.tracer
        )
        self.scheduler.handlers.update({
            Invoke: self._sys_invoke,
            Call: self._sys_invoke,
            AwaitReply: self._sys_await,
            Receive: self._sys_receive,
            SendReply: self._sys_send_reply,
            DoCheckpoint: self._sys_checkpoint,
            Deactivate: self._sys_deactivate,
            AdoptSpan: self._sys_adopt_span,
        })
        self.transport = Transport(self.scheduler, costs=costs, stats=self.stats)
        self.uids = UIDFactory(space=0, seed=seed)
        self.store = StableStore()
        self.registry = TypeRegistry()
        self._nodes: dict[str, Node] = {}
        self.default_node = self.node("node-0")
        self._records: dict[UID, _EjectRecord] = {}
        self._tickets: dict[int, _TicketState] = {}
        self._client_counter = 0
        # Tickets are kernel state so whole simulations replay
        # identically, including trace contents.
        self._ticket_counter = itertools.count(1)

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------

    def node(self, name: str) -> Node:
        """Get or create the node called ``name``."""
        if name not in self._nodes:
            self._nodes[name] = Node(name)
        return self._nodes[name]

    def nodes(self) -> list[Node]:
        """All nodes, in creation order."""
        return list(self._nodes.values())

    # ------------------------------------------------------------------
    # Eject lifecycle
    # ------------------------------------------------------------------

    def create(
        self,
        cls: Type[E],
        *args: Any,
        node: Node | str | None = None,
        name: str | None = None,
        **kwargs: Any,
    ) -> E:
        """Instantiate an Eject of type ``cls`` and start its processes.

        Extra positional/keyword arguments are passed to the subclass
        constructor after ``(kernel, uid)``.
        """
        self.registry.register(cls)
        uid = self.uids.issue()
        eject = cls(self, uid, *args, name=name, **kwargs)
        home = self._resolve_node(node)
        self._install(eject, home)
        self.stats.bump("ejects_created")
        self.tracer.emit(
            self.clock.now, "create", eject.name,
            type=cls.eden_type, node=home.name,
        )
        return eject

    def _resolve_node(self, node: Node | str | None) -> Node:
        if node is None:
            return self.default_node
        if isinstance(node, str):
            return self.node(node)
        return node

    def _install(self, eject: Eject, node: Node) -> None:
        eject.node = node
        node.host(eject.uid)
        record = self._records.get(eject.uid)
        if record is None:
            record = _EjectRecord(eject=eject, node_name=node.name)
            self._records[eject.uid] = record
        else:
            record.eject = eject
            record.node_name = node.name
            record.deactivated = False
        self._start_processes(eject)
        # Re-deliver mail parked while the Eject was passive.
        parked, record.parked_mail = record.parked_mail, []
        for invocation in parked:
            self._hand_to_eject(eject, invocation)

    def _start_processes(self, eject: Eject) -> None:
        for proc_name, body in eject.process_bodies():
            process = self.scheduler.spawn(
                body, name=f"{eject.name}/{proc_name}", owner=eject
            )
            eject.processes.append(process)

    def find(self, uid: UID) -> Eject | None:
        """The live Eject for ``uid``, or ``None`` if passive/unknown."""
        record = self._records.get(uid)
        return record.eject if record is not None else None

    def live_ejects(self) -> list[Eject]:
        """Every currently live (instantiated) Eject."""
        return [r.eject for r in self._records.values() if r.eject is not None]

    # ------------------------------------------------------------------
    # Crash and recovery simulation
    # ------------------------------------------------------------------

    def crash_eject(self, uid: UID) -> None:
        """Crash one Eject: volatile state is lost.

        Pending invocations (queued or in service) fail with
        :class:`EjectCrashedError`; later invocations reactivate it from
        its checkpoint if one exists.
        """
        record = self._records.get(uid)
        if record is None or record.eject is None:
            return
        eject = record.eject
        eject.crashed = True
        self.tracer.emit(self.clock.now, "crash", eject.name)
        self.scheduler.kill_processes(eject.processes)
        eject.processes.clear()
        eject._drop_waiters()
        queued = list(eject.mailbox)
        eject.mailbox.clear()
        for invocation in queued:
            self._reply_error(invocation.ticket, EjectCrashedError(uid))
        # In-service invocations (delivered, unreplied) also fail.
        for ticket, state in list(self._tickets.items()):
            if state.target == uid and not state.replied:
                self._reply_error(ticket, EjectCrashedError(uid))
        if eject.node is not None:
            eject.node.evict(uid)
        record.eject = None

    def crash_node(self, node: Node | str) -> None:
        """Crash a node and every Eject resident on it."""
        node = self._resolve_node(node)
        node.crash()
        for uid in list(node.resident_uids):
            self.crash_eject(uid)

    def recover_node(self, node: Node | str) -> None:
        """Bring a crashed node back; Ejects reactivate lazily."""
        self._resolve_node(node).recover()

    # ------------------------------------------------------------------
    # Mobility
    # ------------------------------------------------------------------

    def migrate(self, uid: UID, node: Node | str) -> Node:
        """Move a live Eject to another node.

        Eden invocation is location-independent ("It is not necessary
        to know the physical location of an Eject"), so moving an Eject
        is invisible to its clients except through transport costs.
        In-flight messages are unaffected: routing is by UID and the
        local/remote decision is taken per message at send time.
        """
        record = self._records.get(uid)
        if record is None or record.eject is None:
            raise KernelError(f"cannot migrate {uid}: no live Eject")
        target = self._resolve_node(node)
        if target.crashed:
            raise KernelError(f"cannot migrate {uid} to crashed {target.name}")
        eject = record.eject
        if eject.node is not None:
            eject.node.evict(uid)
        eject.node = target
        target.host(uid)
        record.node_name = target.name
        self.stats.bump("migrations")
        self.tracer.emit(self.clock.now, "migrate", eject.name,
                         to=target.name)
        return target

    # ------------------------------------------------------------------
    # Syscall handlers (installed into the scheduler's table)
    # ------------------------------------------------------------------

    # -- invocation sending --------------------------------------------

    def _sys_invoke(self, process: Process, syscall: Invoke | Call) -> None:
        """Send one invocation; a ``Call`` also parks on its reply."""
        target = syscall.target
        try:
            self.uids.verify(target)
        except EdenError as exc:
            self.scheduler.throw(process, exc)
            return
        record = self._records.get(target)
        if record is None:
            self.scheduler.throw(process, UnknownUIDError(target))
            return
        owner = process.owner
        sender = owner if isinstance(owner, Eject) else None
        span = None
        if self.spans_enabled:
            # The causal parent is whatever invocation this process is
            # serving right now; a process serving nothing (a driver, an
            # active pump) roots a fresh trace — the demand chain of the
            # read-only discipline starts at the sink exactly this way.
            span = self._span_ids.derive(process.current_span)
        ticket = next(self._ticket_counter)
        invocation = Invocation(
            target, syscall.operation, tuple(syscall.args),
            dict(syscall.kwargs), syscall.channel, ticket, span,
        )
        if sender is not None:
            origin_node = sender.node
            remote = (
                origin_node is not None
                and record.node_name is not None
                and origin_node.name != record.node_name
            )
            state = _TicketState(target, sender.uid, origin_node)
        else:
            remote = False
            state = _TicketState(target, None, None)
        if span is not None:
            state.span = span
            state.op = invocation.operation
            state.invoker = sender.name if sender else process.name
            state.started = self.clock.now
        self._tickets[ticket] = state
        if self.tracer.enabled:
            self.tracer.emit(
                self.clock.now, "invoke",
                sender.name if sender else process.name,
                op=invocation.operation, target=str(target),
                ticket=ticket, channel=invocation.channel,
            )
        transport = self.transport
        # Sizing walks the whole payload: only when bytes are charged.
        size = 0 if transport.costs.bandwidth is None else invocation.payload_size()
        transport.send(
            size, remote, self._deliver_invocation, "invocation",
            (invocation, record),
        )
        if isinstance(syscall, Call):
            state.waiter = process
            self.scheduler.park(process, invocation)
        else:
            self.scheduler.resume(process, ticket)

    def _deliver_invocation(
        self, invocation: Invocation, record: _EjectRecord
    ) -> None:
        """An invocation arrives at its target.

        ``record`` is the target's: the kernel keeps one per UID for its
        whole lifetime, so the sender could look it up once, and what it
        says (live? where? deactivated?) is read here, on arrival.
        """
        target = invocation.target
        if record.eject is not None:
            node = self._nodes.get(record.node_name) if record.node_name else None
            if node is not None and node.crashed:
                self._reply_error(invocation.ticket, EjectCrashedError(target))
                return
        elif self.store.has(target):
            self._reactivate(target)  # passive: activate from its checkpoint
        else:
            gone = EjectDeactivatedError if record.deactivated else EjectCrashedError
            self._reply_error(invocation.ticket, gone(target))
            return
        assert record.eject is not None
        if self.tracer.enabled:
            self.tracer.emit(
                self.clock.now, "deliver", record.eject.name,
                op=invocation.operation, ticket=invocation.ticket,
            )
        self._hand_to_eject(record.eject, invocation)

    def _hand_to_eject(self, eject: Eject, invocation: Invocation) -> None:
        waiting = eject._enqueue(invocation)
        if waiting is not None:
            # The serving process inherits the invocation's span as its
            # causal context until it picks up different work.
            waiting.current_span = invocation.span
            self.scheduler.unblock(waiting, invocation)

    def _reactivate(self, uid: UID) -> None:
        representation = self.store.read(uid)
        if representation is None:
            raise KernelError(f"no passive representation for {uid}")
        wrapper = representation.data
        record = self._records[uid]
        node = self._pick_reactivation_node(record)
        eject = self.registry.instantiate_blank(
            representation.eden_type, self, uid, wrapper["name"]
        )
        eject.restore(wrapper["state"])
        self._install(eject, node)
        self.stats.bump("ejects_activated")
        self.tracer.emit(self.clock.now, "activate", eject.name)

    def _pick_reactivation_node(self, record: _EjectRecord) -> Node:
        if record.node_name is not None:
            node = self.node(record.node_name)
            if not node.crashed:
                return node
        if self.default_node.crashed:
            for node in self._nodes.values():
                if not node.crashed:
                    return node
            raise KernelError("every node has crashed; nowhere to reactivate")
        return self.default_node

    # -- replies --------------------------------------------------------

    def _sys_send_reply(self, process: Process, syscall: SendReply) -> None:
        ticket = syscall.invocation.ticket
        state = self._tickets.get(ticket)
        if state is None or state.replied:
            self.scheduler.throw(
                process,
                KernelError(f"no outstanding invocation with ticket {ticket}"),
            )
            return
        if syscall.error is not None:
            reply = Reply(ticket, ReplyStatus.ERROR, error=syscall.error)
        else:
            reply = Reply(ticket, ReplyStatus.OK, syscall.result, None,
                          syscall.span)
        state.replied = True
        remote = False
        replier = process.owner
        if isinstance(replier, Eject):
            replier.replied_count += 1
            remote = (
                replier.node is not None
                and state.origin_node is not None
                and replier.node.name != state.origin_node.name
            )
        if self.tracer.enabled:
            self.tracer.emit(
                self.clock.now, "reply", process.name,
                ticket=ticket, status=reply.status.value,
            )
        transport = self.transport
        size = 0 if transport.costs.bandwidth is None else reply.payload_size()
        transport.send(size, remote, self._deliver_reply, "reply", (reply,))
        self.scheduler.resume(process)

    def _reply_error(self, ticket: int, error: EdenError) -> None:
        """Kernel-originated error reply (target gone, crashed, …)."""
        state = self._tickets.get(ticket)
        if state is None or state.replied:
            return
        state.replied = True
        reply = Reply(ticket=ticket, status=ReplyStatus.ERROR, error=error)
        self.transport.send(0, False, self._deliver_reply, "reply", (reply,))

    def _deliver_reply(self, reply: Reply) -> None:
        state = self._tickets.pop(reply.ticket, None)
        if state is None:
            return  # awaiter's Eject crashed meanwhile; drop silently
        if state.span is not None:
            override = reply.span
            if override is not None and override.trace != state.span.trace:
                # Datum-follows-trace: the replier handed back data
                # deposited under another trace.  Keep our span id but
                # join the datum's trace as a child of the depositing
                # hop — exactly the wire runtime's re-rooting rule.
                state.span = type(state.span)(
                    trace=override.trace,
                    span=state.span.span,
                    parent=override.span,
                )
                state.rerooted = True
            # The request span closes when its reply reaches the
            # invoker — the same instant the wire runtime uses.
            self.tracer.emit(
                self.clock.now, "span", state.invoker,
                trace=state.span.trace, span=state.span.span,
                parent=state.span.parent, op=state.op,
                start=state.started, end=self.clock.now,
                status=reply.status.value,
            )
        waiter = state.waiter
        if waiter is None:
            state.reply = reply
            self._tickets[reply.ticket] = state  # hold for AwaitReply
            return
        if state.rerooted:
            # The resuming process adopts the datum's trace, so a
            # following downstream Write chains onto this Read.
            waiter.current_span = state.span
        if reply.status is ReplyStatus.ERROR:
            assert reply.error is not None
            self.scheduler.unblock_with_exception(waiter, reply.error)
        else:
            self.scheduler.unblock(waiter, reply.result)

    def _sys_await(self, process: Process, syscall: AwaitReply) -> None:
        ticket = syscall.ticket
        state = self._tickets.get(ticket)
        if state is None:
            self.scheduler.throw(
                process,
                KernelError(f"unknown or already-awaited ticket {ticket}"),
            )
        elif state.reply is not None:
            del self._tickets[ticket]
            reply = state.reply
            if state.rerooted:
                process.current_span = state.span
            if reply.status is ReplyStatus.ERROR:
                assert reply.error is not None
                self.scheduler.throw(process, reply.error)
            else:
                self.scheduler.resume(process, reply.result)
        elif state.waiter is not None:
            self.scheduler.throw(
                process,
                KernelError(f"ticket {ticket} already has an awaiting process"),
            )
        else:
            state.waiter = process
            self.scheduler.park(process, syscall)

    # -- receive ---------------------------------------------------------

    def _sys_receive(self, process: Process, syscall: Receive) -> None:
        owner = process.owner
        if not isinstance(owner, Eject):
            self.scheduler.throw(
                process,
                KernelError("only Eject processes may Receive invocations"),
            )
            return
        queued = owner._register_receiver(process, syscall)
        if queued is None:
            self.scheduler.park(process, syscall)
        else:
            process.current_span = queued.span
            self.scheduler.resume(process, queued)

    # -- span adoption / checkpoint / deactivate ---------------------------

    def _sys_adopt_span(self, process: Process, syscall: AdoptSpan) -> None:
        process.current_span = syscall.span
        self.scheduler.resume(process)

    def _sys_checkpoint(self, process: Process, syscall: DoCheckpoint) -> None:
        owner = process.owner
        if not isinstance(owner, Eject):
            self.scheduler.throw(
                process, KernelError("only Ejects may Checkpoint")
            )
            return
        self.registry.register(type(owner))
        wrapper = {"name": owner.name, "state": owner.passive_representation()}
        self.store.write(owner.uid, owner.eden_type, wrapper, self.clock.now)
        self.stats.bump("checkpoints")
        self.tracer.emit(self.clock.now, "checkpoint", owner.name)
        self.scheduler.resume(process)

    def _sys_deactivate(self, process: Process, syscall: Deactivate) -> None:
        owner = process.owner
        if not isinstance(owner, Eject):
            self.scheduler.throw(
                process, KernelError("only Ejects may Deactivate")
            )
            return
        record = self._records[owner.uid]
        self.tracer.emit(self.clock.now, "deactivate", owner.name)
        owner.active = False
        self.scheduler.kill_processes(
            [p for p in owner.processes if p is not process]
        )
        owner.processes.clear()
        owner._drop_waiters()
        if self.store.has(owner.uid):
            # Reactivatable: park unconsumed mail for the next incarnation.
            record.parked_mail.extend(owner.mailbox)
        else:
            for invocation in owner.mailbox:
                self._reply_error(
                    invocation.ticket, EjectDeactivatedError(owner.uid)
                )
        owner.mailbox.clear()
        # Invocations a (now killed) worker process had in service can
        # never be answered by this incarnation: fail them rather than
        # strand their senders.
        for ticket, state in list(self._tickets.items()):
            if state.target == owner.uid and not state.replied:
                self._reply_error(ticket, EjectDeactivatedError(owner.uid))
        record.deactivated = True
        record.eject = None
        if owner.node is not None:
            owner.node.evict(owner.uid)
        self.scheduler.exit(process)

    # ------------------------------------------------------------------
    # Driver interface (tests, examples, benchmarks)
    # ------------------------------------------------------------------

    def spawn_client(self, body, name: str | None = None) -> Process:
        """Start a driver process that is not owned by any Eject.

        ``body`` is a generator (already called).  Client invocations
        carry no sender and pay local transport cost.
        """
        self._client_counter += 1
        return self.scheduler.spawn(
            body, name=name or f"client-{self._client_counter}", owner=None
        )

    def run(
        self,
        max_steps: int | None = 10_000_000,
        until: Callable[[], bool] | None = None,
        raise_on_failure: bool = True,
    ) -> int:
        """Run the simulation to quiescence; see :meth:`Scheduler.run`."""
        return self.scheduler.run(
            max_steps=max_steps, until=until, raise_on_failure=raise_on_failure
        )

    def describe_world(self) -> str:
        """A human-readable snapshot of the simulated system.

        One line per node listing its residents, then one line per live
        Eject with its process states — the first thing to print when a
        simulation does something surprising.
        """
        lines = [f"virtual time: {self.clock.now:g}"]
        for node in self.nodes():
            status = "CRASHED" if node.crashed else "up"
            residents = sorted(
                eject.name
                for eject in self.live_ejects()
                if eject.node is node
            )
            lines.append(
                f"node {node.name} [{status}]: "
                + (", ".join(residents) if residents else "(empty)")
            )
        for eject in sorted(self.live_ejects(), key=lambda e: e.name):
            states = ", ".join(
                f"{p.name.rsplit('/', 1)[-1]}={p.state.value}"
                + (f"({p.blocked_reason})" if p.blocked_on else "")
                for p in eject.processes
            )
            mailbox = f" mailbox={len(eject.mailbox)}" if eject.mailbox else ""
            lines.append(f"  {eject.name}: {states}{mailbox}")
        pending = len(self._tickets)
        if pending:
            lines.append(f"outstanding invocations: {pending}")
        return "\n".join(lines)

    def call_sync(
        self,
        target: UID,
        operation: str,
        *args: Any,
        channel: ChannelId | None = None,
        **kwargs: Any,
    ) -> Any:
        """Invoke ``operation`` on ``target`` and run until it replies.

        Returns the invocation result (raising the carried error on an
        error reply).  This is the standard way for host-level test code
        to poke the simulated world.
        """
        box: dict[str, Any] = {}

        def body():
            box["result"] = yield Call(
                target=target,
                operation=operation,
                args=args,
                kwargs=kwargs,
                channel=channel,
            )

        process = self.spawn_client(body())
        try:
            self.run(until=lambda: not process.alive)
        except ProcessFailedError as failure:
            if failure.process_name == process.name and isinstance(
                failure.cause, EdenError
            ):
                raise failure.cause from None
            raise
        if process.failure is not None:
            raise process.failure
        if process.alive:
            raise KernelError(
                f"call_sync({operation}) did not complete; "
                f"blocked on {process.blocked_reason}"
            )
        return box.get("result")
