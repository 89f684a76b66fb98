"""Deterministic cooperative scheduler for the simulated Eden system.

The scheduler owns the ready queue, the timed-event heap, the
intra-Eject signal tables and the syscall table: one handler per
syscall class, looked up by ``type(syscall)``.  It installs the
handlers it can serve alone (process control, time, signals); the
messaging syscalls (``Invoke``, ``Receive``, ``Call``, …) are installed
by the :class:`~repro.core.kernel.Kernel`, so the scheduler itself
knows nothing about UIDs or transports.

A handler receives the process that trapped and the syscall, and acts
on the process directly: it either makes it ready again
(:meth:`Scheduler.resume` / :meth:`Scheduler.throw`), parks it
(:meth:`Scheduler.park`; someone must :meth:`Scheduler.unblock` it
later) or kills it.  One scheduler step is therefore one call into the
process and one call into a handler.

Determinism: ready processes run round-robin in arrival order; timed
events tie-break on a monotonically increasing sequence number.  Two
runs of the same simulation produce identical schedules, counters and
virtual times.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Iterable

from repro.core.clock import VirtualClock
from repro.core.errors import KernelError, ProcessFailedError
from repro.core.process import Process, ProcessState
from repro.core.stats import KernelStats
from repro.core.syscalls import (
    ExitProcess,
    GetTime,
    NotifySignal,
    Receive,
    Signal,
    Sleep,
    Spawn,
    WaitSignal,
    YieldControl,
)
from repro.core.tracing import Tracer

#: Serves one syscall class: ``handler(process, syscall)``.
SyscallHandler = Callable[[Process, Any], None]

_READY = ProcessState.READY
_BLOCKED = ProcessState.BLOCKED
_DONE = ProcessState.DONE
_FAILED = ProcessState.FAILED


class Scheduler:
    """Runs processes and timed events against a virtual clock."""

    def __init__(
        self,
        clock: VirtualClock | None = None,
        stats: KernelStats | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.clock = clock or VirtualClock()
        self.stats = stats or KernelStats()
        self.tracer = tracer or Tracer()
        #: The syscall table.  The kernel adds the messaging syscalls.
        self.handlers: dict[type, SyscallHandler] = {
            Sleep: self._sys_sleep,
            GetTime: self._sys_get_time,
            YieldControl: self._sys_yield,
            ExitProcess: self.exit,
            Spawn: self._sys_spawn,
            WaitSignal: self._sys_wait,
            NotifySignal: self._sys_notify,
        }
        self._ready: deque[Process] = deque()
        self._events: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._event_seq = 0
        self._signal_waiters: dict[Signal, list[Process]] = {}
        self._processes: list[Process] = []
        self.failures: list[ProcessFailedError] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def add_process(self, process: Process) -> Process:
        """Register a new process and make it ready."""
        self._processes.append(process)
        self._ready.append(process)
        self.tracer.emit(self.clock.now, "spawn", process.name)
        return process

    def spawn(self, body, name: str, owner: Any = None) -> Process:
        """Create, register and return a new process."""
        return self.add_process(Process(body, name=name, owner=owner))

    # ------------------------------------------------------------------
    # What a syscall handler may do with the process that trapped
    # ------------------------------------------------------------------

    def resume(self, process: Process, value: Any = None) -> None:
        """Ready again; ``value`` is sent in at its next step."""
        process.pending_value = value
        process.state = _READY
        self._ready.append(process)

    def throw(self, process: Process, exc: BaseException) -> None:
        """Ready again; ``exc`` is thrown in at its next step."""
        process.pending_exception = exc
        process.state = _READY
        self._ready.append(process)

    def park(self, process: Process, on: Any) -> None:
        """Parked on ``on`` (see :attr:`Process.blocked_on`); someone
        must call :meth:`unblock` later."""
        process.state = _BLOCKED
        process.blocked_on = on

    # ------------------------------------------------------------------
    # Unblocking and timed events
    # ------------------------------------------------------------------

    def unblock(self, process: Process, value: Any = None) -> None:
        """Move a blocked process back to the ready queue with ``value``."""
        if process.state is _BLOCKED:
            self.resume(process, value)
        elif process.alive:
            raise KernelError(f"cannot unblock {process!r}")
        # else: killed while blocked (e.g. its Eject crashed)

    def unblock_with_exception(self, process: Process, exc: BaseException) -> None:
        """Move a blocked process back to ready; ``exc`` is thrown into it."""
        if process.state is _BLOCKED:
            self.throw(process, exc)
        elif process.alive:
            raise KernelError(f"cannot unblock {process!r}")

    def schedule_event(
        self, delay: float, action: Callable[..., None], args: tuple = ()
    ) -> None:
        """Run ``action(*args)`` after ``delay`` units of virtual time."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self._event_seq += 1
        heapq.heappush(
            self._events, (self.clock.now + delay, self._event_seq, action, args)
        )

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------

    def run(
        self,
        max_steps: int | None = 10_000_000,
        until: Callable[[], bool] | None = None,
        raise_on_failure: bool = True,
    ) -> int:
        """Run to quiescence (or until the predicate holds).

        Quiescence means: no ready process and no pending timed event.
        Blocked processes (servers waiting for invocations) are normal
        at quiescence.

        Args:
            max_steps: guard against runaway simulations; ``None``
                disables the guard.
            until: checked before every step/event; run stops once true.
            raise_on_failure: raise the first uncaught process failure
                instead of merely recording it in ``self.failures``.

        Returns:
            The number of process steps executed.
        """
        steps = 0
        ready = self._ready
        events = self._events
        handlers = self.handlers
        counters = self.stats.counters
        clock = self.clock
        while True:
            if until is not None and until():
                break
            if ready:
                process = ready.popleft()
                state = process.state
                if state is _DONE or state is _FAILED:
                    continue  # killed while queued
                counters["context_switches"] += 1
                try:
                    syscall = process.step()
                except BaseException as exc:  # body raised
                    self._record_failure(process, exc, raise_on_failure)
                else:
                    if syscall is None:  # body returned normally
                        self.tracer.emit(self.clock.now, "exit", process.name)
                    else:
                        handler = handlers.get(type(syscall))
                        if handler is None:
                            handler = self._inherited_handler(type(syscall))
                        handler(process, syscall)
                steps += 1
                if max_steps is not None and steps > max_steps:
                    raise KernelError(
                        f"simulation exceeded {max_steps} steps; "
                        "likely a spinning process"
                    )
                continue
            if events:
                when, _seq, action, args = heapq.heappop(events)
                if when < clock.now:
                    clock.advance_to(when)  # raises: time never runs back
                clock.now = when
                counters["events_processed"] += 1
                action(*args)
                continue
            break
        return steps

    def _record_failure(
        self, process: Process, exc: BaseException, raise_on_failure: bool
    ) -> None:
        failure = ProcessFailedError(process.name, exc)
        self.failures.append(failure)
        self.tracer.emit(self.clock.now, "fail", process.name, error=repr(exc))
        if raise_on_failure:
            raise failure from exc

    def _inherited_handler(self, cls: type) -> SyscallHandler:
        """The handler of the nearest registered base of ``cls``."""
        for base in cls.__mro__[1:]:
            handler = self.handlers.get(base)
            if handler is not None:
                return handler
        raise KernelError(f"no syscall handler installed for {cls.__name__}")

    # ------------------------------------------------------------------
    # Syscalls the scheduler serves without the kernel
    # ------------------------------------------------------------------

    def _sys_sleep(self, process: Process, syscall: Sleep) -> None:
        self.schedule_event(syscall.duration, self.unblock, (process,))
        self.park(process, syscall)

    def _sys_get_time(self, process: Process, syscall: GetTime) -> None:
        self.resume(process, self.clock.now)

    def _sys_yield(self, process: Process, syscall: YieldControl) -> None:
        self.resume(process)

    def exit(self, process: Process, syscall: ExitProcess | None = None) -> None:
        """Terminate ``process`` at its own request (serves ``ExitProcess``;
        the kernel ends a deactivating Eject's last process with it)."""
        process.kill()
        self.tracer.emit(self.clock.now, "exit", process.name)

    def _sys_spawn(self, process: Process, syscall: Spawn) -> None:
        child = Process(
            syscall.body_factory(),
            name=self._child_name(process, syscall.name),
            owner=process.owner,
        )
        self.add_process(child)
        self.resume(process, child.name)

    def _sys_wait(self, process: Process, syscall: WaitSignal) -> None:
        self._signal_waiters.setdefault(syscall.signal, []).append(process)
        self.park(process, syscall)

    def _sys_notify(self, process: Process, syscall: NotifySignal) -> None:
        waiters = self._signal_waiters.pop(syscall.signal, [])
        for waiter in waiters:
            self.unblock(waiter, syscall.value)
        self.resume(process, len(waiters))

    def _child_name(self, parent: Process, base: str) -> str:
        prefix = parent.name.rsplit("/", 1)[0]
        existing = {p.name for p in self._processes}
        candidate = f"{prefix}/{base}"
        counter = 1
        while candidate in existing:
            counter += 1
            candidate = f"{prefix}/{base}-{counter}"
        return candidate

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def processes(self) -> list[Process]:
        """Every process ever registered (including finished ones)."""
        return list(self._processes)

    def live_processes(self) -> list[Process]:
        """Processes that can still run."""
        return [p for p in self._processes if p.alive]

    def blocked_processes(self) -> list[Process]:
        """Processes currently parked on a syscall."""
        return [p for p in self._processes if p.state is ProcessState.BLOCKED]

    def kill_processes(self, processes: Iterable[Process]) -> None:
        """Terminate the given processes (used for crash simulation)."""
        for process in processes:
            process.kill()

    def has_pending_events(self) -> bool:
        """Whether any timed event is still scheduled."""
        return bool(self._events)

    def stuck_processes(self) -> list[Process]:
        """Blocked processes that are *not* harmlessly serving.

        At quiescence, a process parked on ``Receive`` is a server
        waiting for work — normal.  A process parked on a reply, a
        signal or anything else will never run again unless someone
        wakes it: if the simulation has quiesced, that is a deadlock
        symptom.  Callers that expected progress use this to fail
        loudly instead of returning silently incomplete.
        """
        return [
            process
            for process in self.blocked_processes()
            if not isinstance(process.blocked_on, Receive)
        ]
