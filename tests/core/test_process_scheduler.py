"""Process lifecycle and the deterministic scheduler."""

import pytest

from repro.core.errors import KernelError, ProcessFailedError
from repro.core.process import Process, ProcessState
from repro.core.scheduler import Scheduler
from repro.core.syscalls import (
    ExitProcess,
    GetTime,
    NotifySignal,
    Signal,
    Sleep,
    Spawn,
    WaitSignal,
    YieldControl,
)


class TestProcess:
    def test_rejects_non_generator(self):
        with pytest.raises(TypeError):
            Process(lambda: None, name="bad")  # type: ignore[arg-type]

    def test_step_returns_syscall_then_none(self):
        def body():
            yield GetTime()

        process = Process(body(), name="p")
        syscall = process.step()
        assert isinstance(syscall, GetTime)
        process.resume_with(0.0)
        assert process.step() is None
        assert process.state is ProcessState.DONE

    def test_result_captured(self):
        def body():
            return 42
            yield  # pragma: no cover

        process = Process(body(), name="p")
        process.step()
        assert process.result == 42

    def test_non_syscall_yield_fails(self):
        def body():
            yield "not a syscall"

        process = Process(body(), name="p")
        with pytest.raises(KernelError):
            process.step()
        assert process.state is ProcessState.FAILED

    def test_exception_marks_failed(self):
        def body():
            raise RuntimeError("boom")
            yield  # pragma: no cover

        process = Process(body(), name="p")
        with pytest.raises(RuntimeError):
            process.step()
        assert process.state is ProcessState.FAILED
        assert isinstance(process.failure, RuntimeError)

    def test_thrown_exception_delivered(self):
        def body():
            try:
                yield GetTime()
            except ValueError:
                return "caught"

        process = Process(body(), name="p")
        process.step()
        process.resume_with_exception(ValueError("x"))
        assert process.step() is None
        assert process.result == "caught"

    def test_kill(self):
        def body():
            yield GetTime()

        process = Process(body(), name="p")
        process.kill()
        assert not process.alive


class TestSchedulerBasics:
    def test_runs_to_quiescence(self):
        scheduler = Scheduler()
        log = []

        def body():
            log.append("a")
            yield YieldControl()
            log.append("b")

        scheduler.spawn(body(), name="p")
        steps = scheduler.run()
        assert log == ["a", "b"]
        assert steps >= 2

    def test_round_robin_is_deterministic(self):
        def make_log():
            scheduler = Scheduler()
            log = []

            def worker(tag):
                for _ in range(3):
                    log.append(tag)
                    yield YieldControl()

            scheduler.spawn(worker("x"), name="x")
            scheduler.spawn(worker("y"), name="y")
            scheduler.run()
            return log

        assert make_log() == make_log()
        assert make_log()[:2] == ["x", "y"]

    def test_sleep_advances_virtual_time(self):
        scheduler = Scheduler()
        times = []

        def body():
            yield Sleep(5.0)
            times.append((yield GetTime()))
            yield Sleep(2.5)
            times.append((yield GetTime()))

        scheduler.spawn(body(), name="sleeper")
        scheduler.run()
        assert times == [5.0, 7.5]

    def test_sleep_ordering(self):
        scheduler = Scheduler()
        order = []

        def sleeper(tag, duration):
            yield Sleep(duration)
            order.append(tag)

        scheduler.spawn(sleeper("late", 10), name="late")
        scheduler.spawn(sleeper("early", 1), name="early")
        scheduler.run()
        assert order == ["early", "late"]

    def test_max_steps_guard(self):
        scheduler = Scheduler()

        def spinner():
            while True:
                yield YieldControl()

        scheduler.spawn(spinner(), name="spin")
        with pytest.raises(KernelError, match="exceeded"):
            scheduler.run(max_steps=100)

    def test_until_predicate_stops_early(self):
        scheduler = Scheduler()
        counter = {"n": 0}

        def body():
            while True:
                counter["n"] += 1
                yield YieldControl()

        scheduler.spawn(body(), name="p")
        scheduler.run(until=lambda: counter["n"] >= 5, max_steps=1000)
        assert counter["n"] == 5

    def test_negative_event_delay_rejected(self):
        with pytest.raises(ValueError):
            Scheduler().schedule_event(-1.0, lambda: None)


class TestSignals:
    def test_wait_and_notify(self):
        scheduler = Scheduler()
        signal = Signal("s")
        got = []

        def waiter():
            got.append((yield WaitSignal(signal)))

        def notifier():
            yield YieldControl()
            count = yield NotifySignal(signal, value="hello")
            got.append(count)

        scheduler.spawn(waiter(), name="w")
        scheduler.spawn(notifier(), name="n")
        scheduler.run()
        assert got == ["hello", 1]

    def test_notify_with_no_waiters(self):
        scheduler = Scheduler()
        counts = []

        def notifier():
            counts.append((yield NotifySignal(Signal("empty"))))

        scheduler.spawn(notifier(), name="n")
        scheduler.run()
        assert counts == [0]

    def test_notify_wakes_all(self):
        scheduler = Scheduler()
        signal = Signal("s")
        woken = []

        def waiter(tag):
            yield WaitSignal(signal)
            woken.append(tag)

        def notifier():
            yield YieldControl()
            yield NotifySignal(signal)

        scheduler.spawn(waiter(1), name="w1")
        scheduler.spawn(waiter(2), name="w2")
        scheduler.spawn(notifier(), name="n")
        scheduler.run()
        assert sorted(woken) == [1, 2]


class TestSpawnAndFailure:
    def test_spawn_child(self):
        scheduler = Scheduler()
        log = []

        def child():
            log.append("child")
            yield GetTime()

        def parent():
            name = yield Spawn(lambda: child(), name="kid")
            log.append(name)

        scheduler.spawn(parent(), name="parent")
        scheduler.run()
        assert "child" in log
        assert any("kid" in entry for entry in log if isinstance(entry, str))

    def test_spawn_names_deduplicated(self):
        scheduler = Scheduler()
        names = []

        def child():
            return
            yield  # pragma: no cover

        def parent():
            for _ in range(3):
                names.append((yield Spawn(lambda: child(), name="kid")))

        scheduler.spawn(parent(), name="parent")
        scheduler.run()
        assert len(set(names)) == 3

    def test_exit_process(self):
        scheduler = Scheduler()
        log = []

        def body():
            log.append("before")
            yield ExitProcess()
            log.append("after")  # pragma: no cover

        scheduler.spawn(body(), name="p")
        scheduler.run()
        assert log == ["before"]

    def test_failure_raises_by_default(self):
        scheduler = Scheduler()

        def body():
            raise RuntimeError("boom")
            yield  # pragma: no cover

        scheduler.spawn(body(), name="p")
        with pytest.raises(ProcessFailedError):
            scheduler.run()

    def test_failure_recorded_when_not_raising(self):
        scheduler = Scheduler()

        def body():
            raise RuntimeError("boom")
            yield  # pragma: no cover

        scheduler.spawn(body(), name="p")
        scheduler.run(raise_on_failure=False)
        assert len(scheduler.failures) == 1
        assert scheduler.failures[0].process_name == "p"

    def test_context_switches_counted(self):
        scheduler = Scheduler()

        def body():
            yield YieldControl()
            yield YieldControl()

        scheduler.spawn(body(), name="p")
        scheduler.run()
        assert scheduler.stats.get("context_switches") == 3


class TestBlockedOn:
    """What parks a process is kept as data and rendered only on
    demand; the rendered texts are part of the debugging surface."""

    @pytest.fixture
    def world(self):
        from repro.core import Eject, Kernel
        from repro.core.syscalls import AwaitReply, Invoke, Receive

        gate = Signal("gate")

        class Mute(Eject):
            eden_type = "Mute"

            def main(self):
                yield Receive()  # takes one invocation, never replies
                yield Receive(operations=frozenset({"Read", "Close"}))

        class Odd(Eject):
            eden_type = "Odd"

            def process_bodies(self):
                return [("gate", self.gate()), ("late", self.late())]

            def gate(self):
                yield WaitSignal(gate)

            def late(self):
                ticket = yield Invoke(mute.uid, "Probe")
                yield AwaitReply(ticket)

        kernel = Kernel()
        mute = kernel.create(Mute, name="mute")
        kernel.create(Odd, name="odd")
        kernel.run()
        return kernel, mute

    def test_reasons_read_as_before(self, world):
        kernel, _mute = world
        reasons = {p.name: p.blocked_reason for p in kernel.scheduler.processes}
        assert reasons == {
            "mute/main": "receive(['Close', 'Read'])",
            "odd/gate": "wait(gate)",
            "odd/late": "await(#1)",
        }

    def test_blocked_on_is_the_syscall_itself(self, world):
        from repro.core.syscalls import Receive

        kernel, mute = world
        (server,) = mute.processes
        assert isinstance(server.blocked_on, Receive)
        assert server.blocked_on.operations == {"Read", "Close"}

    def test_repr_and_world_and_stuck(self, world):
        kernel, mute = world
        (server,) = mute.processes
        assert repr(server) == (
            "Process(mute/main, blocked blocked_on=receive(['Close', 'Read']))"
        )
        assert (
            "  odd: gate=blocked(wait(gate)), late=blocked(await(#1))"
        ) in kernel.describe_world().splitlines()
        # Parked on Receive is a server waiting for work, not stuck.
        assert [p.name for p in kernel.scheduler.stuck_processes()] == [
            "odd/gate", "odd/late",
        ]

    def test_call_names_operation_and_ticket(self, world):
        kernel, mute = world
        with pytest.raises(KernelError, match=r"blocked on call\(Other#2\)$"):
            kernel.call_sync(mute.uid, "Other")

    def test_sleep(self):
        scheduler = Scheduler()

        def body():
            yield Sleep(5.0)

        process = scheduler.spawn(body(), name="napper")
        scheduler.run(until=lambda: process.blocked_on is not None)
        assert process.blocked_reason == "sleep(5.0)"
        assert scheduler.stuck_processes() == [process]

    def test_receive_any_and_running_process(self):
        from repro.core import Eject, Kernel

        kernel = Kernel()
        eject = kernel.create(Eject, name="server")  # default: Receive()
        (process,) = eject.processes
        assert process.blocked_reason is None and "blocked_on" not in repr(process)
        kernel.run()
        assert process.blocked_reason == "receive(any)"
