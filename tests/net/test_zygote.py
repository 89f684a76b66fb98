"""One zygote per fleet: what it does and what it leaves behind.

:mod:`repro.net.zygote` forks every process of a fleet from one fork of
the driver, which holds the stage code the driver imported.  These
tests start one from this process and drive its line protocol by hand,
then check the two promises the supervisor's
CPU accounting rests on: nothing a run started outlives it, and losing
either end of the zygote's pipes (its driver, or the zygote itself)
ends the other end promptly, with no hang and no traceback.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import select
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.api import GraphBuilder, Pipeline
from repro.fault import FaultPlan
from repro.net import zygote as zygotes
from repro.net.launch import FleetError

IDENTITY = "repro.transput:identity_transducer"
ITEMS = [f"item-{i:02d}" for i in range(12)]
PACKAGE_ROOT = str(pathlib.Path(repro.__file__).resolve().parents[1])

#: A module with the ``main(argv)`` an ``eden-*`` entry point has.
PROBE = '''\
import os, sys, time

def main(argv):
    what = argv[0]
    if what == "exit":
        return int(argv[1])
    if what == "echo":
        print("out", *argv[1:])
        print("err", file=sys.stderr)
        print("stdin", repr(sys.stdin.read()), "argv0", sys.argv[0])
        return None
    if what == "message":
        sys.exit("bye")
    if what == "raise":
        raise RuntimeError("boom")
    time.sleep(60)
'''

#: Filters for a fleet's processes: ``slow`` paces the stream so a
#: test can act mid-stream; ``kill_parent`` writes its pid and SIGKILLs
#: the process that forked it (the zygote) on its first record;
#: ``burn`` spends ``seconds`` of user CPU time on its first record.
FILTERS = '''\
import os, signal, time
from repro.transput.filterbase import map_transducer

def slow(seconds):
    def step(record):
        time.sleep(seconds)
        return record
    return map_transducer(step, name="slow")

def kill_parent(pid_file):
    def step(record):
        with open(pid_file, "w") as handle:
            handle.write(str(os.getpid()))
        os.kill(os.getppid(), signal.SIGKILL)
        time.sleep(60)
        return record
    return map_transducer(step, name="kill_parent")

def burn(seconds):
    spent = []
    def step(record):
        start = os.times().user
        while not spent and os.times().user - start < seconds:
            pass
        spent.append(record)
        return record
    return map_transducer(step, name="burn")
'''


def dead(pid: int) -> bool:
    """Gone, or a zombie waiting for whoever adopted it."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] in "ZX"
    except FileNotFoundError:
        return True


def children(pid: int | str = "self") -> set[int]:
    found: set[int] = set()
    for task in pathlib.Path(f"/proc/{pid}/task").glob("*"):
        try:
            found.update(int(child) for child in
                         (task / "children").read_text().split())
        except FileNotFoundError:
            pass  # the thread ended while we looked
    return found


def wait_until(condition, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.02)
    return condition()


@pytest.fixture
def on_path(tmp_path, monkeypatch):
    """``probe`` and ``fleet_filters`` importable here and in children."""
    (tmp_path / "probe.py").write_text(PROBE)
    (tmp_path / "fleet_filters.py").write_text(FILTERS)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [str(tmp_path), PACKAGE_ROOT,
                      os.environ.get("PYTHONPATH")])))
    return tmp_path


class Zygote:
    """A zygote of this process, driven by hand over its two pipes."""

    def __init__(self, tmp_path, *modules):
        self.log = tmp_path / "zygote.stderr.log"
        self.process = zygotes.start(modules, str(self.log))
        self.tmp_path = tmp_path
        self.pending = b""

    def fork(self, ident, *argv, append=False, module="probe"):
        self.send({"fork": ident, "module": module, "argv": list(argv),
                   "stdout": str(self.tmp_path / f"{ident}.out"),
                   "stderr": str(self.tmp_path / f"{ident}.err"),
                   "append": append})
        return self.report()

    def send(self, request):
        self.process.stdin.write(json.dumps(request).encode() + b"\n")
        self.process.stdin.flush()

    def report(self):
        while b"\n" not in self.pending:
            ready = select.select([self.process.stdout], [], [], 10.0)[0]
            assert ready, "no report from the zygote within 10 s"
            chunk = os.read(self.process.stdout.fileno(), 65536)
            assert chunk, "the zygote closed its stdout"
            self.pending += chunk
        line, self.pending = self.pending.split(b"\n", 1)
        return json.loads(line)

    def close(self):
        self.process.stdin.close()
        assert wait_until(lambda: dead(self.process.pid), 10.0), \
            "the zygote outlived its stdin by 10 s"
        rc = self.process.wait()
        self.process.stdout.close()
        return rc


class TestTheLineProtocol:
    def test_a_fork_reports_its_pid_then_its_exit_code(self, on_path):
        zygote = Zygote(on_path, "probe")
        try:
            started = zygote.fork(1, "exit", "3")
            assert started["id"] == 1 and started["pid"] > 0
            assert zygote.report() == {"id": 1, "rc": 3}
            assert zygote.fork(2, "echo", "a", "b")["id"] == 2
            assert zygote.report() == {"id": 2, "rc": 0}
        finally:
            assert zygote.close() == 0
        # The logs are fds 1 and 2, /dev/null is fd 0, and sys.argv
        # reads as its console script's would.
        assert (on_path / "2.out").read_text() == (
            "out a b\nstdin '' argv0 probe\n")
        assert (on_path / "2.err").read_text() == "err\n"
        assert zygote.log.read_text() == ""

    def test_a_restart_appends_to_the_logs(self, on_path):
        zygote = Zygote(on_path, "probe")
        try:
            zygote.fork("x", "echo", "first")
            assert zygote.report()["rc"] == 0
            zygote.fork("x", "echo", "second", append=True)
            assert zygote.report()["rc"] == 0
            zygote.fork("y", "echo", "third")
            zygote.report()
            zygote.fork("y", "echo", "fourth")
            zygote.report()
        finally:
            zygote.close()
        assert (on_path / "x.out").read_text().count("out") == 2
        assert (on_path / "y.out").read_text().startswith("out fourth")

    @pytest.mark.parametrize("argv, rc, said", [
        (("message",), 1, "bye"),
        (("raise",), 1, "RuntimeError: boom"),
    ])
    def test_an_exit_message_or_an_exception_is_rc_1(
            self, on_path, argv, rc, said):
        zygote = Zygote(on_path, "probe")
        try:
            zygote.fork(7, *argv)
            assert zygote.report() == {"id": 7, "rc": rc}
        finally:
            zygote.close()
        assert said in (on_path / "7.err").read_text()

    def test_a_killed_child_reports_minus_its_signal(self, on_path):
        zygote = Zygote(on_path, "probe")
        try:
            pid = zygote.fork(1, "sleep")["pid"]
            zygote.send({"kill": 1, "signal": int(signal.SIGTERM)})
            assert zygote.report() == {"id": 1, "rc": -signal.SIGTERM}
            assert dead(pid)
            # A kill for a child already reaped is ignored.
            zygote.send({"kill": 1, "signal": int(signal.SIGKILL)})
        finally:
            assert zygote.close() == 0

    def test_a_sync_reports_every_exit_before_it(self, on_path):
        # What a supervisor relies on to name the process whose death
        # failed an end, not the end.
        zygote = Zygote(on_path, "probe")
        try:
            pid = zygote.fork(1, "sleep")["pid"]
            os.kill(pid, signal.SIGKILL)
            assert wait_until(lambda: dead(pid), 5.0)  # a zombie now
            zygote.send({"sync": 1})
            assert zygote.report() == {"id": 1, "rc": -signal.SIGKILL}
            assert zygote.report() == {"sync": 1}
        finally:
            assert zygote.close() == 0

    def test_closing_stdin_kills_and_reaps_every_child(self, on_path):
        zygote = Zygote(on_path, "probe")
        pids = [zygote.fork(n, "sleep")["pid"] for n in range(3)]
        assert children(zygote.process.pid) == set(pids)
        assert zygote.close() == 0
        assert all(dead(pid) for pid in pids)
        assert zygote.log.read_text() == ""

    def test_a_module_that_does_not_import_is_rc_1(self, on_path):
        zygote = Zygote(on_path, "probe")
        try:
            zygote.send({"fork": 1, "module": "no_such_module",
                         "argv": [], "stdout": str(on_path / "1.out"),
                         "stderr": str(on_path / "1.err"),
                         "append": False})
            assert zygote.report()["id"] == 1
            assert zygote.report() == {"id": 1, "rc": 1}
        finally:
            zygote.close()
        assert "ModuleNotFoundError" in (on_path / "1.err").read_text()


def test_a_failed_fork_leaves_no_descriptor_open(tmp_path, monkeypatch):
    def refused():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    before = sorted(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", refused)
    with pytest.raises(BlockingIOError):
        zygotes.start(["json"], str(tmp_path / "zygote.stderr.log"))
    assert sorted(os.listdir("/proc/self/fd")) == before


def diamond():
    return (GraphBuilder(source=ITEMS, discipline="readonly")
            .chain(IDENTITY)
            .scatter([IDENTITY], [IDENTITY])
            .gather()
            .chain(IDENTITY)
            .build())


class TestNothingOutlivesARun:
    """Every stage's CPU time reaches ``RUSAGE_CHILDREN`` only if every
    process the run started is reaped before it returns."""

    def test_after_a_graph_run(self, tmp_path):
        before = children()
        result = diamond().run(runtime="tcp", workdir=str(tmp_path))
        assert sorted(result.output) == sorted(ITEMS)
        assert children() == before == set()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_after_a_spent_budget(self, tmp_path):
        before = children()
        with pytest.raises(FleetError) as info:
            Pipeline([IDENTITY] * 2, source=ITEMS).run(
                runtime="tcp", faults={1: FaultPlan(kill_after=3)},
                max_restarts=0, workdir=str(tmp_path), timeout=60.0)
        assert info.value.reason == "budget"
        assert children() == before == set()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestCpuAccounting:
    def test_a_stages_cpu_time_reaches_the_driver(self, on_path):
        # The zygote reaps the stage and the supervisor reaps the
        # zygote before the run returns, so the stage's user time is
        # in this process's RUSAGE_CHILDREN.
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
        result = Pipeline([IDENTITY, ("fleet_filters:burn", [0.2])],
                          source=ITEMS).run(
            runtime="tcp", workdir=str(on_path / "run"))
        assert result.output == ITEMS
        after = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
        assert after - before >= 0.2


DRIVER = '''\
import sys
from repro.api import Pipeline

Pipeline([("fleet_filters:slow", [0.05])] * 2,
         source=[f"r{i}" for i in range(200)]).run(
    runtime="tcp", workdir=sys.argv[1], timeout=120.0)
'''


class TestLosingAnEnd:
    def test_a_killed_driver_takes_the_zygote_and_its_forks(self, on_path):
        workdir = on_path / "run"
        driver = subprocess.Popen(
            [sys.executable, "-c", DRIVER, str(workdir)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            # Mid-stream: the zygote has forked both filters.
            assert wait_until(lambda: any(
                len(children(pid)) == 2 for pid in children(driver.pid)),
                30.0)
            zygote = next(iter(children(driver.pid)))
            forks = children(zygote)
            assert (workdir / "stage-1-filter.stderr.log").exists()
        finally:
            driver.kill()
            driver.wait()
        assert wait_until(lambda: dead(zygote)
                          and all(dead(pid) for pid in forks), 2.0)
        log = (workdir / "zygote.stderr.log").read_text()
        assert "Traceback" not in log and "Error" not in log

    def test_a_killed_zygote_fails_the_run_promptly(self, on_path):
        pid_file = on_path / "victim.pid"
        started = time.monotonic()
        with pytest.raises(FleetError) as info:
            Pipeline([IDENTITY, ("fleet_filters:kill_parent",
                                 [str(pid_file)]), IDENTITY],
                     source=ITEMS).run(
                runtime="tcp", workdir=str(on_path / "run"),
                timeout=60.0)
        assert time.monotonic() - started < 20.0
        assert info.value.reason == "zygote"
        assert "zygote" in str(info.value)
        assert "rc=-9" in str(info.value)
        # Its orphans are killed too, and the driver reaped all it had.
        victim = int(pid_file.read_text())
        assert wait_until(lambda: dead(victim), 2.0)
        assert children() == set()
