"""The fleet supervisor: validation, restarts, and surviving diagnostics.

The recovery happy path (kill a stage mid-stream, watch the supervisor
restart it and the stream finish lossless) lives in
``tests/net/test_chaos_recovery.py``; these tests cover the
supervisor's contract edges — eager knob validation, survivor plans,
and the property the old ``execute`` lacked: every stage's
stderr survives the fleet being killed, because it goes to files.
"""

import json

import pytest

from repro.broker.launch import plan_hosted_fleet
from repro.fault import FaultPlan, FrameFault
from repro.net.launch import (
    FleetError,
    FleetSupervisor,
    plan_linear_fleet,
    run_fleet,
)
from repro.net.stage import StageConfig

ITEMS = [f"line-{i}" for i in range(12)]
IDENTITY = ("repro.transput:identity_transducer", [])
BROKEN = ("repro.no_such_module:missing_factory", [])


def plan(tmp_path, transducers=(IDENTITY,), **kwargs):
    return plan_linear_fleet("readonly", list(transducers), str(tmp_path),
                      source_items=ITEMS, **kwargs)


class TestValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            FleetSupervisor([])

    @pytest.mark.parametrize("knob, bad", [
        ("timeout", 0), ("timeout", -1.0),
        ("max_restarts", -1), ("max_restarts", 1.5),
    ])
    def test_bad_knobs_rejected_eagerly(self, tmp_path, knob, bad):
        plans = plan(tmp_path)
        with pytest.raises(ValueError, match=knob):
            FleetSupervisor(plans, **{knob: bad})

    def test_fault_for_unknown_serial_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="serials"):
            plan(tmp_path, faults={9: FaultPlan(kill_after=1)})


class TestSurvivorPlan:
    def test_plain_plan_is_unchanged(self, tmp_path):
        for stage in plan(tmp_path):
            assert stage.survivor_plan() == stage.plan

    def test_survivor_plan_drops_kill_after(self, tmp_path):
        stage = plan(tmp_path, faults={1: FaultPlan(kill_after=3)})[1]
        assert stage.plan["fault"] == {"kill_after": 3}
        survivor = stage.survivor_plan()
        assert survivor["fault"] == {}
        # Nothing but the fault changes.
        assert {**survivor, "fault": stage.plan["fault"]} == stage.plan

    def test_periodic_faults_persist_across_restart(self, tmp_path):
        fault = FaultPlan(
            kill_after=3,
            frame_faults=[FrameFault(action="duplicate", every=4)],
        )
        stage = plan(tmp_path, faults={1: fault})[1]
        shipped = StageConfig.from_dict(stage.survivor_plan()).fault
        assert shipped == fault.survivor()
        assert shipped.kill_after is None and shipped.frame_faults

    def test_host_process_survivor_reduces_every_hosted_stage(self, tmp_path):
        periodic = FrameFault(action="duplicate", every=4)
        plans = plan_hosted_fleet(
            "readonly", [IDENTITY, IDENTITY], str(tmp_path),
            source_items=ITEMS, faults={
                1: FaultPlan(kill_after=3),
                2: FaultPlan(refuse_accepts=1, frame_faults=[periodic]),
            },
        )
        host = plans[1]
        assert host.role == "host"
        survivor = host.survivor_plan()
        assert [stage["fault"] for stage in survivor["stages"]] == [
            {}, {}, FaultPlan(frame_faults=[periodic]).as_dict(), {},
        ]
        assert {**survivor, "stages": host.plan["stages"]} == host.plan
        assert plans[0].survivor_plan() is None  # the broker has no plan

    def test_a_restart_respawns_the_survivor_plan(self, tmp_path):
        # Were the kill re-armed, the one restart the budget allows
        # would die again and the fleet fail.
        plans = plan(tmp_path, faults={1: FaultPlan(kill_after=4)},
                     resume=True, io_timeout=5.0)
        result = run_fleet(plans, timeout=60.0, max_restarts=1)
        assert result.output == ITEMS
        assert result.restarts == 1
        with open(plans[1].plan_file, encoding="utf-8") as handle:
            assert json.load(handle)["fault"] == {}


class TestFailureDiagnostics:
    def test_crashing_stage_diagnosed_with_its_stderr(self, tmp_path):
        plans = plan(tmp_path, transducers=[BROKEN])
        with pytest.raises(FleetError, match="stage failures") as info:
            run_fleet(plans, timeout=30.0)
        # The diagnosis names the offender and quotes its traceback.
        assert "filter#1" in str(info.value)
        result = info.value.result
        assert result is not None
        assert len(result.stderr) == len(plans)
        assert "no_such_module" in result.stderr[1]

    def test_stderr_of_killed_stage_survives_fleet_kill(self, tmp_path):
        # The filter crashes (injected kill, rc=73) with no restart
        # budget; the supervisor kills the survivors.  The dead stage
        # wrote its last words to stderr *before* the fleet went down —
        # they must still be in the gathered result (the old
        # pipe-based ``execute`` lost them).
        plans = plan(tmp_path, faults={1: FaultPlan(kill_after=4)})
        with pytest.raises(FleetError, match="injected kill") as info:
            run_fleet(plans, timeout=30.0)
        result = info.value.result
        assert result is not None
        assert "fault: killed at datum" in result.stderr[1]

    def test_timeout_kills_fleet_but_gathers_partials(self, tmp_path):
        # Spawn only the listening half of a fleet (source + filter, no
        # sink): nobody ever demands data, so the fleet wedges until
        # the supervisor's deadline kills it.
        plans = plan(tmp_path)[:2]
        with pytest.raises(FleetError, match="fleet timeout") as info:
            run_fleet(plans, timeout=2.0)
        message = str(info.value)
        assert "source#0" in message and "filter#1" in message
        result = info.value.result
        assert result is not None
        assert len(result.stderr) == len(plans)
        assert result.output == []

    def test_budget_exhaustion_counts_every_crash(self, tmp_path):
        # kill_after survives restarts?  No: the survivor plan strips
        # it, so a restarted stage runs clean — but *without* resume the
        # stream cannot continue after the first death, so neighbours
        # fail and the run ends in stage failures.  The supervisor's
        # counters must still show the injected kill and the restart.
        plans = plan(tmp_path, faults={1: FaultPlan(kill_after=4)},
                     connect_deadline=3.0)
        with pytest.raises(FleetError) as info:
            run_fleet(plans, timeout=30.0, max_restarts=1)
        supervisor = info.value.result.supervisor
        counters = supervisor["counters"]
        assert counters["injected_kills"] >= 1
        assert counters["crashes"] >= 1
        assert counters.get("restarts", 0) >= 1

    def test_failure_reasons_distinguish_budget_and_timeout(self, tmp_path):
        budget = plan(tmp_path / "budget", transducers=[BROKEN])
        with pytest.raises(FleetError) as info:
            run_fleet(budget, timeout=30.0)
        assert info.value.reason == "budget"

        wedged = plan(tmp_path / "wedge")[:2]
        with pytest.raises(FleetError) as info:
            run_fleet(wedged, timeout=2.0)
        assert info.value.reason == "timeout"

    def test_stage_logs_land_next_to_stats(self, tmp_path):
        plans = plan(tmp_path, faults={1: FaultPlan(kill_after=4)})
        with pytest.raises(FleetError):
            run_fleet(plans, timeout=30.0)
        assert (tmp_path / "stage-1-filter.stderr.log").exists()
        assert (tmp_path / "stage-0-source.stdout.log").exists()


class TestRestartStorm:
    def test_aggregate_restarts_trip_the_storm_guard(self, tmp_path):
        # The broken filter crashes instantly, forever.  Its per-member
        # budget (5) would allow the churn to continue, but the fleet-
        # wide guard sees 3 restarts inside the window and stops the
        # run with its own distinct reason.
        plans = plan(tmp_path, transducers=[BROKEN])
        with pytest.raises(FleetError, match="restart storm") as info:
            run_fleet(plans, timeout=30.0, max_restarts=5,
                      storm_window=30.0, storm_max_restarts=2)
        assert info.value.reason == "restart-storm"
        result = info.value.result
        assert result is not None
        assert result.supervisor["counters"]["restart_storms"] == 1

    def test_quiet_fleet_never_trips_the_guard(self, tmp_path):
        result = run_fleet(plan(tmp_path), timeout=60.0,
                           storm_window=30.0, storm_max_restarts=1)
        assert result.output == ITEMS
        assert result.supervisor["counters"].get("restart_storms", 0) == 0

    @pytest.mark.parametrize("knob, bad", [
        ("storm_window", 0), ("storm_window", -1.0),
        ("storm_max_restarts", 0), ("storm_max_restarts", 1.5),
    ])
    def test_storm_knobs_validated_eagerly(self, tmp_path, knob, bad):
        with pytest.raises(ValueError, match=knob):
            FleetSupervisor(plan(tmp_path), **{knob: bad})


class TestCleanRun:
    def test_supervised_clean_run_matches_execute_semantics(self, tmp_path):
        result = run_fleet(plan(tmp_path), timeout=60.0)
        assert result.output == ITEMS
        assert result.restarts == 0
        assert result.supervisor["counters"].get("crashes", 0) == 0
        # The supervisor payload is also dumped beside the stage stats.
        with open(tmp_path / "supervisor.stats.json", encoding="utf-8") as f:
            assert json.load(f) == result.supervisor

    def test_manifest_records_resume_and_faults(self, tmp_path):
        plan_linear_fleet(
            "readonly", [IDENTITY], str(tmp_path),
            source_items=ITEMS, trace=True, resume=True,
            faults={1: FaultPlan(kill_after=2)},
        )
        with open(tmp_path / "fleet.json", encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["resume"] is True
        assert manifest["stages"][1]["fault"] == {"kill_after": 2}
        assert manifest["stages"][0]["fault"] == {}

    def test_stage_plan_labels(self, tmp_path):
        plans = plan(tmp_path)
        assert [p.label for p in plans] == ["source#0", "filter#1", "sink#2"]
