"""FaultPlan / FrameFault: eager validation, survivors, JSON portability;
the restart rule both supervisors share."""

import pytest

from repro.core.stats import KernelStats
from repro.fault import FAULT_ACTIONS, FaultError, FaultPlan, FrameFault
from repro.fault.plan import RestartRefused, RestartRule


class TestFrameFaultValidation:
    def test_every_action_constructs(self):
        for action in FAULT_ACTIONS:
            delay = 5.0 if action == "delay" else 0.0
            fault = FrameFault(action=action, nth=1, delay_ms=delay)
            assert fault.action == action

    def test_unknown_action_rejected(self):
        with pytest.raises(FaultError, match="action"):
            FrameFault(action="explode", nth=1)

    def test_exactly_one_schedule_required(self):
        with pytest.raises(FaultError, match="exactly one"):
            FrameFault(action="drop")
        with pytest.raises(FaultError, match="exactly one"):
            FrameFault(action="drop", nth=1, every=2)

    @pytest.mark.parametrize("field", ["nth", "every"])
    @pytest.mark.parametrize("bad", [0, -1, 1.5, "3"])
    def test_schedule_must_be_positive_integer(self, field, bad):
        with pytest.raises(FaultError, match=field):
            FrameFault(action="drop", **{field: bad})

    def test_delay_needs_latency(self):
        with pytest.raises(FaultError, match="delay_ms"):
            FrameFault(action="delay", nth=1)
        with pytest.raises(FaultError, match="delay_ms"):
            FrameFault(action="drop", nth=1, delay_ms=-1.0)

    def test_empty_frame_name_rejected(self):
        with pytest.raises(FaultError, match="frame"):
            FrameFault(action="drop", nth=1, frame="")


class TestFrameFaultMatching:
    def test_nth_is_one_shot(self):
        fault = FrameFault(action="drop", nth=3)
        assert [fault.matches("data", count) for count in (1, 2, 3, 4)] == [
            False, False, True, False,
        ]

    def test_every_is_periodic(self):
        fault = FrameFault(action="drop", every=2)
        assert [fault.matches("data", count) for count in (1, 2, 3, 4)] == [
            False, True, False, True,
        ]

    def test_frame_filter_is_case_insensitive(self):
        fault = FrameFault(action="drop", frame="data", nth=1)
        assert fault.matches("DATA", 1)
        assert not fault.matches("WRITE", 1)

    def test_round_trip(self):
        fault = FrameFault(action="delay", frame="write", every=3, delay_ms=2.5)
        assert FrameFault.from_dict(fault.as_dict()) == fault

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultError, match="unknown"):
            FrameFault.from_dict({"action": "drop", "nth": 1, "colour": "red"})


class TestFaultPlan:
    def test_default_is_benign(self):
        assert FaultPlan().is_benign

    def test_any_fault_is_not_benign(self):
        assert not FaultPlan(kill_after=1).is_benign
        assert not FaultPlan(refuse_accepts=1).is_benign
        assert not FaultPlan(
            frame_faults=[FrameFault(action="drop", nth=1)]
        ).is_benign

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "3"])
    def test_kill_after_validated(self, bad):
        with pytest.raises(FaultError, match="kill_after"):
            FaultPlan(kill_after=bad)

    def test_refuse_accepts_validated(self):
        with pytest.raises(FaultError, match="refuse_accepts"):
            FaultPlan(refuse_accepts=-1)

    def test_frame_faults_must_be_frame_faults(self):
        with pytest.raises(FaultError, match="FrameFault"):
            FaultPlan(frame_faults=[{"action": "drop", "nth": 1}])

    def test_survivor_strips_one_shot_faults(self):
        periodic = FrameFault(action="drop", every=5)
        plan = FaultPlan(
            kill_after=7,
            refuse_accepts=2,
            frame_faults=[FrameFault(action="duplicate", nth=2), periodic],
        )
        survivor = plan.survivor()
        assert survivor.kill_after is None
        assert survivor.refuse_accepts == 0
        assert survivor.frame_faults == (periodic,)

    def test_survivor_of_kill_only_plan_is_benign(self):
        assert FaultPlan(kill_after=3).survivor().is_benign

    def test_json_round_trip(self):
        plan = FaultPlan(
            kill_after=4,
            refuse_accepts=1,
            frame_faults=[FrameFault(action="corrupt", frame="data", nth=2)],
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_benign_plan_serialises_empty(self):
        assert FaultPlan().to_json() == "{}"
        assert FaultPlan.from_json("{}") == FaultPlan()

    def test_from_json_rejects_garbage(self):
        with pytest.raises(FaultError, match="undecodable"):
            FaultPlan.from_json("{nope")
        with pytest.raises(FaultError, match="object"):
            FaultPlan.from_json("[1, 2]")
        with pytest.raises(FaultError, match="unknown"):
            FaultPlan.from_json('{"explode_at": 3}')


class TestRestartRule:
    def test_backoff_doubles_from_a_tenth_up_to_two_seconds(self):
        rule = RestartRule(KernelStats(), max_restarts=8)
        delays = [rule.crashed("filter#1", n, now=0.0) for n in range(8)]
        assert delays == [0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0, 2.0]

    def test_a_spent_budget_is_refused_and_every_crash_counted(self):
        stats = KernelStats()
        rule = RestartRule(stats, max_restarts=1)
        assert rule.crashed("filter#1", 0, now=0.0, killed=True) == 0.1
        with pytest.raises(RestartRefused, match="filter#1") as info:
            rule.crashed("filter#1", 1, now=1.0)
        assert info.value.reason == "budget"
        assert {name: stats.get(name) for name in stats.names()} == {
            "crashes": 2, "crashes[filter#1]": 2, "injected_kills": 1,
            "restarts": 1, "restarts[filter#1]": 1,
        }
        assert stats.get_gauge("backoff_s[filter#1]") == 0.1

    def test_the_storm_window_slides_with_the_callers_clock(self):
        stats = KernelStats()
        rule = RestartRule(stats, max_restarts=9, storm_window=5.0,
                           storm_max_restarts=2)
        for now in (0.0, 1.0, 6.5, 7.0):  # never 3 inside 5 s
            rule.crashed("a", 0, now=now)
        with pytest.raises(RestartRefused, match="restart storm") as info:
            rule.crashed("b", 0, now=8.0)
        assert info.value.reason == "restart-storm"
        assert stats.get("restart_storms") == 1

    @pytest.mark.parametrize("knob, bad", [
        ("max_restarts", -1), ("max_restarts", 1.5), ("storm_window", 0),
        ("storm_max_restarts", 0),
    ])
    def test_knobs_validated_eagerly(self, knob, bad):
        with pytest.raises(ValueError, match=knob):
            RestartRule(KernelStats(), **{knob: bad})
