"""One stage plan: the JSON form every spawned process reads.

``StageConfig.to_dict`` / ``from_dict`` are the only description of a
stage on disk: ``eden-stage --plan-file`` holds one, an ``eden-host``
plan a list.  A plan file is outside input, so a malformed one is a
``ValueError`` naming the key, and both CLIs exit 1 with that line.
The frozen benchmark harness still plans with ``plan_linear_fleet`` and
reads each stage back through ``config_from_args(plan.argv)``.
"""

import json
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker import host as eden_host
from repro.fault.plan import FAULT_ACTIONS, FaultPlan, FrameFault
from repro.net import stage as eden_stage
from repro.net.framing import CODECS
from repro.net.launch import IDENTITY, plan_linear_fleet
from repro.net.stage import DISCIPLINES, ROLES, StageConfig, config_from_args
from repro.obs.flightmode import FLIGHT_MODES
from repro.transput.flow import FlowPolicy

# -- the round trip ----------------------------------------------------------

def maybe(strategy):
    return st.none() | strategy


words = st.text(alphabet=string.ascii_lowercase + "-_:.", min_size=1,
                max_size=12)
small = st.integers(min_value=1, max_value=64)
ports = st.integers(min_value=1, max_value=65535)

flows = st.builds(
    FlowPolicy, lookahead=st.integers(0, 8), batch=small,
    buffer_capacity=maybe(small), inbox_capacity=maybe(small),
    credit_window=maybe(small), pipeline_depth=maybe(small),
)
frame_faults = st.one_of(*(
    st.builds(FrameFault, action=st.sampled_from(FAULT_ACTIONS),
              frame=maybe(st.sampled_from(["data", "read", "write"])),
              delay_ms=st.sampled_from([2.5, 10.0]),
              chan=maybe(st.integers(0, 9)), **{schedule: small})
    for schedule in ("nth", "every")
))
faults = st.builds(
    FaultPlan, kill_after=maybe(small), refuse_accepts=st.integers(0, 3),
    frame_faults=st.lists(frame_faults, max_size=2).map(tuple),
)
role_disciplines = st.sampled_from([
    (role, discipline) for role in ROLES for discipline in DISCIPLINES
    if role != "pipe" or discipline == "conventional"
])
peers = maybe(words | st.tuples(words, ports))
records = st.lists(st.text(alphabet=string.printable, max_size=8), max_size=4)


@st.composite
def stage_configs(draw):
    role, discipline = draw(role_disciplines)
    return StageConfig(
        role=role, discipline=discipline, name=draw(maybe(words)),
        host=draw(words), listen_port=draw(maybe(ports)),
        upstream=draw(peers), downstream=draw(peers), channel=draw(words),
        transducer_spec=draw(maybe(words)),
        transducer_args=draw(st.lists(words | st.integers(), max_size=3)),
        source_items=draw(maybe(records)), flow=draw(flows),
        ticket_space=draw(st.integers(0, 2**31)),
        ticket_seed=draw(st.integers(0, 2**31)),
        serial=draw(st.integers(0, 1000)), stats_file=draw(maybe(words)),
        trace_file=draw(maybe(words)),
        connect_deadline=draw(st.floats(0.1, 120.0)),
        control_port=draw(maybe(ports)), fault=draw(faults),
        resume=draw(st.booleans()),
        io_timeout=draw(maybe(st.floats(0.1, 60.0))),
        codec=draw(st.sampled_from(CODECS)), shard=draw(maybe(small)),
        flight_dir=draw(maybe(words)),
        flight_mode=draw(st.sampled_from(sorted(FLIGHT_MODES))),
    )


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(stage_configs())
    def test_json_round_trip_is_lossless(self, config):
        assert StageConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))) == config

    def test_flow_is_stored_field_for_field(self):
        # Not the derived credit_window / pipeline_depth describe() shows.
        config = StageConfig(role="sink", discipline="readonly",
                             flow=FlowPolicy(batch=4))
        assert config.to_dict()["flow"]["credit_window"] is None
        assert StageConfig.from_dict(config.to_dict()).flow == \
            FlowPolicy(batch=4)

    def test_missing_keys_take_the_dataclass_defaults(self):
        assert StageConfig.from_dict({"role": "sink",
                                      "discipline": "writeonly"}) == \
            StageConfig(role="sink", discipline="writeonly")


# -- malformed plans ---------------------------------------------------------

GOOD = {"role": "filter", "discipline": "readonly", "listen_port": 9000,
        "upstream": ["127.0.0.1", 9001]}

MALFORMED = {
    "unknown key": ({**GOOD, "expected_clients": 1}, "expected_clients"),
    "port as a string": ({**GOOD, "listen_port": "9000"}, "listen_port"),
    "batch as a list": ({**GOOD, "flow": {"batch": [1]}}, "flow.batch"),
    "unknown flow key": ({**GOOD, "flow": {"window": 2}}, "flow.window"),
    "missing role": ({"discipline": "readonly"}, "role"),
    "bool for an int": ({**GOOD, "serial": True}, "serial"),
    "peer pair of three": ({**GOOD, "upstream": ["h", 1, 2]}, "upstream"),
    "port in a peer as text": ({**GOOD, "upstream": ["h", "1"]}, "upstream"),
    "fault of the wrong shape": ({**GOOD, "fault": {"kill_after": "x"}},
                                 "fault"),
    "not an object": (["filter"], "StageConfig"),
}


class TestMalformedPlans:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_a_malformed_stage_plan_names_its_key(self, case):
        data, key = MALFORMED[case]
        with pytest.raises(ValueError, match=key.replace(".", r"\.")):
            StageConfig.from_dict(data)

    def test_eden_stage_exits_1_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "bad.plan.json"
        path.write_text(json.dumps({**GOOD, "listen_port": "9000"}))
        assert eden_stage.main(["--plan-file", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("eden-stage: ValueError: ")
        assert "listen_port" in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("data, key", [
        ({"broker_host": "127.0.0.1", "broker_port": 1, "stages": [],
          "output_file": "x"}, "output_file"),
        ({"broker_host": "127.0.0.1", "broker_port": "1", "stages": []},
         "broker_port"),
        ({"broker_host": "127.0.0.1", "broker_port": 1,
          "stages": [{"discipline": "readonly", "name": "sink"}]}, "role"),
        ({"broker_host": "127.0.0.1", "stages": []}, "broker_port"),
    ])
    def test_eden_host_exits_1_with_one_line(self, tmp_path, capsys, data,
                                             key):
        path = tmp_path / "bad.plan.json"
        path.write_text(json.dumps(data))
        assert eden_host.main(["--plan-file", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("eden-host: ValueError: ")
        assert key in err
        assert "Traceback" not in err and err.count("\n") == 1


# -- the frozen harness's calls ---------------------------------------------


@pytest.mark.parametrize("discipline", ["readonly", "writeonly"])
def test_frozen_harness_plans_read_back_as_at_the_parent(tmp_path,
                                                         discipline):
    """``config_from_args(plan.argv)`` over ``plan_linear_fleet`` gives
    the field values the argv format gave, ports aside (drawn fresh)."""
    records = ["r1", "r2"]
    flow = FlowPolicy(batch=32, pipeline_depth=8)
    plans = plan_linear_fleet(discipline, [IDENTITY] * 3, str(tmp_path),
                              source_items=records, flow=flow, codec="binary")
    configs = [config_from_args(plan.argv) for plan in plans]
    roles = ["source", "filter", "filter", "filter", "sink"]
    assert [config.role for config in configs] == roles
    for serial, (config, role) in enumerate(zip(configs, roles)):
        expected = StageConfig(
            role=role, discipline=discipline, name=config.name,
            listen_port=config.listen_port, upstream=config.upstream,
            downstream=config.downstream,
            transducer_spec=IDENTITY[0] if role == "filter" else None,
            source_items=records if role == "source" else None,
            flow=flow, serial=serial, codec="binary",
            stats_file=str(tmp_path / f"stage-{serial}-{role}.stats.json"),
        )
        assert config == expected
    # The wiring: each active end dials its neighbour's listener.
    listening = [("127.0.0.1", c.listen_port) if c.listen_port else None
                 for c in configs]
    if discipline == "readonly":
        assert [c.upstream for c in configs] == [None] + listening[:-1]
        assert all(c.downstream is None for c in configs)
        assert listening[-1] is None
    else:
        assert [c.downstream for c in configs] == listening[1:] + [None]
        assert all(c.upstream is None for c in configs)
        assert listening[0] is None
    assert all(port for port in listening if port) and len(
        {port for port in listening if port}) == len(configs) - 1


def test_every_stage_reads_one_plan_file(tmp_path):
    plans = plan_linear_fleet("conventional", [IDENTITY], str(tmp_path),
                              source_items=["a"], faults={1: FaultPlan(
                                  kill_after=2)})
    for plan in plans:
        assert plan.argv == ("--plan-file", plan.plan_file)
        with open(plan.plan_file, encoding="utf-8") as handle:
            assert json.load(handle) == plan.plan
        config = StageConfig.from_dict(plan.plan)
        assert (config.role, config.serial, config.fault) == (
            plan.role, plan.serial, plan.fault)
    assert [StageConfig.from_dict(plan.plan).name for plan in plans] == [
        "source", "filter1", "sink", "pipe0", "pipe1"]
