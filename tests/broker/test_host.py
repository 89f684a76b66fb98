"""In-process tests of the eden-host stage runtime.

One event loop carries the broker *and* a :class:`StageHost` running
a whole pipeline: stages register by name, open channels the broker
issues and the host splices, and the host's in-process supervision
restarts a crashed stage without touching its neighbours.
"""

import asyncio
import dataclasses
import json
import time

import pytest

from repro.fault.plan import FaultPlan
from repro.net.handshake import ROLE_PULL, ROLE_PUSH, TicketBook
from repro.net.protocol import WireError
from repro.broker.daemon import Broker, FIRST_STAGE_SERIAL
from repro.net.stage import StageConfig
from repro.broker.host import HostConfig, HostError, StageHost
from repro.net.stage import serves_roles

BOOK_ARGS = dict(space=5, seed=21)
ITEMS = ["pearl", "coral", "amber", "jade"]
UPPER = "repro.filters:upper_case"


def run(coroutine):
    return asyncio.run(coroutine)


def pipeline_stages(discipline, faults=None, transducer=UPPER,
                    items=ITEMS, **stage_options):
    """source -> filter1 -> sink, peers named as the broker knows them."""
    faults = faults or {}
    pull = discipline == "readonly"
    common = dict(discipline=discipline, ticket_space=BOOK_ARGS["space"],
                  ticket_seed=BOOK_ARGS["seed"], connect_deadline=5.0,
                  **stage_options)
    return [
        StageConfig(name="source", role="source", source_items=list(items),
                    downstream=None if pull else "filter1",
                    fault=faults.get("source", FaultPlan()), **common),
        StageConfig(name="filter1", role="filter", transducer_spec=transducer,
                    upstream="source" if pull else None,
                    downstream=None if pull else "sink",
                    fault=faults.get("filter1", FaultPlan()), **common),
        StageConfig(name="sink", role="sink",
                    upstream="filter1" if pull else None,
                    fault=faults.get("sink", FaultPlan()), **common),
    ]


async def hosted_run(discipline, faults=None, max_restarts=0,
                     **stage_options):
    broker = Broker(TicketBook(**BOOK_ARGS))
    await broker.start()
    config = HostConfig(
        broker_host=broker.host, broker_port=broker.port,
        stages=pipeline_stages(discipline, faults, **stage_options),
        max_restarts=max_restarts,
    )
    host = StageHost(config)
    try:
        await asyncio.wait_for(host.run(), timeout=60.0)
    finally:
        await broker.close()
    return broker, host


def sink_output(host):
    return next(
        stage.collected for stage in host.stages
        if stage.config.role == "sink"
    )


class TestHostedPipelines:
    @pytest.mark.parametrize("discipline", ["readonly", "writeonly"])
    def test_pipeline_completes_through_the_broker(self, discipline):
        broker, host = run(hosted_run(discipline))
        assert sink_output(host) == [item.upper() for item in ITEMS]
        # The broker issued every link and the host spliced each one:
        # nothing bound a data port, and nothing crossed the relay.
        assert host.stats.get("mux_frames_spliced") > 0
        assert broker.stats.get("relayed_frames") == 0
        assert broker.stats.get("registrations") == 3

    def test_stages_get_broker_minted_serials_and_uids(self):
        _broker, host = run(hosted_run("readonly"))
        serials = [stage.serial for stage in host.stages]
        assert serials == [FIRST_STAGE_SERIAL + i for i in range(3)]
        book = TicketBook(**BOOK_ARGS)
        for stage in host.stages:
            assert book.verify(stage.uid)
            assert f"#{stage.serial}" in stage.label

    def test_conventional_discipline_refused(self):
        with pytest.raises(ValueError, match="conventional|readonly"):
            HostConfig(
                broker_host="127.0.0.1", broker_port=1,
                stages=pipeline_stages("conventional"),
            )

    def test_duplicate_stage_names_refused(self):
        stages = pipeline_stages("readonly")
        stages[2] = dataclasses.replace(stages[2], name="source")
        with pytest.raises(ValueError, match="unique"):
            HostConfig(
                broker_host="127.0.0.1", broker_port=1, stages=stages,
            )

    @pytest.mark.parametrize("key, value", [
        ("ticket_space", 6), ("ticket_seed", 22), ("discipline", "writeonly"),
    ])
    def test_stages_share_one_book_and_discipline(self, key, value):
        # One host, one ticket book, one label shape.
        stages = pipeline_stages("readonly")
        stages[1] = dataclasses.replace(stages[1], **{key: value})
        with pytest.raises(ValueError, match=key):
            HostConfig(broker_host="127.0.0.1", broker_port=1, stages=stages)

    def test_unnamed_stage_refused(self):
        stages = pipeline_stages("readonly")
        stages[0] = dataclasses.replace(stages[0], name=None)
        with pytest.raises(ValueError, match="name"):
            HostConfig(broker_host="127.0.0.1", broker_port=1, stages=stages)

    def test_addressed_peer_refused(self):
        # The broker resolves names; a hosted stage dials no address.
        stages = pipeline_stages("readonly")
        stages[2] = dataclasses.replace(stages[2],
                                        upstream=("127.0.0.1", 9000))
        with pytest.raises(ValueError, match="name its peers"):
            HostConfig(broker_host="127.0.0.1", broker_port=1, stages=stages)


class TestServesRoles:
    @pytest.mark.parametrize("role,discipline,expected", [
        ("source", "readonly", (ROLE_PULL,)),
        ("filter", "readonly", (ROLE_PULL,)),
        ("sink", "readonly", ()),
        ("source", "writeonly", ()),
        ("filter", "writeonly", (ROLE_PUSH,)),
        ("sink", "writeonly", (ROLE_PUSH,)),
        ("filter", "conventional", ()),
        ("pipe", "conventional", (ROLE_PULL, ROLE_PUSH)),
    ])
    def test_passive_ends_by_role(self, role, discipline, expected):
        assert serves_roles(role, discipline) == expected


class TestInProcessSupervision:
    def test_killed_filter_restarts_and_the_stream_recovers(self):
        faults = {"filter1": FaultPlan(kill_after=3)}
        _broker, host = run(hosted_run(
            "readonly", faults=faults, resume=True,
            max_restarts=2,
        ))
        assert sink_output(host) == [item.upper() for item in ITEMS]
        filter_stage = host.stages[1]
        assert filter_stage.restarts >= 1
        assert filter_stage.state == "done"
        assert host.stats.get("crashes") >= 1
        assert host.stats.get("restarts") >= 1

    def test_spent_restart_budget_fails_the_host(self):
        # With budget 0 the first crash is final and names the stage.
        faults = {"filter1": FaultPlan(kill_after=2)}
        with pytest.raises(HostError, match="filter1.*restart"):
            run(hosted_run(
                "readonly", faults=faults, resume=True,
                max_restarts=0,
            ))

    def test_frame_faults_inject_on_hosted_channels(self):
        from repro.fault.plan import FrameFault

        # The filter's injector duplicates every DATA frame it sends;
        # seq-based dedup keeps delivery exactly-once regardless.
        faults = {"filter1": FaultPlan(frame_faults=[
            FrameFault(action="duplicate", frame="data", every=1),
        ])}
        _broker, host = run(hosted_run(
            "readonly", faults=faults, resume=True,
        ))
        assert sink_output(host) == [item.upper() for item in ITEMS]
        assert host.stats.get("fault_duplicate") >= len(ITEMS)

    def test_refused_accepts_are_retried_by_the_peer(self):
        faults = {"filter1": FaultPlan(refuse_accepts=1)}
        _broker, host = run(hosted_run(
            "readonly", faults=faults, resume=True,
            max_restarts=0,
        ))
        assert sink_output(host) == [item.upper() for item in ITEMS]
        assert host.stats.get("refused_accepts") == 1


class TestBrokerLoss:
    def test_a_lost_broker_fails_the_host_within_its_deadlines(self):
        # The host's broker connection dies mid-stream.  Every hosted
        # reader's redial backs off and gives up at connect_deadline
        # with a typed error; it used to spin the loop forever, since
        # an open on a dead mux fails without ever suspending.
        connect_deadline, io_timeout = 2.0, 1.0

        async def scenario():
            broker = Broker(TicketBook(**BOOK_ARGS))
            await broker.start()
            stages = pipeline_stages(
                "readonly", transducer=None,
                items=[f"r{i}" for i in range(20000)], resume=True,
                io_timeout=io_timeout,
            )
            host = StageHost(HostConfig(
                broker_host=broker.host, broker_port=broker.port,
                stages=[dataclasses.replace(
                    stage, connect_deadline=connect_deadline)
                    for stage in stages],
            ))
            running = asyncio.ensure_future(host.run())
            await asyncio.sleep(0.3)
            await broker.close()
            cut = time.monotonic()
            done, _pending = await asyncio.wait(
                [running], timeout=connect_deadline + io_timeout + 2)
            if not done:
                running.cancel()
                await asyncio.gather(running, return_exceptions=True)
                return None, time.monotonic() - cut
            return running.exception(), time.monotonic() - cut

        error, elapsed = run(scenario())
        assert isinstance(error, (HostError, WireError)), (error, elapsed)
        assert "could not connect" in str(error)
        assert elapsed < connect_deadline + io_timeout + 2


class TestIntrospection:
    def test_control_payloads_describe_the_host(self):
        _broker, host = run(hosted_run("readonly"))
        handlers = host.control_handlers()
        health = handlers["health"]({})
        assert health["role"] == "host"
        assert health["hosted"] == 3
        assert health["states"] == {"done": 3}
        assert sorted(health) == [
            "channels_open", "discipline", "flight", "hosted", "label",
            "role", "serial", "states", "tracing", "uptime_s"]
        stages = handlers["stages"]({})
        assert [row["name"] for row in stages] == ["source", "filter1", "sink"]
        assert all(row["state"] == "done" for row in stages)
        assert all(row["serial"] >= FIRST_STAGE_SERIAL for row in stages)

    def test_host_output_lists_sink_items_in_stage_order(self, capsys):
        _broker, host = run(hosted_run("readonly"))
        host.emit_output()
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(line) for line in lines] == \
            [item.upper() for item in ITEMS]
