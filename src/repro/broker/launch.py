"""Plan a *hosted* fleet: one broker, few host processes, many stages.

:func:`plan_hosted_fleet` is the hosted grouping of the one planner
(:func:`repro.net.launch.pipeline_configs`): the same stage configs
:func:`repro.net.launch.plan_linear_fleet` runs one per process become
:class:`~repro.net.launch.StagePlan` entries the ordinary
:class:`~repro.net.launch.FleetSupervisor` can run — one
``eden-broker`` daemon plus ``hosts`` ``eden-host`` processes, each
hosting a contiguous run of the pipeline's stages over a single
multiplexed broker connection.  Stage-level fault plans, resume,
tracing, and per-position fault addressing are the process
placement's by construction; process count is ``hosts + 1`` regardless
of pipeline length, which is the point.

The broker plan is marked ``daemon=True``: the supervisor terminates
it once every host has drained its streams (the broker dumps its
stats on SIGTERM), and restarts it like a crashed stage if it dies
mid-run.  An attached host does not re-attach: losing its broker
connection hangs up every channel, each hosted stage's redial retries
the broker open on the connect-backoff schedule and fails with a
``WireError`` at ``connect_deadline``, and the host exits with
``HostError`` — a whole-process crash the supervisor restarts against
the restarted broker only if the fleet's restart budget allows.
"""

from __future__ import annotations

import pathlib
from typing import Any, Mapping, Sequence

from repro.fault.plan import FaultPlan
from repro.net.framing import CODEC_JSON
from repro.net.launch import (
    StagePlan,
    TransducerSpec,
    pipeline_configs,
    process_plan,
    write_manifest,
)
from repro.net.stage import pick_free_ports
from repro.transput.flow import FlowPolicy
from repro.broker.daemon import FIRST_HOST_SERIAL, MAX_HOST_SERIAL

__all__ = ["plan_hosted_fleet"]


def plan_hosted_fleet(
    discipline: str,
    transducers: Sequence[TransducerSpec],
    workdir: str,
    source_items: Sequence[Any],
    flow: FlowPolicy | None = None,
    ticket_space: int = 0,
    ticket_seed: int = 0,
    host: str = "127.0.0.1",
    connect_deadline: float = 15.0,
    trace: bool = False,
    control: bool = False,
    faults: Mapping[int, FaultPlan] | None = None,
    resume: bool = False,
    io_timeout: float | None = None,
    codec: str = CODEC_JSON,
    hosts: int = 1,
    broker: str | None = None,
    max_restarts: int = 0,
    park_deadline: float = 10.0,
    flight_dir: str | None = None,
    flight_mode: str = "full",
) -> list[StagePlan]:
    """Plan broker + stage hosts for one pipeline.

    The stages are :func:`~repro.net.launch.pipeline_configs`' — the
    process placement's, ``faults`` by position included (source = 0,
    filters 1..n, sink = n+1) — with their peers left as names for the
    broker to resolve.  ``hosts`` spreads them over that many
    ``eden-host`` processes (contiguous runs, so a cut crosses as few
    links as possible), each reading its per-process fields and its
    run of :class:`~repro.net.stage.StageConfig` dicts from
    ``<workdir>/host-<i>.plan.json``.  ``broker`` as ``"host:port"``
    attaches the fleet to an externally-run broker instead of planning
    one; ``max_restarts`` is each hosted stage's *in-process* restart
    budget (the supervisor's own budget still governs whole
    processes).
    """
    if discipline not in ("readonly", "writeonly"):
        raise ValueError(
            f"hosted placement supports readonly/writeonly, got "
            f"{discipline!r} (conventional needs a pipe process per link)"
        )
    if hosts < 1:
        raise ValueError(f"hosts must be >= 1, got {hosts}")
    if FIRST_HOST_SERIAL + hosts - 1 > MAX_HOST_SERIAL:
        raise ValueError(
            f"at most {MAX_HOST_SERIAL - FIRST_HOST_SERIAL + 1} hosts per "
            f"ticket space, got {hosts}"
        )
    configs = pipeline_configs(
        discipline, transducers, source_items, faults, flow,
        ticket_space=ticket_space, ticket_seed=ticket_seed,
        connect_deadline=connect_deadline, resume=resume,
        io_timeout=io_timeout, codec=codec,
    )
    if hosts > len(configs):
        raise ValueError(
            f"{hosts} hosts for {len(configs)} stages: at most one host "
            f"per stage"
        )
    workpath = pathlib.Path(workdir)
    workpath.mkdir(parents=True, exist_ok=True)

    plans: list[StagePlan] = []
    # One draw for the whole plan, so its ports are distinct: the
    # planned broker's listener, then a control port per process.
    own_broker = 1 if broker is None else 0
    free_ports = iter(pick_free_ports(
        own_broker + (own_broker + hosts if control else 0), host))

    if broker is None:
        broker_host, broker_port = host, next(free_ports)
        broker_stats = str(workpath / "broker.stats.json")
        broker_argv = [
            "--host", broker_host, "--port", str(broker_port),
            "--ticket-space", str(ticket_space),
            "--ticket-seed", str(ticket_seed),
            "--park-deadline", str(park_deadline),
            "--stats-file", broker_stats,
        ]
        if flight_dir is not None:
            broker_argv += ["--flight-dir", flight_dir,
                            "--flight-mode", flight_mode]
        broker_control = None
        if control:
            broker_control = next(free_ports)
            broker_argv += ["--control-port", str(broker_control)]
        plans.append(StagePlan(
            role="broker",
            argv=tuple(broker_argv),
            stats_file=broker_stats,
            control_port=broker_control,
            serial=1,
            stdout_file=str(workpath / "broker.stdout.log"),
            stderr_file=str(workpath / "broker.stderr.log"),
            module="repro.broker.daemon",
            daemon=True,
            listen=(broker_host, broker_port),
        ))
    else:
        broker_host, _sep, port_text = broker.rpartition(":")
        broker_port = int(port_text)
        broker_host = broker_host or "127.0.0.1"

    # Contiguous runs of stages per host, remainder to the early hosts.
    per_host, extra = divmod(len(configs), hosts)
    cursor = 0
    for index in range(hosts):
        take = per_host + (1 if index < extra else 0)
        chunk = configs[cursor:cursor + take]
        cursor += take
        serial = FIRST_HOST_SERIAL + index
        stem = f"host-{index}"
        stats_file = str(workpath / f"{stem}.stats.json")
        trace_file = str(workpath / f"{stem}.trace.jsonl") if trace else None
        control_port = next(free_ports) if control else None
        plans.append(process_plan(
            workpath, stem, {
                "broker_host": broker_host,
                "broker_port": broker_port,
                "serial": serial,
                "max_restarts": max_restarts,
                "stats_file": stats_file,
                "trace_file": trace_file,
                "control_port": control_port,
                "flight_dir": flight_dir,
                "flight_mode": flight_mode,
                "stages": [config.to_dict() for config in chunk],
            },
            role="host", stats_file=stats_file, trace_file=trace_file,
            control_port=control_port, serial=serial,
            module="repro.broker.host",
        ))

    if trace or control:
        write_manifest(
            workpath, plans, discipline=discipline, host=host, resume=resume,
            codec=codec, placement="hosted", flight_dir=flight_dir,
            flight_mode=flight_mode if flight_dir is not None else None,
            broker=f"{broker_host}:{broker_port}",
        )
    return plans
