"""Simulated interconnect: the cost model for invocations and replies.

The Eden prototype ran on VAXen joined by a 10 Mbit Ethernet (paper §7),
and the paper notes that "the cost of an invocation must inevitably be
higher than that of a system call ... because invocation is
location-independent".  The transport charges virtual time per message:
a cheap local hop when sender and receiver share a node, an expensive
remote hop otherwise, plus a bandwidth term proportional to payload
size.  Benchmarks T3 sweeps these parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.scheduler import Scheduler
from repro.core.stats import KernelStats


#: The counter each kind of message is tallied under.
_SENT_COUNTER = {"invocation": "invocations_sent", "reply": "replies_sent"}


@dataclass(frozen=True)
class TransportCosts:
    """Virtual-time cost parameters for one simulated interconnect.

    Attributes:
        local_latency: per-message cost when both ends share a node
            (roughly "a system call plus a context switch").
        remote_latency: per-message cost across the Ethernet.
        bandwidth: payload bytes moved per unit of virtual time;
            ``None`` models infinite bandwidth (latency only).
    """

    local_latency: float = 1.0
    remote_latency: float = 10.0
    bandwidth: float | None = None

    def message_cost(self, size: int, remote: bool) -> float:
        """Virtual time consumed by one message of ``size`` bytes."""
        latency = self.remote_latency if remote else self.local_latency
        if self.bandwidth is None or size == 0:
            return latency
        return latency + size / self.bandwidth


class Transport:
    """Delivers messages with simulated latency and counts traffic.

    The transport is deliberately dumb: it does not know about UIDs or
    Ejects, only about opaque delivery callbacks and whether a hop
    crosses nodes.  The kernel supplies both.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        costs: TransportCosts | None = None,
        stats: KernelStats | None = None,
    ) -> None:
        self._scheduler = scheduler
        self.costs = costs or TransportCosts()
        self._stats = stats or scheduler.stats

    def send(
        self,
        size: int,
        remote: bool,
        deliver: Callable[..., None],
        kind: str = "message",
        args: tuple = (),
    ) -> float:
        """Queue a message for delivery; returns its virtual latency.

        Args:
            size: modelled payload bytes (feeds the bandwidth term); the
                kernel passes 0 unless :attr:`TransportCosts.bandwidth`
                charges for bytes.
            remote: whether the hop crosses simulated nodes.
            deliver: called with ``*args`` when the message arrives.
            kind: stats label — ``"invocation"`` or ``"reply"``.
            args: what to deliver (typically just the message).
        """
        cost = self.costs.message_cost(size, remote)
        counters = self._stats.counters
        counters["remote_messages" if remote else "local_messages"] += 1
        counters[_SENT_COUNTER.get(kind) or f"{kind}s_sent"] += 1
        if size:
            counters["bytes_transferred"] += size
        self._scheduler.schedule_event(cost, deliver, args)
        return cost
