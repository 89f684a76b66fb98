"""Declarative fault plans: what should go wrong, where, and when.

A :class:`FaultPlan` travels from the orchestrator to a stage as JSON
(the ``fault`` of the stage's plan file), so chaos experiments are
fully scripted from one place — :func:`repro.net.launch.pipeline_configs`
assigns plans per stage, the supervisor strips the one-shot faults on restart,
and the chaos proxy (:mod:`repro.fault.chaos`) applies the same plans
to a link instead of a stage.  :class:`RestartRule` decides whether,
and after what backoff, a crashed stage comes back — the one rule of
both supervisors.

Every field is validated eagerly: a malformed plan raises
:class:`FaultError` at construction, never silently defaults — the
same contract as :class:`repro.transput.flow.FlowPolicy`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.core.errors import EdenError

__all__ = [
    "FAULT_ACTIONS",
    "KILLED_EXIT_CODE",
    "FaultError",
    "FrameFault",
    "FaultPlan",
    "InjectedKill",
    "RestartRefused",
    "RestartRule",
]

#: The frame-level misbehaviours a fault can inflict.
FAULT_ACTIONS = ("drop", "duplicate", "delay", "corrupt")

#: Exit code of a stage crashed by a ``kill_after`` fault, so the
#: supervisor's diagnosis can tell an injected crash from a real bug.
KILLED_EXIT_CODE = 73


class FaultError(EdenError):
    """A fault plan was malformed or could not be applied."""


class InjectedKill(BaseException):
    """A ``kill_after`` fault tripped in a stage that shares its process.

    It ends the stage's incarnation, not the process (a stage host's
    stages, a fleet's in-loop ends).  A ``BaseException``, so an
    ``except Exception`` recovery path cannot swallow a scheduled
    crash: the same reason a stage process dies by ``os._exit``.
    """


@dataclass(frozen=True)
class FrameFault:
    """One frame-level fault rule.

    Attributes:
        action: one of :data:`FAULT_ACTIONS`.
        frame: frame-type name to match (``"data"``, ``"write"``, ...),
            lower-case; ``None`` matches every data-path frame.
        nth: fire on the nth matching frame only (1-based, one-shot).
        every: fire on every ``every``-th matching frame (periodic).
        delay_ms: added latency for ``delay`` actions.
        chan: logical-channel id to match (multiplexed links only);
            ``None`` matches frames on any channel, including
            un-multiplexed connections.  Lets a chaos plan target one
            stream out of the hundreds sharing a broker connection.
    """

    action: str
    frame: str | None = None
    nth: int | None = None
    every: int | None = None
    delay_ms: float = 0.0
    chan: int | None = None

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise FaultError(
                f"action must be one of {FAULT_ACTIONS}, got {self.action!r}"
            )
        if self.frame is not None and (
            not isinstance(self.frame, str) or not self.frame
        ):
            raise FaultError(f"frame must be a frame-type name, got {self.frame!r}")
        if (self.nth is None) == (self.every is None):
            raise FaultError(
                "give exactly one of nth (one-shot) or every (periodic); "
                f"got nth={self.nth!r} every={self.every!r}"
            )
        for name in ("nth", "every"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or value < 1):
                raise FaultError(f"{name} must be an integer >= 1, got {value!r}")
        if not isinstance(self.delay_ms, (int, float)) or self.delay_ms < 0:
            raise FaultError(f"delay_ms must be >= 0, got {self.delay_ms!r}")
        if self.action == "delay" and self.delay_ms == 0:
            raise FaultError("a delay fault needs delay_ms > 0")
        if self.chan is not None and (
            not isinstance(self.chan, int) or self.chan < 0
        ):
            raise FaultError(
                f"chan must be an integer >= 0, got {self.chan!r}"
            )

    def matches(self, frame_name: str, count: int,
                chan: int | None = None) -> bool:
        """Should this rule fire for the ``count``-th matching frame?

        ``chan`` is the logical channel the frame travels on (``None``
        off a multiplexed link); a rule pinned to a channel never
        fires elsewhere.
        """
        if self.frame is not None and self.frame != frame_name.lower():
            return False
        if self.chan is not None and self.chan != chan:
            return False
        if self.nth is not None:
            return count == self.nth
        return self.every is not None and count % self.every == 0

    def as_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"action": self.action}
        if self.frame is not None:
            data["frame"] = self.frame
        if self.nth is not None:
            data["nth"] = self.nth
        if self.every is not None:
            data["every"] = self.every
        if self.delay_ms:
            data["delay_ms"] = self.delay_ms
        if self.chan is not None:
            data["chan"] = self.chan
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FrameFault":
        unknown = set(data) - {"action", "frame", "nth", "every",
                               "delay_ms", "chan"}
        if unknown:
            raise FaultError(f"unknown FrameFault fields: {sorted(unknown)}")
        return cls(
            action=data.get("action", ""),
            frame=data.get("frame"),
            nth=data.get("nth"),
            every=data.get("every"),
            delay_ms=data.get("delay_ms", 0.0),
            chan=data.get("chan"),
        )


@dataclass(frozen=True)
class FaultPlan:
    """Everything that should go wrong for one stage (or one link).

    Attributes:
        kill_after: crash the hosting process (``os._exit`` with
            :data:`KILLED_EXIT_CODE`) once this many records have moved
            through the stage.  One-shot: stripped on restart.
        refuse_accepts: refuse (close without handshake) this many
            incoming connections before behaving.  One-shot.
        frame_faults: frame-level rules applied to outgoing frames.
    """

    kill_after: int | None = None
    refuse_accepts: int = 0
    frame_faults: tuple[FrameFault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kill_after is not None and (
            not isinstance(self.kill_after, int) or self.kill_after < 1
        ):
            raise FaultError(
                f"kill_after must be an integer >= 1, got {self.kill_after!r}"
            )
        if not isinstance(self.refuse_accepts, int) or self.refuse_accepts < 0:
            raise FaultError(
                f"refuse_accepts must be an integer >= 0, got {self.refuse_accepts!r}"
            )
        object.__setattr__(self, "frame_faults", tuple(self.frame_faults))
        for fault in self.frame_faults:
            if not isinstance(fault, FrameFault):
                raise FaultError(f"frame_faults must hold FrameFault, got {fault!r}")

    @property
    def is_benign(self) -> bool:
        """True if the plan injects nothing at all."""
        return (
            self.kill_after is None
            and self.refuse_accepts == 0
            and not self.frame_faults
        )

    def survivor(self) -> "FaultPlan":
        """The plan a *restarted* stage should run under.

        One-shot faults (the kill, the refused accepts, any ``nth``
        frame rule) already fired in the previous incarnation; only the
        periodic frame rules persist across restarts.
        """
        return replace(
            self,
            kill_after=None,
            refuse_accepts=0,
            frame_faults=tuple(
                fault for fault in self.frame_faults if fault.nth is None
            ),
        )

    # -- JSON portability (CLI flag, fleet manifest) ------------------------

    def as_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {}
        if self.kill_after is not None:
            data["kill_after"] = self.kill_after
        if self.refuse_accepts:
            data["refuse_accepts"] = self.refuse_accepts
        if self.frame_faults:
            data["frame_faults"] = [fault.as_dict() for fault in self.frame_faults]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        unknown = set(data) - {"kill_after", "refuse_accepts", "frame_faults"}
        if unknown:
            raise FaultError(f"unknown FaultPlan fields: {sorted(unknown)}")
        faults = data.get("frame_faults", [])
        if not isinstance(faults, (list, tuple)):
            raise FaultError(f"frame_faults must be a list, got {faults!r}")
        return cls(
            kill_after=data.get("kill_after"),
            refuse_accepts=data.get("refuse_accepts", 0),
            frame_faults=tuple(FrameFault.from_dict(item) for item in faults),
        )

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise FaultError(f"undecodable fault plan: {error}") from error
        if not isinstance(data, dict):
            raise FaultError(
                f"fault plan must be a JSON object, got {type(data).__name__}"
            )
        return cls.from_dict(data)


class RestartRefused(EdenError):
    """A crashed member may not restart.

    ``reason`` is ``"budget"`` (the member spent its own restart
    budget) or ``"restart-storm"`` (too many restarts fleet-wide).
    """

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


class RestartRule:
    """Whether a crashed member comes back, and after what backoff.

    The one restart policy of the fleet supervisor (stage processes)
    and of a stage host (the stages it runs).  Each member gets
    ``max_restarts`` restarts.  With ``storm_max_restarts`` set, more
    restarts than that across all members inside a sliding
    ``storm_window`` stop the fleet: a correlated failure (a dead
    broker, a bad deploy) burns every budget at once.  The rule reads
    no clock and sleeps for nobody — callers pass ``now`` and wait out
    the backoff — so a virtual-time loop can drive it.  It counts the
    :attr:`COUNTERS` and a ``backoff_s[<label>]`` gauge into ``stats``.
    """

    #: The backoff before restart ``n`` (0-based) is
    #: ``min(BACKOFF_BASE * 2**n, BACKOFF_MAX)`` seconds.
    BACKOFF_BASE = 0.1
    BACKOFF_MAX = 2.0
    #: What the rule counts, each plain and per ``[<label>]``.
    COUNTERS = ("crashes", "restarts", "injected_kills", "restart_storms")

    def __init__(self, stats: Any, max_restarts: int = 0,
                 storm_window: float = 5.0,
                 storm_max_restarts: int | None = None) -> None:
        if not isinstance(max_restarts, int) or max_restarts < 0:
            raise ValueError(
                f"max_restarts must be an integer >= 0, got {max_restarts!r}"
            )
        if storm_window <= 0:
            raise ValueError(f"storm_window must be > 0, got {storm_window!r}")
        if storm_max_restarts is not None and (
            not isinstance(storm_max_restarts, int) or storm_max_restarts < 1
        ):
            raise ValueError(
                f"storm_max_restarts must be an integer >= 1 or None, got "
                f"{storm_max_restarts!r}"
            )
        self.stats = stats
        self.max_restarts = max_restarts
        self.storm_window = storm_window
        self.storm_max_restarts = storm_max_restarts
        self._restart_times: list[float] = []

    def crashed(self, label: str, restarts: int, now: float,
                killed: bool = False) -> float:
        """Count a crash of ``label``, restarted ``restarts`` times so far.

        Returns the seconds to wait before its next incarnation, or
        raises :class:`RestartRefused`.  ``killed`` marks a crash a
        ``kill_after`` fault injected.
        """
        stats = self.stats
        stats.bump("crashes")
        stats.bump(f"crashes[{label}]")
        if killed:
            stats.bump("injected_kills")
        if restarts >= self.max_restarts:
            raise RestartRefused(
                "budget",
                f"{label} spent its restart budget ({self.max_restarts})",
            )
        delay = min(self.BACKOFF_BASE * 2 ** restarts, self.BACKOFF_MAX)
        stats.bump("restarts")
        stats.bump(f"restarts[{label}]")
        stats.set_gauge(f"backoff_s[{label}]", delay)
        if self.storm_max_restarts is not None:
            horizon = now - self.storm_window
            self._restart_times = [
                t for t in self._restart_times if t >= horizon] + [now]
            if len(self._restart_times) > self.storm_max_restarts:
                stats.bump("restart_storms")
                raise RestartRefused(
                    "restart-storm",
                    f"restart storm: {len(self._restart_times)} restarts "
                    f"across the fleet within {self.storm_window:.1f}s "
                    f"(limit {self.storm_max_restarts}); last crash: {label}",
                )
        return delay
