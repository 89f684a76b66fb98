"""The pipeline shell interpreter.

Executes parsed statements against a simulated Eden kernel.  A
pipeline statement is composed by
:func:`repro.transput.pipeline.compose_segment` — the builder the
graph runner's simulator uses — in the configured discipline, under a
:class:`~repro.transput.flow.FlowPolicy` made of the session's
``batch`` and ``lookahead``, so a statement costs the invocations the
same pipeline costs through :class:`repro.api.Pipeline`.  A channel
redirect adds one sink per redirected channel; the simulation runs to
completion and the collected lines are returned/bound — "dynamically
redirectable stream transput" (§6) driven from a command language.

Example session::

    sh = Shell()
    sh.execute('prog = echo "C comment" "      REAL X"')
    result = sh.execute_one("prog | strip-comments C | number")
    result.output   # ['     1        REAL X']

Channel redirection uses the ``n>`` syntax the paper cites::

    sh.execute_one("prog | report F1 2 | upper Report> win > out")

A redirect names a channel one stage provides, or numbers it: ``n>``
is the n-th channel besides ``Output`` counting every stage's, in stage
order, so ``prog | report A 3 | report B 2 1> a 2> b`` takes A's report
and B's.  A name two stages provide is ambiguous, and an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.kernel import Kernel
from repro.core.errors import ShellNameError, ShellSyntaxError
from repro.shell.ast import (
    AssignStmt,
    PipelineStmt,
    SetStmt,
    ShowStmt,
    Stage,
)
from repro.shell.builtins import build_transducer
from repro.shell.parser import parse_line
from repro.transput.filterbase import OUTPUT, as_reporting
from repro.transput.flow import FlowPolicy
from repro.transput.pipeline import DISCIPLINES, compose_segment, run_until_done
from repro.transput.sink import CollectorSink, PassiveSink
from repro.transput.stream import StreamEndpoint


@dataclass
class ShellResult:
    """The outcome of one pipeline statement."""

    output: list[Any] = field(default_factory=list)
    redirected: dict[str, list[Any]] = field(default_factory=dict)
    invocations: int = 0
    discipline: str = "readonly"

    def lines(self) -> list[str]:
        """The primary output as strings."""
        return [str(item) for item in self.output]


class Shell:
    """A shell session: an environment of named line-lists plus options.

    Args:
        kernel: reuse an existing simulated kernel (default: fresh one).
        discipline: initial transput discipline for pipelines.
    """

    def __init__(
        self, kernel: Kernel | None = None, discipline: str = "readonly"
    ) -> None:
        if discipline not in DISCIPLINES:
            raise ValueError(f"discipline must be one of {DISCIPLINES}")
        self.kernel = kernel or Kernel()
        self.discipline = discipline
        self.batch = 1
        self.lookahead = 0
        self.env: dict[str, list[Any]] = {}
        self.history: list[str] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def define(self, name: str, lines: list[Any]) -> None:
        """Bind ``name`` to a list of lines (a literal source)."""
        self.env[name] = list(lines)

    def execute(self, line: str) -> list[Any]:
        """Run every statement on ``line``; returns one result each.

        Results are :class:`ShellResult` for pipelines, lists for
        ``show``, ``None`` for assignments and ``set``.
        """
        self.history.append(line)
        results: list[Any] = []
        for statement in parse_line(line).statements:
            results.append(self._execute_statement(statement))
        return results

    def execute_one(self, line: str) -> Any:
        """Run a line expected to hold exactly one statement."""
        results = self.execute(line)
        if len(results) != 1:
            raise ShellSyntaxError(
                f"expected one statement, got {len(results)}: {line!r}"
            )
        return results[0]

    def run_script(self, script: str) -> list[Any]:
        """Execute a multi-line script; returns all statement results.

        Blank lines and ``#`` comment lines are skipped.
        """
        results: list[Any] = []
        for line in script.splitlines():
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            results.extend(self.execute(stripped))
        return results

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------

    def _execute_statement(self, statement: Any) -> Any:
        if isinstance(statement, AssignStmt):
            self.define(statement.name, list(statement.words))
            return None
        if isinstance(statement, SetStmt):
            return self._execute_set(statement)
        if isinstance(statement, ShowStmt):
            if statement.name not in self.env:
                raise ShellNameError(f"no binding named {statement.name!r}")
            return list(self.env[statement.name])
        assert isinstance(statement, PipelineStmt)
        return self._execute_pipeline(statement)

    def _execute_set(self, statement: SetStmt) -> None:
        if statement.option == "discipline":
            if statement.value not in DISCIPLINES:
                raise ShellSyntaxError(
                    f"discipline must be one of {DISCIPLINES}, "
                    f"got {statement.value!r}"
                )
            self.discipline = statement.value
            return None
        if statement.option in ("batch", "lookahead"):
            try:
                value = int(statement.value)
            except ValueError:
                raise ShellSyntaxError(
                    f"{statement.option} needs an integer, "
                    f"got {statement.value!r}"
                ) from None
            minimum = 1 if statement.option == "batch" else 0
            if value < minimum:
                raise ShellSyntaxError(
                    f"{statement.option} must be >= {minimum}, got {value}"
                )
            setattr(self, statement.option, value)
            return None
        raise ShellSyntaxError(f"unknown option {statement.option!r}")

    def _source_lines(self, source: Stage) -> list[Any]:
        if source.command == "echo":
            return list(source.args)
        if source.command in self.env:
            if source.args:
                raise ShellSyntaxError(
                    f"source {source.command!r} takes no arguments"
                )
            return list(self.env[source.command])
        raise ShellNameError(
            f"unknown source {source.command!r} (define it with NAME = echo …)"
        )

    def _execute_pipeline(self, statement: PipelineStmt) -> ShellResult:
        lines = self._source_lines(statement.source)
        transducers = [
            as_reporting(build_transducer(stage.command, stage.args))
            for stage in statement.stages
        ]
        channel_redirects = {
            r.channel: r.target for r in statement.redirects if r.channel != ""
        }
        # Every (channel, stage) a redirect can take, in stage order.
        extras = [(channel, index)
                  for index, transducer in enumerate(transducers)
                  for channel in transducer.channels if channel != OUTPUT]
        reports = {
            target: self._resolve_channel(channel, extras, statement.stages)
            for channel, target in channel_redirects.items()
        }
        pipeline = compose_segment(
            self.kernel, self.discipline, lines, transducers,
            flow=FlowPolicy(batch=self.batch, lookahead=self.lookahead),
        )
        report_sinks = {
            target: self._report_sink(pipeline.filters[index], name)
            for target, (name, index) in reports.items()
        }
        stats, _ = run_until_done(
            self.kernel, [pipeline.sink, *report_sinks.values()]
        )
        result = ShellResult(
            output=list(pipeline.sink.collected),
            redirected={
                target: list(sink.collected)
                for target, sink in report_sinks.items()
            },
            invocations=stats["invocations_sent"],
            discipline=self.discipline,
        )
        primary_target = statement.primary_target()
        if primary_target is not None:
            self.env[primary_target] = list(result.output)
            result.redirected[primary_target] = list(result.output)
            result.output = []
        for target in reports:
            self.env[target] = result.redirected[target]
        return result

    def _resolve_channel(
        self, channel: str, extras: list[tuple[str, int]],
        stages: tuple[Stage, ...],
    ) -> tuple[str, int]:
        """Map a redirect channel to one of ``extras``' (name, stage):
        the one stage's channel of that name, or the n-th pair for a
        positional ``n>``."""
        named = [extra for extra in extras if extra[0] == channel]
        if len(named) > 1:
            owners = " and ".join(f"stage {index + 1} ({stages[index]})"
                                  for _name, index in named)
            raise ShellNameError(
                f"channel {channel!r} is provided by {owners}: "
                f"redirect it by position")
        if named:
            return named[0]
        if channel.isdigit() and 0 < int(channel) <= len(extras):
            return extras[int(channel) - 1]
        raise ShellNameError(f"no pipeline stage provides channel {channel!r}")

    def _report_sink(self, stage: Any, channel: str) -> Any:
        """A sink collecting ``stage``'s ``channel`` (paper §5): a
        reader of the channel in the read-only discipline, one more
        output endpoint of the channel (fan-out) in the others."""
        if self.discipline == "readonly":
            return self.kernel.create(
                CollectorSink, inputs=[stage.output_endpoint(channel)],
                batch=self.batch,
            )
        sink = self.kernel.create(PassiveSink)
        stage.connect_output(StreamEndpoint(sink.uid, None), channel)
        return sink
