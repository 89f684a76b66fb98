"""An interactive REPL over the pipeline shell.

Run with ``python -m repro.shell``.  Reads command lines, executes them
against one long-lived simulated kernel, and prints results.  REPL-only
conveniences (not part of the shell language): ``help``, ``env``,
``stats``, ``exit``.
"""

from __future__ import annotations

import sys
from typing import IO

from repro.core.errors import EdenError
from repro.shell.builtins import BUILTINS
from repro.shell.interpreter import Shell, ShellResult

PROMPT = "eden$ "

HELP = """\
The Eden pipeline shell (SOSP'83 asymmetric stream transput).

  NAME = echo WORD...              define a literal source
  NAME | FILTER ARGS | ... [> OUT] run a pipeline
  ... Report> WIN                  redirect a channel (the 'n>' syntax)
  set discipline readonly|writeonly|conventional
  set batch N | set lookahead N    records per invocation / read ahead
  show NAME                        print a binding
  env                              list bindings
  stats                            kernel counters so far
  help                             this text
  exit                             leave

Filters: {filters}
"""


def render_result(result: ShellResult, out: IO[str]) -> None:
    """Print one pipeline result the way a shell prints stdout."""
    for item in result.output:
        print(item, file=out)
    extras = []
    if result.redirected:
        extras.append("redirected: " + ", ".join(sorted(result.redirected)))
    extras.append(f"{result.invocations} invocations")
    extras.append(result.discipline)
    print(f"[{'; '.join(extras)}]", file=out)


def run_repl(
    lines: IO[str] | None = None,
    out: IO[str] | None = None,
    shell: Shell | None = None,
    prompt: bool = True,
) -> Shell:
    """Drive the REPL from ``lines`` (default stdin) to ``out``.

    Returns the shell so callers (and tests) can inspect the session.
    """
    lines = lines if lines is not None else sys.stdin
    out = out if out is not None else sys.stdout
    shell = shell or Shell()

    while True:
        if prompt:
            print(PROMPT, end="", file=out, flush=True)
        raw = lines.readline()
        if not raw:
            break
        line = raw.strip()
        if not line:
            continue
        if line in ("exit", "quit"):
            break
        if line == "help":
            print(HELP.format(filters=", ".join(sorted(BUILTINS))), file=out)
            continue
        if line == "env":
            for name in sorted(shell.env):
                print(f"{name} ({len(shell.env[name])} lines)", file=out)
            continue
        if line == "stats":
            for name in shell.kernel.stats.names():
                print(f"{name:24s} {shell.kernel.stats.get(name)}", file=out)
            continue
        try:
            results = shell.execute(line)
        except EdenError as error:
            print(f"error: {error}", file=out)
            continue
        for result in results:
            if result is None:
                continue
            if isinstance(result, list):  # show
                for item in result:
                    print(item, file=out)
            else:
                render_result(result, out)
    return shell


def main() -> None:
    """Console entry point."""
    print("Eden pipeline shell — 'help' for help, 'exit' to leave.")
    run_repl()


if __name__ == "__main__":  # pragma: no cover
    main()
