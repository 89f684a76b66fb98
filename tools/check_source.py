#!/usr/bin/env python3
"""Check the source tree's design invariants: one implementation per concept.

Each rule refuses a second implementation the project has already
deleted, the moment it is written back: a forked code path, a second
builder, a wrapper, a knob.  A rule names the concept it protects and
the commit that established it (``git show <commit>`` shows what went).
Run from anywhere::

    python tools/check_source.py [--list]

Each finding prints as ``rule: path:line: text`` and the exit status is
1 if there is any; ``--list`` prints the rules instead.

Text rules read every file under their paths (``__pycache__`` holds
compiled copies, not sources, and is skipped), line by line, as the
``grep`` guards they replace did.  Three rules are AST queries over
``*.py``: ``unused-imports`` (pyflakes' F401, which CI's ruff also
runs), ``shell-wires-no-ejects``, ``one-route-selector`` and
``one-listener``.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: What CI's lint job checks.
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples", "tools")


class Tree:
    """The files under one repository root, each read at most once."""

    def __init__(self, root: pathlib.Path = ROOT) -> None:
        self.root = pathlib.Path(root)
        self._lines: dict[str, list[str]] = {}

    def files(self, path: str, suffix: str = "") -> list[str]:
        """Root-relative paths of the files under ``path`` (a file or a
        directory; a missing one has none)."""
        base = self.root / path
        if base.is_file():
            found = [base]
        elif base.is_dir():
            found = sorted(
                file for file in base.rglob("*")
                if file.is_file() and "__pycache__" not in file.parts
            )
        else:
            found = []
        return [file.relative_to(self.root).as_posix() for file in found
                if file.name.endswith(suffix)]

    def lines(self, path: str) -> list[str]:
        if path not in self._lines:
            text = (self.root / path).read_text(errors="replace")
            self._lines[path] = text.splitlines()
        return self._lines[path]

    def text(self, path: str) -> str:
        return "\n".join(self.lines(path)) + "\n"

    def matches(self, pattern: str, paths: Iterable[str]) -> Iterator[str]:
        """``path:line: text`` for every line under ``paths`` that
        ``pattern`` matches (``grep -rnE``)."""
        regex = re.compile(pattern)
        for path in paths:
            for file in self.files(path):
                for number, line in enumerate(self.lines(file), 1):
                    if regex.search(line):
                        yield f"{file}:{number}: {line.strip()}"


Check = Callable[[Tree], list[str]]


@dataclass(frozen=True)
class Rule:
    name: str
    #: The commit that deleted the second implementation.
    since: str
    protects: str
    check: Check


def forbid(pattern: str, *paths: str) -> Check:
    """No line under ``paths`` matches ``pattern``."""
    return lambda tree: list(tree.matches(pattern, paths))


def only_in(pattern: str, path: str, *owners: str) -> Check:
    """The files under ``path`` matching ``pattern`` are ``owners``."""
    def check(tree: Tree) -> list[str]:
        found = list(tree.matches(pattern, [path]))
        files = {line.split(":", 1)[0] for line in found}
        if files == set(owners):
            return []
        return [f"{path}: expected only in {', '.join(owners)}", *found]
    return check


def once(pattern: str, path: str) -> Check:
    """Exactly one line under ``path`` matches ``pattern``."""
    def check(tree: Tree) -> list[str]:
        found = list(tree.matches(pattern, [path]))
        if len(found) == 1:
            return []
        return [f"{path}: expected in exactly one line, found "
                f"{len(found)}", *found]
    return check


def undecorated(class_name: str, decorator: str, path: str) -> Check:
    """``class_name`` carries no ``decorator`` (``grep -B1``: the line
    before the ``class`` line, or that line itself)."""
    def check(tree: Tree) -> list[str]:
        found = []
        for file in tree.files(path):
            lines = tree.lines(file)
            for index, line in enumerate(lines):
                if re.match(rf"class {class_name}\b", line) and any(
                        decorator in seen for seen in lines[max(0, index - 1):index + 1]):
                    found.append(f"{file}:{index + 1}: {line.strip()}")
        return found
    return check


# -- unused imports (pyflakes' F401) ------------------------------------------

def _imports(tree: ast.Module) -> Iterator[tuple[int, str, str]]:
    """``(line, bound name, name as reported)`` per import binding."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname == alias.name:
                    continue
                bound = alias.asname or alias.name.partition(".")[0]
                yield node.lineno, bound, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                yield node.lineno, alias.asname or alias.name, alias.name


def _loaded(tree: ast.AST) -> Iterator[str]:
    """Every name ``tree`` loads, string annotations included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        annotations: list[ast.AST | None] = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            yield from _string_annotation_names(annotation)


def _string_annotation_names(annotation: ast.AST | None) -> Iterator[str]:
    if annotation is None:
        return
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _loaded(parsed)


def _exported(tree: ast.Module) -> Iterator[str]:
    """The string entries of literal ``__all__`` assignments."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    for item in node.value.elts:
                        if isinstance(item, ast.Constant) and isinstance(item.value, str):
                            yield item.value


def unused_imports(source: str, filename: str = "<module>") -> list[tuple[int, str]]:
    """``(line, name)`` for every import ``source`` never uses.

    An imported name counts as used when the module loads it anywhere
    (in any scope), lists it in ``__all__`` or names it inside a string
    annotation.  ``from __future__`` imports and redundant aliases
    (``import x as x``, ``from m import x as x``: the re-export idiom)
    are never reported.
    """
    tree = ast.parse(source, filename=filename)
    used = set(_loaded(tree)) | set(_exported(tree))
    return [(line, shown) for line, bound, shown in _imports(tree)
            if bound not in used]


def no_unused_imports(*paths: str) -> Check:
    def check(tree: Tree) -> list[str]:
        return [f"{file}:{line}: {name!r} imported but unused"
                for path in paths for file in tree.files(path, ".py")
                for line, name in unused_imports(tree.text(file), file)]
    return check


def never_named(names: set[str], path: str) -> Check:
    """No module under ``path`` imports or loads any of ``names``."""
    def check(tree: Tree) -> list[str]:
        found = []
        for file in tree.files(path, ".py"):
            for node in ast.walk(ast.parse(tree.text(file), file)):
                if isinstance(node, ast.alias):
                    named = node.name.rpartition(".")[2]
                elif isinstance(node, ast.Name):
                    named = node.id
                elif isinstance(node, ast.Attribute):
                    named = node.attr
                else:
                    continue
                if named in names:
                    line = getattr(node, "lineno", None) or "?"
                    found.append(f"{file}:{line}: {named}")
        return found
    return check


def one_listener(owner: str, helper: str, *paths: str) -> Check:
    """Under ``paths`` only ``helper`` (a function of ``owner``) calls
    ``.listen(``, and every ``start_server(`` / ``create_server(``
    serves a ``sock=`` it is handed instead of binding one itself."""
    def check(tree: Tree) -> list[str]:
        found = []
        for path in paths:
            for file in tree.files(path, ".py"):
                module = ast.parse(tree.text(file), file)
                allowed = range(0)
                for node in module.body:
                    if file == owner and isinstance(node, ast.FunctionDef) \
                            and node.name == helper:
                        allowed = range(node.lineno, node.end_lineno + 1)
                for node in ast.walk(module):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    name = (func.attr if isinstance(func, ast.Attribute)
                            else getattr(func, "id", None))
                    binds = name in ("start_server", "create_server") and \
                        not any(keyword.arg == "sock"
                                for keyword in node.keywords)
                    if binds or (name == "listen"
                                 and node.lineno not in allowed):
                        text = tree.lines(file)[node.lineno - 1].strip()
                        found.append(f"{file}:{node.lineno}: {text}")
        return found
    return check


def made_only_in(made: str, owner: str, function: str, path: str) -> Check:
    """Under ``path`` every call of ``made`` sits in ``function`` of
    ``owner``, which calls it, and only one function is so named."""
    def check(tree: Tree) -> list[str]:
        found, owners = [], []
        for file in tree.files(path, ".py"):
            module = ast.parse(tree.text(file), file)
            allowed = range(0)
            for node in ast.walk(module):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and node.name == function:
                    owners.append(f"{file}:{node.lineno}: def {function}")
                    if file == owner:
                        allowed = range(node.lineno, node.end_lineno + 1)
            calls = [node.lineno for node in ast.walk(module)
                     if isinstance(node, ast.Call)
                     and getattr(node.func, "id", None) == made]
            found += [f"{file}:{line}: {tree.lines(file)[line - 1].strip()}"
                      for line in calls if line not in allowed]
            if file == owner and not any(line in allowed for line in calls):
                found.append(f"{owner}: {function} makes no {made}")
        if len(owners) != 1:
            found.append(f"{path}: expected one {function}, found "
                         f"{len(owners)}")
            found += owners
        return found
    return check


RULES = [
    Rule("no-speed-twins", "2c15497",
         "one implementation per concept: no *_legacy / *_slow / *_fast twin",
         forbid(r"def \w+_(legacy|slow|fast)\b", "src")),
    Rule("one-shard-path-one-result", "16ff36b",
         "sharding is the graph runner's parallel block; GraphResult is the "
         "one result class",
         forbid(r"def \w*sharded\w*|class PipelineResult\b", "src")),
    Rule("no-second-frame-reader", "f869bf2",
         "one frame protocol reads frames, and no run-time autotuner",
         forbid(r"BufferedFrameReader|SocketFrameReader|FlowAutotuner", "src")),
    Rule("no-readexactly", "afe13dd",
         "the packages that read sockets read them through FrameProtocol",
         forbid(r"readexactly", "src/repro/net", "src/repro/broker",
                "src/repro/obs", "src/repro/fault")),
    Rule("no-read-frame", "afe13dd",
         "one frame receiver: no read_frame / read_frame_sized, no "
         "transport read-size cap",
         forbid(r"\bread_frame(_sized)?\b|cap_transport_reads", "src")),
    Rule("one-stage-runtime", "745f077",
         "a hosted stage is net.stage's, restarted by the one RestartRule "
         "with no backoff knobs beside it",
         forbid(r"_run_incarnation|_serve_accepts|_hosted_readable|"
                r"_hosted_writable|restart_backoff|backoff_base|backoff_max",
                "src")),
    Rule("broker-serves-no-link", "745f077",
         "the broker serves and admits no link itself",
         forbid(r"\b(serve_pull|serve_push|expect_hello_over)\(",
                "src/repro/broker")),
    Rule("one-stage-description", "9afc30f",
         "every spawned process reads StageConfigs from one JSON plan file: "
         "no argv flag table, no hosted spec class, no argv surgery",
         forbid(r"HostedStageSpec|survivor_argv|--source-json|--source-count",
                "src")),
    Rule("endpoint-counts-its-invocations", "65be5ce",
         "the aio endpoint that answers an invocation counts it; no "
         "counting wrapper between two stages",
         forbid(r"_Counting(Readable|Writable)", "src")),
    Rule("transfer-is-a-tuple", "65be5ce",
         "a Transfer is a plain tuple value, not a dataclass",
         undecorated("Transfer", "dataclass", "src")),
    Rule("one-fleet-json-writer", "9afc30f",
         "net.launch is the one module that writes fleet.json",
         only_in(r'"fleet\.json"', "src/repro", "src/repro/net/launch.py")),
    Rule("launch-reads-no-text", "a3e9174",
         "a fleet's ends run in the driver's loop, so stage output never "
         "round-trips through text",
         forbid(r"\.splitlines\(\)", "src/repro/net/launch.py")),
    Rule("one-incarnation-loop", "a3e9174",
         "a stage sharing its process restarts through the one in-loop "
         "incarnation loop",
         once(r"def supervise_incarnations\b", "src/repro")),
    Rule("one-injected-kill-handler", "a3e9174",
         "only the incarnation loop catches an InjectedKill",
         only_in(r"except \(?InjectedKill\b", "src/repro",
                 "src/repro/net/stage.py")),
    Rule("no-popen", "ac1ca16",
         "nothing in the package execs a program: the zygote forks stages",
         forbid(r"subprocess\.Popen\(", "src/repro")),
    Rule("only-the-zygote-forks", "ac1ca16",
         "the zygote is the only code that forks",
         only_in(r"os\.fork\(", "src/repro", "src/repro/net/zygote.py")),
    Rule("no-poll-no-stdin-plan", "ac1ca16",
         "the supervisor wakes on the zygote's exit reports, never on a "
         "poll interval, and no stage reads its plan from stdin",
         forbid(r"_POLL_S|json\.load\(sys\.stdin\)", "src/repro/net")),
    Rule("no-cpu-pinning", "fedf359",
         "every process runs where the OS scheduler puts it",
         forbid(r"sched_setaffinity|placement_policy|pin_to_core|"
                r"assign_cores", "src")),
    Rule("one-run-per-graph", "ced7540",
         "the graph runner makes one supervised run per graph, not one per "
         "segment",
         forbid(r"run_segment", "src/repro/api")),
    Rule("one-graph-runner", "7dc7041",
         "every runtime and placement runs a program through the same "
         "boundary wiring: no block planner, fleet or hand routing beside it",
         forbid(r"def _plan_block|\brun_fleet\(|\b(partition|join)_records\(",
                "src/repro/api/execute.py")),
    Rule("unused-imports", "e1cc9fb",
         "no module imports a name it never uses (ruff's F401)",
         no_unused_imports(*DEFAULT_PATHS)),
    Rule("shell-wires-no-ejects", "b916637",
         "the shell composes through transput.pipeline.compose_segment and "
         "never builds a filter or pipe Eject itself",
         never_named({"ReadOnlyFilter", "WriteOnlyFilter",
                      "ConventionalFilter", "PassiveBuffer"},
                     "src/repro/shell")),
    Rule("one-lazy-aio-stage", "b916637",
         "one lazy read-only stage over asyncio (AioReadOnlyStage); no "
         "second multi-channel copy",
         forbid(r"AioReportingStage|ChannelReader", "src")),
    Rule("one-route-selector", "d360731",
         "whether a same-host route streams by direct calls or by frames "
         "is decided in one function of the stage host, once per route",
         made_only_in("_DirectRoute", "src/repro/broker/host.py",
                      "_direct_route", "src/repro")),
    Rule("one-listener", "a9ec260",
         "one helper makes every listening socket of the wire runtime and "
         "the broker, IPPROTO_TCP included (asyncio turns Nagle off only "
         "on a socket that says it is TCP)",
         one_listener("src/repro/net/protocol.py", "listen_socket",
                      "src/repro/net", "src/repro/broker")),
]


def findings(root: pathlib.Path = ROOT,
             rules: Iterable[Rule] = RULES) -> list[str]:
    """One ``rule: finding`` line per violation under ``root``."""
    tree = Tree(root)
    return [f"{rule.name}: {line}" for rule in rules
            for line in rule.check(tree)]


def main(argv: list[str], root: pathlib.Path = ROOT) -> int:
    if argv == ["--list"]:
        for rule in RULES:
            print(f"{rule.name:34} {rule.since:8} {rule.protects}")
        return 0
    if argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_source.py [--list]", file=sys.stderr)
        return 2
    lines = findings(root)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
