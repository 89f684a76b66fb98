#!/usr/bin/env python3
"""Report imports that a module never uses (pyflakes' F401).

CI's lint job runs ``ruff check``, whose ``F`` rules include F401; this
runs the same rule with nothing but the standard library, so a test can
catch an unused import before CI does.  Run from anywhere::

    python tools/check_imports.py [PATH ...]

The paths (files or directories, default: ``src tests benchmarks
examples tools``, the directories CI lints) are searched for ``*.py``.
Each finding prints as ``path:line: 'name' imported but unused`` and
the exit status is 1 if there is any.

An imported name counts as used when the module loads it anywhere (in
any scope), lists it in ``__all__`` or names it inside a string
annotation.  ``from __future__`` imports and redundant aliases
(``import x as x``, ``from m import x as x``: the re-export idiom) are
never reported.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Iterable, Iterator

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: What CI's lint job checks.
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples", "tools")


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
    """``(line, name)`` for every import ``source`` never uses."""
    tree = ast.parse(source, filename=filename)
    used = set(_loaded(tree)) | set(_exported(tree))
    return [(line, shown) for line, bound, shown in _imports(tree)
            if bound not in used]


def python_files(paths: Iterable[str | pathlib.Path]) -> Iterator[pathlib.Path]:
    for path in map(pathlib.Path, paths):
        if not path.is_absolute():
            path = ROOT / path
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def findings(paths: Iterable[str | pathlib.Path] = DEFAULT_PATHS) -> list[str]:
    """One ``path:line: 'name' imported but unused`` line per finding."""
    lines = []
    for path in python_files(paths):
        shown = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        for line, name in unused_imports(path.read_text(), str(path)):
            lines.append(f"{shown}:{line}: {name!r} imported but unused")
    return lines


def main(argv: list[str]) -> int:
    lines = findings(argv or DEFAULT_PATHS)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
