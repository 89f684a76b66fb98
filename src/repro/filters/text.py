"""Text-processing filters: numbering, pagination, counting, sorting.

"Text formatters, stream editors, spelling checkers, prettyprinters and
paginators are all filters" (paper §3).  The stateful ones demonstrate
that transducers may buffer arbitrarily (``sort_lines`` holds the whole
stream until ``finish``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.transput.filterbase import Transducer


def number_lines(start: int = 1, template: str = "{number:>6}  {line}") -> Transducer:
    """Prefix each line with its line number (like ``nl`` / ``cat -n``)."""

    class _Numberer(Transducer):
        name = "number-lines"

        def __init__(self) -> None:
            self._next = start

        def step(self, line: Any):
            numbered = template.format(number=self._next, line=line)
            self._next += 1
            return (numbered,)

    return _Numberer()


def paginate(
    page_length: int = 60, title: str = "", header: bool = True
) -> Transducer:
    """A paginator: break the stream into pages with headers.

    Every ``page_length`` body lines are preceded by a header line and
    followed by a form-feed marker record — the paper's canonical
    "paginated listing" example (§4: "If a paginated listing were
    required, the printer server would be requested to read from the
    paginator, and the paginator to read from the file").
    """
    if page_length < 1:
        raise ValueError(f"page_length must be >= 1, got {page_length}")

    class _Paginator(Transducer):
        name = f"paginate({page_length})"

        def __init__(self) -> None:
            self._line_on_page = 0
            self._page = 0

        def _header(self) -> list[str]:
            self._page += 1
            shown = f" {title}" if title else ""
            return [f"---{shown} page {self._page} ---"] if header else []

        def step(self, line: Any):
            out: list[Any] = []
            if self._line_on_page == 0:
                out.extend(self._header())
            out.append(line)
            self._line_on_page += 1
            if self._line_on_page >= page_length:
                self._line_on_page = 0
                out.append("\f")
            return out

        def finish(self):
            if self._line_on_page:
                return ("\f",)
            return ()

    return _Paginator()


@dataclass(frozen=True)
class WordCountSummary:
    """The terminal record emitted by :func:`word_count`."""

    lines: int
    words: int
    characters: int

    def __str__(self) -> str:
        return f"{self.lines:7d} {self.words:7d} {self.characters:7d}"


def word_count() -> Transducer:
    """Count lines/words/characters; emits one summary record at end.

    A filter whose *entire* output appears at end of input — the
    extreme case of buffering.
    """

    class _WordCount(Transducer):
        name = "wc"

        def __init__(self) -> None:
            self._lines = 0
            self._words = 0
            self._chars = 0

        def step(self, line: Any):
            text = str(line)
            self._lines += 1
            self._words += len(text.split())
            self._chars += len(text) + 1  # + newline, as wc would see it
            return ()

        def finish(self):
            return (
                WordCountSummary(
                    lines=self._lines, words=self._words, characters=self._chars
                ),
            )

    return _WordCount()


def sort_lines(key: Callable[[Any], Any] | None = None, reverse: bool = False) -> Transducer:
    """Sort the whole stream (emits everything at end of input)."""

    class _Sorter(Transducer):
        name = "sort"

        def __init__(self) -> None:
            self._held: list[Any] = []

        def step(self, line: Any):
            self._held.append(line)
            return ()

        def finish(self):
            out = sorted(self._held, key=key, reverse=reverse)
            self._held = []
            return tuple(out)

    return _Sorter()


def unique_adjacent() -> Transducer:
    """Drop consecutive duplicate records (like ``uniq``)."""

    class _Unique(Transducer):
        name = "uniq"
        _NOTHING = object()

        def __init__(self) -> None:
            self._previous: Any = self._NOTHING

        def step(self, line: Any):
            if line == self._previous:
                return ()
            self._previous = line
            return (line,)

    return _Unique()


def head(count: int) -> Transducer:
    """Pass only the first ``count`` records.

    It does not stop its upstream early: a transducer cannot end its
    stream, so the filter keeps reading and drops every record after
    the first ``count``, and the sink keeps asking until END.
    ``head(3)`` over 2 000 records costs 2 005 invocations on sim and
    aio: 2 001 reads drain its upstream, and the sink's 4 take the
    three records and END.  Early termination (a ``done`` signal that
    aborts upstream) is ROADMAP item 7.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")

    class _Head(Transducer):
        name = f"head({count})"

        def __init__(self) -> None:
            self._seen = 0

        def step(self, line: Any):
            if self._seen < count:
                self._seen += 1
                return (line,)
            return ()

    return _Head()


def tail(count: int) -> Transducer:
    """Pass only the last ``count`` records (emitted at end of input)."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")

    class _Tail(Transducer):
        name = f"tail({count})"

        def __init__(self) -> None:
            self._held: list[Any] = []

        def step(self, line: Any):
            self._held.append(line)
            if len(self._held) > count:
                self._held.pop(0)
            return ()

        def finish(self):
            out = tuple(self._held)
            self._held = []
            return out

    return _Tail()


def pretty_print(indent: int = 2) -> Transducer:
    """A tiny pretty-printer for brace-structured text.

    Re-indents each line according to the running ``{``/``}`` nesting
    depth — the "prettyprinter" of the paper's filter list.
    """
    if indent < 0:
        raise ValueError(f"indent must be >= 0, got {indent}")

    class _Pretty(Transducer):
        name = "prettyprint"

        def __init__(self) -> None:
            self._depth = 0

        def step(self, line: Any):
            text = str(line).strip()
            leading_closers = len(text) - len(text.lstrip("}"))
            self._depth = max(0, self._depth - leading_closers)
            rendered = " " * (indent * self._depth) + text
            net = text.count("{") - (text.count("}") - leading_closers)
            self._depth = max(0, self._depth + net)
            return (rendered,)

    return _Pretty()
