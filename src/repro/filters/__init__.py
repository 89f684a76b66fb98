"""The filter library: the utilities the paper's §3 enumerates.

Every entry is either a transducer factory (usable under all three
disciplines via the pipeline builders) or, for the genuinely
multi-stream cases, a specialised Eject class.
"""

from repro._lazy import lazy_front

__getattr__, __dir__, __all__ = lazy_front(globals(), {
    "repro.filters.basic": (
        "batch_lines", "expand_tabs", "fold", "identity", "lower_case",
        "prepend", "repeat", "reverse_line", "strip_whitespace", "translate",
        "upper_case",
    ),
    "repro.filters.columns": ("cut", "paste", "rle_decode", "rle_encode"),
    "repro.filters.compare": ("DiffRecord", "DifferenceFilter", "MISSING"),
    "repro.filters.editor": (
        "EditorCommandError", "StreamEditor", "parse_command",
    ),
    "repro.filters.pattern": (
        "between", "comment_stripper", "delete_matching", "grep", "substitute",
    ),
    "repro.filters.reporting": ("ErrorReporting", "fanout", "with_reports"),
    "repro.filters.sortedmerge": ("SortedMergeFilter",),
    "repro.filters.spellcheck": (
        "DEFAULT_WORDS", "SpellCheckReporter", "SpellChecker",
    ),
    "repro.filters.text": (
        "WordCountSummary", "head", "number_lines", "paginate", "pretty_print",
        "sort_lines", "tail", "unique_adjacent", "word_count",
    ),
})
