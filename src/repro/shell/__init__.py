"""A pipeline shell over the simulated Eden system.

The command language supports pipelines (``|``), channel redirection
(``Report> win`` — the paper's "n>" comparison in §5), discipline
selection and literal sources.
"""

from repro._lazy import lazy_front

__getattr__, __dir__, __all__ = lazy_front(globals(), {
    "repro.shell.ast": (
        "AssignStmt", "PipelineStmt", "Redirect", "Script", "SetStmt",
        "ShowStmt", "Stage",
    ),
    "repro.shell.builtins": ("BUILTINS", "build_transducer"),
    "repro.shell.interpreter": ("Shell", "ShellResult"),
    "repro.shell.lexer": ("Token", "tokenize"),
    "repro.shell.parser": ("parse_line",),
    "repro.shell.repl": ("run_repl",),
})
