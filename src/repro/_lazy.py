"""Lazy package fronts (PEP 562): a public name is imported on first touch.

Every ``repro`` package ``__init__`` is a docstring and one table —
defining module to the names it contributes — and no import block::

    __getattr__, __dir__, __all__ = lazy_front(globals(), {
        "repro.core.kernel": ("Kernel",),
        "repro.core.uid": ("UID", "UIDFactory"),
    })

so ``import repro.net.stage`` loads what a stage runs and nothing else,
while ``from repro.core import Kernel``, ``from repro.core import *``
and ``dir(repro.core)`` behave as they did under an eager import block.

One rule: a front exports *names*, never submodules.  ``import
repro.core`` alone does not make ``repro.core.kernel`` an attribute;
import the submodule you use (``import repro.core.kernel``, ``from
repro.core import kernel`` and ``mock.patch("repro.core.kernel.X")``
all do, and once anything has imported it the attribute is there).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from importlib import import_module


def lazy_front(
    namespace: dict[str, object], exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """Build a package's ``(__getattr__, __dir__, __all__)`` from its table.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    defining module to the names it contributes.  A resolved name is
    stored in ``namespace``, so ``__getattr__`` runs once per name per
    process.
    """
    package = namespace["__name__"]
    defining = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = defining.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | defining.keys())

    return __getattr__, __dir__, list(defining)
