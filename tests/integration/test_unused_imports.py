"""No module imports a name it never uses (``tools/check_source.py``'s
``unused-imports`` rule).

CI's lint job runs ruff, whose F401 rule fails on an unused import;
ruff is not a test dependency, so the same rule runs here as a
standard-library AST check.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))
try:
    import check_source
finally:
    sys.path.pop(0)

(RULE,) = [rule for rule in check_source.RULES if rule.name == "unused-imports"]


def test_no_unused_imports_in_the_linted_directories():
    assert check_source.findings(rules=[RULE]) == []


def test_a_planted_unused_import_fires(tmp_path):
    planted = tmp_path / "src" / "planted.py"
    planted.parent.mkdir()
    planted.write_text(
        "import json\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "print(json.dumps(dataclass))\n"
    )
    assert check_source.findings(tmp_path, [RULE]) == [
        "unused-imports: src/planted.py:2: 'os.path' imported but unused",
        "unused-imports: src/planted.py:3: 'field' imported but unused",
    ]


def test_uses_the_rule_accepts():
    source = (
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING\n"
        "import re as re\n"
        "from collections import deque, OrderedDict\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "__all__ = ['OrderedDict']\n"
        "def f(path: 'Path') -> 'list[deque]':\n"
        "    return []\n"
    )
    assert check_source.unused_imports(source) == []
