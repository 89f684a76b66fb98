"""Documentation consistency: generated docs are fresh, manifests exist."""

import importlib
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


def tool(name):
    """Import ``tools/<name>.py`` (the tools directory is not a package)."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.pop(0)


def test_api_docs_are_fresh():
    """docs/api.md matches the current source (regenerate if this fails)."""
    assert tool("gen_api_docs").render() == (ROOT / "docs" / "api.md").read_text()


def test_benchmark_tables_are_fresh():
    """benchmarks/tables.txt is what the sim benchmarks print today,
    digit for digit (see tools/check_tables.py)."""
    pytest.importorskip("pytest_benchmark")
    assert tool("check_tables").differences() == []


def test_required_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE",
                 "docs/architecture.md", "docs/protocol.md",
                 "docs/paper_map.md", "docs/api.md",
                 "docs/performance.md"):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 200, name


def test_design_lists_every_bench():
    design = (ROOT / "DESIGN.md").read_text()
    for bench in sorted((ROOT / "benchmarks").glob("test_bench_*.py")):
        assert bench.name in design, f"{bench.name} missing from DESIGN.md"
