"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import settings

import repro
from repro.core import Kernel

#: ``--hypothesis-profile deep``: the nightly fuzz of
#: tests/properties/test_hostile_bodies.py (tier-1 keeps the default 100).
settings.register_profile("deep", max_examples=5000, deadline=None)


@pytest.fixture
def kernel() -> Kernel:
    """A fresh deterministic kernel per test."""
    return Kernel(seed=0)


@pytest.fixture
def traced_kernel() -> Kernel:
    """A kernel with structured tracing enabled."""
    return Kernel(seed=0, trace=True)


def run_until_done(kernel: Kernel, *parts, max_steps: int | None = 1_000_000):
    """Run the simulation until every part's ``done`` flag is set."""
    kernel.run(max_steps=max_steps, until=lambda: all(p.done for p in parts))
    kernel.run(max_steps=max_steps)


def fresh_python(*args: str) -> str:
    """Run ``python *args`` in a fresh interpreter that imports *this*
    ``repro`` (installed or not); it must exit 0.  Returns its stdout."""
    package_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=package_root),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout
