"""Debug-artifact capture for the wire-runtime tests.

When ``EDEN_NET_DEBUG_DIR`` is set and a test in this package fails,
the per-stage span logs, stats snapshots, plan files, flight-recorder
segments, and fleet manifest the test left in its ``tmp_path`` are copied there
under the test's node id.  CI points the variable at a directory it
uploads on failure, so a red run ships the traces needed to diagnose
it.  Copies keep their path relative to ``tmp_path``: flight segments
are ``flight/<stage>/seg-*.efl`` and every stage names its first
segment the same, so a flat copy would collide.
"""

import os
import pathlib
import re
import shutil

import pytest

ARTIFACT_GLOBS = ("*.trace.jsonl", "*.stats.json", "*.plan.json",
                  "fleet.json", "*.efl")


def _sanitize(nodeid: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", nodeid)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    debug_dir = os.environ.get("EDEN_NET_DEBUG_DIR")
    if not debug_dir or report.when != "call" or not report.failed:
        return
    tmp_path = item.funcargs.get("tmp_path") if hasattr(item, "funcargs") else None
    if tmp_path is None:
        return
    found = [
        path
        for pattern in ARTIFACT_GLOBS
        for path in sorted(pathlib.Path(tmp_path).rglob(pattern))
    ]
    if not found:
        return
    base = pathlib.Path(tmp_path)
    target = pathlib.Path(debug_dir) / _sanitize(item.nodeid)
    for path in found:
        destination = target / path.relative_to(base)
        destination.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(path, destination)
