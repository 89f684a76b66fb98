"""The wire runtime's import closure, pinned by count.

Importing ``repro.net.stage`` / ``repro.broker.host`` /
``repro.broker.daemon`` — what an ``eden-*`` console script runs, and
what a fleet's zygote (:mod:`repro.net.zygote`) preloads — must load
what it runs and nothing else: no simulator kernel, no shell, figures,
filters, filesystem, analysis or graph API.  These are properties of
the modules: a zygote is a fork of its driver, so at run time it also
holds whatever the driver imported.  Each probe runs in a fresh
interpreter and asserts on ``sys.modules`` — a module count, never a
wall-clock budget, so it cannot flake.
"""

import ast
import json
import pathlib

import pytest

import repro
from tests.conftest import fresh_python

#: Modules (exact) and packages (prefix) a wire process never loads.
FORBIDDEN_MODULES = {
    "repro.core.kernel",
    "repro.core.scheduler",
    "repro.core.eject",
    "repro.core.process",
    "repro.transput.pipeline",
    "repro.transput.readonly",
    "repro.transput.writeonly",
    "repro.figures",
}
FORBIDDEN_PACKAGES = (
    "repro.shell",
    "repro.filters",
    "repro.filesystem",
    "repro.analysis",
    "repro.api",
)

#: ``repro.*`` modules each entry point may load: what landed + 2.
MODULE_BOUNDS = {
    "repro.net.stage": 31,
    "repro.broker.host": 36,
    "repro.broker.daemon": 26,
}


def loaded_after(statements: str) -> list[str]:
    """The ``repro.*`` modules in a fresh interpreter after ``statements``."""
    probe = (
        f"{statements}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(name for name in sys.modules\n"
        "                        if name == 'repro' or name.startswith('repro.'))))\n"
    )
    return json.loads(fresh_python("-c", probe).splitlines()[-1])


def forbidden(modules: list[str]) -> list[str]:
    return [
        name for name in modules
        if name in FORBIDDEN_MODULES
        or any(name == package or name.startswith(package + ".")
               for package in FORBIDDEN_PACKAGES)
    ]


@pytest.mark.parametrize("entry", sorted(MODULE_BOUNDS))
def test_wire_entry_point_never_loads_the_simulator(entry):
    modules = loaded_after(f"import {entry}")
    assert forbidden(modules) == []
    assert len(modules) <= MODULE_BOUNDS[entry], modules


def test_import_repro_loads_no_subpackage():
    assert loaded_after("import repro") == ["repro", "repro._lazy"]


def test_the_zygote_loads_nothing_of_its_own():
    # It preloads whatever it is asked to, so it imports none of it
    # itself: only the packages it lives in.
    assert loaded_after("import repro.net.zygote") == [
        "repro", "repro._lazy", "repro.net", "repro.net.zygote"]


def test_a_stage_zygote_holds_exactly_the_stage_closure():
    stage = loaded_after("import repro.net.stage")
    zygote = loaded_after("from repro.net.zygote import preload\n"
                          "preload(['repro.net.stage'])")
    assert zygote == sorted([*stage, "repro.net.zygote"])
    assert forbidden(zygote) == []


WIRE_PACKAGES = ("net", "aio", "broker", "obs", "fault")
#: All that the wire packages may import from outside themselves at
#: module level: leaves that need nothing of the simulator.
SHARED_LEAVES = {
    "repro", "repro._lazy",
    "repro.core.errors", "repro.core.uid", "repro.core.capability",
    "repro.core.stats", "repro.core.tracing",
    "repro.transput.stream", "repro.transput.flow",
    "repro.transput.filterbase",
}


def module_level_imports(tree: ast.Module):
    """``repro`` modules a file imports outside any function body."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module
        elif isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test):
            continue
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pending.extend(ast.iter_child_nodes(node))


def test_wire_packages_import_only_shared_leaves_at_module_level():
    source_root = pathlib.Path(repro.__file__).parent
    inside = tuple(f"repro.{package}" for package in WIRE_PACKAGES)
    strays = []
    for package in WIRE_PACKAGES:
        for path in sorted((source_root / package).glob("*.py")):
            for module in module_level_imports(ast.parse(path.read_text())):
                if (
                    module.split(".")[0] == "repro"
                    and module not in SHARED_LEAVES
                    and not module.startswith(inside)
                ):
                    strays.append(f"{path.name}: {module}")
    assert strays == []


#: Build (never run) one stage the way ``eden-stage`` does.
BUILD_STAGE = (
    "from repro.net.stage import StageConfig, _Stage\n"
    "from repro.fault.plan import FaultPlan, FrameFault\n"
    "_Stage(StageConfig(role='source', discipline='readonly', listen_port=0,\n"
    "                   source_items=['a'], {knobs}))\n"
)
OPTIONAL = {"repro.obs.flight", "repro.obs.control", "repro.fault.inject"}


def test_plain_stage_loads_no_recorder_and_no_fault_machinery():
    modules = loaded_after(BUILD_STAGE.format(knobs=""))
    assert OPTIONAL.isdisjoint(modules)
    assert forbidden(modules) == []


@pytest.mark.parametrize(
    "knobs, module",
    [
        ("flight_dir={tmp!r}", "repro.obs.flight"),
        ("fault=FaultPlan(kill_after=3)", "repro.fault.inject"),
        ("fault=FaultPlan(frame_faults=[FrameFault('drop', nth=1)])",
         "repro.fault.inject"),
    ],
)
def test_a_switched_on_feature_loads_its_module(tmp_path, knobs, module):
    modules = loaded_after(BUILD_STAGE.format(knobs=knobs.format(tmp=str(tmp_path))))
    assert module in modules
    assert forbidden(modules) == []
