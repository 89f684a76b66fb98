"""The design invariants hold, and each one can fail (``tools/check_source.py``).

Every rule runs clean on this checkout.  Then, for every rule, a
violation is planted in a temporary copy of ``src/`` and the rule must
report it: a rule that cannot fire protects nothing.  The command line
exits 0 on the checkout and 1 on a planted violation, which is what CI
reads.
"""

import pathlib
import shutil
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))
try:
    import check_source
finally:
    sys.path.pop(0)

RULES = {rule.name: rule for rule in check_source.RULES}

#: rule -> (file, text to replace, replacement); an empty text appends.
PLANTS = {
    "no-speed-twins": (
        "src/repro/net/framing.py", "",
        "\ndef encode_frame_fast(frame):\n    return encode_frame(frame)\n"),
    "one-shard-path-one-result": (
        "src/repro/api/facade.py", "", "\nclass PipelineResult:\n    pass\n"),
    "no-second-frame-reader": (
        "src/repro/net/framing.py", "", "\nclass SocketFrameReader:\n    pass\n"),
    "no-readexactly": (
        "src/repro/obs/control.py", "",
        "\nasync def _header(reader):\n    return await reader.readexactly(8)\n"),
    "no-read-frame": (
        "src/repro/net/framing.py", "",
        "\nasync def read_frame(reader):\n    return None\n"),
    "one-stage-runtime": (
        "src/repro/fault/plan.py", "", "\nrestart_backoff = 0.5\n"),
    "broker-serves-no-link": (
        "src/repro/broker/host.py", "",
        "\nasync def _serve(link):\n    await serve_pull(link)\n"),
    "one-stage-description": (
        "src/repro/net/stage.py", "", '\n_FLAGS = ["--source-json"]\n'),
    "endpoint-counts-its-invocations": (
        "src/repro/aio/streams.py", "", "\nclass _CountingReadable:\n    pass\n"),
    "transfer-is-a-tuple": (
        "src/repro/transput/stream.py", "class Transfer(tuple):",
        "@dataclass(frozen=True)\nclass Transfer(tuple):"),
    "one-fleet-json-writer": (
        "src/repro/obs/trace_cli.py", "", '\nFLEET = "fleet.json"\n'),
    "launch-reads-no-text": (
        "src/repro/net/launch.py", "",
        "\ndef _lines(text):\n    return text.splitlines()\n"),
    "one-incarnation-loop": (
        "src/repro/broker/host.py", "",
        "\nasync def supervise_incarnations(stage):\n    pass\n"),
    "one-injected-kill-handler": (
        "src/repro/net/launch.py", "",
        "\ntry:\n    pass\nexcept InjectedKill:\n    pass\n"),
    "no-popen": (
        "src/repro/net/launch.py", "", '\nsubprocess.Popen(["true"])\n'),
    "only-the-zygote-forks": (
        "src/repro/net/launch.py", "", "\npid = os.fork()\n"),
    "no-poll-no-stdin-plan": (
        "src/repro/net/stage.py", "", "\n_POLL_S = 0.05\n"),
    "no-cpu-pinning": (
        "src/repro/net/zygote.py", "", "\nos.sched_setaffinity(0, {0})\n"),
    "one-run-per-graph": (
        "src/repro/api/execute.py", "", "\ndef run_segment(segment):\n    pass\n"),
    "one-graph-runner": (
        "src/repro/api/execute.py", "", "\ndef _plan_block(block):\n    pass\n"),
    "shell-wires-no-ejects": (
        "src/repro/shell/interpreter.py", "",
        "\n\ndef _pipe(kernel):\n    from repro.transput import buffer\n"
        "    return kernel.create(buffer.PassiveBuffer)\n"),
    "one-lazy-aio-stage": (
        "src/repro/aio/streams.py", "", "\nclass AioReportingStage:\n    pass\n"),
    "one-route-selector": (
        "src/repro/broker/host.py", "",
        "\ndef _always_direct(end, link, passive, stats):\n"
        "    return _DirectRoute(end, link, passive, stats)\n"),
    "one-listener": (
        "src/repro/broker/daemon.py", "",
        "\nasync def _listen(accept):\n"
        "    return await asyncio.start_server(accept, '127.0.0.1', port=0)\n"),
}

#: rule -> the test that plants its violation in a tree of its own.
PLANTED_ELSEWHERE = {
    "unused-imports": "tests/integration/test_unused_imports.py"
                      "::test_a_planted_unused_import_fires",
}


@pytest.fixture(scope="module")
def checkout():
    return check_source.Tree(ROOT)


@pytest.fixture(scope="module")
def copy(tmp_path_factory):
    """One copy of ``src/`` to plant violations in, one at a time."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


@pytest.fixture
def edit(copy):
    """``edit(path, old, new)`` replaces ``old`` in a file of the copy
    (an empty ``old`` appends); the copy is restored afterwards."""
    saved = {}

    def edit(path, old, new):
        target = copy / path
        text = saved.setdefault(target, target.read_text())
        if old:
            assert old in text, f"{path} no longer holds {old!r}"
            target.write_text(text.replace(old, new))
        else:
            target.write_text(text + new)

    yield edit
    for target, text in saved.items():
        target.write_text(text)


# ``unused-imports`` reads every linted directory and is run clean by
# tests/integration/test_unused_imports.py; this runs every other rule.
@pytest.mark.parametrize("name", [name for name in RULES
                                  if name != "unused-imports"])
def test_the_checkout_keeps_the_rule(checkout, name):
    assert RULES[name].check(checkout) == []


def test_every_rule_has_a_planted_violation():
    assert set(PLANTS) | set(PLANTED_ELSEWHERE) == set(RULES)


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_a_planted_violation_fires(copy, edit, name):
    path, old, new = PLANTS[name]
    edit(path, old, new)
    found = check_source.findings(copy, [RULES[name]])
    assert found, f"{name} did not fire on {path}"
    assert all(line.startswith(f"{name}: ") for line in found)
    assert any(path in line for line in found), found


@pytest.mark.parametrize("name, path, old, new", [
    ("one-incarnation-loop", "src/repro/net/stage.py",
     "def supervise_incarnations(", "def supervise_stage("),
    ("one-fleet-json-writer", "src/repro/net/launch.py",
     '"fleet.json"', '"plan.json"'),
    ("one-injected-kill-handler", "src/repro/net/stage.py",
     "except (InjectedKill, Exception)", "except Exception"),
    ("only-the-zygote-forks", "src/repro/net/zygote.py",
     "os.fork()", "os.getpid()"),
    ("one-listener", "src/repro/net/protocol.py",
     "def listen_socket(", "def listening_socket("),
    ("one-route-selector", "src/repro/broker/host.py",
     "def _direct_route(", "def _pick_route("),
])
def test_a_rule_with_one_owner_fires_when_the_owner_goes(
        copy, edit, name, path, old, new):
    assert check_source.findings(copy, [RULES[name]]) == []
    edit(path, old, new)
    assert check_source.findings(copy, [RULES[name]])


def test_the_cli_lists_every_rule(capsys):
    assert check_source.main(["--list"]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in listed] == list(RULES)
    assert check_source.main(["--bogus"]) == 2


def test_the_cli_exits_0_on_the_checkout(capsys):
    assert check_source.main([]) == 0
    assert capsys.readouterr().out == ""


def test_the_cli_exits_1_on_a_finding(copy, edit, capsys):
    path, old, new = PLANTS["no-popen"]
    edit(path, old, new)
    assert check_source.main([], root=copy) == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed and all(line.startswith("no-popen: ") for line in printed)
