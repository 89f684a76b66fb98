"""Shell execution against the simulated kernel."""

import pytest

from repro.api import Pipeline
from repro.core.errors import ShellNameError, ShellSyntaxError
from repro.shell import BUILTINS, Shell, build_transducer
from repro.transput import FlowPolicy

DECK = 'prog = echo "C one" "  alpha  " "C two" "beta" "gamma"'


@pytest.fixture
def shell():
    sh = Shell()
    sh.execute(DECK)
    return sh


class TestBasics:
    def test_simple_pipeline(self, shell):
        result = shell.execute_one("prog | strip-comments C | strip")
        assert result.output == ["alpha", "beta", "gamma"]
        assert result.invocations > 0
        assert result.discipline == "readonly"

    def test_echo_inline_source(self, shell):
        result = shell.execute_one("prog | head 1")
        assert result.output == ["C one"]

    def test_source_only(self, shell):
        result = shell.execute_one("prog")
        assert len(result.output) == 5

    def test_define_api(self):
        sh = Shell()
        sh.define("xs", ["1", "2"])
        assert sh.execute_one("xs | number").output == [
            "     1  1", "     2  2"
        ]

    def test_show(self, shell):
        shell.execute_one("prog | upper > shouted")
        assert shell.execute_one("show shouted") == [
            "C ONE", "  ALPHA  ", "C TWO", "BETA", "GAMMA"
        ]

    def test_lines_helper(self, shell):
        result = shell.execute_one("prog | wc")
        assert len(result.lines()) == 1


class TestRedirection:
    def test_primary_redirect_binds_and_silences(self, shell):
        result = shell.execute_one("prog | upper > out")
        assert result.output == []
        assert shell.env["out"][0] == "C ONE"

    def test_channel_redirect(self, shell):
        result = shell.execute_one(
            "prog | report F1 2 | upper Report> win > out"
        )
        assert shell.env["win"][0] == "[F1] starting"
        assert shell.env["out"][0] == "C ONE"
        assert result.redirected["win"] == shell.env["win"]

    def test_positional_channel_redirect(self, shell):
        shell.execute_one("prog | report lbl 2 | upper 1> reports")
        assert shell.env["reports"][0] == "[lbl] starting"

    def test_unknown_channel_rejected(self, shell):
        with pytest.raises(ShellNameError, match="channel"):
            shell.execute_one("prog | upper Report> win")

    @pytest.mark.parametrize("discipline", ["readonly", "writeonly",
                                            "conventional"])
    def test_positions_number_every_stages_channels(self, shell, discipline):
        shell.execute_one(f"set discipline {discipline}")
        shell.execute_one("prog | report A 3 | report B 2 | strip 1> r1 2> r2")
        assert shell.env["r1"][0] == "[A] starting"
        assert shell.env["r2"][0] == "[B] starting"
        assert all(line.startswith("[A]") for line in shell.env["r1"])
        assert all(line.startswith("[B]") for line in shell.env["r2"])

    def test_a_name_two_stages_share_is_ambiguous(self, shell):
        with pytest.raises(ShellNameError,
                           match=r"stage 1 \(report A 3\) and "
                                 r"stage 2 \(report B 2\)"):
            shell.execute_one("prog | report A 3 | report B 2 | strip "
                              "Report> r1")
        assert "r1" not in shell.env


class TestDisciplines:
    @pytest.mark.parametrize("discipline", ["readonly", "writeonly",
                                            "conventional"])
    def test_same_output_everywhere(self, shell, discipline):
        shell.execute_one(f"set discipline {discipline}")
        result = shell.execute_one("prog | strip-comments C | strip | sort")
        assert result.output == ["alpha", "beta", "gamma"]
        assert result.discipline == discipline

    def test_channel_redirect_in_writeonly(self, shell):
        shell.execute_one("set discipline writeonly")
        shell.execute_one("prog | report F 2 | upper Report> win > out")
        assert shell.env["win"][0] == "[F] starting"

    def test_channel_redirect_in_conventional(self, shell):
        shell.execute_one("set discipline conventional")
        shell.execute_one("prog | report F 2 | upper Report> win > out")
        assert shell.env["win"][0] == "[F] starting"

    def test_readonly_cheaper_than_conventional(self, shell):
        readonly = shell.execute_one("prog | upper | strip").invocations
        shell.execute_one("set discipline conventional")
        conventional = shell.execute_one("prog | upper | strip").invocations
        assert readonly < conventional

    def test_bad_discipline_rejected(self, shell):
        with pytest.raises(ShellSyntaxError):
            shell.execute_one("set discipline psychic")

    def test_bad_option_rejected(self, shell):
        with pytest.raises(ShellSyntaxError):
            shell.execute_one("set color blue")


class TestErrors:
    def test_unknown_source(self, shell):
        with pytest.raises(ShellNameError, match="unknown source"):
            shell.execute_one("ghost | upper")

    def test_unknown_filter(self, shell):
        with pytest.raises(ShellNameError, match="unknown filter"):
            shell.execute_one("prog | frobnicate")

    def test_source_with_args_rejected(self, shell):
        with pytest.raises(ShellSyntaxError):
            shell.execute_one("prog extra | upper")

    def test_show_unknown(self, shell):
        with pytest.raises(ShellNameError):
            shell.execute_one("show nothing")

    def test_execute_one_rejects_multi(self, shell):
        with pytest.raises(ShellSyntaxError):
            shell.execute_one("prog | upper; prog | lower")

    def test_history_recorded(self, shell):
        shell.execute_one("prog | upper")
        assert DECK in shell.history[0]


class TestBuiltins:
    def test_catalogue_is_complete(self):
        expected = {
            "strip-comments", "grep", "delete", "sub", "between", "tr",
            "prepend", "report", "paginate", "upper", "lower", "strip",
            "reverse", "number", "wc", "sort", "uniq", "pretty", "cat",
            "head", "tail", "fold", "expand",
        }
        assert expected <= set(BUILTINS)

    @pytest.mark.parametrize(
        "command, args",
        [
            ("upper", ("x",)),          # takes no args
            ("grep", ()),               # needs a pattern
            ("grep", ("a", "b")),       # too many
            ("sub", ("only",)),         # needs two
            ("head", ()),               # needs a number
            ("head", ("NaN",)),         # not a number
            ("tr", ("abc",)),           # needs two alphabets
            ("report", ("a", "b", "c")),
        ],
    )
    def test_arg_validation(self, command, args):
        with pytest.raises((ShellSyntaxError, ShellNameError)):
            build_transducer(command, args)

    def test_every_builtin_instantiates(self):
        samples = {
            "strip-comments": ("C",), "grep": ("x",), "delete": ("x",),
            "sub": ("a", "b"), "between": ("a", "b"), "tr": ("ab", "cd"),
            "prepend": (">",), "report": ("L", "3"), "paginate": ("10", "T"),
            "head": ("2",), "tail": ("2",), "fold": (), "expand": (),
            "cut": ("0", "1"), "paste": ("2",),
        }
        for command in BUILTINS:
            build_transducer(command, samples.get(command, ()))


class TestRunScript:
    def test_multi_line_script(self):
        sh = Shell()
        results = sh.run_script(
            """
            # a small session
            deck = echo "C x" "keep"
            deck | strip-comments C > clean
            show clean
            """
        )
        assert results[-1] == ["keep"]
        assert sh.env["clean"] == ["keep"]

    def test_blank_and_comment_lines_skipped(self):
        sh = Shell()
        assert sh.run_script("\n\n# nothing\n") == []


DISCIPLINES = ["readonly", "writeonly", "conventional"]


class TestFlowOptions:
    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_batch_reduces_invocations(self, discipline):
        sh = Shell(discipline=discipline)
        sh.define("xs", [str(i) for i in range(32)])
        base = sh.execute_one("xs | cat").invocations
        sh.execute_one("set batch 8")
        batched = sh.execute_one("xs | cat").invocations
        assert batched < base / 4
        assert sh.execute_one("xs | cat").output == [
            str(i) for i in range(32)
        ]

    def test_lookahead_same_output(self):
        sh = Shell()
        sh.define("xs", ["a", "b", "c"])
        sh.execute_one("set lookahead 4")
        assert sh.execute_one("xs | upper").output == ["A", "B", "C"]

    def test_option_validation(self):
        sh = Shell()
        with pytest.raises(ShellSyntaxError):
            sh.execute_one("set batch zero")
        with pytest.raises(ShellSyntaxError):
            sh.execute_one("set batch 0")
        with pytest.raises(ShellSyntaxError):
            sh.execute_one("set lookahead -1")


class TestFrontDoorParity:
    """A shell statement is the front door's pipeline: ``set batch``
    and ``set lookahead`` mean what :class:`FlowPolicy` means there."""

    @pytest.mark.parametrize("lookahead", [0, 3])
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_output_and_invocations_match(self, discipline, batch, lookahead):
        lines = [f"line {i}" for i in range(23)]
        sh = Shell(discipline=discipline)
        sh.define("xs", lines)
        sh.execute(f"set batch {batch}; set lookahead {lookahead}")
        result = sh.execute_one("xs | upper | number")
        front = Pipeline(
            [build_transducer("upper", ()), build_transducer("number", ())],
            discipline=discipline, source=lines,
            flow=FlowPolicy(batch=batch, lookahead=lookahead),
        ).run("sim")
        assert result.output == front.output
        assert result.invocations == front.invocations

    # A report reader follows ``set batch`` as every other stage does.
    @pytest.mark.parametrize("discipline, batch, lookahead, invocations", [
        ("readonly", 1, 0, 76), ("writeonly", 1, 0, 76),
        ("conventional", 1, 0, 139),
        ("readonly", 1, 4, 76), ("writeonly", 1, 4, 76),
        ("conventional", 1, 4, 139),
        ("readonly", 4, 0, 26), ("writeonly", 4, 0, 22),
        ("conventional", 4, 0, 40),
        ("readonly", 4, 4, 25), ("writeonly", 4, 4, 22),
        ("conventional", 4, 4, 40),
    ])
    def test_report_redirect_counts(self, discipline, batch, lookahead,
                                    invocations):
        sh = Shell(discipline=discipline)
        sh.define("prog", [f"line {i}" for i in range(20)])
        sh.execute(f"set batch {batch}; set lookahead {lookahead}")
        result = sh.execute_one("prog | report F 2 | upper Report> win > out")
        assert result.invocations == invocations
        assert sh.env["out"] == [f"LINE {i}" for i in range(20)]
        assert len(sh.env["win"]) == 12
        assert sh.env["win"][0] == "[F] starting"
