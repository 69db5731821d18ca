"""Tests for the JSON command-line front end."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dp1alpha
import dp1alpha.cli as cli
from dp1alpha import fme, lemmas
from dp1alpha.cli import build_parser, run
from dp1alpha.cone import UnclassifiableError
from dp1alpha.rationals import MAX_DIGITS

F = Fraction

MINUS_K = "3,-1,-1,-1,-1,-1,-1,-1,-1"
HALF_PENCIL = "3,-1,-1,-1,-1,-1,-1,-1,-1/2"  # -K + (1/2) * e8


def child_env() -> dict[str, str]:
    """The environment of a child interpreter that finds the package where this one did."""
    source = str(Path(dp1alpha.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    return env


def invoke(capsys, argv):
    """Run one CLI command, returning (exit code, parsed stdout, stderr)."""
    capsys.readouterr()  # discard anything pending
    code = run(argv)
    captured = capsys.readouterr()
    parsed = json.loads(captured.out) if captured.out else None
    return code, parsed, captured.err


class TestReferenceCommands:
    def test_counterexample_reference_output(self, capsys):
        code, report, _ = invoke(capsys, ["counterexample", "--lambda", "1/2"])
        assert code == 0
        assert report["command"] == "counterexample"
        assert report["outputs"] == {
            "alpha": "8/9",
            "alpha_c": "1",
            "conjecture_violated": True,
        }

    def test_alpha_theorem_reference_output(self, capsys):
        code, report, _ = invoke(
            capsys, ["alpha", "theorem", "--lambda", "0", "--n", "1", "--alpha-s", "1"]
        )
        assert code == 0
        assert report["outputs"]["alpha"] == "1"

    def test_lemma_verify_reference_output(self, capsys):
        code, report, _ = invoke(capsys, ["lemma", "verify", "local-1"])
        assert code == 0
        assert report["outputs"]["verified"] is True
        cases = report["outputs"]["cases"]
        assert len(cases) == 1  # one case, hence one certificate
        assert cases[0]["infeasible"] is True
        assert "certificate" in cases[0]

    def test_curves_enumerate_counts(self, capsys):
        code, report, _ = invoke(capsys, ["curves", "enumerate"])
        assert code == 0
        assert report["outputs"]["count"] == 240
        assert len(report["outputs"]["classes"]) == 240
        code, report, _ = invoke(capsys, ["curves", "enumerate", "--kind", "conic"])
        assert code == 0
        assert report["outputs"]["count"] == 2160

    def test_ample_and_classify(self, capsys):
        code, report, _ = invoke(capsys, ["ample", "--class", MINUS_K])
        assert code == 0 and report["outputs"]["ample"] is True
        code, report, _ = invoke(capsys, ["classify", "--class", HALF_PENCIL])
        assert code == 0
        profile = report["outputs"]["profile"]
        assert profile["type"] == "P2"
        assert profile["mu"] == "1"
        assert profile["a"] == ["1/2", "0", "0", "0", "0", "0", "0", "0"]
        assert profile["s_A"] == "0"
        assert profile["delta"] == "0"

    def test_alpha_conjecture_command(self, capsys):
        code, report, _ = invoke(capsys, ["alpha", "conjecture", "--class", HALF_PENCIL])
        assert code == 0
        assert report["outputs"]["alpha_c"] == "1"

    def test_alpha_table_command(self, capsys):
        code, report, _ = invoke(
            capsys, ["alpha", "table", "--degree", "1", "--flags", "cuspidal"]
        )
        assert code == 0 and report["outputs"]["alpha"] == "5/6"
        code, report, _ = invoke(capsys, ["alpha", "table", "--degree", "4"])
        assert code == 0 and report["outputs"]["alpha"] == "2/3"

    def test_surface_analyze_with_explicit_section(self, capsys):
        code, report, _ = invoke(
            capsys,
            [
                "surface", "analyze",
                "--a", "4:1,0,0,0,0",
                "--b", "6:0,0,0,0,0,0,1",
                "--q", "2:0,0,0",
                "--g", "3:0,0,0,1",
            ],
        )
        assert code == 0
        outputs = report["outputs"]
        assert outputs["smooth"] is True
        assert outputs["has_cuspidal_member"] is False
        assert outputs["alpha_s"] == "1"
        assert outputs["sections"] == [
            {"q": "2:0,0,0", "g": "3:0,0,0,1", "n_intersections": 1}
        ]

    def test_surface_analyze_finds_sections_itself(self, capsys):
        code, report, _ = invoke(
            capsys,
            ["surface", "analyze", "--a", "4:1,0,0,0,0", "--b", "6:0,0,0,0,0,0,1"],
        )
        assert code == 0
        assert report["outputs"]["sections"][0]["g"] == "3:0,0,0,1"

    def test_surface_analyze_singular_surface(self, capsys):
        code, report, _ = invoke(
            capsys,
            ["surface", "analyze", "--a", "4:0,0,0,0,0", "--b", "6:0,0,1,0,0,0,0"],
        )
        assert code == 0
        assert report["outputs"]["smooth"] is False
        assert "alpha_s" not in report["outputs"]

    @pytest.mark.parametrize(
        "window, lam, expected",
        [
            ("kstable", "0", True),
            ("kstable", "1/5", True),
            ("kstable", "1/4", False),
            ("kstable", "-1/6", False),
            ("cylinder", "-1/4", True),
            ("cylinder", "1/3", True),
            ("cylinder", "1/2", False),
        ],
    )
    def test_range_commands(self, capsys, window, lam, expected):
        code, report, _ = invoke(capsys, ["range", window, "--lambda", lam])
        assert code == 0
        assert report["outputs"]["contains"] is expected

    def test_lemma_probe_command(self, capsys):
        code, report, _ = invoke(
            capsys, ["lemma", "verify", "local-1", "--probe", "main:x-cap"]
        )
        assert code == 0
        outputs = report["outputs"]
        assert outputs["feasible"] is True
        # the witness must break the dropped margin cap x <= 1
        assert Fraction(outputs["witness"]["x"]) > 1


class TestNegativeLambdaGate:
    def test_rejected_without_flag(self, capsys):
        code, report, err = invoke(
            capsys, ["alpha", "theorem", "--lambda", "-1/5", "--n", "2", "--alpha-s", "5/6"]
        )
        assert code == 2 and report is None
        assert "--allow-negative-lambda" in err

    def test_allowed_with_flag(self, capsys):
        code, report, _ = invoke(
            capsys,
            [
                "alpha", "theorem", "--lambda", "-1/5", "--n", "2",
                "--alpha-s", "5/6", "--allow-negative-lambda",
            ],
        )
        assert code == 0
        assert report["outputs"]["alpha"] == "25/18"

    def test_function_domain_still_enforced_with_flag(self, capsys):
        code, report, _ = invoke(
            capsys,
            [
                "alpha", "theorem", "--lambda", "-1/3", "--n", "2",
                "--alpha-s", "1", "--allow-negative-lambda",
            ],
        )
        assert code == 2 and report is None


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--class", "1,2"],  # wrong arity
            ["classify", "--class", "0,0,0,0,0,0,0,0,1"],  # not ample
            ["classify", "--class", "a,b,c,d,e,f,g,h,i"],  # not rationals
            ["counterexample", "--lambda", "1/0"],  # zero denominator
            ["counterexample", "--lambda", "3/2"],  # out of range
            ["counterexample", "--lambda", "1/2", "--frobnicate"],  # unknown flag
            ["alpha", "table", "--degree", "4", "--flags", "cuspidal"],
            ["alpha", "table", "--degree", "1"],  # missing required flag
            ["alpha", "table", "--degree", "12"],
            ["alpha", "theorem", "--lambda", "1/2", "--n", "5", "--alpha-s", "1"],
            ["surface", "analyze", "--a", "4:1,0,0,0,0", "--b", "6:0,0,0,0,0,0,1",
             "--q", "2:0,0,0"],  # --q without --g
            ["surface", "analyze", "--a", "4:1,0,0,0,0", "--b", "6:0,0,0,0,0,0,1",
             "--q", "2:0,0,0", "--g", "3:1,0,0,1"],  # not a section
            ["surface", "analyze", "--a", "4:0,0,0,0,0", "--b", "6:0,0,0,0,0,0,0"],
            ["lemma", "verify", "local-99"],
            ["lemma", "verify", "local-1", "--probe", "nonsense"],
            ["lemma", "verify", "local-1", "--probe", "main:no-such-row"],
            ["counterexample", "--lambda", "1/2", "--decimal", "-3"],
            ["range", "elliptic", "--lambda", "0"],
            ["nonsense"],
            [],
            # usage errors that argparse reports
            ["lemma", "verify", "nosuch"],
            ["lemma", "verify"],
            ["lemma"],
            ["alpha", "theorem", "--lambda", "1/2", "--n", "4", "--alpha-s", "1"],
            ["alpha", "theorem", "--lambda", "1/2", "--n", "x", "--alpha-s", "1"],
            ["alpha", "theorem", "--n", "1", "--alpha-s", "1"],
            ["alpha"],
            ["alpha", "table"],
            ["alpha", "table", "--degree", "one"],
            ["curves", "enumerate", "--kind", "cubic"],
            ["curves", "list"],
            ["ample"],
            ["classify", "--class"],
            ["surface", "analyze", "--a", "4:1,0,0,0,0"],
            ["range", "kstable"],
            ["counterexample", "--lambda", "1/2", "--decimal", "x"],
            ["counterexample", "--lambda", "1/2", "extra\nline"],
        ],
    )
    def test_malformed_input_exits_two_without_output(self, capsys, argv):
        code, report, err = invoke(capsys, argv)
        assert code == 2
        assert report is None  # no partial JSON on stdout
        assert err.count("\n") == 1 and err.endswith("\n")  # one line, no usage text
        assert "Traceback" not in err

    def test_usage_error_names_the_parser_and_the_problem(self, capsys):
        argv = ["alpha", "theorem", "--lambda", "1/2", "--n", "4", "--alpha-s", "1"]
        code, _, err = invoke(capsys, argv)
        assert code == 2
        assert err == (
            "dp1alpha alpha theorem: error: argument --n: invalid choice: 4 "
            "(choose from 1, 2, 3)\n"
        )

    def test_unknown_lemma_id_lists_the_known_ids(self, capsys):
        code, report, err = invoke(capsys, ["lemma", "verify", "nosuch"])
        assert code == 2 and report is None
        assert err.startswith("error: unknown lemma id 'nosuch'; known: ")
        assert err.count("\n") == 1
        assert all(lemma_id in err for lemma_id in lemmas.LEMMA_IDS)

    def test_lemma_help_points_to_the_readme_list(self, capsys):
        capsys.readouterr()
        assert run(["lemma", "verify", "--help"]) == 0
        out = capsys.readouterr().out
        assert "README.md lists them" in " ".join(out.split())
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert all(f"`{lemma_id}`" in readme for lemma_id in lemmas.LEMMA_IDS)

    def test_redundant_probe_is_verification_failure(self, capsys):
        # dropping a redundant row keeps the system infeasible: exit 1
        code, report, err = invoke(
            capsys, ["lemma", "verify", "local-1", "--probe", "main:mult"]
        )
        assert code == 1
        assert report is None
        assert "verification failure" in err

    @pytest.mark.parametrize(
        "failure",
        [UnclassifiableError("no decomposition"), AssertionError("bad certificate"),
         RuntimeError("lost feasibility")],
    )
    def test_internal_failure_exits_three(self, capsys, monkeypatch, failure):
        def failing(cls):
            raise failure

        monkeypatch.setattr(cli, "classify", failing)
        for command in (["classify"], ["alpha", "conjecture"]):
            code, report, err = invoke(capsys, command + ["--class", HALF_PENCIL])
            assert code == 3
            assert report is None
            assert err.count("\n") == 1 and "Traceback" not in err
            assert str(failure) in err

    @pytest.mark.parametrize("module", [fme, lemmas])
    def test_rejected_lemma_certificate_exits_three(self, capsys, monkeypatch, module):
        monkeypatch.setattr(module, "check_certificate", lambda system, cert: False)
        code, report, err = invoke(capsys, ["lemma", "verify", "local-1"])
        assert code == 3
        assert report is None
        assert err.startswith("internal failure: RuntimeError")

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["alpha", "--help"], ["alpha", "theorem", "--help"]):
            code = run(argv)
            capsys.readouterr()
            assert code == 0


class TestDeterminismAndRoundTrip:
    def test_byte_identical_reruns(self, capsys):
        outputs = []
        for _ in range(2):
            run(["classify", "--class", HALF_PENCIL])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        run(["lemma", "verify", "adj-4"])
        first = capsys.readouterr().out
        run(["lemma", "verify", "adj-4"])
        assert capsys.readouterr().out == first

    def test_rationals_round_trip(self, capsys):
        code, report, _ = invoke(capsys, ["classify", "--class", HALF_PENCIL])
        profile = report["outputs"]["profile"]
        assert Fraction(profile["mu"]) == F(1)
        assert [Fraction(x) for x in profile["a"]] == [F(1, 2)] + [F(0)] * 7
        # every printed rational is p/q in lowest terms with positive q
        code, report, _ = invoke(capsys, ["counterexample", "--lambda", "34/100"])
        alpha = report["outputs"]["alpha"]
        assert alpha == "200/201" and Fraction(alpha) == F(200, 201)

    def test_curve_classes_round_trip(self, capsys):
        from dp1alpha.picard import parse_class, pairing, canonical_class

        code, report, _ = invoke(capsys, ["curves", "enumerate"])
        k = canonical_class()
        classes = [parse_class(text) for text in report["outputs"]["classes"]]
        assert len(set(classes)) == 240
        assert all(pairing(v, v) == -1 and pairing(v, k) == -1 for v in classes)

    def test_sorted_keys_in_output(self, capsys):
        run(["counterexample", "--lambda", "1/2"])
        out = capsys.readouterr().out
        assert out.index('"alpha"') < out.index('"alpha_c"') < out.index(
            '"conjecture_violated"'
        )


class TestDecimalRendering:
    def test_decimal_added_alongside_exact(self, capsys):
        code, report, _ = invoke(
            capsys, ["counterexample", "--lambda", "1/2", "--decimal", "3"]
        )
        assert report["outputs"]["alpha"] == {"exact": "8/9", "decimal": "0.889"}
        assert report["outputs"]["alpha_c"] == {"exact": "1", "decimal": "1.000"}

    def test_decimal_zero_digits(self, capsys):
        code, report, _ = invoke(
            capsys,
            ["alpha", "theorem", "--lambda", "1/2", "--n", "1", "--alpha-s", "1",
             "--decimal", "0"],
        )
        assert report["outputs"]["alpha"] == {"exact": "8/9", "decimal": "1"}

    def test_negative_value_decimal(self, capsys):
        code, report, _ = invoke(
            capsys,
            ["alpha", "theorem", "--lambda", "-1/5", "--n", "1", "--alpha-s", "1/2",
             "--allow-negative-lambda", "--decimal", "4"],
        )
        # (1/2)/(3/5) = 5/6
        assert report["outputs"]["alpha"] == {"exact": "5/6", "decimal": "0.8333"}

    def test_default_output_is_exact_only(self, capsys):
        code, report, _ = invoke(capsys, ["counterexample", "--lambda", "1/2"])
        assert isinstance(report["outputs"]["alpha"], str)


class TestDigitCaps:
    """Inputs past MAX_DIGITS end in exit 2 with the program's own message."""

    TABLE = ["alpha", "table", "--degree", "3", "--flags", "eckardt"]

    def test_decimal_at_the_cap(self, capsys):
        code, report, _ = invoke(capsys, self.TABLE + ["--decimal", str(MAX_DIGITS)])
        assert code == 0
        decimal = report["outputs"]["alpha"]["decimal"]
        assert decimal == "0." + "6" * (MAX_DIGITS - 1) + "7"

    @pytest.mark.parametrize("digits", [str(MAX_DIGITS + 1), "4301", "9" * 5000])
    def test_decimal_past_the_cap(self, capsys, digits):
        code, report, err = invoke(capsys, self.TABLE + ["--decimal", digits])
        assert code == 2 and report is None
        assert f"must be an integer from 0 to {MAX_DIGITS}" in err
        assert "limit" not in err

    def test_class_numeral_at_the_cap(self, capsys):
        big = "3" + "0" * (MAX_DIGITS - 1)
        for cls in (f"{big},-1,-1,-1,-1,-1,-1,-1,-1", f"3,-1,-1,-1,-1,-1,-1,-1,-1/{big}"):
            code, report, _ = invoke(capsys, ["ample", "--class", cls])
            assert code == 0
            assert report["outputs"] == {"class": cls, "ample": True}

    @pytest.mark.parametrize("length", [MAX_DIGITS + 1, 4400])
    def test_class_numeral_past_the_cap(self, capsys, length):
        big = "3" + "0" * (length - 1)
        for numeral in (big, f"-1/{big}"):
            cls = f"3,-1,-1,-1,-1,-1,-1,-1,{numeral}"
            for command in (["ample"], ["classify"]):
                code, report, err = invoke(capsys, command + ["--class", cls])
                assert code == 2 and report is None
                assert f"limited to {MAX_DIGITS} digits" in err
                assert "Exceeds" not in err


PICARD = {"picard"}
CONE = {"cone", "linprog"} | PICARD
ALPHA = {"alpha"} | CONE
WEIERSTRASS = {"weierstrass"}
LEMMAS = {"lemmas", "fme"}

# Every command of the README's subcommand list, a few failures, and the
# dp1alpha.* modules a fresh process must load for each (besides cli and
# rationals, which every command loads).
COLD_COMMANDS = [
    (["curves", "enumerate"], PICARD),
    (["curves", "enumerate", "--kind", "conic"], PICARD),
    (["ample", "--class", HALF_PENCIL], CONE),
    (["classify", "--class", HALF_PENCIL], CONE),
    (["alpha", "conjecture", "--class", HALF_PENCIL], ALPHA),
    (["alpha", "theorem", "--lambda", "1/2", "--n", "1", "--alpha-s", "1"], ALPHA),
    (["alpha", "theorem", "--lambda", "-1/5", "--n", "2", "--alpha-s", "5/6",
      "--allow-negative-lambda"], ALPHA),
    (["alpha", "table", "--degree", "1", "--flags", "no-cuspidal"], ALPHA),
    (["surface", "analyze", "--a", "4:1,0,0,0,0", "--b", "6:0,0,0,0,0,0,1"], WEIERSTRASS),
    (["surface", "analyze", "--a", "4:1,0,0,0,0", "--b", "6:0,0,0,0,0,0,1",
      "--q", "2:0,0,0", "--g", "3:0,0,0,1"], WEIERSTRASS),
    (["counterexample", "--lambda", "1/2", "--decimal", "5"], ALPHA | WEIERSTRASS),
    (["range", "kstable", "--lambda", "1/5"], ALPHA),
    (["range", "cylinder", "--lambda", "-1/4"], ALPHA),
    (["lemma", "verify", "local-1"], LEMMAS),
    (["lemma", "verify", "local-1", "--probe", "main:x-cap"], LEMMAS),
    # exit 1 (LemmaProbeError), and exit 2 from NotASectionError and ValueError
    (["lemma", "verify", "local-1", "--probe", "main:mult"], LEMMAS),
    (["surface", "analyze", "--a", "4:1,0,0,0,0", "--b", "6:0,0,0,0,0,0,1",
      "--q", "2:0,0,0", "--g", "3:1,0,0,1"], WEIERSTRASS),
    (["counterexample", "--lambda", "3/2"], ALPHA),
    (["lemma", "verify", "nosuch"], LEMMAS),
    # argparse errors and help load nothing past the parser
    (["lemma", "verify", "--help"], set()),
    (["alpha", "theorem", "--lambda", "1/2", "--n", "4", "--alpha-s", "1"], set()),
]

_COLD_RUN = (
    "import json, sys\n"
    "from dp1alpha import cli\n"
    "code = cli.run(sys.argv[1:])\n"
    "loaded = sorted(m for m in sys.modules if m.startswith('dp1alpha.'))\n"
    "print(json.dumps([code, loaded]), file=sys.stderr)\n"
)


class TestColdProcess:
    """A fresh interpreter imports only what the command calls, and prints the same bytes.

    In-process tests cannot see a missing lazy binding: earlier tests have
    already imported every module.
    """

    @pytest.mark.parametrize(
        "argv, modules", [pytest.param(*case, id=" ".join(case[0])) for case in COLD_COMMANDS]
    )
    def test_same_output_from_only_the_modules_it_calls(
        self, capsys, monkeypatch, argv, modules
    ):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal
        cold = subprocess.run(
            [sys.executable, "-c", _COLD_RUN, *argv],
            capture_output=True, text=True, env=child_env(),
        )
        assert cold.returncode == 0, cold.stderr
        *messages, status = cold.stderr.splitlines()
        code, loaded = json.loads(status)
        assert loaded == sorted(f"dp1alpha.{m}" for m in modules | {"cli", "rationals"})

        capsys.readouterr()
        assert code == run(argv)
        warm = capsys.readouterr()
        assert cold.stdout == warm.out
        assert messages == warm.err.splitlines()


class TestParserShape:
    def test_build_parser_is_reusable(self):
        parser = build_parser()
        args = parser.parse_args(["curves", "enumerate"])
        assert args.command_path == "curves enumerate"

    def test_console_script_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "dp1alpha.cli", "alpha", "table", "--degree", "9"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["outputs"]["alpha"] == "1/3"
