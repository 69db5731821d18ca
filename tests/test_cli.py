"""Tests for the JSON command-line front end."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dp1alpha
import dp1alpha.cli as cli
from dp1alpha import fme, lemmas
from dp1alpha.cli import build_parser, run
from dp1alpha.cone import UnclassifiableError
from dp1alpha.rationals import MAX_DIGITS, format_rational, parse_rational
from dp1alpha.weierstrass import BinaryForm, NotASectionError, format_form

F = Fraction

README = Path(__file__).resolve().parents[1] / "README.md"
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


def readme_commands() -> list[list[str]]:
    """The argv of each runnable command line in the README's subcommand list."""
    return [
        line.split()[1:]
        for line in README.read_text().splitlines()
        if line.startswith("dp1alpha ") and "[" not in line
    ]


def _is_rational(text: str) -> bool:
    try:
        parse_rational(text)
    except ValueError:
        return False
    return True


# The output keys whose values are counts or indices, not rationals.
INTEGER_KEYS = {"count", "n_intersections", "strict_indices"}


def _rational_leaves(plain, decimal, key=None):
    """(exact, {"exact", "decimal"}) for each rational leaf of two renderings of one report.

    Every other leaf must be the same in both; a string that reads as a
    rational must have been rendered as one, and a JSON number may only be a
    count or an index.
    """
    if isinstance(decimal, dict) and decimal.keys() == {"exact", "decimal"}:
        yield plain, decimal
    elif isinstance(plain, dict):
        assert isinstance(decimal, dict) and plain.keys() == decimal.keys()
        for k in plain:
            yield from _rational_leaves(plain[k], decimal[k], k)
    elif isinstance(plain, list):
        assert isinstance(decimal, list) and len(plain) == len(decimal)
        for p, d in zip(plain, decimal):
            yield from _rational_leaves(p, d, key)
    else:
        assert plain == decimal
        assert not (isinstance(plain, str) and _is_rational(plain)), (key, plain)
        assert not isinstance(plain, (int, float)) or isinstance(plain, bool) or (
            key in INTEGER_KEYS
        ), (key, plain)


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
            ["surface", "analyze", "--a", "x:1", "--b", "6:0,0,0,0,0,0,1"],  # bad degree
            ["surface", "analyze", "--a", "3:1,0,0,0", "--b", "6:0,0,0,0,0,0,1"],  # cubic a
            ["surface", "analyze", "--a", "4:1,0,0,0,0", "--b", "5:0,0,0,0,0,1"],  # quintic b
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
        readme = README.read_text()
        assert all(f"`{lemma_id}`" in readme for lemma_id in lemmas.LEMMA_IDS)

    def test_redundant_probe_is_verification_failure(self, capsys):
        # dropping a redundant row keeps the system infeasible: exit 1
        code, report, err = invoke(
            capsys, ["lemma", "verify", "local-1", "--probe", "main:mult"]
        )
        assert code == 1
        assert report is None
        assert "verification failure" in err

    def test_feasible_lemma_case_prints_its_report_and_exits_one(self, capsys, monkeypatch):
        witness = {"x": F(3, 2), "a": F(0)}
        report = lemmas.LemmaReport(
            "local-1", False, (lemmas.CaseReport("main", False, None, witness),)
        )
        monkeypatch.setattr(cli, "verify_lemma", lambda lemma_id: report)
        code, printed, err = invoke(capsys, ["lemma", "verify", "local-1"])
        assert code == 1 and err == ""
        assert printed["outputs"] == {
            "lemma": "local-1",
            "verified": False,
            "cases": [{"name": "main", "infeasible": False, "witness": {"a": "0", "x": "3/2"}}],
        }
        code, printed, err = invoke(capsys, ["lemma", "verify", "local-1", "--decimal", "2"])
        assert code == 1 and err == ""
        assert printed["outputs"]["cases"][0]["witness"]["x"] == {"exact": "3/2", "decimal": "1.50"}

    def test_exceptions_reach_their_exit_codes_through_their_bases(self):
        assert issubclass(NotASectionError, ValueError)
        assert issubclass(UnclassifiableError, RuntimeError)
        assert issubclass(lemmas.LemmaProbeError, RuntimeError)  # so run() catches it first

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

    @pytest.mark.parametrize(
        "argv", [pytest.param(argv, id=" ".join(argv)) for argv in readme_commands()]
    )
    def test_every_rational_of_a_readme_command_gains_its_decimal(self, capsys, argv):
        code, plain, _ = invoke(capsys, argv)
        assert code == 0
        code, decimal, _ = invoke(capsys, argv + ["--decimal", "3"])
        assert code == 0
        assert decimal["inputs"] == plain["inputs"]
        pairs = list(_rational_leaves(plain["outputs"], decimal["outputs"]))
        assert bool(pairs) == (argv[0] not in ("curves", "ample", "range"))
        for exact, rendered in pairs:
            assert rendered["exact"] == exact
            assert re.fullmatch(r"-?[0-9]+\.[0-9]{3}", rendered["decimal"])
            assert Fraction(rendered["decimal"]) == Fraction(round(Fraction(exact) * 1000), 1000)


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


# -- grammar fuzz --------------------------------------------------------------

_JUNK = st.text(alphabet="0123456789-/:,+. xe\n", max_size=8)
_SMALL = st.integers(-999_999, 999_999)  # long numerals are the slow path of surface analyze
_FRACTION = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
_FLAGS = ["cuspidal", "no-cuspidal", "tacnodal", "no-tacnodal", "eckardt", "no-eckardt",
          "f1", "p1xp1"]
_ROW_TAGS = [
    f"{case.name}:{tag}"
    for encoding in lemmas.LEMMA_BANK.values() for case in encoding.cases
    for tag in case.row_tags()
]


def _near_minus_k(shifts: list[Fraction]) -> str:
    """-K moved by small rationals on e1..e8: ample or not, and cheap to classify."""
    return ",".join(["3"] + [format_rational(s / 48 - 1) for s in shifts])


def _optional(option: str, values) -> st.SearchStrategy[list[str]]:
    return st.one_of(st.just([]), values.map(lambda v: [option, v]))


def _commands(junk: bool) -> dict[str, st.SearchStrategy[list[str]]]:
    """An argv strategy per subcommand: its documented grammars, and with junk any text too."""

    def token(valid):
        return st.one_of(valid, _JUNK) if junk else valid

    rational = token(st.one_of(
        _FRACTION.map(format_rational),
        _SMALL.map(str),
        st.builds(lambda p, q: f"{p}/{q}", _SMALL, st.integers(1, 999_999)),
    ))
    cls = token(st.one_of(
        st.lists(_FRACTION, min_size=8, max_size=8).map(_near_minus_k),
        st.lists(rational, min_size=9, max_size=9).map(",".join),
    ))
    if junk:
        cls = st.one_of(cls, st.lists(rational, max_size=12).map(",".join))
    coeff = st.one_of(st.integers(-3, 3), _FRACTION, _SMALL).map(format_rational)

    def form(degree):
        well_formed = st.lists(token(coeff), min_size=degree + 1, max_size=degree + 1).map(
            lambda cs: f"{degree}:" + ",".join(cs)
        )
        if not junk:
            return well_formed
        return st.one_of(well_formed, _JUNK, st.builds(
            lambda d, cs: f"{d}:" + ",".join(cs), st.integers(-1, 8), st.lists(rational, max_size=9)
        ))

    cubic = st.lists(st.integers(-3, 3), min_size=4, max_size=4).map(lambda c: BinaryForm(3, c))
    return {
        "ample": cls.map(lambda v: ["ample", "--class", v]),
        "classify": cls.map(lambda v: ["classify", "--class", v]),
        "alpha conjecture": cls.map(lambda v: ["alpha", "conjecture", "--class", v]),
        "alpha theorem": st.builds(
            lambda lam, n, s, neg: ["alpha", "theorem", "--lambda", lam, "--n", n,
                                    "--alpha-s", s] + neg,
            rational, token(st.sampled_from(["1", "2", "3"])), rational,
            st.sampled_from([[], ["--allow-negative-lambda"]]),
        ),
        "alpha table": st.builds(
            lambda d, f: ["alpha", "table", "--degree", d] + f,
            token(st.integers(1, 9).map(str)),
            _optional("--flags", token(st.sampled_from(_FLAGS))),
        ),
        "surface analyze": st.one_of(
            st.builds(lambda a, b, q, g: ["surface", "analyze", "--a", a, "--b", b] + q + g,
                      form(4), form(6), _optional("--q", form(2)), _optional("--g", form(3))),
            # b = g^2, so q = 0 and g form a section pair
            st.builds(lambda a, g: ["surface", "analyze", "--a", a, "--b", format_form(g * g),
                                    "--q", "2:0,0,0", "--g", format_form(g)], form(4), cubic),
        ),
        "counterexample": rational.map(lambda lam: ["counterexample", "--lambda", lam]),
        "range": st.builds(lambda w, lam: ["range", w, "--lambda", lam],
                           token(st.sampled_from(["kstable", "cylinder"])), rational),
        "lemma verify": st.builds(
            lambda i, probe: ["lemma", "verify", i] + probe,
            token(st.sampled_from(lemmas.LEMMA_IDS)),
            _optional("--probe", token(st.sampled_from(_ROW_TAGS))),
        ),
    }


_GRAMMARS = {junk: _commands(junk) for junk in (False, True)}


def _decimal(junk: bool) -> st.SearchStrategy[list[str]]:
    digits = st.one_of(st.integers(0, 12), st.integers(0, MAX_DIGITS)).map(str)
    return _optional("--decimal", st.one_of(digits, _JUNK) if junk else digits)


class TestGrammarFuzz:
    """Every input keeps the exit-code contract, in the documented grammars and outside them."""

    @pytest.mark.parametrize("junk", [False, True], ids=["grammar", "junk"])
    @pytest.mark.parametrize("command", sorted(_GRAMMARS[False]))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_contract(self, command, junk, data):
        argv = data.draw(_GRAMMARS[junk][command]) + data.draw(_decimal(junk))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in err
        if code == 0:
            report = json.loads(out)
            assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
            assert report["command"] == command and err == ""
            return
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n"), err
        if code == 1:  # a designated row whose removal leaves the system infeasible
            assert "--probe" in argv and err.startswith("verification failure: "), err
        else:
            assert code == 2, err


PICARD = {"picard"}
CONE = {"cone"} | PICARD
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
    "before = set(sys.modules)\n"
    "from dp1alpha import cli\n"
    "code = cli.run(sys.argv[1:])\n"
    "loaded = sorted(m for m in sys.modules if m.startswith('dp1alpha.'))\n"
    "added = sorted({m.partition('.')[0] for m in sys.modules.keys() - before})\n"
    "print(json.dumps([code, loaded, added]), file=sys.stderr)\n"
)


class TestColdProcess:
    """A fresh interpreter imports only what the command calls, and prints the same bytes.

    Besides the package, a command may import only standard-library modules.

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
        code, loaded, added = json.loads(status)
        assert loaded == sorted(f"dp1alpha.{m}" for m in modules | {"cli", "rationals"})
        # no runtime dependencies: the command adds only the package and the standard library
        assert {m for m in added if m != "dp1alpha"} <= sys.stdlib_module_names, added

        capsys.readouterr()
        assert code == run(argv)
        warm = capsys.readouterr()
        assert cold.stdout == warm.out
        assert messages == warm.err.splitlines()


class TestNames:
    """`cli` resolves the names its handlers call through the package's table."""

    @pytest.mark.parametrize("name", ["no_such_name", "_kodaira", "fme"])
    def test_other_names_raise_attribute_error(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(cli, name)

    def test_names_are_the_package_objects_in_a_fresh_interpreter(self):
        check = (
            "import dp1alpha, dp1alpha.cli as cli\n"
            "assert cli.classify is dp1alpha.classify is dp1alpha.cone.classify\n"
            "assert all(getattr(cli, n) is getattr(dp1alpha, n) for n in dp1alpha.__all__)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", check], capture_output=True, text=True, env=child_env()
        )
        assert done.returncode == 0, done.stderr


class TestClosedPipe:
    def test_reader_closing_early_gives_status_141_and_no_traceback(self):
        # The conic report (about 75 KB) outgrows a 64 KB pipe buffer, so the
        # process is still writing when the reader goes away.
        child = subprocess.Popen(
            [sys.executable, "-m", "dp1alpha.cli", "curves", "enumerate", "--kind", "conic"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=child_env(),
        )
        assert child.stdout.read(16).startswith(b"{")
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 141
        assert err == b""


class TestParserShape:
    def test_build_parser_is_reusable(self, capsys):
        parser = build_parser()
        first = parser.parse_args(["curves", "enumerate"])
        second = parser.parse_args(["curves", "enumerate", "--kind", "conic"])
        assert (first.kind, second.kind) == ("minus-one", "conic")
        assert first.handler is second.handler
        code, report, _ = invoke(capsys, ["curves", "enumerate"])
        assert code == 0 and report["command"] == "curves enumerate"

    def test_console_script_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "dp1alpha.cli", "alpha", "table", "--degree", "9"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["outputs"]["alpha"] == "1/3"
