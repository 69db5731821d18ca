"""JSON command-line front end.

Every invocation prints a single deterministic JSON report::

    {"command": "...", "inputs": {...}, "outputs": {...}}

where ``inputs`` echoes the parsed arguments other than ``--decimal``.  Keys
are sorted and every rational is rendered exactly as ``p/q`` in lowest terms
(``--decimal k`` adds a k-digit decimal rendering alongside, never replacing
the exact value).  Input numerators and denominators have at most
``rationals.MAX_DIGITS`` digits, and k is at most that number.

Exit codes: 0 success; 1 verification failure (a report whose outputs say
``"verified": false``, printed with the feasible case's witness; a relaxation
probe that stays infeasible prints nothing on stdout); 2 malformed input;
3 internal failure (a classification or certificate check that does not hold
up).  Except for that lemma report, stdout stays empty on 1, 2 and 3, and
stderr gets one line.  ``entry`` exits 141, the shell's SIGPIPE status, when
the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any, NoReturn, Sequence

from .rationals import MAX_DIGITS, format_rational, parse_rational

if TYPE_CHECKING:
    from .cone import PolarizationProfile

__all__ = ["build_parser", "entry", "run"]


def __getattr__(name: str) -> Any:
    """Bind a public name of the package (``cli.classify``) on first access (PEP 562).

    The package imports only the submodule that defines the name, so a command
    imports only the submodules it calls.  The handlers call through these
    bindings (``_cli.classify``), so rebinding ``cli.classify`` changes what runs.
    """
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


_cli = sys.modules[__name__]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _decimal_string(value: Fraction, digits: int) -> str:
    """Fixed-point rendering with the requested number of fractional digits."""
    scale = 10**digits
    scaled = round(value * scale)  # ties-to-even on exact rationals
    sign = "-" if scaled < 0 else ""
    magnitude = abs(scaled)
    if digits == 0:
        return f"{sign}{magnitude}"
    return f"{sign}{magnitude // scale}.{magnitude % scale:0{digits}d}"


def _render_rational(value: Any, decimal_digits: int | None) -> Any:
    """The JSON encoder's ``default``: a Fraction as ``p/q``, with a decimal if asked."""
    if not isinstance(value, Fraction):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    exact = format_rational(value)
    if decimal_digits is None:
        return exact
    return {"exact": exact, "decimal": _decimal_string(value, decimal_digits)}


def _profile_json(profile: PolarizationProfile) -> dict[str, Any]:
    return {
        "type": profile.type_tag,
        "mu": profile.mu,
        "a": profile.a,
        "delta": profile.delta,
        "s_A": profile.s_A,
        "face_generators": [_cli.format_class(v) for v in sorted(profile.face_generators)],
        "basis": [_cli.format_class(v) for v in profile.basis],
        "conic": None if profile.conic is None else _cli.format_class(profile.conic),
    }


# ---------------------------------------------------------------------------
# Handlers: each returns its outputs; rationals stay Fractions
# ---------------------------------------------------------------------------

def _handle_curves_enumerate(args):
    if args.kind == "minus-one":
        rows = _cli.enumerate_minus_one_classes().rows
    else:
        rows = _cli.enumerate_conic_classes().rows
    # integer rows in ascending order: the sorted classes, as format_class prints them
    return {"count": len(rows), "classes": [",".join(map(str, row)) for row in rows]}


def _handle_ample(args):
    v = _cli.parse_class(getattr(args, "class"))
    return {"class": _cli.format_class(v), "ample": _cli.is_ample(v)}


def _handle_classify(args):
    v = _cli.parse_class(getattr(args, "class"))
    return {"class": _cli.format_class(v), "profile": _profile_json(_cli.classify(v))}


def _handle_alpha_conjecture(args):
    profile = _cli.classify(_cli.parse_class(getattr(args, "class")))
    return {"alpha_c": _cli.alpha_conjecture(profile), "profile": _profile_json(profile)}


def _handle_alpha_theorem(args):
    lam = parse_rational(getattr(args, "lambda"))
    if lam < 0 and not args.allow_negative_lambda:
        raise ValueError(
            "negative lambda is gated behind --allow-negative-lambda "
            "(the default range is 0 <= lambda < 1)"
        )
    return {"alpha": _cli.alpha_theorem(lam, args.n, parse_rational(args.alpha_s))}


def _handle_alpha_table(args):
    return {"alpha": _cli.alpha_del_pezzo(args.degree, args.flags)}


def _handle_surface_analyze(args):
    if (args.q is None) != (args.g is None):
        raise ValueError("--q and --g must be given together")
    surface = _cli.WeierstrassSurface(a=_cli.parse_form(args.a), b=_cli.parse_form(args.b))
    smooth = _cli.is_smooth(surface)
    outputs: dict[str, Any] = {"smooth": smooth}
    if smooth:
        outputs["has_cuspidal_member"] = _cli.has_cuspidal_member(surface)
        outputs["alpha_s"] = _cli.alpha_of_surface(surface)
    if args.q is not None:
        pairs = [_cli.section_pair(surface, _cli.parse_form(args.q), _cli.parse_form(args.g))]
    else:
        pairs = _cli.find_square_sections(surface)
    outputs["sections"] = [
        {
            "q": _cli.format_form(p.q),
            "g": _cli.format_form(p.g),
            "n_intersections": p.n_intersections,
        }
        for p in pairs
    ]
    return outputs


def _handle_counterexample(args):
    report = _cli.counterexample_report(parse_rational(getattr(args, "lambda")))
    return {
        "alpha": report.alpha,
        "alpha_c": report.alpha_c,
        "conjecture_violated": report.conjecture_violated,
    }


def _handle_range(args):
    lam = parse_rational(getattr(args, "lambda"))
    if args.window == "kstable":
        return {"contains": _cli.kstable_range_contains(lam)}
    return {"contains": _cli.cylinder_range_contains(lam)}


def _handle_lemma_verify(args):
    if args.probe is not None:
        witness = _cli.relaxation_probe(args.lemma, args.probe)
        return {"lemma": args.lemma, "probe": args.probe, "feasible": True, "witness": witness}
    report = _cli.verify_lemma(args.lemma)
    cases = []
    for case in report.cases:
        entry_json: dict[str, Any] = {"name": case.name, "infeasible": case.infeasible}
        if case.certificate is not None:
            entry_json["certificate"] = {
                "multipliers": case.certificate.multipliers,
                "strict_indices": sorted(case.certificate.strict_indices),
            }
        if case.witness is not None:
            entry_json["witness"] = case.witness
        cases.append(entry_json)
    return {"lemma": args.lemma, "verified": report.verified, "cases": cases}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _decimal_digits(text: str) -> int:
    text = text.strip()
    if not (
        text.isascii() and text.isdigit()
        and len(text) <= len(str(MAX_DIGITS)) and int(text) <= MAX_DIGITS
    ):
        raise argparse.ArgumentTypeError(f"must be an integer from 0 to {MAX_DIGITS}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, without the usage text, and exits 2."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {' '.join(message.splitlines())}\n")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--decimal",
        type=_decimal_digits,
        metavar="K",
        default=None,
        help="also render each rational as a K-digit decimal",
    )

    parser = _Parser(
        prog="dp1alpha",
        description="Exact alpha-invariant computations on degree-one del Pezzo surfaces.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    curves = top.add_parser("curves", help="curve-class enumerations")
    curves_sub = curves.add_subparsers(dest="subcommand", required=True)
    enum = curves_sub.add_parser(
        "enumerate", parents=[common], help="list (-1)-classes or conic classes"
    )
    enum.add_argument(
        "--kind", choices=("minus-one", "conic"), default="minus-one",
        help="which family to enumerate (default: minus-one)",
    )
    enum.set_defaults(handler=_handle_curves_enumerate)

    ample = top.add_parser("ample", parents=[common], help="test ampleness of a class")
    ample.add_argument(
        "--class", required=True, metavar="C0,...,C8",
        help="nine comma-separated rationals",
    )
    ample.set_defaults(handler=_handle_ample)

    cls_cmd = top.add_parser(
        "classify", parents=[common], help="type and coefficients of an ample class"
    )
    cls_cmd.add_argument(
        "--class", required=True, metavar="C0,...,C8",
        help="nine comma-separated rationals; must be ample",
    )
    cls_cmd.set_defaults(handler=_handle_classify)

    alpha = top.add_parser("alpha", help="alpha-invariant calculators")
    alpha_sub = alpha.add_subparsers(dest="subcommand", required=True)

    conj = alpha_sub.add_parser(
        "conjecture", parents=[common],
        help="conjectural nine-branch formula on an ample class",
    )
    conj.add_argument(
        "--class", required=True, metavar="C0,...,C8",
        help="nine comma-separated rationals; must be ample",
    )
    conj.set_defaults(handler=_handle_alpha_conjecture)

    theorem = alpha_sub.add_parser(
        "theorem", parents=[common],
        help="proven formula for -K + lambda*C on a degree-one surface",
    )
    theorem.add_argument("--lambda", required=True, metavar="P/Q")
    theorem.add_argument("--n", type=int, choices=(1, 2, 3), required=True,
                         help="number of distinct points where the sections meet")
    theorem.add_argument("--alpha-s", required=True, metavar="P/Q",
                         help="global alpha of the surface, in (0, 1]")
    theorem.add_argument(
        "--allow-negative-lambda", action="store_true",
        help="extend the default range [0, 1) down to (-1/3, 1)",
    )
    theorem.set_defaults(handler=_handle_alpha_theorem)

    table = alpha_sub.add_parser(
        "table", parents=[common],
        help="anticanonical alpha of a smooth del Pezzo surface by degree",
    )
    table.add_argument("--degree", type=int, choices=range(1, 10), required=True)
    table.add_argument(
        "--flags", default=None,
        help="geometric flag for degrees 1, 2, 3, 8 "
        "(cuspidal/no-cuspidal, tacnodal/no-tacnodal, eckardt/no-eckardt, f1/p1xp1)",
    )
    table.set_defaults(handler=_handle_alpha_table)

    surface = top.add_parser("surface", help="Weierstrass-model analysis")
    surface_sub = surface.add_subparsers(dest="subcommand", required=True)
    analyze = surface_sub.add_parser(
        "analyze", parents=[common],
        help="smoothness, cusp flag, global alpha, and section pairs",
    )
    analyze.add_argument("--a", required=True, metavar="4:C0,...,C4",
                         help="binary quartic as degree:coefficients")
    analyze.add_argument("--b", required=True, metavar="6:C0,...,C6",
                         help="binary sextic as degree:coefficients")
    analyze.add_argument("--q", default=None, metavar="2:C0,C1,C2",
                         help="optional section datum q (with --g)")
    analyze.add_argument("--g", default=None, metavar="3:C0,...,C3",
                         help="optional section datum g (with --q)")
    analyze.set_defaults(handler=_handle_surface_analyze)

    ce = top.add_parser(
        "counterexample", parents=[common],
        help="proven alpha against the conjectural formula at -K + lambda*C",
    )
    ce.add_argument("--lambda", required=True, metavar="P/Q",
                    help="rational in [0, 1)")
    ce.set_defaults(handler=_handle_counterexample)

    rng = top.add_parser("range", parents=[common], help="interval membership tests")
    rng.add_argument("window", choices=("kstable", "cylinder"))
    rng.add_argument("--lambda", required=True, metavar="P/Q")
    rng.set_defaults(handler=_handle_range)

    lemma = top.add_parser("lemma", help="certified inequality lemmas")
    lemma_sub = lemma.add_subparsers(dest="subcommand", required=True)
    verify = lemma_sub.add_parser(
        "verify", parents=[common],
        help="verify one lemma, or run a designated relaxation probe",
    )
    verify.add_argument(
        "lemma", metavar="LEMMA_ID",
        help="a lemma id such as local-1; README.md lists them, "
        "and an unknown id exits 2 with the list",
    )
    verify.add_argument(
        "--probe", default=None, metavar="CASE:ROW",
        help="drop the named row and exhibit a feasible witness instead",
    )
    verify.set_defaults(handler=_handle_lemma_verify)

    return parser


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


# Options whose values may start with "-" (negative rationals, classes whose
# leading coordinate is negative).  Merged to --option=value before parsing so
# argparse does not mistake the value for an option string.
_NEGATIVE_VALUE_OPTIONS = frozenset({"--lambda", "--alpha-s", "--class"})


def _merge_negative_values(argv: Sequence[str]) -> list[str]:
    merged: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        if token in _NEGATIVE_VALUE_OPTIONS:
            value = next(tokens, None)
            merged.append(token if value is None else f"{token}={value}")
        else:
            merged.append(token)
    return merged


def _probe_error() -> tuple[type[Exception], ...]:
    """``lemmas.LemmaProbeError``, or () if this command never loaded ``lemmas``.

    An except clause evaluates this only when an exception reaches it, and a
    submodule this command never imported cannot have raised.
    """
    lemmas = sys.modules.get(f"{__package__}.lemmas")
    return () if lemmas is None else (lemmas.LemmaProbeError,)


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one command; print its JSON report; return the exit code."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(argv))
    except SystemExit as exc:  # argparse already reported the problem
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        outputs = args.handler(args)
    except _probe_error() as exc:  # a RuntimeError, so it comes first
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:
        print(f"internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    command = " ".join(vars(args)[key] for key in ("command", "subcommand") if key in args)
    inputs = {
        key: value for key, value in vars(args).items()
        if key not in ("command", "subcommand", "handler", "decimal")
    }
    report = {"command": command, "inputs": inputs, "outputs": outputs}
    print(json.dumps(
        report, indent=2, sort_keys=True,
        default=lambda value: _render_rational(value, args.decimal),
    ))
    return 1 if outputs.get("verified") is False else 0


def entry() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull so the
        # interpreter's final flush stays quiet, and exit with the status a
        # shell gives a process that SIGPIPE ends (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
