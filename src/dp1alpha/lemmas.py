"""Machine-checked inequality lemmas for iterated blow-up analyses.

The bank stores each lemma as data: per-case named variables and tagged
constraint rows, each with a note saying what the inequality asserts.  Every
variable is a nonnegative quantity (a boundary coefficient, a point
multiplicity, or a local intersection number), so nonnegativity rows are
generated uniformly.  Verification demands an infeasibility certificate for
every case from the Fourier-Motzkin prover; relaxation probes drop one
designated row and must come back feasible, showing the dropped hypothesis
is load-bearing rather than decorative.

Variable glossary: x is a margin parameter in [0, 1]; a and b are
boundary-curve coefficients; m, mt, mh are multiplicities of the mobile part
at the center and at the infinitely near points of the first and second
blow-ups; T (or TC, TZ for two marked curves) is the local intersection of
the mobile part with a marked curve at the center; TQ, TO, TE are the
residual local intersections after one, two, three blow-ups; W and U are
local intersections with an exceptional curve at the inspected point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fme import (
    LE,
    LT,
    FarkasCertificate,
    Feasible,
    LinearSystem,
    check_certificate,
    prove_infeasible,
)

NODE = "node"
CUSP = "cusp"


class LemmaProbeError(RuntimeError):
    """A relaxation probe stayed infeasible: the encoding is too strong."""


@dataclass(frozen=True)
class ConstraintRow:
    """One tagged inequality of a case system."""

    tag: str
    coeffs: tuple[tuple[str, Fraction], ...]
    relation: str
    rhs: Fraction
    note: str


@dataclass(frozen=True)
class LemmaCase:
    """One branch of a lemma's proof, as a standalone linear system."""

    name: str
    variables: tuple[str, ...]
    rows: tuple[ConstraintRow, ...]

    def row_tags(self) -> tuple[str, ...]:
        return tuple(row.tag for row in self.rows)

    def system(self, drop: str | None = None) -> LinearSystem:
        constraints = []
        for row in self.rows:
            if row.tag == drop:
                continue
            mapping = dict(row.coeffs)
            coeffs = tuple(mapping.get(v, Fraction(0)) for v in self.variables)
            constraints.append((coeffs, row.relation, row.rhs))
        return LinearSystem(self.variables, constraints)


@dataclass(frozen=True)
class RelaxationProbe:
    """A designated row whose removal must open the case system."""

    case_name: str
    row_tag: str
    expected_witness: tuple[Fraction, ...]

    @property
    def tag(self) -> str:
        return f"{self.case_name}:{self.row_tag}"


@dataclass(frozen=True)
class LemmaEncoding:
    lemma_id: str
    cases: tuple[LemmaCase, ...]
    probes: tuple[RelaxationProbe, ...]


@dataclass(frozen=True)
class CaseReport:
    name: str
    infeasible: bool
    certificate: FarkasCertificate | None
    witness: dict[str, Fraction] | None


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: str
    verified: bool
    cases: tuple[CaseReport, ...]


def _case(name: str, variables: tuple[str, ...], entries: list[tuple]) -> LemmaCase:
    rows = [
        ConstraintRow(
            f"nonneg-{v}", ((v, Fraction(-1)),), LE, Fraction(0), f"{v} >= 0"
        )
        for v in variables
    ]
    for tag, coeffs, relation, rhs, note in entries:
        unknown = set(coeffs) - set(variables)
        if unknown:
            raise ValueError(f"case {name}: unknown variables {sorted(unknown)}")
        rows.append(
            ConstraintRow(
                tag,
                tuple((v, Fraction(c)) for v, c in coeffs.items()),
                relation,
                Fraction(rhs),
                note,
            )
        )
    tags = [row.tag for row in rows]
    if len(set(tags)) != len(tags):
        raise ValueError(f"case {name}: duplicate row tags")
    return LemmaCase(name, variables, tuple(rows))


def _probe(case_name: str, row_tag: str, witness: tuple) -> RelaxationProbe:
    return RelaxationProbe(case_name, row_tag, tuple(Fraction(w) for w in witness))


_H = Fraction(1, 2)
_X_CAP = ("x-cap", {"x": 1}, LE, 1, "x <= 1: margin parameter window")


def _build_bank() -> dict[str, LemmaEncoding]:
    bank: dict[str, LemmaEncoding] = {}

    # --- double point, steep budget: one blow-up suffices ---
    bank["local-1"] = LemmaEncoding(
        "local-1",
        (
            _case(
                "main",
                ("x", "a", "m", "T", "TQ"),
                [
                    _X_CAP,
                    ("a-cap", {"a": 1, "x": -_H}, LE, 0, "a <= x/2: curve-coefficient cap"),
                    (
                        "T-cap",
                        {"T": 1, "a": 1, "x": Fraction(-1, 6)},
                        LE,
                        Fraction(4, 3),
                        "T <= 4/3 + x/6 - a: local intersection budget",
                    ),
                    ("mult", {"m": 2, "T": -1}, LE, 0, "2m <= T: the double point feeds twice the multiplicity into T"),
                    ("split", {"m": 2, "TQ": 1, "T": -1}, LE, 0, "T >= 2m + TQ: T absorbs 2m at the center, TQ survives upstairs"),
                    (
                        "adj",
                        {"TQ": -1, "a": -4, "m": -2},
                        LT,
                        -3,
                        "TQ > 3 - 4a - 2m: adjunction upstairs, the exceptional coefficient 2a+m-1 counted against both branches",
                    ),
                ],
            ),
        ),
        (_probe("main", "x-cap", (2, 1, 0, 0, 0)),),
    )

    # --- double point, threshold budget: up to three blow-ups ---
    bank["local-2"] = LemmaEncoding(
        "local-2",
        (
            _case(
                "first-neighborhood",
                ("x", "a", "m", "mt", "T", "TO"),
                [
                    _X_CAP,
                    ("a-cap", {"a": 1, "x": _H}, LE, 1, "a <= 1 - x/2: coefficient cap at the weakest threshold value 1"),
                    ("T-cap", {"T": 1, "x": -_H}, LE, 1, "T <= 1 + x/2: budget at the weakest threshold value 1"),
                    ("mult", {"m": 2, "T": -1}, LE, 0, "2m <= T"),
                    ("descent", {"mt": 1, "m": -1}, LE, 0, "mt <= m: multiplicity cannot grow under blow-up"),
                    ("split", {"m": 2, "mt": 1, "TO": 1, "T": -1}, LE, 0, "T >= 2m + mt + TO"),
                    (
                        "adj",
                        {"TO": -1, "a": -3, "m": -1, "mt": -1},
                        LT,
                        -3,
                        "TO > 3 - 3a - m - mt: adjunction at a second-level point off the first exceptional curve",
                    ),
                    (
                        "chain",
                        {"a": -2, "x": -_H, "m": 1},
                        LT,
                        -2,
                        "2a + x/2 > 2 + m: deduced comparison transcribed as asserted; the source derivation "
                        "tightens the budget by an extra -a that the stated hypothesis does not carry",
                    ),
                ],
            ),
            _case(
                "tangent-vertex",
                ("x", "a", "m", "mt", "mh", "T", "TE"),
                [
                    _X_CAP,
                    ("a-cap", {"a": 1, "x": _H}, LE, Fraction(5, 6), "a <= 5/6 - x/2: cap at the cuspidal threshold 5/6"),
                    (
                        "T-cap",
                        {"T": 1, "a": 1, "x": -_H},
                        LE,
                        Fraction(5, 6),
                        "T <= 5/6 + x/2 - a: budget as displayed; carries the same extra -a slack",
                    ),
                    ("mult", {"m": 2, "T": -1}, LE, 0, "2m <= T"),
                    ("gate", {"a": 6, "m": 4, "x": 1}, LE, 5, "6a + 4m <= 5 - x: combined cap enabling the third-level adjunction"),
                    ("split", {"m": 2, "mt": 1, "mh": 1, "TE": 1, "T": -1}, LE, 0, "T >= 2m + mt + mh + TE"),
                    (
                        "adj",
                        {"TE": -1, "a": -6, "m": -2, "mt": -1, "mh": -1},
                        LT,
                        -5,
                        "TE > 5 - 6a - 2m - mt - mh: adjunction at the third-level point on the tangent vertex",
                    ),
                ],
            ),
        ),
        (
            _probe("first-neighborhood", "chain", (_H, Fraction(3, 4), Fraction(1, 4), Fraction(1, 4), Fraction(9, 8), Fraction(3, 8))),
            _probe("first-neighborhood", "a-cap", (0, Fraction(3, 2), 0, 0, 0, 0)),
            _probe("tangent-vertex", "T-cap", (0, Fraction(5, 6), 0, 0, 0, 1, 1)),
        ),
    )

    # --- smooth point, generous coefficient cap ---
    bank["local-3"] = LemmaEncoding(
        "local-3",
        (
            _case(
                "main",
                ("x", "a", "m", "mt", "T", "TO"),
                [
                    _X_CAP,
                    ("a-cap", {"a": 1, "x": -_H}, LE, Fraction(1, 3), "a <= 1/3 + x/2"),
                    ("pair-cap", {"m": 1, "a": 1, "x": -_H}, LE, 1, "m + a <= 1 + x/2"),
                    ("T-cap", {"T": 1, "x": _H, "a": -1}, LE, 1, "T <= 1 - x/2 + a"),
                    ("mult", {"m": 1, "T": -1}, LE, 0, "m <= T: smooth branch"),
                    ("split", {"m": 1, "mt": 1, "TO": 1, "T": -1}, LE, 0, "T >= m + mt + TO"),
                    ("adj", {"TO": -1, "a": -2, "m": -1, "mt": -1}, LT, -3, "TO > 3 - 2a - m - mt"),
                ],
            ),
        ),
        (_probe("main", "a-cap", (0, 1, 0, 0, 2, 2)),),
    )

    # --- smooth point, tight budget ---
    bank["local-4"] = LemmaEncoding(
        "local-4",
        (
            _case(
                "main",
                ("x", "a", "m", "mt", "T", "TO"),
                [
                    _X_CAP,
                    ("a-cap", {"a": 1, "x": Fraction(1, 18)}, LE, Fraction(8, 9), "a <= 8/9 - x/18"),
                    ("pair-cap", {"m": 1, "a": 1, "x": Fraction(-1, 6)}, LE, Fraction(4, 3), "m + a <= 4/3 + x/6"),
                    ("T-cap", {"T": 1, "x": -_H, "a": -1}, LE, 0, "T <= x/2 + a"),
                    ("mult", {"m": 1, "T": -1}, LE, 0, "m <= T"),
                    ("split", {"m": 1, "mt": 1, "TO": 1, "T": -1}, LE, 0, "T >= m + mt + TO"),
                    ("adj", {"TO": -1, "a": -2, "m": -1, "mt": -1}, LT, -3, "TO > 3 - 2a - m - mt"),
                ],
            ),
        ),
        (_probe("main", "a-cap", (1, 1, 0, 0, Fraction(3, 2), Fraction(3, 2))),),
    )

    # --- double point, budget 2 - 2a: split on the second-level position ---
    local_5_caps = [
        _X_CAP,
        ("a-cap", {"a": 1, "x": Fraction(-1, 3)}, LE, Fraction(1, 3), "a <= (1+x)/3"),
        ("T-cap", {"T": 1, "a": 2}, LE, 2, "T <= 2 - 2a"),
        ("mult", {"m": 2, "T": -1}, LE, 0, "2m <= T"),
        ("split", {"m": 2, "mt": 1, "TO": 1, "T": -1}, LE, 0, "T >= 2m + mt + TO"),
    ]
    bank["local-5"] = LemmaEncoding(
        "local-5",
        (
            _case(
                "off-axis",
                ("x", "a", "m", "mt", "T", "TO"),
                local_5_caps
                + [("adj", {"TO": -1, "a": -3, "m": -1, "mt": -1}, LT, -3, "TO > 3 - 3a - m - mt: second-level point off the first exceptional curve")],
            ),
            _case(
                "triple-vertex",
                ("x", "a", "m", "mt", "T", "TO"),
                local_5_caps
                + [("adj", {"TO": -1, "a": -5, "m": -2, "mt": -1}, LT, -4, "TO > 4 - 5a - 2m - mt: both exceptional coefficients meet the triple intersection")],
            ),
        ),
        (
            _probe("off-axis", "T-cap", (1, Fraction(2, 3), 1, 1, 3, 0)),
            _probe("triple-vertex", "a-cap", (Fraction(9, 10), 1, 0, 0, 0, 0)),
        ),
    )

    # --- double point, budget 4/3 + 2x/3 - 2a ---
    local_6_caps = [
        _X_CAP,
        ("a-cap", {"a": 1}, LE, Fraction(2, 3), "a <= 2/3"),
        ("T-cap", {"T": 1, "a": 2, "x": Fraction(-2, 3)}, LE, Fraction(4, 3), "T <= 4/3 + 2x/3 - 2a"),
        ("mult", {"m": 2, "T": -1}, LE, 0, "2m <= T"),
        ("split", {"m": 2, "mt": 1, "TO": 1, "T": -1}, LE, 0, "T >= 2m + mt + TO"),
    ]
    bank["local-6"] = LemmaEncoding(
        "local-6",
        (
            _case(
                "off-axis",
                ("x", "a", "m", "mt", "T", "TO"),
                local_6_caps
                + [("adj", {"TO": -1, "a": -3, "m": -1, "mt": -1}, LT, -3, "TO > 3 - 3a - m - mt")],
            ),
            _case(
                "triple-vertex",
                ("x", "a", "m", "mt", "T", "TO"),
                local_6_caps
                + [("adj", {"TO": -1, "a": -5, "m": -2, "mt": -1}, LT, -4, "TO > 4 - 5a - 2m - mt")],
            ),
        ),
        (
            _probe("off-axis", "T-cap", (0, Fraction(2, 3), 1, 1, 3, 0)),
            _probe("triple-vertex", "T-cap", (0, Fraction(2, 3), 0, 0, 1, 1)),
        ),
    )

    # --- two smooth marked curves, caps (1+x)/3 ---
    local_7_common = [
        _X_CAP,
        ("a-cap", {"a": 1, "x": Fraction(-1, 3)}, LE, Fraction(1, 3), "a <= (1+x)/3"),
        ("b-cap", {"b": 1, "x": Fraction(-1, 3)}, LE, Fraction(1, 3), "b <= (1+x)/3"),
        ("triple-cap", {"a": 1, "b": 1, "m": 1, "x": -_H}, LE, 1, "a + b + m <= 1 + x/2"),
        ("TC-cap", {"TC": 1, "a": -1, "b": 2}, LE, 1, "TC <= 1 + a - 2b"),
        ("TZ-cap", {"TZ": 1, "b": -1, "a": 2}, LE, 1, "TZ <= 1 + b - 2a"),
        ("mult-c", {"m": 1, "TC": -1}, LE, 0, "m <= TC"),
        ("mult-z", {"m": 1, "TZ": -1}, LE, 0, "m <= TZ"),
    ]
    bank["local-7"] = LemmaEncoding(
        "local-7",
        (
            _case(
                "split-branch",
                ("x", "a", "b", "m", "TC", "TZ", "TQ"),
                local_7_common
                + [
                    ("split", {"m": 1, "TQ": 1, "TC": -1}, LE, 0, "TC >= m + TQ"),
                    ("adj", {"TQ": -1, "a": -1, "b": -1, "m": -1}, LT, -2, "TQ > 2 - a - b - m: only the first marked curve passes through the higher point"),
                ],
            ),
            _case(
                "tangent-pair",
                ("x", "a", "b", "m", "mt", "TC", "TZ", "TO"),
                local_7_common
                + [
                    ("split", {"m": 1, "mt": 1, "TO": 1, "TC": -1}, LE, 0, "TC >= m + mt + TO"),
                    ("adj", {"TO": -1, "a": -2, "b": -2, "m": -1, "mt": -1}, LT, -3, "TO > 3 - 2a - 2b - m - mt: both marked curves pass through both higher points"),
                ],
            ),
        ),
        (
            _probe("split-branch", "TZ-cap", (1, Fraction(2, 3), 0, 0, Fraction(3, 2), 0, Fraction(3, 2))),
            _probe("tangent-pair", "a-cap", (1, Fraction(4, 5), Fraction(3, 5), 0, 0, _H, 0, Fraction(3, 10))),
        ),
    )

    # --- two smooth marked curves, caps 2/3 with x-dependent budgets ---
    local_8_common = [
        _X_CAP,
        ("a-cap", {"a": 1}, LE, Fraction(2, 3), "a <= 2/3"),
        ("b-cap", {"b": 1}, LE, Fraction(2, 3), "b <= 2/3"),
        ("triple-cap", {"a": 1, "b": 1, "m": 1, "x": Fraction(-1, 6)}, LE, Fraction(4, 3), "a + b + m <= 4/3 + x/6"),
        ("TC-cap", {"TC": 1, "a": -1, "b": 2, "x": Fraction(-1, 3)}, LE, Fraction(2, 3), "TC <= (2+x)/3 + a - 2b"),
        ("TZ-cap", {"TZ": 1, "b": -1, "a": 2, "x": Fraction(-1, 3)}, LE, Fraction(2, 3), "TZ <= (2+x)/3 + b - 2a"),
        ("mult-c", {"m": 1, "TC": -1}, LE, 0, "m <= TC"),
        ("mult-z", {"m": 1, "TZ": -1}, LE, 0, "m <= TZ"),
    ]
    bank["local-8"] = LemmaEncoding(
        "local-8",
        (
            _case(
                "split-branch",
                ("x", "a", "b", "m", "TC", "TZ", "TQ"),
                local_8_common
                + [
                    ("split", {"m": 1, "TQ": 1, "TC": -1}, LE, 0, "TC >= m + TQ"),
                    ("adj", {"TQ": -1, "a": -1, "b": -1, "m": -1}, LT, -2, "TQ > 2 - a - b - m"),
                ],
            ),
            _case(
                "tangent-pair",
                ("x", "a", "b", "m", "mt", "TC", "TZ", "TO"),
                local_8_common
                + [
                    ("split", {"m": 1, "mt": 1, "TO": 1, "TC": -1}, LE, 0, "TC >= m + mt + TO"),
                    ("adj", {"TO": -1, "a": -2, "b": -2, "m": -1, "mt": -1}, LT, -3, "TO > 3 - 2a - 2b - m - mt"),
                ],
            ),
        ),
        (
            _probe("tangent-pair", "a-cap", (1, Fraction(7, 10), _H, 0, 0, Fraction(7, 10), 0, Fraction(7, 10))),
        ),
    )

    # --- second-level neighborhood: points off the transformed marked curve ---
    adj_2_hyps = [
        ("a-window", {"a": 1}, LE, 1, "a <= 1: ambient coefficient window"),
        ("m-cap", {"m": 1}, LE, 1, "m <= 1"),
        ("pair-cap", {"a": 2, "m": 1}, LE, 2, "2a + m <= 2: first exceptional coefficient stays at most 1"),
        ("gate", {"a": 3, "m": 2}, LE, 3, "3a + 2m <= 3: second exceptional coefficient stays at most 1"),
    ]
    bank["adj-2"] = LemmaEncoding(
        "adj-2",
        (
            _case(
                "off-branch-axis",
                ("a", "m", "mt", "W"),
                adj_2_hyps
                + [
                    ("descent", {"mt": 1, "m": -1}, LE, 0, "mt <= m"),
                    ("budget", {"W": 1, "mt": -1}, LE, 0, "W <= mt: one point's share of the intersection with the exceptional curve"),
                    ("adj", {"W": -1}, LT, -1, "W > 1: adjunction at a point meeting no other boundary curve"),
                ],
            ),
            _case(
                "on-branch-axis",
                ("a", "m", "mt", "U"),
                adj_2_hyps
                + [
                    ("budget", {"U": 1, "m": -1, "mt": 1}, LE, 0, "U <= m - mt: intersection with the transformed first exceptional curve"),
                    ("adj", {"U": -1, "a": -3, "m": -1, "mt": -1}, LT, -3, "U > 3 - 3a - m - mt"),
                ],
            ),
        ),
        (
            _probe("off-branch-axis", "m-cap", (0, Fraction(3, 2), Fraction(3, 2), Fraction(5, 4))),
            _probe("on-branch-axis", "gate", (_H, 1, 0, 1)),
        ),
    )

    # --- third-level neighborhood at the axis vertex: two on-curve branches
    # (the preliminary off-both-curves exclusion is the same multiplicity
    # argument checked as adj-2's off-branch-axis case) ---
    adj_4_hyps = [
        ("a-window", {"a": 1}, LE, 1, "a <= 1: ambient coefficient window"),
        ("m-cap", {"m": 1}, LE, 1, "m <= 1"),
        ("pair-cap", {"a": 3, "m": 1, "mt": 1}, LE, 3, "3a + m + mt <= 3: second exceptional coefficient stays at most 1"),
        ("gate", {"a": 6, "m": 4}, LE, 5, "6a + 4m <= 5: third exceptional coefficient stays at most 1"),
    ]
    bank["adj-4"] = LemmaEncoding(
        "adj-4",
        (
            _case(
                "on-second",
                ("a", "m", "mt", "mh", "U"),
                adj_4_hyps
                + [
                    ("descent", {"mt": 1, "m": -1}, LE, 0, "mt <= m"),
                    ("budget", {"U": 1, "mt": -1, "mh": 1}, LE, 0, "U <= mt - mh: intersection with the transformed second exceptional curve"),
                    ("adj", {"U": -1, "a": -6, "m": -2, "mt": -1, "mh": -1}, LT, -5, "U > 5 - 6a - 2m - mt - mh"),
                ],
            ),
            _case(
                "on-first",
                ("a", "m", "mt", "mh", "U"),
                adj_4_hyps
                + [
                    ("budget", {"U": 1, "m": -1, "mt": 1, "mh": 1}, LE, 0, "U <= m - mt - mh: intersection with the twice-transformed first exceptional curve"),
                    ("adj", {"U": -1, "a": -6, "m": -2, "mt": -1, "mh": -1}, LT, -5, "U > 5 - 6a - 2m - mt - mh"),
                ],
            ),
        ),
        (_probe("on-second", "gate", (1, 0, 0, 0, 0)),),
    )

    # --- first-level neighborhood with two marked curves ---
    bank["adj-7"] = LemmaEncoding(
        "adj-7",
        (
            _case(
                "main",
                ("a", "b", "m", "W"),
                [
                    ("a-window", {"a": 1}, LE, 1, "a <= 1"),
                    ("b-window", {"b": 1}, LE, 1, "b <= 1"),
                    ("m-cap", {"m": 1}, LE, 1, "m <= 1"),
                    ("pair-cap", {"a": 1, "b": 1, "m": 1}, LE, 2, "a + b + m <= 2: exceptional coefficient stays at most 1"),
                    ("budget", {"W": 1, "m": -1}, LE, 0, "W <= m"),
                    ("adj", {"W": -1}, LT, -1, "W > 1"),
                ],
            ),
        ),
        (_probe("main", "m-cap", (0, 0, 2, Fraction(3, 2))),),
    )

    # --- second-level neighborhood with two marked curves ---
    adj_8_hyps = [
        ("a-window", {"a": 1}, LE, 1, "a <= 1"),
        ("b-window", {"b": 1}, LE, 1, "b <= 1"),
        ("m-cap", {"m": 1}, LE, 1, "m <= 1"),
        ("pair-cap", {"a": 1, "b": 1, "m": 1}, LE, 2, "a + b + m <= 2"),
        ("gate", {"a": 2, "b": 2, "m": 2}, LE, 3, "2a + 2b + 2m <= 3: second exceptional coefficient stays at most 1"),
    ]
    bank["adj-8"] = LemmaEncoding(
        "adj-8",
        (
            _case(
                "off-branch-axis",
                ("a", "b", "m", "mt", "W"),
                adj_8_hyps
                + [
                    ("descent", {"mt": 1, "m": -1}, LE, 0, "mt <= m"),
                    ("budget", {"W": 1, "mt": -1}, LE, 0, "W <= mt"),
                    ("adj", {"W": -1}, LT, -1, "W > 1"),
                ],
            ),
            _case(
                "on-branch-axis",
                ("a", "b", "m", "mt", "U"),
                adj_8_hyps
                + [
                    ("budget", {"U": 1, "m": -1, "mt": 1}, LE, 0, "U <= m - mt"),
                    ("adj", {"U": -1, "a": -2, "b": -2, "m": -1, "mt": -1}, LT, -3, "U > 3 - 2a - 2b - m - mt"),
                ],
            ),
        ),
        (_probe("on-branch-axis", "gate", (1, 1, 0, 0, 0)),),
    )

    return bank


LEMMA_BANK = _build_bank()
LEMMA_IDS = tuple(LEMMA_BANK)


def get_encoding(lemma_id: str) -> LemmaEncoding:
    """Look up a lemma encoding by id."""
    try:
        return LEMMA_BANK[lemma_id]
    except KeyError:
        raise ValueError(f"unknown lemma id {lemma_id!r}; known: {', '.join(LEMMA_IDS)}") from None


def verify_lemma(lemma_id: str) -> LemmaReport:
    """Prove every case of the lemma infeasible, with checked certificates."""
    encoding = get_encoding(lemma_id)
    reports = []
    verified = True
    for case in encoding.cases:
        system = case.system()
        result = prove_infeasible(system)
        if isinstance(result, Feasible):
            verified = False
            witness = dict(zip(case.variables, result.witness))
            reports.append(CaseReport(case.name, False, None, witness))
        else:
            if not check_certificate(system, result):
                raise RuntimeError(
                    f"{lemma_id} case {case.name!r}: certificate failed its exact check"
                )
            reports.append(CaseReport(case.name, True, result, None))
    return LemmaReport(lemma_id, verified, tuple(reports))


def relaxation_probe(lemma_id: str, tag: str) -> dict[str, Fraction]:
    """Drop one designated row; the opened system must admit a witness."""
    encoding = get_encoding(lemma_id)
    case_name, _, row_tag = tag.partition(":")
    if not row_tag:
        raise ValueError("probe tag must look like '<case>:<row>'")
    case = next((c for c in encoding.cases if c.name == case_name), None)
    if case is None:
        names = ", ".join(c.name for c in encoding.cases)
        raise ValueError(f"unknown case {case_name!r} for {lemma_id}; cases: {names}")
    if row_tag not in case.row_tags():
        raise ValueError(f"case {case_name!r} has no row tagged {row_tag!r}")
    result = prove_infeasible(case.system(drop=row_tag))
    if isinstance(result, FarkasCertificate):
        raise LemmaProbeError(
            f"{lemma_id} case {case_name!r} stays infeasible without {row_tag!r}: "
            "the encoding asserts more than that row"
        )
    return dict(zip(case.variables, result.witness))


_LCT_LEDGERS = {
    NODE: ((2, 1),),
    CUSP: ((2, 1), (3, 2), (6, 4)),
}


def lct_blowup_ledger(kind: str) -> tuple[tuple[int, int], ...]:
    """Resolution ledger rows (pullback weight, canonical drop) for the germ.

    Scaling the germ by t gives the k-th exceptional curve the coefficient
    weight*t - drop; the pair stays log canonical while every row is <= 1.
    """
    try:
        return _LCT_LEDGERS[kind]
    except KeyError:
        raise ValueError(f"kind must be '{NODE}' or '{CUSP}', got {kind!r}") from None


def lct_plane_singularity(kind: str) -> Fraction:
    """Log-canonical threshold of a nodal (1) or cuspidal (5/6) plane-curve germ."""
    return min(Fraction(1 + drop, weight) for weight, drop in lct_blowup_ledger(kind))


def two_branch_ledger(c1: Fraction, c2: Fraction, contact: int) -> tuple[Fraction, ...]:
    """Exceptional coefficients e_k = k(c1 + c2) - k for k = 1..contact."""
    total = Fraction(c1) + Fraction(c2)
    return tuple(k * total - k for k in range(1, contact + 1))


def lc_two_smooth_branches(c1: Fraction, c2: Fraction, contact: int) -> bool:
    """Log canonicity of c1*C1 + c2*C2 for smooth branches with the given contact order."""
    c1, c2 = Fraction(c1), Fraction(c2)
    if c1 < 0 or c2 < 0:
        raise ValueError("coefficients must be nonnegative")
    if contact not in (1, 2, 3):
        raise ValueError("contact order must be 1, 2, or 3")
    ledger = two_branch_ledger(c1, c2, contact)
    return c1 <= 1 and c2 <= 1 and all(e <= 1 for e in ledger)


def substitution_checks(lam: Fraction) -> dict:
    """Exact range checks for the margin substitutions used downstream."""
    lam = Fraction(lam)
    if not Fraction(0) <= lam < Fraction(1):
        raise ValueError("lambda must satisfy 0 <= lambda < 1")
    half = Fraction(1, 2)
    entries = [
        # (name, applicable, x, low, high, open_low, open_high)
        (
            "steep",
            lam > half,
            (4 - 4 * lam) / (1 + 2 * lam),
            Fraction(0),
            Fraction(1),
            True,
            True,
        ),
        ("shallow-node", lam <= half, 2 * lam, Fraction(0), Fraction(1), False, False),
        (
            "shallow-cusp",
            lam <= half,
            Fraction(5, 3) * lam,
            Fraction(0),
            Fraction(5, 6),
            False,
            False,
        ),
    ]
    checks = []
    for name, applicable, x, low, high, open_low, open_high in entries:
        above = x > low if open_low else x >= low
        below = x < high if open_high else x <= high
        in_range = above and below
        checks.append(
            {
                "name": name,
                "applicable": applicable,
                "x": x,
                "low": low,
                "high": high,
                "open_low": open_low,
                "open_high": open_high,
                "in_range": in_range,
                "ok": in_range if applicable else True,
            }
        )
    return {"lambda": lam, "checks": checks, "all_ok": all(c["ok"] for c in checks)}
