"""Machine-checked inequality lemmas for iterated blow-up analyses.

The bank stores each lemma as data: per-case named variables and tagged
rows, each written once as its note.  A row is the inequality its note states
before the first ':' (any prose after it is commentary): sums of terms such
as 2m, x/6, 4/3 or (1+x)/3 on either side of <=, <, >= or >, read exactly
into <= / < form; a note that states anything else is refused when the module
loads.  Every variable is a nonnegative quantity (a boundary coefficient, a
point multiplicity, or a local intersection number), so nonnegativity rows are
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

import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import compress

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
        """The case's system, or the one without the row tagged ``drop``.

        The full system is built on first use and kept, so it is the same
        object on every call and clears its rows once (`LinearSystem.cleared`).
        A system without one row takes the full system's cleared rows, less
        that row's, so a relaxation probe clears nothing again.
        """
        full = self._full_system
        if drop is None:
            return full
        kept = [row.tag != drop for row in self.rows]
        relaxed = LinearSystem(full.variables, compress(full.constraints, kept))
        object.__setattr__(relaxed, "_cleared", tuple(compress(full.cleared(), kept)))
        return relaxed

    @cached_property
    def _full_system(self) -> LinearSystem:
        constraints = []
        zero = Fraction(0)  # one object for every absent coefficient of the kept system
        for row in self.rows:
            mapping = dict(row.coeffs)
            coeffs = tuple(mapping.get(v, zero) for v in self.variables)
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


_RELATIONS = {"<=": (1, LE), "<": (1, LT), ">=": (-1, LE), ">": (-1, LT)}
_RELATION = re.compile(r"(<=|>=|<|>)")
# optional sign, then (sum), [integer]name or integer, then an optional /integer
_TERM = re.compile(r"([+-]?)(?:\(([^()]+)\)|(\d*)([A-Za-z]\w*)|(\d+))(?:/(\d+))?")


def _add_terms(text: str, sign: int, den: int, sums: dict[str, tuple[int, int]]) -> None:
    """Add sign/den times the sum ``text`` to ``sums``: name ('' for 1) -> (num, den)."""
    if not text:
        raise ValueError("empty side")
    pos = 0
    while pos < len(text):
        term = _TERM.match(text, pos)
        if term is None or (pos and not term[1]):
            raise ValueError(f"cannot read {text[pos:]!r}")
        op, group, count, name, number, divisor = term.groups()
        term_sign = -sign if op == "-" else sign
        term_den = den * int(divisor or 1)
        if not term_den:
            raise ValueError("division by zero")
        if group is not None:
            _add_terms(group, term_sign, term_den, sums)
        else:
            key, k = (name, int(count or 1)) if name else ("", int(number))
            n, d = sums.get(key, (0, 1))
            sums[key] = (n * term_den + term_sign * k * d, d * term_den)
        pos = term.end()


def _read_row(tag: str, note: str) -> ConstraintRow:
    """The row that the note's text before its first ':' states, in <= / < form."""
    sides = _RELATION.split(note.partition(":")[0].replace(" ", ""))
    if len(sides) != 3:
        raise ValueError("needs exactly one of <=, <, >=, >")
    lhs, relation, rhs = sides
    sign, kind = _RELATIONS[relation]
    sums: dict[str, tuple[int, int]] = {}
    _add_terms(lhs, sign, 1, sums)
    _add_terms(rhs, -sign, 1, sums)
    n, d = sums.pop("", (0, 1))
    coeffs = tuple((v, Fraction(*pair)) for v, pair in sums.items())
    return ConstraintRow(tag, coeffs, kind, Fraction(-n, d), note)


def _build_bank(table: dict) -> dict[str, LemmaEncoding]:
    """Encodings from ``{lemma id: (cases, probes)}``.

    A case is ``(name, "space-separated variables", ((tag, note), ...))``; a
    ``nonneg-v`` row is put first for each variable.  A probe is
    ``(case name, row tag, witness)``.
    """
    read: dict[tuple[str, str], ConstraintRow] = {}  # a shared hypothesis is read once
    bank = {}
    for lemma_id, (cases, probes) in table.items():
        built = []
        for name, variables, entries in cases:
            variables = tuple(variables.split())
            known = set(variables)
            rows = []
            for entry in tuple((f"nonneg-{v}", f"{v} >= 0") for v in variables) + entries:
                try:
                    row = read.get(entry)
                    if row is None:
                        row = read[entry] = _read_row(*entry)
                    unknown = {v for v, _ in row.coeffs} - known
                    if unknown:
                        raise ValueError(f"unknown variables {sorted(unknown)}")
                except ValueError as error:
                    where = f"{lemma_id} case {name!r} row {entry[0]!r}"
                    raise ValueError(f"{where}: {error}") from None
                rows.append(row)
            if len({row.tag for row in rows}) != len(rows):
                raise ValueError(f"{lemma_id} case {name!r}: duplicate row tags")
            built.append(LemmaCase(name, variables, tuple(rows)))
        bank[lemma_id] = LemmaEncoding(
            lemma_id,
            tuple(built),
            tuple(RelaxationProbe(c, t, tuple(map(Fraction, w))) for c, t, w in probes),
        )
    return bank


_X_CAP = ("x-cap", "x <= 1: margin parameter window")
# local-5: double point, budget 2 - 2a, split on the second-level position
_LOCAL_5_CAPS = (
    _X_CAP,
    ("a-cap", "a <= (1+x)/3"),
    ("T-cap", "T <= 2 - 2a"),
    ("mult", "2m <= T"),
    ("split", "T >= 2m + mt + TO"),
)
# local-6: double point, budget 4/3 + 2x/3 - 2a
_LOCAL_6_CAPS = (
    _X_CAP,
    ("a-cap", "a <= 2/3"),
    ("T-cap", "T <= 4/3 + 2x/3 - 2a"),
    ("mult", "2m <= T"),
    ("split", "T >= 2m + mt + TO"),
)
# local-7: two smooth marked curves, caps (1+x)/3
_LOCAL_7_COMMON = (
    _X_CAP,
    ("a-cap", "a <= (1+x)/3"),
    ("b-cap", "b <= (1+x)/3"),
    ("triple-cap", "a + b + m <= 1 + x/2"),
    ("TC-cap", "TC <= 1 + a - 2b"),
    ("TZ-cap", "TZ <= 1 + b - 2a"),
    ("mult-c", "m <= TC"),
    ("mult-z", "m <= TZ"),
)
# local-8: two smooth marked curves, caps 2/3 with x-dependent budgets
_LOCAL_8_COMMON = (
    _X_CAP,
    ("a-cap", "a <= 2/3"),
    ("b-cap", "b <= 2/3"),
    ("triple-cap", "a + b + m <= 4/3 + x/6"),
    ("TC-cap", "TC <= (2+x)/3 + a - 2b"),
    ("TZ-cap", "TZ <= (2+x)/3 + b - 2a"),
    ("mult-c", "m <= TC"),
    ("mult-z", "m <= TZ"),
)
# adj-2: second-level neighborhood, points off the transformed marked curve
_ADJ_2_HYPS = (
    ("a-window", "a <= 1: ambient coefficient window"),
    ("m-cap", "m <= 1"),
    ("pair-cap", "2a + m <= 2: first exceptional coefficient stays at most 1"),
    ("gate", "3a + 2m <= 3: second exceptional coefficient stays at most 1"),
)
# adj-4: third-level neighborhood at the axis vertex, two on-curve branches
# (the preliminary off-both-curves exclusion is the same multiplicity
# argument checked as adj-2's off-branch-axis case)
_ADJ_4_HYPS = (
    ("a-window", "a <= 1: ambient coefficient window"),
    ("m-cap", "m <= 1"),
    ("pair-cap", "3a + m + mt <= 3: second exceptional coefficient stays at most 1"),
    ("gate", "6a + 4m <= 5: third exceptional coefficient stays at most 1"),
)
# adj-8: second-level neighborhood with two marked curves
_ADJ_8_HYPS = (
    ("a-window", "a <= 1"),
    ("b-window", "b <= 1"),
    ("m-cap", "m <= 1"),
    ("pair-cap", "a + b + m <= 2"),
    ("gate", "2a + 2b + 2m <= 3: second exceptional coefficient stays at most 1"),
)

LEMMA_BANK = _build_bank({
    # double point, steep budget: one blow-up suffices
    "local-1": (
        (
            ("main", "x a m T TQ", (
                _X_CAP,
                ("a-cap", "a <= x/2: curve-coefficient cap"),
                ("T-cap", "T <= 4/3 + x/6 - a: local intersection budget"),
                ("mult", "2m <= T: the double point feeds twice the multiplicity into T"),
                ("split", "T >= 2m + TQ: T absorbs 2m at the center, TQ survives upstairs"),
                ("adj", "TQ > 3 - 4a - 2m: adjunction upstairs, the exceptional coefficient "
                        "2a+m-1 counted against both branches"),
            )),
        ),
        (("main", "x-cap", (2, 1, 0, 0, 0)),),
    ),
    # double point, threshold budget: up to three blow-ups
    "local-2": (
        (
            ("first-neighborhood", "x a m mt T TO", (
                _X_CAP,
                ("a-cap", "a <= 1 - x/2: coefficient cap at the weakest threshold value 1"),
                ("T-cap", "T <= 1 + x/2: budget at the weakest threshold value 1"),
                ("mult", "2m <= T"),
                ("descent", "mt <= m: multiplicity cannot grow under blow-up"),
                ("split", "T >= 2m + mt + TO"),
                ("adj", "TO > 3 - 3a - m - mt: adjunction at a second-level point off the "
                        "first exceptional curve"),
                ("chain", "2a + x/2 > 2 + m: deduced comparison transcribed as asserted; the "
                          "source derivation tightens the budget by an extra -a that the "
                          "stated hypothesis does not carry"),
            )),
            ("tangent-vertex", "x a m mt mh T TE", (
                _X_CAP,
                ("a-cap", "a <= 5/6 - x/2: cap at the cuspidal threshold 5/6"),
                ("T-cap", "T <= 5/6 + x/2 - a: budget as displayed; carries the same extra -a slack"),
                ("mult", "2m <= T"),
                ("gate", "6a + 4m <= 5 - x: combined cap enabling the third-level adjunction"),
                ("split", "T >= 2m + mt + mh + TE"),
                ("adj", "TE > 5 - 6a - 2m - mt - mh: adjunction at the third-level point on "
                        "the tangent vertex"),
            )),
        ),
        (
            ("first-neighborhood", "chain", ("1/2", "3/4", "1/4", "1/4", "9/8", "3/8")),
            ("first-neighborhood", "a-cap", (0, "3/2", 0, 0, 0, 0)),
            ("tangent-vertex", "T-cap", (0, "5/6", 0, 0, 0, 1, 1)),
        ),
    ),
    # smooth point, generous coefficient cap
    "local-3": (
        (
            ("main", "x a m mt T TO", (
                _X_CAP,
                ("a-cap", "a <= 1/3 + x/2"),
                ("pair-cap", "m + a <= 1 + x/2"),
                ("T-cap", "T <= 1 - x/2 + a"),
                ("mult", "m <= T: smooth branch"),
                ("split", "T >= m + mt + TO"),
                ("adj", "TO > 3 - 2a - m - mt"),
            )),
        ),
        (("main", "a-cap", (0, 1, 0, 0, 2, 2)),),
    ),
    # smooth point, tight budget
    "local-4": (
        (
            ("main", "x a m mt T TO", (
                _X_CAP,
                ("a-cap", "a <= 8/9 - x/18"),
                ("pair-cap", "m + a <= 4/3 + x/6"),
                ("T-cap", "T <= x/2 + a"),
                ("mult", "m <= T"),
                ("split", "T >= m + mt + TO"),
                ("adj", "TO > 3 - 2a - m - mt"),
            )),
        ),
        (("main", "a-cap", (1, 1, 0, 0, "3/2", "3/2")),),
    ),
    "local-5": (
        (
            ("off-axis", "x a m mt T TO", _LOCAL_5_CAPS + (
                ("adj", "TO > 3 - 3a - m - mt: second-level point off the first exceptional curve"),
            )),
            ("triple-vertex", "x a m mt T TO", _LOCAL_5_CAPS + (
                ("adj", "TO > 4 - 5a - 2m - mt: both exceptional coefficients meet the "
                        "triple intersection"),
            )),
        ),
        (
            ("off-axis", "T-cap", (1, "2/3", 1, 1, 3, 0)),
            ("triple-vertex", "a-cap", ("9/10", 1, 0, 0, 0, 0)),
        ),
    ),
    "local-6": (
        (
            ("off-axis", "x a m mt T TO", _LOCAL_6_CAPS + (("adj", "TO > 3 - 3a - m - mt"),)),
            ("triple-vertex", "x a m mt T TO", _LOCAL_6_CAPS + (("adj", "TO > 4 - 5a - 2m - mt"),)),
        ),
        (
            ("off-axis", "T-cap", (0, "2/3", 1, 1, 3, 0)),
            ("triple-vertex", "T-cap", (0, "2/3", 0, 0, 1, 1)),
        ),
    ),
    "local-7": (
        (
            ("split-branch", "x a b m TC TZ TQ", _LOCAL_7_COMMON + (
                ("split", "TC >= m + TQ"),
                ("adj", "TQ > 2 - a - b - m: only the first marked curve passes through the "
                        "higher point"),
            )),
            ("tangent-pair", "x a b m mt TC TZ TO", _LOCAL_7_COMMON + (
                ("split", "TC >= m + mt + TO"),
                ("adj", "TO > 3 - 2a - 2b - m - mt: both marked curves pass through both "
                        "higher points"),
            )),
        ),
        (
            ("split-branch", "TZ-cap", (1, "2/3", 0, 0, "3/2", 0, "3/2")),
            ("tangent-pair", "a-cap", (1, "4/5", "3/5", 0, 0, "1/2", 0, "3/10")),
        ),
    ),
    "local-8": (
        (
            ("split-branch", "x a b m TC TZ TQ", _LOCAL_8_COMMON + (
                ("split", "TC >= m + TQ"),
                ("adj", "TQ > 2 - a - b - m"),
            )),
            ("tangent-pair", "x a b m mt TC TZ TO", _LOCAL_8_COMMON + (
                ("split", "TC >= m + mt + TO"),
                ("adj", "TO > 3 - 2a - 2b - m - mt"),
            )),
        ),
        (("tangent-pair", "a-cap", (1, "7/10", "1/2", 0, 0, "7/10", 0, "7/10")),),
    ),
    "adj-2": (
        (
            ("off-branch-axis", "a m mt W", _ADJ_2_HYPS + (
                ("descent", "mt <= m"),
                ("budget", "W <= mt: one point's share of the intersection with the "
                           "exceptional curve"),
                ("adj", "W > 1: adjunction at a point meeting no other boundary curve"),
            )),
            ("on-branch-axis", "a m mt U", _ADJ_2_HYPS + (
                ("budget", "U <= m - mt: intersection with the transformed first exceptional curve"),
                ("adj", "U > 3 - 3a - m - mt"),
            )),
        ),
        (
            ("off-branch-axis", "m-cap", (0, "3/2", "3/2", "5/4")),
            ("on-branch-axis", "gate", ("1/2", 1, 0, 1)),
        ),
    ),
    "adj-4": (
        (
            ("on-second", "a m mt mh U", _ADJ_4_HYPS + (
                ("descent", "mt <= m"),
                ("budget", "U <= mt - mh: intersection with the transformed second exceptional curve"),
                ("adj", "U > 5 - 6a - 2m - mt - mh"),
            )),
            ("on-first", "a m mt mh U", _ADJ_4_HYPS + (
                ("budget", "U <= m - mt - mh: intersection with the twice-transformed first "
                           "exceptional curve"),
                ("adj", "U > 5 - 6a - 2m - mt - mh"),
            )),
        ),
        (("on-second", "gate", (1, 0, 0, 0, 0)),),
    ),
    # first-level neighborhood with two marked curves
    "adj-7": (
        (
            ("main", "a b m W", (
                ("a-window", "a <= 1"),
                ("b-window", "b <= 1"),
                ("m-cap", "m <= 1"),
                ("pair-cap", "a + b + m <= 2: exceptional coefficient stays at most 1"),
                ("budget", "W <= m"),
                ("adj", "W > 1"),
            )),
        ),
        (("main", "m-cap", (0, 0, 2, "3/2")),),
    ),
    "adj-8": (
        (
            ("off-branch-axis", "a b m mt W", _ADJ_8_HYPS + (
                ("descent", "mt <= m"),
                ("budget", "W <= mt"),
                ("adj", "W > 1"),
            )),
            ("on-branch-axis", "a b m mt U", _ADJ_8_HYPS + (
                ("budget", "U <= m - mt"),
                ("adj", "U > 3 - 2a - 2b - m - mt"),
            )),
        ),
        (("on-branch-axis", "gate", (1, 1, 0, 0, 0)),),
    ),
})
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
