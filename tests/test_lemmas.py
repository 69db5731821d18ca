"""Tests for the machine-checked lemma bank and log-canonicity helpers."""

import re
from fractions import Fraction as F

import pytest
import sympy
from sympy.parsing.sympy_parser import (
    implicit_multiplication,
    parse_expr,
    standard_transformations,
)

from dp1alpha.fme import LE, LT, check_certificate
from dp1alpha.lemmas import (
    CUSP,
    LEMMA_BANK,
    LEMMA_IDS,
    NODE,
    LemmaProbeError,
    _build_bank,
    get_encoding,
    lc_two_smooth_branches,
    lct_blowup_ledger,
    lct_plane_singularity,
    relaxation_probe,
    substitution_checks,
    two_branch_ledger,
    verify_lemma,
)

EXPECTED_CASES = {
    "local-1": ("main",),
    "local-2": ("first-neighborhood", "tangent-vertex"),
    "local-3": ("main",),
    "local-4": ("main",),
    "local-5": ("off-axis", "triple-vertex"),
    "local-6": ("off-axis", "triple-vertex"),
    "local-7": ("split-branch", "tangent-pair"),
    "local-8": ("split-branch", "tangent-pair"),
    "adj-2": ("off-branch-axis", "on-branch-axis"),
    "adj-4": ("on-second", "on-first"),
    "adj-7": ("main",),
    "adj-8": ("off-branch-axis", "on-branch-axis"),
}


def _row_holds(row, witness):
    total = sum(coeff * witness[var] for var, coeff in row.coeffs)
    return total < row.rhs if row.relation == LT else total <= row.rhs


_NOTE_GRAMMAR = standard_transformations + (implicit_multiplication,)


def _note_row(note, variables):
    """The inequality before ':' in a note as (coefficients, relation, rhs) in <= / < form.

    It reads lhs - rhs, negated for > and >=, and moves the constant to the right.
    """
    lhs, relation, rhs = re.match(r"([^<>]+)(<=|<|>=|>)([^:]+)", note).groups()
    names = {v: sympy.Symbol(v) for v in variables}

    def parse(text):
        return parse_expr(text, local_dict=names, transformations=_NOTE_GRAMMAR)

    sign = -1 if relation.startswith(">") else 1
    terms = (sign * (parse(lhs) - parse(rhs))).as_coefficients_dict()
    assert set(terms) <= {1, *names.values()}, note  # linear in the case's variables
    coeffs = {v: F(str(terms[names[v]])) for v in variables if terms[names[v]]}
    return coeffs, LT if relation in ("<", ">") else LE, -F(str(terms[1]))


class TestBankShape:
    def test_bank_lists_twelve_lemmas(self):
        assert LEMMA_IDS == tuple(EXPECTED_CASES)
        assert len(LEMMA_IDS) == 12

    def test_case_names_match_proof_branches(self):
        for lemma_id, names in EXPECTED_CASES.items():
            encoding = get_encoding(lemma_id)
            assert tuple(case.name for case in encoding.cases) == names

    def test_rows_are_inequalities_with_one_strict_contradiction_source(self):
        for lemma_id in LEMMA_IDS:
            for case in get_encoding(lemma_id).cases:
                relations = [row.relation for row in case.rows]
                assert set(relations) <= {LE, LT}
                assert relations.count(LT) >= 1

    def test_every_variable_has_a_nonnegativity_row(self):
        for lemma_id in LEMMA_IDS:
            for case in get_encoding(lemma_id).cases:
                tags = set(case.row_tags())
                for var in case.variables:
                    assert f"nonneg-{var}" in tags

    def test_each_note_states_its_row(self):
        # readers audit the note; the prover reads the coefficients
        for lemma_id in LEMMA_IDS:
            for case in get_encoding(lemma_id).cases:
                for row in case.rows:
                    coeffs = {v: c for v, c in row.coeffs if c}
                    expected = (coeffs, row.relation, row.rhs)
                    assert _note_row(row.note, case.variables) == expected, row.note

    def test_unknown_lemma_id_rejected(self):
        with pytest.raises(ValueError):
            get_encoding("local-9")


class TestNoteReader:
    """The bank builds each row from its note and refuses anything else."""

    @staticmethod
    def _case(*entries, variables="x a b m"):
        bank = _build_bank({"demo": ((("main", variables, entries),), ())})
        return bank["demo"].cases[0]

    @pytest.mark.parametrize(
        "note, coeffs, relation, rhs",
        [
            ("x <= 1: prose: after the first colon", {"x": 1}, LE, 1),
            ("2m <= x/6", {"m": 2, "x": F(-1, 6)}, LE, 0),
            ("a <= (1+x)/3", {"a": 1, "x": F(-1, 3)}, LE, F(1, 3)),
            ("b <= 4/3 + 2x/3 - 2a", {"b": 1, "x": F(-2, 3), "a": 2}, LE, F(4, 3)),
            ("a >= m + 1", {"a": -1, "m": 1}, LE, -1),
            ("2a + x/2 > 2 + m", {"a": -2, "x": F(-1, 2), "m": 1}, LT, -2),
            ("-a < -(1+b)/2 - 1", {"a": -1, "b": F(1, 2)}, LT, F(-3, 2)),
            ("a + a <= x - x + 1", {"a": 2, "x": 0}, LE, 1),
        ],
    )
    def test_reads_the_row_its_note_states(self, note, coeffs, relation, rhs):
        row = self._case(("r", note)).rows[-1]
        assert (row.tag, row.note) == ("r", note)
        assert dict(row.coeffs) == coeffs
        assert (row.relation, row.rhs) == (relation, rhs)

    def test_nonnegativity_rows_come_first(self):
        case = self._case(("r", "a <= 1"), variables="a m")
        assert case.row_tags() == ("nonneg-a", "nonneg-m", "r")
        assert case.system().constraints[:2] == (
            ((-1, 0), LE, 0),
            ((0, -1), LE, 0),
        )

    @pytest.mark.parametrize(
        "note",
        [
            "y <= 1",  # a name outside the case's variables
            "x - y + y <= 1",  # even with a zero net coefficient
            "x*m <= 1",  # a product of two variables
            "xm <= 1",
            "x m <= 1",
            "2(x) <= 1",
            "x + m: no relation",
            "x = 1",
            "x <= m <= 1",  # two relations
            "x < m > 1",
            "<= 1",  # an empty side
            "x >= : prose",
            "x + <= 1",
            "x/0 <= 1",  # a zero divisor
            "(1+x)/0 <= 1",
            "((1+x))/3 <= 1",
        ],
    )
    def test_refuses_a_note_that_states_no_linear_row(self, note):
        with pytest.raises(ValueError, match="demo case 'main' row 'r'"):
            self._case(("r", note))

    def test_refuses_a_duplicate_tag(self):
        with pytest.raises(ValueError, match="demo case 'main': duplicate row tags"):
            self._case(("r", "x <= 1"), ("r", "a <= 1"))
        with pytest.raises(ValueError, match="duplicate"):
            self._case(("nonneg-x", "x <= 1"))


class TestVerification:
    @pytest.mark.parametrize("lemma_id", LEMMA_IDS)
    def test_every_case_infeasible_with_checked_certificate(self, lemma_id):
        report = verify_lemma(lemma_id)
        assert report.verified
        assert report.lemma_id == lemma_id
        encoding = get_encoding(lemma_id)
        assert len(report.cases) == len(encoding.cases)
        for case, case_report in zip(encoding.cases, report.cases):
            assert case_report.infeasible
            assert case_report.witness is None
            certificate = case_report.certificate
            assert certificate is not None
            assert check_certificate(case.system(), certificate)

    @pytest.mark.parametrize("lemma_id", LEMMA_IDS)
    def test_certificate_multipliers_are_nonnegative_rationals(self, lemma_id):
        report = verify_lemma(lemma_id)
        for case_report in report.cases:
            certificate = case_report.certificate
            assert all(isinstance(w, F) for w in certificate.multipliers)
            assert all(w >= 0 for w in certificate.multipliers)

    def test_strict_indices_point_at_strict_rows_with_weight(self, ):
        for lemma_id in LEMMA_IDS:
            encoding = get_encoding(lemma_id)
            report = verify_lemma(lemma_id)
            for case, case_report in zip(encoding.cases, report.cases):
                certificate = case_report.certificate
                for index in certificate.strict_indices:
                    assert case.rows[index].relation == LT
                    assert certificate.multipliers[index] > 0

    def test_feasible_case_reported_with_witness(self, monkeypatch):
        import dp1alpha.lemmas as lemmas_module

        broken = get_encoding("local-1")
        case = broken.cases[0]
        kept = tuple(row for row in case.rows if row.tag != "x-cap")
        open_case = type(case)(case.name, case.variables, kept)
        open_encoding = type(broken)("demo-open", (open_case,), ())
        monkeypatch.setitem(lemmas_module.LEMMA_BANK, "demo-open", open_encoding)

        report = verify_lemma("demo-open")
        assert not report.verified
        case_report = report.cases[0]
        assert not case_report.infeasible
        assert case_report.certificate is None
        assert case_report.witness is not None
        assert case_report.witness["x"] > 1

    def test_rejected_certificate_raises(self, monkeypatch):
        # verify_lemma re-checks each certificate with an explicit raise, so
        # the check survives python -O
        import dp1alpha.lemmas as lemmas_module

        monkeypatch.setattr(lemmas_module, "check_certificate", lambda system, cert: False)
        with pytest.raises(RuntimeError, match="local-1 case 'main'"):
            verify_lemma("local-1")


class TestRelaxationProbes:
    def _all_probes(self):
        for lemma_id in LEMMA_IDS:
            for probe in get_encoding(lemma_id).probes:
                yield lemma_id, probe

    def test_every_lemma_designates_a_probe(self):
        for lemma_id in LEMMA_IDS:
            assert get_encoding(lemma_id).probes

    def test_probes_open_the_system_and_witnesses_check(self):
        for lemma_id, probe in self._all_probes():
            witness = relaxation_probe(lemma_id, probe.tag)
            encoding = get_encoding(lemma_id)
            case = next(c for c in encoding.cases if c.name == probe.case_name)
            relaxed = case.system(drop=probe.row_tag)
            point = tuple(witness[v] for v in case.variables)
            assert relaxed.holds_at(point)

    def test_stored_witnesses_satisfy_the_relaxed_system(self):
        for lemma_id, probe in self._all_probes():
            encoding = get_encoding(lemma_id)
            case = next(c for c in encoding.cases if c.name == probe.case_name)
            relaxed = case.system(drop=probe.row_tag)
            assert relaxed.holds_at(probe.expected_witness)

    def test_stored_witnesses_violate_exactly_the_dropped_row(self):
        for lemma_id, probe in self._all_probes():
            encoding = get_encoding(lemma_id)
            case = next(c for c in encoding.cases if c.name == probe.case_name)
            witness = dict(zip(case.variables, probe.expected_witness))
            dropped = next(row for row in case.rows if row.tag == probe.row_tag)
            assert not _row_holds(dropped, witness)

    def test_spec_probe_local_1_margin_cap(self):
        witness = relaxation_probe("local-1", "main:x-cap")
        assert witness["x"] > 1

    def test_spec_probe_local_3_coefficient_cap(self):
        witness = relaxation_probe("local-3", "main:a-cap")
        assert witness["a"] > F(1, 3) + witness["x"] / 2

    def test_spec_probe_local_8_coefficient_cap(self):
        witness = relaxation_probe("local-8", "tangent-pair:a-cap")
        assert witness["a"] > F(2, 3)

    def test_redundant_row_probe_fails(self):
        # 2m <= T is implied by the split row plus nonnegativity, so the
        # contradiction survives its removal and the probe must refuse.
        with pytest.raises(LemmaProbeError):
            relaxation_probe("local-1", "main:mult")

    def test_malformed_probe_tags_rejected(self):
        with pytest.raises(ValueError):
            relaxation_probe("local-1", "x-cap")
        with pytest.raises(ValueError):
            relaxation_probe("local-1", "nowhere:x-cap")
        with pytest.raises(ValueError):
            relaxation_probe("local-1", "main:no-such-row")
        with pytest.raises(ValueError):
            relaxation_probe("local-0", "main:x-cap")


class TestPlaneCurveThresholds:
    def test_node_threshold_is_one(self):
        assert lct_plane_singularity(NODE) == 1

    def test_cusp_threshold_is_five_sixths(self):
        assert lct_plane_singularity(CUSP) == F(5, 6)

    def test_ledger_reproduces_the_thresholds(self):
        for kind in (NODE, CUSP):
            ledger = lct_blowup_ledger(kind)
            threshold = lct_plane_singularity(kind)
            # Every exceptional coefficient is <= 1 at the threshold, with
            # at least one row binding, and some row fails just above it.
            values = [weight * threshold - drop for weight, drop in ledger]
            assert all(v <= 1 for v in values)
            assert any(v == 1 for v in values)
            above = threshold + F(1, 1000)
            assert any(weight * above - drop > 1 for weight, drop in ledger)

    def test_cusp_ledger_weights(self):
        assert lct_blowup_ledger(NODE) == ((2, 1),)
        assert lct_blowup_ledger(CUSP) == ((2, 1), (3, 2), (6, 4))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            lct_plane_singularity("tacnode")


class TestTwoSmoothBranches:
    def test_grid_matches_closed_form(self):
        # Exhaustive grid of denominator 24 through both sides of every cap.
        for contact in (1, 2, 3):
            cap = F(contact + 1, contact)
            for p in range(0, 37):
                for q in range(0, 37):
                    c1, c2 = F(p, 24), F(q, 24)
                    expected = c1 <= 1 and c2 <= 1 and c1 + c2 <= cap
                    assert lc_two_smooth_branches(c1, c2, contact) == expected

    def test_ledger_matches_blowup_recursion(self):
        for p in range(0, 37, 5):
            for q in range(0, 37, 5):
                c1, c2 = F(p, 24), F(q, 24)
                for contact in (1, 2, 3):
                    ledger = two_branch_ledger(c1, c2, contact)
                    assert len(ledger) == contact
                    value = F(0)
                    for entry in ledger:
                        value += c1 + c2 - 1
                        assert entry == value

    def test_boundary_cases(self):
        assert lc_two_smooth_branches(1, 1, 1)
        assert not lc_two_smooth_branches(1, 1, 2)
        assert lc_two_smooth_branches(F(3, 4), F(3, 4), 2)
        assert not lc_two_smooth_branches(F(3, 4), F(3, 4), 3)
        assert lc_two_smooth_branches(F(2, 3), F(2, 3), 3)
        assert not lc_two_smooth_branches(F(9, 8), 0, 3)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lc_two_smooth_branches(F(-1, 2), 0, 1)
        with pytest.raises(ValueError):
            lc_two_smooth_branches(0, F(-1, 2), 1)
        with pytest.raises(ValueError):
            lc_two_smooth_branches(F(1, 2), F(1, 2), 0)
        with pytest.raises(ValueError):
            lc_two_smooth_branches(F(1, 2), F(1, 2), 4)


class TestSubstitutionChecks:
    def _check(self, report, name):
        return next(c for c in report["checks"] if c["name"] == name)

    def test_steep_example(self):
        report = substitution_checks(F(3, 4))
        steep = self._check(report, "steep")
        assert steep["applicable"]
        assert steep["x"] == F(2, 5)
        assert steep["ok"]
        assert report["all_ok"]

    def test_boundary_example(self):
        report = substitution_checks(F(1, 2))
        assert not self._check(report, "steep")["applicable"]
        node = self._check(report, "shallow-node")
        cusp = self._check(report, "shallow-cusp")
        assert node["applicable"] and node["x"] == 1 and node["ok"]
        assert cusp["applicable"] and cusp["x"] == F(5, 6) and cusp["ok"]
        assert report["all_ok"]

    def test_zero_example(self):
        report = substitution_checks(0)
        for check in report["checks"]:
            if check["applicable"]:
                assert check["x"] == 0
        assert report["all_ok"]

    def test_all_ok_across_the_window(self):
        for numerator in range(0, 60):
            report = substitution_checks(F(numerator, 60))
            assert report["all_ok"]

    def test_steep_window_is_open(self):
        # x = 4(1 - t)/(1 + 2t) stays strictly inside (0, 1) on 1/2 < t < 1.
        report = substitution_checks(F(59, 60))
        steep = self._check(report, "steep")
        assert steep["applicable"]
        assert 0 < steep["x"] < 1

    def test_out_of_window_rejected(self):
        with pytest.raises(ValueError):
            substitution_checks(1)
        with pytest.raises(ValueError):
            substitution_checks(F(-1, 100))
