"""The three benchmark workloads: seeded inputs, the timed call, the output check.

Every workload is a stream of passes.  Each op of a pass fills one slot of
the workload's pass template (an entry of a pool, a lemma, the n-th surface,
the n-th CLI command), and the harness reports latencies per slot, so every
run weighs the op kinds and pool entries alike, whether or not its last
pass is whole.

Inputs whose cost swings with the exact LP's or the Fourier-Motzkin
prover's pivoting (ample classes, random systems) come from fixed pools
drawn with acceptance criterion 10's generator and seed.  Every pool entry
is relabelled once, from a stream that all seeds share: the eight
exceptional coordinates of a class are permuted (an isometry of the lattice
that fixes K, so mu, a, delta and s_A must not change; expected.json holds
them for the unpermuted class), and so are the variables and rows of a
system.  A relabelling can move one class's LP cost by 4x, so these inputs
are the same in every pass and under every seed.  The run's seed orders the
ops of each pass and draws the inputs whose cost hardly depends on their
values (Weierstrass surfaces, the paper's pencil classes -K + lambda*e_i,
light CLI arguments), afresh for every pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256
from pathlib import Path
from typing import Any, Iterator

from dp1alpha import alpha, cli, cone, fme, lemmas, picard, weierstrass
from dp1alpha.rationals import format_rational
from dp1alpha.weierstrass import format_form

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
POOL_SEED = 424242  # acceptance criterion 10's generator seed
CLASS_POOL_SIZE = 8
SYSTEM_POOL_SIZE = 24
SURFACES_PER_PASS = 12
TYPES = (cone.P2, cone.F1, cone.P1XP1)
K = picard.canonical_class()
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Op:
    kind: str
    key: str  # canonical text of the input: digests and expected outputs use it
    payload: Any
    slot: int = 0  # the op's place in the pass template, before the shuffle


def _shuffled_pass(ops: list[Op], rng: random.Random) -> list[Op]:
    """Number the ops of a pass by their template slot, then shuffle them."""
    ops = [dataclasses.replace(op, slot=slot) for slot, op in enumerate(ops)]
    rng.shuffle(ops)
    return ops


def digest(text: str) -> str:
    return sha256(text.encode()).hexdigest()


def inputs_digest(ops: list[Op]) -> str:
    return digest("\n".join(op.key for op in ops))


def _rat(value: Fraction) -> str:
    return format_rational(value)


# -- generators shared with acceptance criterion 10 ---------------------------


def criterion10_class(rng: random.Random) -> tuple[int, tuple[Fraction, ...]]:
    """s and r of the class s*(-K) + sum(r_i e_i), drawn as criterion 10 draws them."""
    scale = rng.randint(2, 5)
    return scale, tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(8))


def shaped_class(scale: int, r: tuple[Fraction, ...]) -> picard.PicardClass:
    return picard.PicardClass((3 * scale,) + tuple(x - scale for x in r))


def criterion10_system(rng: random.Random, force_feasible: bool) -> tuple[int, list]:
    """Variable count and rows of a random system, drawn as criterion 10 draws them."""
    count = rng.randint(1, 6)
    witness = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(count)]
    rows = []
    for _ in range(rng.randint(2, 12)):
        coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(count))
        roll = rng.random()
        rel = fme.LE if roll < 0.6 else fme.LT if roll < 0.85 else fme.EQ
        if force_feasible:
            value = sum((c * w for c, w in zip(coeffs, witness)), Fraction(0))
            if rel == fme.EQ:
                rhs = value
            elif rel == fme.LE:
                rhs = value + rng.randint(0, 3)
            else:
                rhs = value + rng.randint(1, 3)
        else:
            rhs = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        rows.append((coeffs, rel, rhs))
    return count, rows


def class_pool(size: int = CLASS_POOL_SIZE) -> list[tuple[int, tuple[Fraction, ...]]]:
    rng = random.Random(POOL_SEED)
    pool = []
    while len(pool) < size:
        scale, r = criterion10_class(rng)
        if cone.is_ample(shaped_class(scale, r)):
            pool.append((scale, r))
    return pool


def system_pool(size: int = SYSTEM_POOL_SIZE) -> list[tuple[int, list, bool]]:
    rng = random.Random(POOL_SEED)
    pool = []
    for trial in range(size):
        forced = trial % 2 == 0
        count, rows = criterion10_system(rng, forced)
        pool.append((count, rows, forced))
    return pool


def _run_stream(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _shared_stream(name: str) -> random.Random:
    """The relabelling stream, which every seed shares."""
    return random.Random(f"{name}:relabel")


def relabelled_classes() -> list[tuple[int, picard.PicardClass]]:
    """Each pool class under its one relabelling: (orbit, class)."""
    relabel = _shared_stream(ClassifyMix.name)
    return [
        (orbit, relabel_class(shaped_class(*entry), relabel))
        for orbit, entry in enumerate(class_pool())
    ]


def relabel_class(v: picard.PicardClass, rng: random.Random) -> picard.PicardClass:
    """Permute e1..e8: an isometry of the lattice that fixes K."""
    return picard.PicardClass((v.coeffs[0],) + tuple(rng.sample(v.coeffs[1:], 8)))


def relabel_system(count: int, rows: list, rng: random.Random) -> fme.LinearSystem:
    perm = rng.sample(range(count), count)
    permuted = [(tuple(c[p] for p in perm), rel, rhs) for c, rel, rhs in rows]
    rng.shuffle(permuted)
    return fme.LinearSystem([f"v{i}" for i in range(count)], permuted)


def _form(rng: random.Random, degree: int) -> weierstrass.BinaryForm:
    while True:
        form = weierstrass.BinaryForm(degree, [rng.randint(-3, 3) for _ in range(degree + 1)])
        if not form.is_zero():
            return form


SURFACE_KINDS = ("generic", "square", "shared-root")


def random_surface(rng: random.Random, kind: str):
    """A Weierstrass surface: b generic, b = g^2, or a and b sharing a linear factor."""
    while True:
        g = None
        if kind == "square":
            a, g = _form(rng, 4), _form(rng, 3)
            b = g * g
        elif kind == "shared-root":
            line = _form(rng, 1)
            a, b = line * _form(rng, 3), line * _form(rng, 5)
        else:
            a, b = _form(rng, 4), _form(rng, 6)
        try:
            return weierstrass.WeierstrassSurface(a=a, b=b), g
        except ValueError:  # discriminant vanishes identically: not a surface
            continue


# -- classify-mix -------------------------------------------------------------


def profile_text(profile: cone.PolarizationProfile, alpha_c: Fraction) -> str:
    """Canonical text of a profile, built from the public formatters."""
    return "|".join(
        [
            profile.type_tag,
            _rat(profile.mu),
            ",".join(_rat(x) for x in profile.a),
            _rat(profile.delta),
            _rat(profile.s_A),
            ";".join(picard.format_class(e) for e in profile.basis),
            "-" if profile.conic is None else picard.format_class(profile.conic),
            ";".join(sorted(picard.format_class(e) for e in profile.face_generators)),
            _rat(alpha_c),
        ]
    )


def shape_text(profile: cone.PolarizationProfile) -> str:
    """mu, a, delta and s_A: what a relabelling of e1..e8 must leave alone."""
    return "|".join(
        [_rat(profile.mu), ",".join(_rat(x) for x in profile.a), _rat(profile.delta),
         _rat(profile.s_A)]
    )


def check_profile(A: picard.PicardClass, profile, alpha_c) -> str | None:
    """Exact shape checks of classify's answer, in the harness's own arithmetic."""
    if profile.type_tag not in TYPES:
        return f"unknown type {profile.type_tag!r}"
    a, basis = profile.a, profile.basis
    if len(a) != (8 if profile.type_tag == cone.P2 else 7) or len(basis) != len(a):
        return f"{profile.type_tag} profile with {len(a)} coefficients"
    if any(left < right for left, right in zip(a, a[1:])):
        return "coefficients not sorted descending"
    if a[-1] < 0 or not a[0] < 1:
        return "coefficients outside [0, 1)"
    if profile.mu <= 0 or profile.delta < 0:
        return "nonpositive mu or negative delta"
    if (profile.conic is None) != (profile.type_tag == cone.P2):
        return "conic present exactly when the type is not P2"
    if profile.s_A != sum(a[1:], Fraction(0)):
        return "s_A is not the sum of the trailing coefficients"
    target = [k + profile.mu * x for k, x in zip(K.coeffs, A.coeffs)]
    total = [Fraction(0)] * 9
    for coeff, e in zip(a, basis):
        total = [t + coeff * c for t, c in zip(total, e.coeffs)]
    if profile.conic is not None:
        total = [t + profile.delta * c for t, c in zip(total, profile.conic.coeffs)]
    if total != target:
        return "K + mu*A differs from sum(a_i basis_i) + delta*conic"
    if not isinstance(alpha_c, Fraction) or alpha_c <= 0:
        return f"alpha_conjecture {alpha_c!r} is not a positive rational"
    return None


class ClassifyMix:
    """classify(A) then alpha_conjecture, on relabelled criterion-10 ample classes."""

    # the highest whole percentile with at least ten ops beyond it (about 30 ops in a run)
    TAIL_PERCENTILE = 65

    name = "classify-mix"

    def __init__(self, seed: int, expected: dict | None = None):
        self.seed = seed
        expected = expected or {}
        self.expected = expected.get("outputs", {})
        # per orbit, the unpermuted class's shape_text and "type alpha_c" (record.py)
        self.orbits = expected.get("orbits", {})
        self.classes = relabelled_classes()
        self.invariants: dict[int, str] = {}
        self.types: dict[int, dict] = {}

    def passes(self) -> Iterator[list[Op]]:
        rng = _run_stream(self.name, self.seed)
        while True:
            ops = [Op("classify", picard.format_class(A), (orbit, A)) for orbit, A in self.classes]
            yield _shuffled_pass(ops, rng)

    def warmup(self) -> Op:
        A = alpha.example_polarization(Fraction(1, 2))
        return Op("classify", picard.format_class(A), (-1, A))

    def call(self, op: Op):
        profile = cone.classify(op.payload[1])
        return profile, alpha.alpha_conjecture(profile)

    def check(self, op: Op, out) -> str | None:
        orbit, A = op.payload
        profile, alpha_c = out
        problem = check_profile(A, profile, alpha_c)
        if problem:
            return problem
        text = profile_text(profile, alpha_c)
        if op.key in self.expected and digest(text) != self.expected[op.key]:
            return "profile differs from the recorded output"
        shape = shape_text(profile)
        if self.invariants.setdefault(orbit, shape) != shape:
            return "the same class gave a different mu, a, delta or s_A"
        unpermuted = self.orbits.get(str(orbit))
        if unpermuted and unpermuted["shape"] != shape:
            return "relabelled class changed mu, a, delta or s_A"
        self.types.setdefault(orbit, {})[f"{profile.type_tag} {_rat(alpha_c)}"] = op.key
        return None

    def findings(self) -> list[str]:
        """Orbits whose relabelled class got another type: a program defect.

        When some boundary coefficients are 0, the choice of fiber components
        falls to a lexicographic tie-break, so F1 against P1xP1, and with it
        alpha_conjecture, can depend on the labelling of e1..e8.  Each op's
        output still passes its checks; the disagreement with the unpermuted
        class is reported here rather than counted as a failed op.
        """
        found = []
        for orbit, seen in sorted(self.types.items()):
            unpermuted = self.orbits.get(str(orbit))
            if unpermuted:
                seen = {unpermuted["type_alpha_c"]: unpermuted["class"], **seen}
            if len(seen) > 1:
                found.append(f"orbit {orbit}: " + "; ".join(
                    f"{tag.replace(' ', ' alpha_c=')} at {key}" for tag, key in seen.items()
                ))
        return found


# -- certify ------------------------------------------------------------------


class Certify:
    """Lemma bank, relaxation probes, random FME systems and Weierstrass checks."""

    # the highest whole percentile with at least ten ops beyond it (about 2000 ops in a run)
    TAIL_PERCENTILE = 99

    name = "certify"

    def __init__(self, seed: int, expected: dict | None = None):
        self.seed = seed
        relabel = _shared_stream(self.name)
        self.systems = [
            (relabel_system(count, rows, relabel), forced)
            for count, rows, forced in system_pool()
        ]
        self.probes = [
            (lemma_id, probe.tag)
            for lemma_id, encoding in lemmas.LEMMA_BANK.items()
            for probe in encoding.probes
        ]

    def passes(self) -> Iterator[list[Op]]:
        rng = _run_stream(self.name, self.seed)
        while True:
            lemma_ops = [Op("lemma", lemma_id, lemma_id) for lemma_id in lemmas.LEMMA_IDS]
            probe_ops = [Op("probe", f"{i} {tag}", (i, tag)) for i, tag in self.probes]
            system_ops = [
                Op("system", _system_text(system), (system, forced))
                for system, forced in self.systems
            ]
            surface_ops = []
            for n in range(SURFACES_PER_PASS):
                kind = SURFACE_KINDS[n % len(SURFACE_KINDS)]
                surface, g = random_surface(rng, kind)
                key = f"{format_form(surface.a)} {format_form(surface.b)}"
                surface_ops.append(Op("surface", key, (surface, kind, g)))
            yield _shuffled_pass(lemma_ops + probe_ops + system_ops + surface_ops, rng)

    def warmup(self) -> Op:
        return Op("lemma", lemmas.LEMMA_IDS[0], lemmas.LEMMA_IDS[0])

    def call(self, op: Op):
        if op.kind == "lemma":
            return lemmas.verify_lemma(op.payload)
        if op.kind == "probe":
            return lemmas.relaxation_probe(*op.payload)
        if op.kind == "system":
            return fme.prove_infeasible(op.payload[0])
        surface = op.payload[0]
        smooth = weierstrass.is_smooth(surface)
        cusp = weierstrass.has_cuspidal_member(surface) if smooth else None
        return smooth, cusp, weierstrass.find_square_sections(surface)

    def check(self, op: Op, out) -> str | None:
        if op.kind == "lemma":
            return _check_lemma(op.payload, out)
        if op.kind == "probe":
            lemma_id, tag = op.payload
            case_name, _, row_tag = tag.partition(":")
            case = next(c for c in lemmas.LEMMA_BANK[lemma_id].cases if c.name == case_name)
            point = tuple(out[v] for v in case.variables)
            if not case.system(drop=row_tag).holds_at(point):
                return f"probe {lemma_id} {tag}: witness violates the relaxed system"
            return None
        if op.kind == "system":
            system, forced = op.payload
            if isinstance(out, fme.Feasible):
                return None if system.holds_at(out.witness) else "witness violates the system"
            if forced:
                return "system built around a witness came back infeasible"
            if not fme.check_certificate(system, out):
                return "certificate does not recombine to a contradiction"
            return None
        return _check_surface(op.payload, out)


def _system_text(system: fme.LinearSystem) -> str:
    return ";".join(
        ",".join(_rat(c) for c in coeffs) + f"{rel}{_rat(rhs)}"
        for coeffs, rel, rhs in system.constraints
    )


def _check_lemma(lemma_id: str, report) -> str | None:
    if not report.verified:
        return f"lemma {lemma_id} did not verify"
    cases = lemmas.LEMMA_BANK[lemma_id].cases
    if len(report.cases) != len(cases):
        return f"lemma {lemma_id}: {len(report.cases)} case reports for {len(cases)} cases"
    for case, case_report in zip(cases, report.cases):
        certificate = case_report.certificate
        if certificate is None or not fme.check_certificate(case.system(), certificate):
            return f"lemma {lemma_id} case {case.name}: certificate fails the checker"
    return None


def _check_surface(payload, out) -> str | None:
    surface, kind, g = payload
    smooth, cusp, sections = out
    if not isinstance(smooth, bool):
        return "is_smooth did not answer a bool"
    if kind == "shared-root" and smooth and cusp is not True:
        return "a and b share a root, but no cuspidal member was found"
    zero = weierstrass.BinaryForm(2, (0, 0, 0))
    for pair in sections:
        if pair.q != zero or pair.g * pair.g != surface.b:
            return "returned section does not satisfy g^2 = b with q = 0"
    if kind == "square" and len(sections) != 1:
        return f"b = g^2 by construction, but {len(sections)} section pairs were found"
    return None


# -- cli ----------------------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes


def _lam(rng: random.Random, low: Fraction, high: Fraction) -> Fraction:
    """A rational strictly between low and high with denominator at most 12."""
    while True:
        q = rng.randint(2, 12)
        lam = Fraction(rng.randint(int(low * q) - 1, int(high * q) + 1), q)
        if low < lam < high:
            return lam


TABLE_FLAGS = {
    1: ("cuspidal", "no-cuspidal"),
    2: ("tacnodal", "no-tacnodal"),
    3: ("eckardt", "no-eckardt"),
    8: ("f1", "p1xp1"),
}


class Cli:
    """One `python -m dp1alpha.cli` subprocess per op, covering every README subcommand.

    Twelve light commands per pass outnumber the four LP-backed ones
    (counterexample on both sides of 1/3, classify and alpha conjecture on
    pencil classes), so the median reads the process floor and the tail the LP.
    """

    # the highest whole percentile with at least ten ops beyond it (about 140 ops in a run)
    TAIL_PERCENTILE = 93

    name = "cli"

    def __init__(self, seed: int, expected: dict | None = None):
        self.seed = seed
        self.expected = (expected or {}).get("outputs", {})
        self.seen: dict[str, bytes] = {}
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def passes(self) -> Iterator[list[Op]]:
        rng = _run_stream(self.name, self.seed)
        probes = [
            (lemma_id, probe.tag)
            for lemma_id, encoding in lemmas.LEMMA_BANK.items()
            for probe in encoding.probes
        ]
        minus_k = -K
        while True:
            scale, r = criterion10_class(rng)
            surface, _ = random_surface(rng, "generic")
            a_sq, g = _form(rng, 4), _form(rng, 3)
            lemma_id, probe = rng.choice(probes)
            degree = rng.randint(1, 9)
            flags = rng.choice(TABLE_FLAGS.get(degree, (None,)))
            pencils = [
                minus_k + _lam(rng, Fraction(0), Fraction(1)) * picard.exceptional_class(i)
                for i in rng.sample(range(1, 9), 2)
            ]
            argvs = [
                ["curves", "enumerate", "--kind", "minus-one"],
                ["curves", "enumerate", "--kind", "conic"],
                ["ample", "--class", picard.format_class(shaped_class(scale, r))],
                ["alpha", "theorem", "--lambda", _rat(_lam(rng, Fraction(0), Fraction(1))),
                 "--n", str(rng.randint(1, 3)), "--alpha-s", rng.choice(["1", "5/6"]),
                 "--decimal", str(rng.randint(1, 12))],
                ["alpha", "theorem", "--lambda", _rat(_lam(rng, Fraction(-1, 3), Fraction(0))),
                 "--n", str(rng.randint(1, 3)), "--alpha-s", "1", "--allow-negative-lambda"],
                ["alpha", "table", "--degree", str(degree)] + (["--flags", flags] if flags else []),
                ["surface", "analyze", "--a", format_form(surface.a),
                 "--b", format_form(surface.b)],
                ["surface", "analyze", "--a", format_form(a_sq), "--b", format_form(g * g),
                 "--q", "2:0,0,0", "--g", format_form(g)],
                ["range", "kstable", "--lambda", _rat(_lam(rng, Fraction(-1), Fraction(1)))],
                ["range", "cylinder", "--lambda", _rat(_lam(rng, Fraction(-1), Fraction(1)))],
                ["lemma", "verify", rng.choice(lemmas.LEMMA_IDS)],
                ["lemma", "verify", lemma_id, "--probe", probe],
                ["counterexample", "--lambda", _rat(_lam(rng, Fraction(0), Fraction(1, 3)))],
                ["counterexample", "--lambda", _rat(_lam(rng, Fraction(1, 3), Fraction(1)))],
                ["classify", "--class", picard.format_class(pencils[0])],
                ["alpha", "conjecture", "--class", picard.format_class(pencils[1])],
            ]
            ops = [Op(_command_path(argv), " ".join(argv), argv) for argv in argvs]
            yield _shuffled_pass(ops, rng)

    def warmup(self) -> Op:
        argv = ["curves", "enumerate", "--kind", "minus-one"]
        return Op(_command_path(argv), " ".join(argv), argv)

    def call(self, op: Op) -> CliResult:
        done = subprocess.run(
            [sys.executable, "-m", "dp1alpha.cli", *op.payload],
            capture_output=True, env=self.env, cwd=ROOT, timeout=CLI_TIMEOUT_S,
        )
        return CliResult(done.returncode, done.stdout, done.stderr)

    def call_in_process(self, op: Op) -> CliResult:
        """The same command through `cli.run` in this process, stdout captured."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(op.payload))
        return CliResult(code, out.getvalue().encode(), err.getvalue().encode())

    def check(self, op: Op, out: CliResult) -> str | None:
        if out.code != 0:
            return f"exit {out.code}: {out.stderr.decode(errors='replace').strip()[-200:]}"
        if op.key in self.expected and digest(out.stdout.decode()) != self.expected[op.key]:
            return "stdout differs from the recorded bytes"
        if self.seen.setdefault(op.key, out.stdout) != out.stdout:
            return "stdout differs between two runs of one command"
        report = json.loads(out.stdout)
        if report.get("command") != op.kind:
            return f"report names command {report.get('command')!r}"
        return _check_cli_outputs(op.kind, op.payload, report["outputs"])


def _command_path(argv: list[str]) -> str:
    return " ".join(argv[:2]) if argv[0] in ("curves", "alpha", "surface", "lemma") else argv[0]


def _exact(value) -> Fraction:
    return Fraction(value["exact"] if isinstance(value, dict) else value)


def _check_cli_outputs(command: str, argv: list[str], outputs: dict) -> str | None:
    if command == "curves enumerate":
        count = 240 if argv[-1] == "minus-one" else 2160
        if outputs["count"] != count or len(outputs["classes"]) != count:
            return f"enumerated {outputs['count']} classes, expected {count}"
    elif command == "counterexample":
        violated = Fraction(argv[argv.index("--lambda") + 1]) > Fraction(1, 3)
        if outputs["conjecture_violated"] is not violated:
            return "conjecture_violated is not exactly lambda > 1/3"
        if (_exact(outputs["alpha"]) != _exact(outputs["alpha_c"])) is not violated:
            return "alpha and alpha_c disagree with conjecture_violated"
    elif command in ("classify", "alpha conjecture"):
        profile = outputs["profile"]
        a = [_exact(x) for x in profile["a"]]
        if profile["type"] != cone.P2 or len(a) != 8:
            return f"pencil class classified as {profile['type']}, expected P2"
        if any(left < right for left, right in zip(a, a[1:])) or not 0 <= a[-1] <= a[0] < 1:
            return "pencil coefficients not sorted in [0, 1)"
        if command == "alpha conjecture" and _exact(outputs["alpha_c"]) <= 0:
            return "alpha_c is not positive"
    elif command == "lemma verify":
        if outputs.get("verified", outputs.get("feasible")) is not True:
            return "lemma did not verify or probe was not feasible"
    elif command == "alpha theorem":
        lam = Fraction(argv[argv.index("--lambda") + 1])
        alpha_s = Fraction(argv[argv.index("--alpha-s") + 1])
        if not 0 < _exact(outputs["alpha"]) <= alpha_s / min(1, 1 + 2 * lam):
            return "alpha outside (0, alpha_S / min(1, 1 + 2 lambda)]"
    elif command == "alpha table":
        if not 0 < _exact(outputs["alpha"]) <= 1:
            return "alpha outside (0, 1]"
    elif command in ("ample", "range"):
        value = outputs["ample" if command == "ample" else "contains"]
        if not isinstance(value, bool):
            return "membership answer is not a bool"
    elif command == "surface analyze":
        if not isinstance(outputs["smooth"], bool):
            return "smooth is not a bool"
        if "--g" in argv and outputs["sections"][0]["g"] != argv[argv.index("--g") + 1]:
            return "the given section pair was not echoed back"
    return None


WORKLOADS = {w.name: w for w in (ClassifyMix, Certify, Cli)}


def checked(workload, op: Op, out) -> str | None:
    """Run the workload's checker; a checker that raises counts as a failed op."""
    try:
        return workload.check(op, out)
    except Exception as exc:  # a malformed output must fail the op, not the run
        return f"checker raised {type(exc).__name__}: {exc}"
