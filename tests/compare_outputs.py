"""Compare the CLI's exit code, stdout and stderr with another checkout's.

    python3 tests/compare_outputs.py PARENT_DIR

Runs each argv of a fixed list as ``python3 -m dp1alpha.cli ARGV`` in this
checkout and in PARENT_DIR (a `git archive` copy of another commit, say),
each with its own ``src`` on PYTHONPATH, COLUMNS=80 and no bytecode
written, and compares exit code, stdout and stderr byte for byte.  Exits 0
when every argv agrees, and 1 at the first that differs, naming it.  The
list:

- every command of README.md's Subcommands block, with both `curves
  enumerate` kinds;
- `lemma verify ID` for each of the 12 lemma ids, and `--probe CASE:TAG`
  for every row of every case, the 18 designated relaxation probes among
  them: every Fourier-Motzkin output the CLI prints;
- `ample`, `classify` and `alpha conjecture` on the first 75 draws of
  acceptance criterion 10's generator at seeds 5 and 77: the ample ones it
  keeps, and the ones it rejects, which test the error paths;
- `classify` and `alpha conjecture` on the classes of BRANCHES, which
  reach the `classify` branches those draws miss, and on those of WIDE,
  whose integer rows pass the packed scan's 2^62 slot bound and take the
  plain scan;
- `ample`, `classify` and `alpha conjecture` on LONGEST, the Bertini image
  of a regular class, whose chamber reduction is the longest element of
  W(E8): 120 simple reflections, 8 of them in H - e1 - e2 - e3;
- `classify` and `alpha conjecture` on the Bertini images of the BRANCHES
  classes: -K is its own image, and the other 14 reduce in 70 to 120
  simple reflections to chamber rows with up to seven tied coordinates,
  where the order of the tied e_i decides which (-1)-classes `classify`
  reads;
- `counterexample --lambda k/40` for k = 0..39;
- the bad-input commands of test_cli.TestColdProcess.

It uses the standard library, and this checkout's `dp1alpha.lemmas` for the
lemma ids, case names and row tags; pytest does not collect it.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

README = [
    ["curves", "enumerate"],
    ["curves", "enumerate", "--kind", "minus-one"],
    ["curves", "enumerate", "--kind", "conic"],
    ["ample", "--class", "3,-1,-1,-1,-1,-1,-1,-1,-1/2"],
    ["classify", "--class", "3,-1,-1,-1,-1,-1,-1,-1,-1/2"],
    ["alpha", "conjecture", "--class", "3,-1,-1,-1,-1,-1,-1,-1,-1/2"],
    ["alpha", "theorem", "--lambda", "1/2", "--n", "1", "--alpha-s", "1"],
    ["alpha", "theorem", "--lambda", "-1/5", "--n", "2", "--alpha-s", "5/6",
     "--allow-negative-lambda"],
    ["alpha", "table", "--degree", "1", "--flags", "no-cuspidal"],
    ["surface", "analyze", "--a", "4:1,0,0,0,0", "--b", "6:0,0,0,0,0,0,1"],
    ["surface", "analyze", "--a", "4:1,0,0,0,0", "--b", "6:0,0,0,0,0,0,1",
     "--q", "2:0,0,0", "--g", "3:0,0,0,1"],
    ["counterexample", "--lambda", "1/2"],
    ["range", "kstable", "--lambda", "1/5"],
    ["range", "cylinder", "--lambda", "-1/4"],
    ["lemma", "verify", "local-1"],
    ["lemma", "verify", "local-1", "--probe", "main:x-cap"],
]


def lemma_argvs() -> list[list[str]]:
    """`lemma verify ID`, and `--probe CASE:TAG` for every row of every case.

    The lemma ids, case names and row tags come from this checkout's lemma
    bank.  Each probe drops one row through `LemmaCase.system(drop)`; most
    rows keep the case infeasible, so they test the probe's failure path
    too.
    """
    sys.path.insert(0, str(HERE / "src"))
    from dp1alpha.lemmas import LEMMA_IDS, get_encoding

    argvs = [["lemma", "verify", lemma_id] for lemma_id in LEMMA_IDS]
    for lemma_id in LEMMA_IDS:
        for case in get_encoding(lemma_id).cases:
            for tag in case.row_tags():
                argvs.append(["lemma", "verify", lemma_id, "--probe", f"{case.name}:{tag}"])
    return argvs


BAD_INPUT = [
    ["lemma", "verify", "local-1", "--probe", "main:mult"],
    ["surface", "analyze", "--a", "4:1,0,0,0,0", "--b", "6:0,0,0,0,0,0,1",
     "--q", "2:0,0,0", "--g", "3:1,0,0,1"],
    ["counterexample", "--lambda", "3/2"],
    ["lemma", "verify", "nosuch"],
    ["lemma", "verify", "--help"],
    ["alpha", "theorem", "--lambda", "1/2", "--n", "4", "--alpha-s", "1"],
]


def criterion_10_draws(seed: int, count: int = 75) -> list[str]:
    """The first `count` classes test_acceptance._random_ample_classes draws at `seed`.

    Each draw is scale*(-K) + sum(F(a_i, b_i) * e_i); the generator keeps
    the ample ones.
    """
    rng = random.Random(seed)
    drawn = []
    for _ in range(count):
        scale = rng.randint(2, 5)
        row = [Fraction(3 * scale)] + [
            Fraction(-scale) + Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(8)
        ]
        drawn.append(",".join(map(str, row)))
    return drawn


# Classes whose classify takes the branches criterion 10's draws miss: a
# seven-class face with an even complement (P1xP1 with the lower of two
# rulings), one with an odd complement (P2 with one zero coefficient), the
# conic-bundle classes whose fibres carry coefficient 0 (test_cone); three
# W(E8) images whose chamber words hold the letter 0 twice: of the deep-wall
# class 12H - 4(e1 + ... + e4) - 3e5 - 2e6 - 2e7 - e8 (P2 with four zero
# coefficients), of 13H - 5e1 - 4(e2 + e3 + e4) - 3e5 - 2e6 - 2e7 - e8 (F1
# with fibres 2-4 at coefficient 0) and of (9H - 3(e1 + e2 + e3) - 2(e4 +
# e5 + e6) - e7 - e8)/3 (P2 with three zero coefficients); and -K and
# -K + (e1 + ... + ek)/3 for k = 2..7: P2 with k nonzero coefficients.
BRANCHES = [
    "19/5,-9/5,-4/5,-7/10,-3/5,-1/2,-2/5,-3/10,-9/5",
    "3,-1,-9/10,-17/20,-4/5,-3/4,-7/10,-13/20,-3/5",
    "12,-4,-10/3,-11/2,-10/3,-5,-7/2,-5/2,-7/2",
    "12,-7/2,-10/3,-10/3,-5/2,-4,-5,-7/2,-11/2",
    "9,-2,-5/2,-11/3,-1,-2,-4,-8/3,-3",
    "14,-5,-5,-5,-5,-5,-2,-2,-1",
    "16,-6,-6,-6,-6,-5,-2,-2,-1",
    "4,-2,-4/3,-4/3,-1,-4/3,-1/3,-1,-1/3",
] + [",".join(["3"] + ["-2/3"] * k + ["-1"] * (8 - k)) for k in (0, 2, 3, 4, 5, 6, 7)]


def _scaled(text: str, factor: Fraction) -> str:
    return ",".join(str(Fraction(x) * factor) for x in text.split(","))


# Classes with 20-digit denominators: K + mu*A, as an integer row, passes
# the 2^62 bound of cone's packed scan.  Scaling a class leaves its profile
# data fixed and divides mu; the last class is not ample.
_WIDE = 10**20
WIDE = [
    _scaled("3,-1,-1,-1,-1,-1,-4/5,-3/5,-1/2", Fraction(_WIDE + 1, _WIDE)),  # P2
    _scaled(BRANCHES[3], Fraction(_WIDE + 3, _WIDE)),  # F1
    _scaled(BRANCHES[4], Fraction(_WIDE + 7, _WIDE)),  # P1xP1
    _scaled(BRANCHES[0], Fraction(_WIDE - 1, _WIDE)),
    f"3,-1,-1,-1,-1,-1,-1,-1,-{_WIDE // 2 + 1}/{_WIDE}",
    f"19/5,-9/5,-{4 * (_WIDE + 9) // 5}/{_WIDE + 9},-7/10,-3/5,-1/2,-2/5,-3/10,-9/5",
    f"3,-1,-1,-1,-1,-1,-1,-1,-{_WIDE + 1}/{_WIDE}",
    f"3,-1,-1,-1,-1,-1,-1,-1,1/{_WIDE}",
]


def bertini(text: str) -> str:
    """The Bertini image v -> 2(v.K)K - v of a class, K = -3H + e1 + ... + e8."""
    v = [Fraction(x) for x in text.split(",")]
    k = (-3,) + (1,) * 8
    t = 2 * (v[0] * k[0] - sum(x * y for x, y in zip(v[1:], k[1:])))
    return ",".join(str(t * y - x) for x, y in zip(v, k))


# 428,-146,-147,-148,-149,-150,-151,-152,-153, whose reduction takes 120 letters
LONGEST = bertini("100,-30,-29,-28,-27,-26,-25,-24,-23")


def argvs() -> list[list[str]]:
    classes = criterion_10_draws(5) + criterion_10_draws(77)
    return (
        README
        + lemma_argvs()
        + [[*command, "--class", text] for text in classes
           for command in (["ample"], ["classify"], ["alpha", "conjecture"])]
        + [[*command, "--class", text] for text in BRANCHES + WIDE
           for command in (["classify"], ["alpha", "conjecture"])]
        + [[*command, "--class", LONGEST]
           for command in (["ample"], ["classify"], ["alpha", "conjecture"])]
        + [[*command, "--class", bertini(text)] for text in BRANCHES
           for command in (["classify"], ["alpha", "conjecture"])]
        + [["counterexample", "--lambda", str(Fraction(k, 40))] for k in range(40)]
        + BAD_INPUT
    )


def run(root: Path, argv: list[str]) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), COLUMNS="80")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run(
        [sys.executable, "-m", "dp1alpha.cli", *argv],
        capture_output=True, env=env, cwd=root / "src",
    )
    return done.returncode, done.stdout, done.stderr


def main(args: list[str]) -> int:
    if len(args) != 1 or not (Path(args[0]) / "src" / "dp1alpha").is_dir():
        print("usage: python3 tests/compare_outputs.py PARENT_DIR (a checkout with src/dp1alpha)",
              file=sys.stderr)
        return 2
    parent = Path(args[0]).resolve()
    commands = argvs()
    with ThreadPoolExecutor(2) as pool:
        for argv in commands:
            mine, theirs = pool.map(lambda root: run(root, argv), (HERE, parent))
            if mine != theirs:
                print(f"differs: dp1alpha {' '.join(argv)}")
                for name, (code, out, err) in (("this tree", mine), ("parent", theirs)):
                    print(f"  {name}: exit {code}, stdout {out[:200]!r}, stderr {err[:200]!r}")
                return 1
    print(f"{len(commands)} argvs: identical exit code, stdout and stderr")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
