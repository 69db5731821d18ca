"""Self-tests of the benchmark harness (about two minutes: each workload runs twice).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from dp1alpha import fme  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.fixture(scope="module")
def tiny_runs():
    cache = {}

    def get(workload: str, trace: int) -> dict:
        if (workload, trace) not in cache:
            done = _bench(ROOT, "--workload", workload, "--seed", "7",
                          "--seconds", "1", "--trace", str(trace))
            assert done.returncode == 0, done.stderr
            cache[workload, trace] = json.loads(done.stdout.splitlines()[-1])
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(tiny_runs, workload, trace):
    result = tiny_runs(workload, trace)
    chosen = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in chosen}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_lp_layer_is_exercised_by_classify_mix_only(tiny_runs):
    classify = tiny_runs("classify-mix", 1)["metrics"]
    assert classify["linprog.solves_per_op"]["value"] > 0
    assert tiny_runs("certify", 1)["metrics"]["linprog.solves_per_op"]["value"] == 0
    # the layers' self times account for the op wall time
    assert 0.99 <= classify["trace.layer_self_share"]["value"] <= 1


def test_without_the_program_no_result_is_printed(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = _bench(tmp_path, "--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("workload", NAMES)
def test_inputs_follow_the_seed(workload):
    def first_pass_digest(seed: int) -> str:
        return workloads.inputs_digest(next(workloads.WORKLOADS[workload](seed).passes()))

    assert first_pass_digest(3) == first_pass_digest(3)
    assert first_pass_digest(3) != first_pass_digest(4)


def test_tail_interpolates_the_workload_percentile():
    assert run.tail([float(i) for i in range(1, 101)], 90) == pytest.approx(90.1)
    assert run.tail([3.0], 99) == 3.0


def test_typical_pass_takes_each_slots_median():
    tally = run.Tally(None, None)
    tally.slots = [0, 1, 0, 1, 0, 2]
    tally.latencies = [1.0, 5.0, 9.0, 7.0, 2.0, 3.0]
    assert run.typical_pass(tally) == [2.0, 3.0, 6.0]


@pytest.mark.parametrize("workload", NAMES)
def test_every_pass_fills_every_slot_once(workload):
    passes = workloads.WORKLOADS[workload](3).passes()
    for ops in (next(passes), next(passes)):
        assert sorted(op.slot for op in ops) == list(range(len(ops)))


def _fails(workload, op, out) -> bool:
    return isinstance(workloads.checked(workload, op, out), str)


def test_classify_mix_checker_rejects_wrong_outputs():
    workload = workloads.ClassifyMix(1)
    op = workload.warmup()
    profile, alpha_c = workload.call(op)
    assert workloads.checked(workload, op, (profile, alpha_c)) is None
    wrong = [
        (dataclasses.replace(profile, mu=profile.mu + 1), alpha_c),
        (dataclasses.replace(profile, a=profile.a[::-1]), alpha_c),
        (dataclasses.replace(profile, type_tag="P3"), alpha_c),
        (profile, -alpha_c),
        (None, None),
    ]
    assert all(_fails(workloads.ClassifyMix(1), op, out) for out in wrong)
    # the unpermuted class of the orbit had another mu: a relabelling changed it
    orbits = {"-1": {"class": "-", "shape": "1|0|0|0", "type_alpha_c": "P2 1"}}
    assert _fails(workloads.ClassifyMix(1, {"orbits": orbits}), op, (profile, alpha_c))


def test_classify_mix_reports_a_type_that_depends_on_the_labelling():
    op = workloads.ClassifyMix(1).warmup()
    profile, alpha_c = out = workloads.ClassifyMix(1).call(op)

    def recorded(type_alpha_c: str) -> dict:
        orbit = {"class": "-", "shape": workloads.shape_text(profile),
                 "type_alpha_c": type_alpha_c}
        return {"orbits": {"-1": orbit}}

    same = workloads.ClassifyMix(
        1, recorded(f"{profile.type_tag} {workloads.format_rational(alpha_c)}")
    )
    other = workloads.ClassifyMix(1, recorded("F1 1/99"))
    for workload in (same, other):
        assert workloads.checked(workload, op, out) is None
    assert same.findings() == [] and len(other.findings()) == 1


def test_certify_checker_rejects_wrong_outputs():
    workload = workloads.Certify(1)
    ops = next(workload.passes())
    by_kind = {}
    for op in ops:
        if op.kind != "system" or op.payload[1]:  # keep a system built to be feasible
            by_kind.setdefault(op.kind, op)
    square = next(op for op in ops if op.kind == "surface" and op.payload[1] == "square")
    lemma, probe, system = by_kind["lemma"], by_kind["probe"], by_kind["system"]
    report = workload.call(lemma)
    certificate = report.cases[0].certificate
    zeros = (Fraction(0),) * len(certificate.multipliers)
    bad_case = dataclasses.replace(
        report.cases[0], certificate=dataclasses.replace(certificate, multipliers=zeros)
    )
    witness = workload.call(probe)
    smooth, cusp, sections = workload.call(square)
    wrong = [
        (lemma, dataclasses.replace(report, verified=False)),
        (lemma, dataclasses.replace(report, cases=(bad_case,) + report.cases[1:])),
        (probe, {name: Fraction(-1) for name in witness}),
        (system, fme.FarkasCertificate((), frozenset())),
        (system, fme.Feasible(())),
        (square, (smooth, cusp, [])),
        (square, None),
    ]
    assert all(_fails(workload, op, out) for op, out in wrong)


def test_cli_checker_rejects_wrong_outputs():
    workload = workloads.Cli(1)
    ops = {op.key: op for op in next(workload.passes())}
    low = next(op for op in ops.values()
               if op.kind == "counterexample" and Fraction(op.payload[-1]) < Fraction(1, 3))
    enum = next(op for op in ops.values() if op.kind == "curves enumerate")

    def report(command: str, outputs: dict) -> bytes:
        return json.dumps({"command": command, "inputs": {}, "outputs": outputs}).encode()

    wrong = [
        (low, workloads.CliResult(1, b"", b"error")),
        (low, workloads.CliResult(0, b"not json", b"")),
        (low, workloads.CliResult(0, report("counterexample", {
            "alpha": "8/9", "alpha_c": "1", "conjecture_violated": True}), b"")),
        (enum, workloads.CliResult(
            0, report("curves enumerate", {"count": 1, "classes": []}), b"")),
    ]
    assert all(_fails(workloads.Cli(1), op, out) for op, out in wrong)
