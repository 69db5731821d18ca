"""The dp1alpha benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload classify-mix --seed 1 --seconds 30 --trace 0

Load model: closed loop with one caller.  Ops run one at a time in this
process, with no threads; the cli workload runs one subprocess at a time.
The run executes the passes of its workload (see workloads.py) until
--seconds have passed and every slot of the pass template has run.  It
checks the output of every timed op and counts a failed check or a raised
exception as a failed op without stopping.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.  The
latency metrics come from the typical pass: each slot's median latency over
the run, so a slow spell on the machine or a last pass cut short does not
change the mix of work they weigh.  Set-up time is the median over fresh
processes that each import, enumerate and run one checked warm-up op
(setup_probe.py).  --trace 1 is a separate run that
reports the per-layer metrics over whole passes: each op runs once untraced
and once with spans recorded around the program's public functions
(tracing.py), so the ratio of the two walls is the tracing overhead.

Stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}; the lines before it, each starting with '#', summarise the run.
The full result, with machine facts and the spans of a traced run, goes to
perfbench/out/.  Exits 2 without a result when the dp1alpha sources are not
beside this directory.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
PROBE_REPEATS = 5
MAX_ERRORS_KEPT = 20


def _timed(call, op):
    start = perf_counter()
    try:
        out, error = call(op), None
    except Exception as exc:  # a failing op is counted, never fatal to the run
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    return perf_counter() - start, out, error


class Tally:
    """Latencies and failures of the timed ops of one phase."""

    def __init__(self, workload, checked):
        self.workload = workload
        self.checked = checked
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.slots: list[int] = []
        self.failed = 0
        self.errors: list[str] = []

    def run(self, call, op, tracer=None, op_id=0):
        if tracer is None:
            latency, out, error = _timed(call, op)
        else:
            with tracer.op(op_id):
                latency, out, error = _timed(call, op)
        error = error or self.checked(self.workload, op, out)
        self.latencies.append(latency)
        self.kinds.append(op.kind)
        self.slots.append(op.slot)
        if error:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(f"{op.kind} [{op.key[:120]}]: {error}")


def _env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure_setup(workload_name: str) -> tuple[float, str]:
    """Wall time from spawning a fresh process to its warm-up op being checked.

    The probe prints time.monotonic() when it is ready; that clock is shared
    by all processes of the machine, so the probe's exit is not timed.
    """
    start = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload_name],
            capture_output=True, env=_env(), cwd=ROOT, text=True, timeout=120,
        )
    except subprocess.TimeoutExpired:
        return 120.0, "set-up probe timed out"
    ready, _, status = done.stdout.strip().partition(" ")
    if not status:
        return time.monotonic() - start, f"no result: {done.stderr.strip()[-200:]}"
    return float(ready) - start, status


def _subprocess_ms(code: str) -> float:
    """Median wall time of a fresh interpreter running `code`."""
    samples = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            env=_env(), cwd=ROOT, timeout=120,
        )
        samples.append((perf_counter() - start) * 1e3)
    return statistics.median(samples)


def _import_ms() -> float:
    code = (
        "import time; t = time.perf_counter(); import dp1alpha.cli; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(PROBE_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True,
            env=_env(), cwd=ROOT, timeout=120,
        )
        samples.append(float(done.stdout) * 1e3)
    return statistics.median(samples)


def _cold_ms(function) -> float:
    samples = []
    for _ in range(PROBE_REPEATS):
        function.cache_clear()
        start = perf_counter()
        function()
        samples.append((perf_counter() - start) * 1e3)
    return statistics.median(samples)


def typical_pass(tally: Tally) -> list[float]:
    """Each slot's median latency over the run, sorted."""
    by_slot: dict[int, list[float]] = {}
    for slot, latency in zip(tally.slots, tally.latencies):
        by_slot.setdefault(slot, []).append(latency)
    return sorted(statistics.median(samples) for samples in by_slot.values())


def tail(latencies: list[float], percentile: int) -> float:
    """The workload's tail percentile of the latencies (interpolated, inclusive)."""
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=100, method="inclusive")[percentile - 1]


def run_timed(workload, checked, seconds: float):
    """One op after another until `seconds` have passed and one pass is whole."""
    tally = Tally(workload, checked)
    passes = 0
    start = perf_counter()
    for ops in workload.passes():
        passes += 1
        for op in ops:
            tally.run(workload.call, op)
            if passes > 1 and perf_counter() - start >= seconds:
                return tally, passes
        if perf_counter() - start >= seconds:
            return tally, passes


def run_traced(workload, checked, tracing, seconds: float):
    """Every op untraced and traced, in alternating order; cli also runs it as a subprocess."""
    tracer = tracing.Tracer()
    base = Tally(workload, checked)
    traced = Tally(workload, checked)
    spawned = Tally(workload, checked)
    in_process = getattr(workload, "call_in_process", None)
    call = in_process or workload.call
    passes = 0
    start = perf_counter()

    def untraced_step(op):
        base.run(call, op)

    def traced_step(op):
        with tracing.installed(tracer):
            traced.run(call, op, tracer, len(traced.latencies))

    for ops in workload.passes():
        for op in ops:
            if in_process:
                spawned.run(workload.call, op)
            # the second of two identical calls tends to run faster: alternate
            steps = (untraced_step, traced_step)
            for step in steps if len(base.latencies) % 2 else reversed(steps):
                step(op)
        passes += 1
        # every op runs at least twice here, so half the time budget buys one untraced run
        if perf_counter() - start >= seconds / 2:
            break

    from dp1alpha import picard

    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead"] = sum(traced.latencies) / sum(base.latencies)
    metrics["picard.enum_minus_one_ms"] = _cold_ms(picard.enumerate_minus_one_classes)
    metrics["picard.enum_conic_ms"] = _cold_ms(picard.enumerate_conic_classes)
    cli_metrics = dict.fromkeys(
        ("cli.interpreter_ms", "cli.import_ms", "cli.run_ms", "cli.process_overhead_ms"), 0.0
    )
    if in_process:
        cli_metrics = {
            "cli.interpreter_ms": _subprocess_ms("pass"),
            "cli.import_ms": _import_ms(),
            "cli.run_ms": statistics.median(base.latencies) * 1e3,
            "cli.process_overhead_ms": statistics.median(
                (s - b) * 1e3 for s, b in zip(spawned.latencies, base.latencies)
            ),
        }
    metrics.update(cli_metrics)
    return [spawned, base, traced], passes, metrics, tracer


def machine_facts() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        # with gmpy2 importable, linprog computes in mpq: a different program
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dp1alpha" / "__init__.py").is_file():
        print(f"dp1alpha sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import tracing
    import workloads
    from dp1alpha import picard

    # recorded outputs by input key: any run that meets a recorded input checks it
    expected = json.loads((HERE / "expected.json").read_text()).get(args.workload, {})
    workload = workloads.WORKLOADS[args.workload](args.seed, expected)
    first_pass = next(workload.passes())
    problems = []

    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, status = measure_setup(args.workload)
        setups.append(elapsed)
        if status != "ok":
            problems.append(f"set-up probe: {status}")
    picard.enumerate_minus_one_classes()
    picard.enumerate_conic_classes()
    warm = workload.warmup()
    _, out, error = _timed(workload.call, warm)
    error = error or workloads.checked(workload, warm, out)
    if error:
        problems.append(f"warm-up op: {error}")

    layer = end_to_end = None
    if args.trace:
        tallies, passes, layer, tracer = run_traced(
            workload, workloads.checked, tracing, args.seconds
        )
        timed = tallies[2]
    else:
        timed, passes = run_timed(workload, workloads.checked, args.seconds)
        tallies = [timed]
    attempted = sum(len(t.latencies) for t in tallies)
    failed = sum(t.failed for t in tallies)
    errors = problems + [e for t in tallies for e in t.errors]
    findings = getattr(workload, "findings", list)()

    lat = timed.latencies
    typical = typical_pass(timed)
    tail_pct = workload.TAIL_PERCENTILE
    if not args.trace:
        # for cli: the largest child, set-up probes included (they run the same program)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        end_to_end = {
            "ops_per_s": (1 - timed.failed / len(lat)) * len(typical) / sum(typical),
            "latency_p50_ms": statistics.median(typical) * 1e3,
            "latency_tail_ms": tail(typical, tail_pct) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}

    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    facts = machine_facts()
    result = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": passes,
        "input_digest": workloads.inputs_digest(first_pass),
        "machine": facts,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "tail_percentile": tail_pct,
        "tail_samples": len(lat),
        "typical_pass_s": typical,
        "ops": [list(op) for op in zip(timed.kinds, timed.slots, lat)],
        "setup_samples_s": setups,
        "end_to_end": end_to_end,
        "per_layer": layer,
        "errors": errors,
        "findings": findings,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        result["spans"] = tracer.dump()
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result)
    )

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={passes} input_digest={result['input_digest'][:16]}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"# why: {why}")
    for name, entry in metrics.items():
        print(f"# {name:38s} {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(f"# {'failed_frac':38s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
        beyond = len(lat) * (100 - tail_pct) / 100
        print(f"# latency_tail_ms is p{tail_pct} of the {len(typical)} slot medians of "
              f"{len(lat)} ops ({beyond:.0f} ops beyond it"
              + (", fewer than 10: run longer)" if beyond < 10 else ")"))
    for error in errors:
        print(f"# FAILED {error}")
    for finding in findings:
        print(f"# FINDING {finding}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
