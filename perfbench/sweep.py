"""Run the benchmark over several seeds; report each metric's median, quartiles and spread.

    python3 perfbench/sweep.py --workloads classify-mix,certify,cli --seeds 1-10 [--out FILE]

Runs are sequential, one process at a time.  The spread of a metric is the
distance between its first and third quartile (`statistics.quantiles`, n=4)
as a share of its median; BENCHMARK.json bounds how far a later change may
move each median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def parse_seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"label": args.label, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={result['wall_s']:.1f}s", flush=True)
        facts = json.loads(
            (HERE / "out" / f"{workload}-seed{seed}-trace{args.trace}.json").read_text()
        )["machine"]
        metrics = {}
        for name, entry in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summarize(values), unit=entry["unit"])
            bound = bounds.get(name) if not args.trace else None
            flag = "" if bound is None else (
                f"  bound {bound}  {'ok' if metrics[name]['spread'] < bound / 3 else 'WIDE'}"
            )
            print(f"  {name:38s} median {metrics[name]['median']:.6g} {entry['unit']}"
                  f"  spread {metrics[name]['spread']:.3f}{flag}", flush=True)
        report["workloads"][workload] = {
            "seeds": parse_seeds(args.seeds),
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "run_wall_s": [r["wall_s"] for r in runs],
            "machine": facts,
            "metrics": metrics,
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
