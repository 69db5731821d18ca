"""Record the expected outputs that run.py compares against.

    python3 perfbench/record.py

For the first RECORDED_PASSES passes of classify-mix and cli under the
default seed, stores the sha256 of each op's canonical output text (profile
text for classify-mix, the CLI's stdout bytes for cli) in expected.json,
keyed by the op's input.  A run under any seed checks every op whose input
was recorded; classify-mix passes hold the same classes under every seed.
For classify-mix it also stores, per orbit, what the unpermuted pool class
gives: its shape_text, which the relabelled class must reproduce, and its
type and alpha_conjecture, which a run reports as a finding if they differ.
Every output must pass the workload's own checks before it is recorded.
Re-record only when an output is meant to change.
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

RECORDED_PASSES = 2


def canonical_text(workload, out) -> str:
    if isinstance(workload, workloads.Cli):
        return out.stdout.decode()
    return workloads.profile_text(*out)


def unpermuted_orbits() -> dict[str, dict[str, str]]:
    orbits = {}
    for orbit, entry in enumerate(workloads.class_pool()):
        A = workloads.shaped_class(*entry)
        profile = workloads.cone.classify(A)
        alpha_c = workloads.alpha.alpha_conjecture(profile)
        problem = workloads.check_profile(A, profile, alpha_c)
        if problem:
            raise ValueError(f"orbit {orbit}: {problem}")
        orbits[str(orbit)] = {
            "class": workloads.picard.format_class(A),
            "shape": workloads.shape_text(profile),
            "type_alpha_c": f"{profile.type_tag} {workloads.format_rational(alpha_c)}",
        }
    return orbits


def main() -> int:
    recorded = {"classify-mix": {"orbits": unpermuted_orbits()}}
    for cls in (workloads.ClassifyMix, workloads.Cli):
        workload = cls(workloads.DEFAULT_SEED, recorded.get(cls.name))
        digests = {}
        for ops in islice(workload.passes(), RECORDED_PASSES):
            for op in ops:
                out = workload.call(op)
                problem = workloads.checked(workload, op, out)
                if problem:
                    print(f"{cls.name}: {op.key}: {problem}", file=sys.stderr)
                    return 1
                digests[op.key] = workloads.digest(canonical_text(workload, out))
        recorded.setdefault(cls.name, {})["outputs"] = digests
        print(f"{cls.name}: {len(digests)} outputs recorded")
        for finding in getattr(workload, "findings", list)():
            print(f"{cls.name}: FINDING {finding}")
    (HERE / "expected.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
