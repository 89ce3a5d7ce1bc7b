"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

For every workload: ``--seeds`` untraced runs, reported as the median,
quartiles and spread (quartile distance over median) of each end-to-end
metric, plus one traced run (the first seed) for the per-layer metrics.
Runs are sequential, one ``run.py`` process at a time, with the
``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
    )
    lines = proc.stdout.splitlines()
    env = next(line[len("# env "):] for line in lines if line.startswith("# env "))
    result = json.loads(lines[-1])
    result["env"] = dict(item.split("=", 1) for item in env.split())
    return result


def summarise(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    summary: dict[str, Any] = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
                               "workloads": {}}
    for workload in args.workloads:
        runs = [bench(workload, seed, spec["run_seconds"], 0) for seed in args.seeds]
        traced = bench(workload, args.seeds[0], spec["run_seconds"], 1)
        summary["env"] = traced.pop("env")
        entry = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                m["name"]: dict(summarise([r["metrics"][m["name"]]["value"] for r in runs]),
                                unit=m["unit"], bound=m["bound"])
                for m in spec["end_to_end"]
            },
            "per_layer": {name: metric["value"] for name, metric in traced["metrics"].items()},
        }
        summary["workloads"][workload] = entry
        print(workload, json.dumps({k: round(v["spread"], 3)
                                    for k, v in entry["end_to_end"].items()}), flush=True)
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
