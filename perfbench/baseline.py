"""Measure a baseline: every workload over several seeds, plus one traced run each.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For each run it keeps the attempted and failed operations.  For each
end-to-end metric it keeps the values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.  For the traced run it keeps every
per-layer metric and each layer's share of the traced replay time, largest
first, which names the layers that dominate the workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
LAYERS = ("cli", "reporting", "series", "radicals", "operators", "vacuum", "fock", "classical")


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=HERE.parent,
    )
    *_, env_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    if not result["correct"]:
        print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed\n"
              + proc.stderr, file=sys.stderr)
    return json.loads(env_line)["environment"], result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    doc: dict = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        outcomes = []
        for seed in seeds:
            env, result = bench(workload, seed, spec["run_seconds"], 0)
            outcomes.append({"seed": seed, "attempted": result["attempted"],
                             "failed": result["failed"]})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  file=sys.stderr, flush=True)
        _, traced = bench(workload, seeds[0], spec["run_seconds"], 1)
        per_layer = {k: v["value"] for k, v in traced["metrics"].items()}
        shares = {layer: per_layer[f"{layer}.self_s"] / per_layer["trace.replay_s"]
                  for layer in LAYERS}
        doc["environment"] = {k: v for k, v in env.items() if k != "seed"}
        doc["workloads"][workload] = {
            "outcomes": outcomes,
            "end_to_end": {m["name"]: {"unit": m["unit"], **summary(values[m["name"]])}
                           for m in spec["end_to_end"]},
            "traced": {
                "seed": seeds[0],
                "layer_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
                "per_layer": per_layer,
            },
        }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
