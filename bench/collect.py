"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 [--workloads train,ingest] \
        [--trace 0|1] [--seconds S] [--out FILE]

Runs one process at a time from the root of the checkout, with the command
and run length from BENCHMARK.json. For every workload and metric it prints
the median, the quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median; a spread above the
metric's bound is flagged. --out writes the summary and every run's metrics
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command, workload, seed, seconds, trace) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = [line[len("# env "):] for line in lines if line.startswith("# env ")]
    result["env"] = json.loads(env[0]) if env else None
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out")
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary, runs = {}, []
    for workload in args.workloads.split(","):
        results = []
        for seed in seed_list(args.seeds):
            result = run_once(spec["command"], workload, seed, args.seconds, args.trace)
            runs.append({"workload": workload, "seed": seed, **result})
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        summary[workload] = {}
        for name in results[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            summary[workload][name] = stats
            bound = bounds.get(name) if args.trace == 0 else None
            flag = " OVER BOUND" if bound and stats["spread"] > bound else ""
            print(f"  {name:40s} median {stats['median']:.6g} {stats['unit']} "
                  f"spread {stats['spread']:.4f}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
