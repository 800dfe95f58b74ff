"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/record.py --seeds 1-10 --seconds 25 --out runs.json

Runs are untraced. For every workload and end-to-end metric it prints the
median and the spread, (Q3 - Q1) / median with the quartiles of
statistics.quantiles(n=4), and compares the spread with a third of the
metric's bound in BENCHMARK.json. Each run is a fresh `run.py` process;
workloads alternate within each seed, so a slow spell of the machine is
shared between them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(workload: str, seed: int, seconds: float) -> dict:
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if child.returncode != 0:
        sys.stderr.write(child.stdout + child.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {child.returncode}")
    return json.loads(child.stdout.splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in seeds:
        for workload in workloads:
            result = run(workload, seed, args.seconds)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {}
    for workload in workloads:
        summary[workload] = {}
        for name, series in values[workload].items():
            stats = summary[workload][name] = summarise(series)
            flag = "ok" if stats["spread"] < bounds[name] / 3 else "WIDE"
            print(f"{workload:18} {name:18} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.4f} bound {bounds[name]} {flag}")
    if args.out:
        record = {
            "machine": {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
                        "cpu": cpu_model()},
            "seconds": args.seconds, "seeds": seeds, "workloads": summary,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
