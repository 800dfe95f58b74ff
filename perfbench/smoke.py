"""Smoke test of the benchmark itself, at a tiny size (about 20 s).

    python3 perfbench/smoke.py

It checks that:
  - a short untraced run and a short traced run pass the gate and print
    exactly the metrics BENCHMARK.json names, with their units;
  - the gate trips, with a non-zero exit, when every honest trial is forced
    to end with mismatched keys;
  - the benchmark fails without a result when the saslab sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD = "transfer-toy256"  # the cheapest trial
ARGS = ["--workload", WORKLOAD, "--seed", "3", "--seconds", "1"]

# run.py under a saslab whose honest trials all end with mismatched keys
FORCED_FAILURE = """
import runpy, sys
sys.path[:0] = [{here!r}, {src!r}]
import saslab.harness as harness
real_run_honest = harness.run_honest
def broken(world, *args):
    init, resp = real_run_honest(world, *args)
    resp.kappa = bytes(32)
    return init, resp
harness.run_honest = broken
sys.argv = [{run!r}] + {argv!r}
runpy.run_path({run!r}, run_name="__main__")
"""


def run(command: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    child = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)
    return child.returncode, child.stdout.splitlines()


def result_of(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_metrics(result: dict, spec_key: str) -> None:
    expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected, (
        f"{spec_key}: missing {sorted(set(expected) - set(printed))}, "
        f"unexpected {sorted(set(printed) - set(expected))}, "
        f"units differ {sorted(n for n in expected if printed.get(n, expected[n]) != expected[n])}"
    )
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def main() -> int:
    run_py = str(HERE / "run.py")
    for trace, spec_key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = run([sys.executable, run_py, *ARGS, "--trace", str(trace)])
        assert code == 0, f"trace {trace} run exited with {code}"
        result = result_of(lines)
        assert result["correct"] and result["failed"] == 0, result
        check_metrics(result, spec_key)
        print(f"ok: trace {trace} prints every {spec_key} metric")

    script = FORCED_FAILURE.format(here=str(HERE), src=str(ROOT / "src"), run=run_py,
                                   argv=[*ARGS, "--trace", "0"])
    code, lines = run([sys.executable, "-c", script])
    result = result_of(lines)
    assert code != 0, "the gate did not change the exit code"
    assert not result["correct"] and result["failed"] > 0, result
    assert any(line.startswith("GATE FAILED") for line in lines), lines
    print(f"ok: forced failure trips the gate ({result['failed']}/{result['attempted']} failed)")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = run([sys.executable, "perfbench/run.py", *ARGS, "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    print("ok: without the saslab sources the benchmark fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
