"""saslab benchmark.

    python3 perfbench/run.py --workload forge-toy256 --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py      # every workload, untraced then traced

One invocation runs one workload (see workloads.py) in this process, through
the public API: ExperimentConfig -> run_experiment, with parallelism 1.

  set-up     import saslab and run one untimed warm-up trial per config.
  timed      rounds of the workload's mix until --seconds have passed.
  gate       every config is checked over the trials it ran: honest runs
             complete, demonstrations reach C2/C4's success rate, defended
             configs hold the harness's verdict rule over the pooled trials.

With --trace 0 the end-to-end metrics are reported: setup_s (median of
several set-ups in fresh processes), trials_per_s, collision_iter_us and
peak_rss_mb. The three timings are scaled to a reference machine speed by a
calibration loop timed alongside them (calibration.py); the raw wall-clock
values and the scale factor are printed next to them. With --trace 1 half the time runs untraced and half traced, and
the per-layer metrics are reported: calls per trial and self time per call of
each wrapped function (tracing.py), derived counts, isolated timings
(micro.py) and process-pool scaling. The spans are written as JSON under
.perfbench_out/.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0 when
the gate passes and 1 when it fails.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here: before saslab is imported

import argparse
import dataclasses
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import calibration
from workloads import ACCEPTANCE_SEED, DEMONSTRATION_RATE, WARMUP_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BASELINE = HERE / "baseline.json"
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5
SETUP_SLICES = 3  # calibration slices timed after each set-up
MAX_SPANS = 200_000  # the traced phase starts no new round past this many spans
POOL_SLICE_TRIALS = 60


def import_saslab():
    package = SRC / "saslab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no saslab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import saslab

    if Path(saslab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported saslab from {saslab.__file__}, not {package}")
    return saslab


def set_up(workload):
    """Import saslab, build the mix, and warm every config up once."""
    import_saslab()
    from saslab import harness

    bases = build_bases(harness, workload)
    for base in bases:
        harness.run_experiment(dataclasses.replace(base, trials=1, seed=WARMUP_SEED))
    return harness, bases


@dataclass
class Phase:
    wall_s: float = 0.0  # rounds only; calibration slices run between rounds
    slices: list = field(default_factory=list)
    trials: int = 0
    iterations: int = 0
    first_round: list = field(default_factory=list)
    successes: list = field(default_factory=list)  # per config, pooled over rounds
    attempted: list = field(default_factory=list)
    raised: list = field(default_factory=list)  # trials of batches that raised


def run_phase(harness, workload, bases, seed, seconds, tracer=None) -> Phase:
    phase = Phase(successes=[0] * len(bases), attempted=[0] * len(bases), raised=[0] * len(bases))
    span = tracer.span if tracer else (lambda name: nullcontext())
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or (
        time.perf_counter() < deadline
        and (tracer is None or len(tracer.spans) < MAX_SPANS)
    ):
        round_seed = workload.round_seed(seed, index)
        round_started = time.perf_counter()
        for i, base in enumerate(bases):
            config = dataclasses.replace(base, seed=round_seed)
            try:
                with span("harness.run_experiment"):
                    summary = harness.run_experiment(config)
            except Exception:  # a batch that raises fails all its trials
                traceback.print_exc()
                phase.raised[i] += config.trials
                continue
            if index == 0:
                phase.first_round.append(summary)
            phase.successes[i] += summary.successes
            phase.attempted[i] += summary.trials
            phase.trials += summary.trials
            phase.iterations += round(summary.mean_iterations * summary.trials)
        phase.wall_s += time.perf_counter() - round_started
        phase.slices.append(calibration.run_slice())
        index += 1
    return phase


def gate(bases, phase) -> tuple[int, list[str]]:
    """Failed trials and the reasons, over the pooled trials of each config."""
    failed = sum(phase.raised)
    problems = [f"{b.protocol}/{b.strategy or 'honest'}: {n} trials raised"
                for b, n in zip(bases, phase.raised) if n]
    for base, successes, trials in zip(bases, phase.successes, phase.attempted):
        if not trials:
            continue
        label = f"{base.protocol}/{base.strategy or 'honest'}"
        rate = successes / trials
        if base.strategy_enum() is None:
            if successes != trials:
                problems.append(f"{label}: {successes}/{trials} honest runs completed")
                failed += trials - successes
        elif base.expectation() == "demonstration":
            need = DEMONSTRATION_RATE[base.strategy]
            if rate < need:
                problems.append(f"{label}: success rate {rate:.4f} < {need}")
                failed += trials - successes
        else:
            # the harness's verdict rule, applied to all trials of the config
            p = 2.0 ** -base.n_e
            limit = base.theoretical_bound() + 3 * math.sqrt(p * (1 - p) / trials)
            if rate > limit:
                problems.append(f"{label}: rate {rate:.5f} over {limit:.5f} ({trials} trials)")
                failed += trials
    return failed, problems


def report_hash(harness, workload, phase) -> str:
    return harness.build_report(phase.first_round, kind=f"perfbench/{workload.name}")["content_sha256"]


def check_pin(workload, seed, digest) -> None:
    """Flag a moved content hash for the default seed; not a gate failure,
    because a change may alter seeded outcomes on purpose."""
    pins = json.loads(BASELINE.read_text()).get("pinned_content_sha256", {})
    pinned = pins.get(workload.name) if seed == ACCEPTANCE_SEED else None
    if pinned is None:
        status = "no pin for this seed"
    elif pinned == digest:
        status = "matches the pin"
    else:
        status = f"MISMATCH: pinned {pinned}"
        print(f"perfbench: {workload.name} content_sha256 moved from {pinned}", file=sys.stderr)
    print(f"content_sha256 {digest} ({status})")


def setup_samples(args, first: float) -> list[float]:
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
    return samples


def end_to_end(args, workload, harness, bases, setup_s):
    phase = run_phase(harness, workload, bases, args.seed, args.seconds)
    failed, problems = gate(bases, phase)
    check_pin(workload, args.seed, report_hash(harness, workload, phase))
    setups = setup_samples(args, setup_s)
    print("set-up samples, scaled (s): " + ", ".join(f"{s:.4f}" for s in setups))
    factor = calibration.scale(phase.slices)
    print(f"timed phase: {phase.trials} trials, {phase.iterations} iterations, "
          f"{phase.wall_s:.4f} s wall, scale factor {factor:.4f}; raw "
          f"trials_per_s = {phase.trials / phase.wall_s:.6g} 1/s, "
          f"collision_iter_us = {phase.wall_s / phase.iterations * 1e6:.6g} us")
    scaled_wall = phase.wall_s * factor
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "trials_per_s": (phase.trials / scaled_wall, "1/s"),
        "collision_iter_us": (scaled_wall / phase.iterations * 1e6, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    attempted = phase.trials + sum(phase.raised)
    return attempted, failed, problems, metrics


def per_layer(args, workload, harness, bases):
    import micro
    from tracing import Tracer, span_names

    half = args.seconds / 2
    plain = run_phase(harness, workload, bases, args.seed, half)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_phase(harness, workload, bases, args.seed, half, tracer)
    finally:
        tracer.uninstall()
    failed, problems = gate(bases, plain)
    traced_failed, traced_problems = gate(bases, traced)
    failed += traced_failed
    problems += [f"traced {p}" for p in traced_problems]
    plain_hash = report_hash(harness, workload, plain)
    traced_hash = report_hash(harness, workload, traced)
    check_pin(workload, args.seed, plain_hash)
    if traced_hash != plain_hash:
        problems.append(f"traced content_sha256 {traced_hash} differs from untraced")

    trials = traced.trials
    totals = tracer.self_times()
    metrics = {}
    for name in span_names():
        calls, self_ns = totals.get(name, (0, 0))
        metrics[f"{name}.calls"] = (calls / trials, "1/trial")
        metrics[f"{name}.self_us"] = (self_ns / calls / 1000 if calls else 0.0, "us")
    aborted = sum(tracer.counts[name] for name in ("attacks.forge_trial", "attacks.redirect_trial"))
    metrics["model.messages_per_trial"] = (tracer.counts["model.World.schedule"] / trials, "1/trial")
    metrics["attacks.iterations_per_trial"] = (traced.iterations / trials, "1/trial")
    metrics["attacks.abort_ratio"] = (aborted / trials, "ratio")
    # run_experiment's self time: its wall time minus the trial seeds,
    # World construction and trial entry points it calls
    metrics["harness.overhead_us_per_trial"] = (
        totals["harness.run_experiment"][1] / trials / 1000, "us")
    # scaled time per loop iteration: per trial except on the collision loops,
    # where the two phases' trials differ in length
    metrics["trace.overhead_ratio"] = (
        (traced.wall_s * calibration.scale(traced.slices) / traced.iterations)
        / (plain.wall_s * calibration.scale(plain.slices) / plain.iterations), "x")
    metrics["harness.build_report_ms"] = (micro.build_report_ms(plain.first_round), "ms")
    for name, value in micro.layer_timings().items():
        metrics[name] = (value, "us")
    pool_configs = [dataclasses.replace(b, trials=POOL_SLICE_TRIALS, seed=args.seed)
                    for b in build_bases(harness, WORKLOADS["forge-toy256"])]
    speedup, same = micro.pool_scaling(pool_configs)
    metrics["harness.pool2_speedup"] = (speedup, "x")
    if not same:
        problems.append("parallelism 1 and 2 gave different content_sha256")

    tracer.dump(OUT / f"trace-{workload.name}.json",
                {"workload": workload.name, "seed": args.seed, "traced_trials": trials})
    attempted = plain.trials + traced.trials + sum(plain.raised) + sum(traced.raised)
    return attempted, failed, problems, metrics


def build_bases(harness, workload):
    return [harness.ExperimentConfig(**spec, trials=workload.trials_per_round)
            for spec in workload.mix]


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    harness, bases = set_up(workload)
    raw_setup_s = time.perf_counter() - T0
    setup_s = raw_setup_s * calibration.scale(
        [calibration.run_slice() for _ in range(SETUP_SLICES)])
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    if args.trace:
        attempted, failed, problems, metrics = per_layer(args, workload, harness, bases)
    else:
        attempted, failed, problems, metrics = end_to_end(args, workload, harness, bases, setup_s)
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    print(f"failed_ratio = {failed / attempted} ratio ({failed}/{attempted} trials)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process, untraced then traced."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                timeout=600,
            )
            status = status or child.returncode
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="saslab benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(SPEC.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("seed must be in [0, 2^64)")
    if args.seconds <= 0:
        parser.error("seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
