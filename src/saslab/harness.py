"""Reproducible experiment runner.

An experiment is a batch of independent trials (honest runs or one attack
strategy against one protocol), reduced to a summary with a Wilson 95%
confidence interval and a verdict against the theoretical residual bound.
Per-trial seeds are derived from the master seed by counter hashing, so the
batch is deterministic, order-independent, and parallel-safe.

Report rule: everything under the "results"/"config" keys is byte-stable
for a fixed config and seed; wall-clock data lives outside the hashed
region.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .attacks import STRATEGIES, AttackStrategy, unmet_requirement
from .model import Model, SessionStatus, World, run_honest
from .primitives import MAX_ENTROPY_BITS, MIN_ENTROPY_BITS, SUITE_HEADER, KemMode, group_by_name
from .protocols import SPECS, ProtocolConfig, ProtocolKind
from .rng import derive_seed

REPORT_VERSION = 1


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str
    strategy: str | None = None  # None: honest runs
    group: str = "toy256"
    kem_mode: str = "det"
    n_e: int = 16
    trials: int = 1
    budget: int | None = None  # None: 2^(n_e + 4)
    seed: int = 0
    parallelism: int = 1
    kem2_entropy: str = "full"  # "full" | "key-only"
    include_receiver_identity: bool = True

    # -- resolution ---------------------------------------------------------

    def kind(self) -> ProtocolKind:
        try:
            return ProtocolKind(self.protocol)
        except ValueError:
            raise ConfigError(f"unknown protocol {self.protocol!r}")

    def strategy_enum(self) -> AttackStrategy | None:
        if self.strategy is None or self.strategy == "honest":
            return None
        try:
            return AttackStrategy(self.strategy)
        except ValueError:
            raise ConfigError(f"unknown strategy {self.strategy!r}")

    def mode(self) -> KemMode:
        try:
            return KemMode(self.kem_mode)
        except ValueError:
            raise ConfigError(f"kem mode must be det or prob, not {self.kem_mode!r}")

    def effective_budget(self) -> int:
        return self.budget if self.budget is not None else 1 << (self.n_e + 4)

    def protocol_config(self) -> ProtocolConfig:
        return ProtocolConfig(
            group=group_by_name(self.group),
            n_e=self.n_e,
            kem_mode=self.mode(),
            kem2_key_only_entropy=self.kem2_entropy == "key-only",
            include_receiver_identity=self.include_receiver_identity,
        )

    def validate(self) -> None:
        kind = self.kind()
        strategy = self.strategy_enum()
        self.mode()
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not MIN_ENTROPY_BITS <= self.n_e <= MAX_ENTROPY_BITS:
            raise ConfigError(f"n_e must be within [{MIN_ENTROPY_BITS}, {MAX_ENTROPY_BITS}]")
        if self.kem2_entropy not in ("full", "key-only"):
            raise ConfigError("kem2 entropy profile must be full or key-only")
        if self.kem2_entropy == "key-only" and kind is not ProtocolKind.KEM2:
            raise ConfigError("key-only entropy is a kem2 configuration")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be at least 1")
        try:
            group_by_name(self.group)
        except ValueError as exc:
            raise ConfigError(str(exc))
        if strategy is not None:
            reason = unmet_requirement(strategy, kind, self.protocol_config())
            if reason is not None:
                raise ConfigError(reason)

    # -- semantics ----------------------------------------------------------

    def expectation(self) -> str:
        """Whether this combination is expected to hold the bound
        ("defended") or to break it ("demonstration")."""
        strategy = self.strategy_enum()
        if strategy is None:
            return "defended"
        if STRATEGIES[strategy].demonstration(self.kind(), self.protocol_config()):
            return "demonstration"
        return "defended"

    def theoretical_bound(self) -> float:
        if self.strategy_enum() is None:
            return 1.0  # expected completion rate of honest runs
        return min(1.0, SPECS[self.kind()].residual_factor * 2.0 ** -self.n_e)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval; well-behaved at success counts near zero."""
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1 + z * z / trials
    centre = phat + z * z / (2 * trials)
    spread = z * math.sqrt((phat * (1 - phat) + z * z / (4 * trials)) / trials)
    low = 0.0 if successes == 0 else max(0.0, (centre - spread) / denom)
    high = 1.0 if successes == trials else min(1.0, (centre + spread) / denom)
    return (low, high)


@dataclass
class TrialSummary:
    protocol: str
    strategy: str
    group: str
    mode: str
    n_e: int
    trials: int
    budget: int
    seed: int
    successes: int
    rate: float
    wilson_low: float
    wilson_high: float
    mean_iterations: float
    max_iterations: int
    bound: float
    verdict: str  # "within-bound" | "violates-bound"
    expectation: str  # "defended" | "demonstration"
    wall_time_s: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out.pop("wall_time_s")
        return out


def _trial_seed(config: ExperimentConfig, index: int) -> bytes:
    return derive_seed(config.seed, b"trial", index.to_bytes(8, "big"))


def _run_one_trial(config: ExperimentConfig, index: int) -> tuple[bool, int]:
    """One independent trial; returns (success, iterations used)."""
    strategy = config.strategy_enum()
    if strategy is None:
        world = World(config.kind(), config.protocol_config(), Model.AM, _trial_seed(config, index))
        init, resp = run_honest(world)
        ok = (
            init.status is SessionStatus.COMPLETED
            and resp.status is SessionStatus.COMPLETED
            and init.kappa == resp.kappa
            and init.entropies == resp.entropies
        )
        return ok, 1
    spec = STRATEGIES[strategy]
    world = World(
        config.kind(), config.protocol_config(), Model.UM,
        _trial_seed(config, index), spec.parties,
    )
    outcome = spec.run(world, config.effective_budget())
    return outcome.success, outcome.iterations


def _trial_batch(config_dict: dict, indices: list[int]) -> list[tuple[int, bool, int]]:
    config = ExperimentConfig(**config_dict)
    return [(i, *_run_one_trial(config, i)) for i in indices]


def run_experiment(config: ExperimentConfig) -> TrialSummary:
    """Run all trials of one experiment and reduce them to a summary.

    Deterministic for a fixed config: per-trial seeds depend only on the
    master seed and the trial index, and aggregation is order-independent.
    """
    config.validate()
    started = time.perf_counter()
    results: list[tuple[int, bool, int]] = []
    if config.parallelism > 1 and config.trials > 1:
        workers = min(config.parallelism, config.trials)
        chunks = [list(range(w, config.trials, workers)) for w in range(workers)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_trial_batch, config.to_dict(), chunk)
                for chunk in chunks if chunk
            ]
            for future in concurrent.futures.as_completed(futures):
                results.extend(future.result())
    else:
        results = _trial_batch(config.to_dict(), list(range(config.trials)))
    results.sort(key=lambda item: item[0])
    successes = sum(1 for _, ok, _ in results if ok)
    iterations = [its for _, _, its in results]
    rate = successes / config.trials
    low, high = wilson_interval(successes, config.trials)
    bound = config.theoretical_bound()
    if config.strategy_enum() is None:
        verdict = "within-bound" if rate == 1.0 else "violates-bound"
    else:
        p = 2.0 ** -config.n_e
        slack = 3 * math.sqrt(p * (1 - p) / config.trials)
        verdict = "within-bound" if rate <= bound + slack else "violates-bound"
    return TrialSummary(
        protocol=config.protocol,
        strategy=config.strategy or "honest",
        group=config.group,
        mode=config.kem_mode,
        n_e=config.n_e,
        trials=config.trials,
        budget=config.effective_budget(),
        seed=config.seed,
        successes=successes,
        rate=rate,
        wilson_low=low,
        wilson_high=high,
        mean_iterations=sum(iterations) / len(iterations),
        max_iterations=max(iterations),
        bound=bound,
        verdict=verdict,
        expectation=config.expectation(),
        wall_time_s=round(time.perf_counter() - started, 3),
    )


def sweep(
    config: ExperimentConfig,
    n_e_values: list[int],
    trials_per_point: list[int] | None = None,
) -> list[TrialSummary]:
    """One summary per entropy width: the security-vs-usability curve."""
    if not n_e_values:
        raise ConfigError("sweep needs at least one entropy width")
    if trials_per_point is not None and len(trials_per_point) != len(n_e_values):
        raise ConfigError("trials list must match the entropy width list")
    summaries = []
    for i, n_e in enumerate(n_e_values):
        point = dataclasses.replace(
            config,
            n_e=n_e,
            trials=trials_per_point[i] if trials_per_point else config.trials,
        )
        summaries.append(run_experiment(point))
    return summaries


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _canonical_json(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def build_report(
    summaries: list[TrialSummary], kind: str = "experiment",
    config: ExperimentConfig | None = None,
) -> dict:
    """Assemble the versioned report; wall-clock data stays out of the
    hashed content region."""
    content = {
        "report_version": REPORT_VERSION,
        "kind": kind,
        "suite": SUITE_HEADER,
        "config": config.to_dict() if config else None,
        "results": [s.to_dict() for s in summaries],
    }
    return {
        **content,
        "content_sha256": hashlib.sha256(_canonical_json(content)).hexdigest(),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "wall_times_s": [s.wall_time_s for s in summaries],
    }


EXCLUDED_REPORT_FIELDS = ("generated_at", "wall_times_s")


def report_content(report: dict) -> dict:
    """The reproducible region of a report (timestamps stripped)."""
    return {k: v for k, v in report.items() if k not in EXCLUDED_REPORT_FIELDS}


def report_json_bytes(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True, indent=2).encode() + b"\n"


def report_csv_text(summaries: list[TrialSummary]) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(f.name for f in dataclasses.fields(TrialSummary))
    for summary in summaries:
        writer.writerow(dataclasses.astuple(summary))
    return buffer.getvalue()


def exit_code_for(summaries: list[TrialSummary]) -> int:
    """0 when every defended combination held its bound, 2 otherwise."""
    for summary in summaries:
        if summary.expectation == "defended" and summary.verdict == "violates-bound":
            return 2
    return 0
