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

import dataclasses
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field

from .attacks import STRATEGIES, AttackOutcome, AttackStrategy, unmet_requirement
from .model import Model, SessionStatus, World, run_honest
from .primitives import SUITE_HEADER, KemMode, group_by_name
from .protocols import SPECS, ProtocolConfig, ProtocolKind
from .rng import derive_seed

REPORT_VERSION = 1
KEM2_ENTROPY_PROFILES = ("full", "key-only")  # the entropy input profiles of kem2


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment's settings, checked when built and frozen, like ProtocolConfig.
    Its kind, strategy and ProtocolConfig are resolved then too and kept outside
    the fields, which alone make equality, to_dict() and the report hashes; the
    strategy "honest" is stored as None, so both spellings are one config."""

    protocol: str
    strategy: str | None = None  # None: honest runs
    group: str = "toy256"
    kem_mode: str = "det"
    n_e: int = 16
    trials: int = 1
    budget: int | None = None  # None: 2^(n_e + 4)
    seed: int = 0
    parallelism: int = 1
    kem2_entropy: str = "full"  # one of KEM2_ENTROPY_PROFILES
    include_receiver_identity: bool = True

    def __post_init__(self):
        try:
            kind = ProtocolKind(self.protocol)
        except ValueError:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.strategy == "honest":
            object.__setattr__(self, "strategy", None)
        try:
            strategy = None if self.strategy is None else AttackStrategy(self.strategy)
        except ValueError:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        try:  # group, n_e, kem mode and flag, checked where they live
            cfg = ProtocolConfig(
                group=group_by_name(self.group),
                n_e=self.n_e,
                kem_mode=KemMode(self.kem_mode),
                kem2_key_only_entropy=self.kem2_entropy == "key-only",
                include_receiver_identity=self.include_receiver_identity,
            )
        except ValueError as exc:
            raise ConfigError(str(exc))
        if type(self.trials) is not int or self.trials < 1:  # type() refuses a bool too
            raise ConfigError("trials must be an int of at least 1")
        if self.budget is not None and (type(self.budget) is not int or self.budget < 1):
            raise ConfigError("budget must be an int of at least 1")
        if type(self.seed) is not int or not 0 <= self.seed < 1 << 64:
            raise ConfigError("seed must be an int within [0, 2^64)")
        if self.kem2_entropy not in KEM2_ENTROPY_PROFILES:
            raise ConfigError(f"kem2 entropy profile must be {' or '.join(KEM2_ENTROPY_PROFILES)}")
        if self.kem2_entropy == "key-only" and kind is not ProtocolKind.KEM2:
            raise ConfigError("key-only entropy is a kem2 configuration")
        if type(self.parallelism) is not int or self.parallelism < 1:
            raise ConfigError("parallelism must be an int of at least 1")
        if strategy is not None and (reason := unmet_requirement(strategy, kind, cfg)):
            raise ConfigError(reason)
        object.__setattr__(self, "_resolved", (kind, strategy, cfg))

    def strategy_enum(self) -> AttackStrategy | None:
        return self._resolved[1]

    def effective_budget(self) -> int:
        return self.budget if self.budget is not None else 1 << (self.n_e + 4)

    # -- semantics ----------------------------------------------------------

    def expectation(self) -> str:
        """Whether this combination is expected to hold the bound
        ("defended") or to break it ("demonstration")."""
        kind, strategy, cfg = self._resolved
        if strategy is not None and STRATEGIES[strategy].demonstration(kind, cfg):
            return "demonstration"
        return "defended"

    def theoretical_bound(self) -> float:
        kind, strategy, _ = self._resolved
        if strategy is None:
            return 1.0  # expected completion rate of honest runs
        return min(1.0, SPECS[kind].residual_factor * 2.0 ** -self.n_e)

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


def trial_world(config: ExperimentConfig, index: int) -> World:
    """The fresh world trial `index` of the experiment runs in: honest runs under
    AM between alice and bob, an attack under UM with its strategy's parties. Its
    seed depends only on the master seed and the index."""
    kind, strategy, cfg = config._resolved
    seed = derive_seed(config.seed, b"trial", index.to_bytes(8, "big"))
    if strategy is None:
        return World(kind, cfg, Model.AM, seed)
    return World(kind, cfg, Model.UM, seed, STRATEGIES[strategy].parties)


def _honest_trial(world: World, budget: int) -> AttackOutcome:
    """An honest run succeeds when both ends complete with equal keys and
    entropies. run_honest is looked up when called, so a replacement on this
    module is the one that runs."""
    init, resp = run_honest(world)
    return AttackOutcome(init.status is resp.status is SessionStatus.COMPLETED
                         and init.kappa == resp.kappa and init.entropies == resp.entropies, 1)


def _trial_batch(config: ExperimentConfig, indices: list[int]) -> list[AttackOutcome]:
    """The outcome of each of the given trials of one experiment; the runner and
    the budget are picked once, and each trial builds only its world."""
    strategy = config.strategy_enum()
    run = _honest_trial if strategy is None else STRATEGIES[strategy].run
    budget = config.effective_budget()
    return [run(trial_world(config, i), budget) for i in indices]


def run_experiment(config: ExperimentConfig) -> TrialSummary:
    """Run all trials of one experiment and reduce them to a summary.

    Deterministic for a fixed config: per-trial seeds depend only on the
    master seed and the trial index, and aggregation is order-independent.
    """
    started = time.perf_counter()
    if config.parallelism > 1 and config.trials > 1:
        import concurrent.futures

        workers = min(config.parallelism, config.trials)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(
                _trial_batch, [config] * workers,
                [list(range(w, config.trials, workers)) for w in range(workers)],
            ))
    else:
        batches = [_trial_batch(config, list(range(config.trials)))]
    outcomes = [outcome for batch in batches for outcome in batch]
    successes = sum(1 for outcome in outcomes if outcome.success)
    iterations = [outcome.iterations for outcome in outcomes]
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
    """One summary per entropy width: the security-vs-usability curve. Every
    point is built, and so checked, before the first one runs."""
    if not n_e_values:
        raise ConfigError("sweep needs at least one entropy width")
    if trials_per_point is not None and len(trials_per_point) != len(n_e_values):
        raise ConfigError("trials list must match the entropy width list")
    trials = trials_per_point or [config.trials] * len(n_e_values)
    points = [dataclasses.replace(config, n_e=n, trials=t) for n, t in zip(n_e_values, trials)]
    return [run_experiment(point) for point in points]


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
    from datetime import datetime, timezone

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
