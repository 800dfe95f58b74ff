import dataclasses
import json

import pytest

from saslab import harness
from saslab.attacks import STRATEGIES, AttackOutcome
from saslab.harness import (
    ConfigError,
    ExperimentConfig,
    build_report,
    exit_code_for,
    report_content,
    report_csv_text,
    report_json_bytes,
    run_experiment,
    sweep,
    wilson_interval,
)
from saslab.model import Model


def test_honest_experiment_all_completions():
    summary = run_experiment(
        ExperimentConfig(protocol="kex3", trials=200, seed=7)
    )
    assert summary.successes == 200
    assert summary.rate == 1.0
    assert summary.verdict == "within-bound"
    assert summary.expectation == "defended"
    assert summary.strategy == "honest"


def test_collision_demo_violates_bound_as_expected():
    summary = run_experiment(
        ExperimentConfig(
            protocol="kex2", strategy="kex2-collision", n_e=8,
            budget=100_000, trials=20, seed=7,
        )
    )
    assert summary.rate == 1.0
    assert summary.verdict == "violates-bound"
    assert summary.expectation == "demonstration"
    assert 2**7 <= summary.mean_iterations <= 2**9
    assert exit_code_for([summary]) == 0  # demonstrations do not gate CI


def test_defended_forge_within_bound():
    summary = run_experiment(
        ExperimentConfig(
            protocol="kex3", strategy="random-forge", n_e=8, trials=2000, seed=7
        )
    )
    assert summary.verdict == "within-bound"
    assert summary.bound == 2 * 2**-8
    assert exit_code_for([summary]) == 0


def test_exit_code_gates_on_defended_violation():
    summary = run_experiment(
        ExperimentConfig(protocol="kex3", strategy="random-forge", n_e=8, trials=50, seed=7)
    )
    forced = dataclasses.replace(summary, verdict="violates-bound")
    assert exit_code_for([forced]) == 2


def test_same_seed_same_summary():
    config = ExperimentConfig(
        protocol="kem3-commit", strategy="random-forge", n_e=8, trials=300, seed=41
    )
    first = run_experiment(config)
    second = run_experiment(config)
    assert first == second  # wall_time_s is excluded from comparison


@pytest.mark.parametrize(
    "fields,model,parties",
    [
        (dict(protocol="kex3"), Model.AM, (b"alice", b"bob")),
        (dict(protocol="kem4", strategy="random-forge"), Model.UM, (b"alice", b"bob")),
        (dict(protocol="kex2", strategy="kex2-collision"), Model.UM, (b"alice", b"bob")),
        (dict(protocol="kex3", strategy="redirect"), Model.UM, (b"alice", b"bob", b"carol")),
    ],
    ids=["kex3-honest", "kem4-random-forge", "kex2-collision", "kex3-redirect"],
)
def test_each_trial_is_its_runner_on_its_trial_world(fields, model, parties):
    # one builder of a trial's world, and one outcome type from every runner
    config = ExperimentConfig(n_e=4, trials=6, seed=7, **fields)
    strategy = config.strategy_enum()
    run = harness._honest_trial if strategy is None else STRATEGIES[strategy].run
    indices = [4, 0, 2]
    outcomes = harness._trial_batch(config, indices)
    assert all(type(outcome) is AttackOutcome for outcome in outcomes)
    assert outcomes == [
        run(harness.trial_world(config, i), config.effective_budget()) for i in indices
    ]
    world = harness.trial_world(config, 0)
    assert world.model is model and tuple(world.parties) == parties


def test_honest_and_no_strategy_are_one_config():
    named = ExperimentConfig(protocol="kex3", strategy="honest", trials=3, seed=7)
    unnamed = ExperimentConfig(protocol="kex3", trials=3, seed=7)
    assert named == unnamed and named.strategy is None
    hashes = [build_report([run_experiment(c)], config=c)["content_sha256"]
              for c in (named, unnamed)]
    assert hashes[0] == hashes[1]


def test_parallel_execution_matches_sequential():
    config = ExperimentConfig(protocol="kem4", trials=60, seed=3)
    sequential = run_experiment(config)
    parallel = run_experiment(dataclasses.replace(config, parallelism=4))
    assert sequential == parallel


@pytest.mark.parametrize(
    "strategy", [None, *STRATEGIES], ids=lambda s: s.value if s else "honest"
)
def test_parallel_matches_serial_for_every_strategy(strategy):
    spec = STRATEGIES.get(strategy)
    config = ExperimentConfig(
        protocol=spec.targets[-1].value if spec else "kem6",
        strategy=strategy.value if strategy else None,
        kem_mode=spec.kem_mode.value if spec and spec.kem_mode else "det",
        n_e=4, trials=6, seed=7,
    )
    serial = run_experiment(config)
    parallel = run_experiment(dataclasses.replace(config, parallelism=2))
    assert serial.to_dict() == parallel.to_dict()


@pytest.mark.parametrize(
    "fields",
    [
        dict(protocol="mt-auth"),
        dict(protocol="mt-auth", strategy="redirect"),
        dict(protocol="kem4", strategy="random-forge"),
    ],
    ids=["mt-auth-honest", "mt-auth-redirect", "kem4-random-forge"],
)
def test_bulk_trials_build_no_payload_summaries(fields, monkeypatch):
    # a trial reads only (success, iterations), so it must never summarise
    # a logged message
    config = ExperimentConfig(n_e=8, trials=4, seed=7, **fields)
    expected = build_report([run_experiment(config)], config=config)["content_sha256"]

    def refuse(payload):
        raise AssertionError("a bulk trial summarised a logged message")

    monkeypatch.setattr("saslab.model._payload_summary", refuse)
    summary = run_experiment(config)
    assert summary.trials == 4
    assert build_report([summary], config=config)["content_sha256"] == expected


def test_report_bytes_reproducible():
    config = ExperimentConfig(protocol="kem2", strategy="kem2-replica", n_e=8, trials=10, seed=9)
    a = build_report([run_experiment(config)], config=config)
    b = build_report([run_experiment(config)], config=config)
    assert report_content(a) == report_content(b)
    assert a["content_sha256"] == b["content_sha256"]
    stripped = lambda r: json.loads(report_json_bytes(r).decode())
    sa, sb = stripped(a), stripped(b)
    for excluded in ("generated_at", "wall_times_s"):
        sa.pop(excluded), sb.pop(excluded)
    assert json.dumps(sa, sort_keys=True) == json.dumps(sb, sort_keys=True)


def test_report_json_record_fields():
    config = ExperimentConfig(
        protocol="kem2", strategy="kem-same-key", kem2_entropy="key-only",
        trials=5, seed=1,
    )
    report = build_report([run_experiment(config)], config=config)
    record = report["results"][0]
    for key in ("strategy", "protocol", "n_e", "mode", "trials", "successes",
                "mean_iterations", "bound", "seed"):
        assert key in record, key


def test_csv_report_shape():
    config = ExperimentConfig(protocol="kex3", trials=5, seed=2)
    text = report_csv_text([run_experiment(config)])
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("protocol,strategy,group,mode,n_e,trials")
    assert lines[1].split(",")[0] == "kex3"


def test_sweep_rates_track_entropy_width():
    config = ExperimentConfig(protocol="kex3", strategy="random-forge", seed=7)
    summaries = sweep(config, [4, 8], trials_per_point=[3000, 3000])
    assert [s.n_e for s in summaries] == [4, 8]
    for summary, p in zip(summaries, (2**-4, 2**-8)):
        assert summary.wilson_low <= p <= summary.wilson_high
    # monotone non-increasing up to interval overlap
    assert summaries[1].rate <= summaries[0].rate or (
        summaries[1].wilson_low <= summaries[0].wilson_high
    )


def test_sweep_empty_list_rejected():
    with pytest.raises(ConfigError):
        sweep(ExperimentConfig(protocol="kex3"), [])


@pytest.mark.parametrize("widths,trials", [([4, 100], [2000, 10]), ([4, 8], [2000, 0])],
                         ids=["width-100", "zero-trials"])
def test_sweep_refuses_a_bad_point_before_any_trial(widths, trials, monkeypatch):
    def batch(config, indices):
        raise AssertionError(f"a trial ran at n_e {config.n_e}")

    monkeypatch.setattr(harness, "_trial_batch", batch)
    config = ExperimentConfig(protocol="kex3", strategy="random-forge", seed=7)
    with pytest.raises(ConfigError):
        sweep(config, widths, trials_per_point=trials)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(protocol="kex3", strategy="kem-same-key"),
        dict(protocol="nope"),
        dict(protocol="kex2", strategy="bogus"),
        dict(protocol="kex3", trials=0),
        dict(protocol="kex3", n_e=2),
        dict(protocol="kex3", kem2_entropy="key-only"),
        dict(protocol="kem2", strategy="kem2-combined", kem_mode="det"),
        dict(protocol="kem2", strategy="kem2-replica", kem2_entropy="key-only"),
        dict(protocol="kex3", group="toy512"),
        dict(protocol="kex3", seed=-1),
        dict(protocol="kex3", seed=1 << 64),
        dict(protocol="kex2", strategy="kex2-collision", budget=0),
        dict(protocol="kex2", strategy="kex2-collision", budget=-4),
        dict(protocol="kex3", trials="5"),
        dict(protocol="kex3", trials=True),
        dict(protocol="kex2", strategy="kex2-collision", budget="3"),
        dict(protocol="kex2", strategy="kex2-collision", budget=True),
        dict(protocol="kex3", seed=1.5),
        dict(protocol="kex3", seed=True),
        dict(protocol="kex3", parallelism="2"),
        dict(protocol="kex3", parallelism=2.0),
        dict(protocol="kex3", n_e="8"),
        dict(protocol="kex3", n_e=8.0),
        dict(protocol="kex3", n_e=True),
        dict(protocol="kex3", kem_mode="DET"),
        dict(protocol="kex3", include_receiver_identity="no"),
        dict(protocol="kex3", group=["toy256"]),
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs)


def test_wilson_interval_sane():
    low, high = wilson_interval(0, 100)
    assert low == 0.0 and 0.0 < high < 0.05
    low, high = wilson_interval(50, 100)
    assert 0.4 < low < 0.5 < high < 0.6
    low, high = wilson_interval(100, 100)
    assert high == 1.0 and low > 0.95


def test_budget_defaults_to_entropy_scaled():
    config = ExperimentConfig(protocol="kex2", strategy="kex2-collision", n_e=8)
    assert config.effective_budget() == 1 << 12
    assert dataclasses.replace(config, budget=77).effective_budget() == 77


@pytest.mark.parametrize("strategy", [None, "random-forge", "redirect"])
def test_trial_settings_resolved_once_per_batch(strategy, monkeypatch):
    # a ProtocolConfig is built once per ExperimentConfig or replace, and none
    # while run_experiment runs its batch, at 1 trial or at 20
    real = harness.ProtocolConfig
    built = []

    def counted(*args, **kwargs):
        built.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "ProtocolConfig", counted)
    config = ExperimentConfig(protocol="kex3", strategy=strategy, n_e=8, seed=7)
    counts = [len(built)]
    for trials in (1, 20):
        point = dataclasses.replace(config, trials=trials)
        counts.append(len(built))
        assert run_experiment(point).trials == trials
        counts.append(len(built))
    assert counts == [1, 2, 2, 3, 3]
