"""Remembered values change no seeded output.

primitives keeps three bounded maps of values this process computed itself:
the exponents of the elements it published, the powers it raised from the
generator table, and the encapsulations under its published keys. Each
answers exactly what it stands in for, so a run whose maps are emptied before
every trial and a run that finds them warm from earlier trials must give the
same report bytes. Every seeded pin depends on this.

The count of generator-table powers in one honest, forging or redirecting
trial with empty maps is a deterministic operation counter: it moves only
when a protocol or an attack raises more or fewer values.
"""

import pytest

from saslab import harness, primitives
from saslab.harness import ExperimentConfig, build_report, report_content, run_experiment
from saslab.model import Model, World, run_honest
from saslab.primitives import PowerTable, generator_table, group_by_name
from saslab.protocols import ProtocolConfig, ProtocolKind

MAPS = ("_EXPONENTS", "_POWERS", "_ENCAPSULATIONS")
SEED = 7
EXCHANGES = [kind.value for kind in ProtocolKind if kind is not ProtocolKind.MT_AUTH]
DEFENDED = ("kex3", "kem3-two-entropy", "kem3-commit", "kem4", "kem6")

CONFIGS = [
    # one honest trial of every exchange and KEM kind, in both KEM modes
    ExperimentConfig(protocol=kind, group=group, kem_mode=mode, n_e=8, trials=1, seed=SEED)
    for group in ("toy256", "modp2048")
    for kind in EXCHANGES
    for mode in ("det", "prob")
] + [
    # the benchmark's forge-toy256 mix, one round at the seed
    ExperimentConfig(protocol=kind, strategy=strategy, n_e=8, trials=50, seed=SEED)
    for kind in DEFENDED
    for strategy in ("random-forge", "redirect")
]


def _forget():
    for name in MAPS:
        getattr(primitives, name).clear()


def _cold_world(*args):  # every trial builds its world first
    _forget()
    return World(*args)


def _count_table_powers(monkeypatch) -> list:
    calls = []
    original = PowerTable.pow
    monkeypatch.setattr(PowerTable, "pow", lambda table, e: calls.append(e) or original(table, e))
    return calls


def _reports() -> list[dict]:
    return [report_content(build_report([run_experiment(c)], config=c)) for c in CONFIGS]


def test_cold_and_warm_maps_give_the_same_reports(monkeypatch):
    calls = _count_table_powers(monkeypatch)
    _reports()  # leaves the maps warm with these very trials
    calls.clear()
    warm = _reports()
    warm_powers = len(calls)

    monkeypatch.setattr(harness, "World", _cold_world)
    calls.clear()
    cold = _reports()
    assert cold == warm
    assert warm_powers < len(calls)  # the warm run did find remembered values


@pytest.mark.parametrize("group", ["toy256", "modp2048"])
@pytest.mark.parametrize("kind, powers", [
    ("kex3", 3), ("kem3-commit", 7), ("kem4", 4), ("kem6", 4),
])
def test_table_powers_per_honest_trial_with_empty_maps(kind, powers, group, monkeypatch):
    # a key pair or c1 costs one power each; the second end of an exchange
    # finds g^(ab), and a decapsulation of a recorded ct finds its x
    params = group_by_name(group)
    generator_table(params)
    _forget()
    calls = _count_table_powers(monkeypatch)
    world = World(ProtocolKind(kind), ProtocolConfig(group=params, n_e=8), Model.AM, SEED)
    init, resp = run_honest(world)
    assert init.kappa == resp.kappa is not None
    assert len(calls) == powers


# (random-forge, redirect) per trial of the benchmark's forge-toy256 mix
SINGLE_SHOT_POWERS = {
    "kex3": (5, 3), "kem3-two-entropy": (4, 4), "kem3-commit": (13, 7), "kem4": (7, 4),
    "kem6": (7, 4),
}


@pytest.mark.parametrize("kind, strategy, powers", [
    (kind, strategy, powers)
    for kind, counts in SINGLE_SHOT_POWERS.items()
    for strategy, powers in zip(("random-forge", "redirect"), counts)
])
def test_table_powers_per_single_shot_trial_with_empty_maps(kind, strategy, powers, monkeypatch):
    generator_table(group_by_name("toy256"))
    calls = _count_table_powers(monkeypatch)
    monkeypatch.setattr(harness, "World", _cold_world)
    run_experiment(ExperimentConfig(protocol=kind, strategy=strategy, n_e=8, trials=3, seed=SEED))
    assert len(calls) == 3 * powers
