import math

import pytest

from saslab.attacks import (
    DEFENDED_KINDS,
    STRATEGIES,
    AttackStrategy,
    attack_kem2_replica,
    attack_kem_same_key,
    attack_kex2_collision,
    redirect_trial,
)
from saslab.harness import ConfigError, ExperimentConfig, run_experiment
from saslab.model import Model, RuleViolationError, World
from saslab.primitives import KemMode
from saslab.protocols import ProtocolConfig, ProtocolKind

# master seed of every run_experiment batch below
SEED = 7


def um_world(kind, seed, **cfg):
    return World(kind, ProtocolConfig(**cfg), Model.UM, seed)


def envelope(successes, trials, p, factor=2.0):
    """Success-rate envelope: factor * p plus three binomial sigmas."""
    return successes / trials <= factor * p + 3 * math.sqrt(p * (1 - p) / trials)


def experiment(protocol, strategy, trials, **fields):
    return run_experiment(
        ExperimentConfig(
            protocol=protocol.value, strategy=strategy, n_e=8, trials=trials, seed=SEED,
            **fields,
        )
    )


# ---------------------------------------------------------------------------
# 2-pass key exchange collision loop
# ---------------------------------------------------------------------------

def test_kex2_collision_succeeds_with_geometric_iterations():
    # 200 successful runs at n_e = 6: mean iterations within [32, 128]
    n_e, budget = 6, 1 << 12
    iterations = []
    for i in range(200):
        world = um_world(ProtocolKind.KEX2, b"kex2c-%d" % i, n_e=n_e)
        outcome = attack_kex2_collision(world, budget)
        assert outcome.success
        iterations.append(outcome.iterations)
    mean = sum(iterations) / len(iterations)
    assert 2 ** (n_e - 1) <= mean <= 2 ** (n_e + 1), mean


def test_kex2_collision_lands_without_receiver_identities():
    # the loop must blank the receiver exactly where the machines do, or the
    # collision it finds is against the wrong digest and verification rejects
    for i in range(30):
        world = um_world(
            ProtocolKind.KEX2, b"kex2n-%d" % i, n_e=6, include_receiver_identity=False
        )
        assert attack_kex2_collision(world, 1 << 12).success


def test_kex2_collision_zero_budget_fails_immediately():
    world = um_world(ProtocolKind.KEX2, 1, n_e=8)
    outcome = attack_kex2_collision(world, 0)
    assert not outcome.success and outcome.iterations == 0


def test_kex2_collision_wide_entropy_never_lands():
    # at n_e = 32 a 10^3-iteration budget finds nothing
    for i in range(50):
        world = um_world(ProtocolKind.KEX2, b"kex2w-%d" % i, n_e=32)
        assert not attack_kex2_collision(world, 1000).success


def test_kex2_collision_rejects_wrong_world():
    with pytest.raises(ValueError):
        attack_kex2_collision(um_world(ProtocolKind.KEX3, 2), 10)
    with pytest.raises(ValueError):
        attack_kex2_collision(
            World(ProtocolKind.KEX2, ProtocolConfig(), Model.AM, 3), 10
        )


# ---------------------------------------------------------------------------
# same-key attack
# ---------------------------------------------------------------------------

def test_same_key_wins_when_entropy_is_key_only():
    for i in range(20):
        world = um_world(ProtocolKind.KEM2, b"sk-%d" % i, kem2_key_only_entropy=True)
        outcome = attack_kem_same_key(world)
        assert outcome.success
        assert outcome.detail["all_three_keys_equal"]


def test_same_key_blocked_by_public_values_in_entropy():
    for i in range(300):
        world = um_world(ProtocolKind.KEM2, b"skf-%d" % i, n_e=16)
        outcome = attack_kem_same_key(world)
        assert not outcome.success


def test_same_key_residual_rate_at_tiny_entropy():
    trials, successes = 10_000, 0
    for i in range(trials):
        world = um_world(ProtocolKind.KEM2, b"skt-%d" % i, n_e=4)
        successes += attack_kem_same_key(world).success
    p = 2**-4
    mu, sigma = trials * p, math.sqrt(trials * p * (1 - p))
    assert abs(successes - mu) <= 3 * sigma, f"{successes} vs mean {mu}"


# ---------------------------------------------------------------------------
# replica and combined attacks
# ---------------------------------------------------------------------------

def test_replica_deterministic_mode_keys_always_differ():
    for i in range(30):
        world = um_world(ProtocolKind.KEM2, b"rep-%d" % i, n_e=8)
        outcome = attack_kem2_replica(world, 1 << 12)
        assert outcome.success
        assert not outcome.detail["initiator_key_equals_responder_key"]


def test_combined_attack_reuses_secret_and_matches_keys():
    for i in range(30):
        world = um_world(
            ProtocolKind.KEM2, b"cmb-%d" % i, n_e=8, kem_mode=KemMode.PROBABILISTIC
        )
        outcome = attack_kem2_replica(world, 1 << 12, reuse_secret=True)
        assert outcome.success
        assert outcome.detail["initiator_key_equals_responder_key"]


def test_combined_attack_requires_probabilistic_mode():
    world = um_world(ProtocolKind.KEM2, 4, kem_mode=KemMode.DETERMINISTIC)
    with pytest.raises(ValueError):
        attack_kem2_replica(world, 10, reuse_secret=True)


def test_replica_requires_full_entropy():
    world = um_world(ProtocolKind.KEM2, 5, kem2_key_only_entropy=True)
    with pytest.raises(ValueError):
        attack_kem2_replica(world, 10)


# ---------------------------------------------------------------------------
# random forge against the defended protocols
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", DEFENDED_KINDS, ids=[k.value for k in DEFENDED_KINDS])
def test_random_forge_held_to_residual_rate(kind):
    trials = 2000
    summary = experiment(kind, "random-forge", trials)
    assert summary.trials == trials
    assert envelope(summary.successes, trials, 2**-8), summary.successes
    # the collision channel is real: at p = 2^-8 silence would be suspicious
    assert summary.successes >= 1, "no residual collisions at all"


def test_random_forge_rejects_undefended_targets():
    with pytest.raises(ConfigError):
        ExperimentConfig(protocol="kem2", strategy="random-forge", trials=5).validate()


# ---------------------------------------------------------------------------
# redirect
# ---------------------------------------------------------------------------

def test_redirect_mt_auth_caught_by_receiver_identity():
    trials = 2000
    summary = experiment(ProtocolKind.MT_AUTH, "redirect", trials)
    p = 2**-8
    mu = trials * p
    sigma = math.sqrt(trials * p * (1 - p))
    assert abs(summary.successes - mu) <= 3 * sigma, summary.successes


def test_redirect_mt_auth_without_identity_always_lands():
    summary = experiment(
        ProtocolKind.MT_AUTH, "redirect", 50, include_receiver_identity=False
    )
    assert summary.rate == 1.0
    assert summary.expectation == "demonstration"


def test_redirect_kem2_always_lands():
    # the 2-pass encapsulation entropy carries no receiver identity
    summary = experiment(ProtocolKind.KEM2, "redirect", 50)
    assert summary.rate == 1.0
    assert summary.expectation == "demonstration"


@pytest.mark.parametrize(
    "kind", [ProtocolKind.KEX3, ProtocolKind.KEM4], ids=["kex3", "kem4"]
)
def test_redirect_defended_protocols_hold(kind):
    trials = 1500
    summary = experiment(kind, "redirect", trials)
    assert envelope(summary.successes, trials, 2**-8), summary.successes


def test_redirect_needs_three_parties():
    world = um_world(ProtocolKind.MT_AUTH, 7, n_e=8)
    with pytest.raises(RuleViolationError):
        redirect_trial(world)


def test_every_strategy_is_declared():
    assert set(STRATEGIES) == set(AttackStrategy)


def test_attack_code_never_touches_party_private_state():
    # review check: adversarial decisions go through the view facade; the
    # only world access is session setup and outcome measurement
    import inspect

    import saslab.attacks as attacks_module

    source = inspect.getsource(attacks_module)
    for forbidden in (
        "live_keys", ".machine", "_entry(", "state_snapshot",
        "_hidden_rng", "_challenge_bit", "machine.key", "machine.entropies",
    ):
        assert forbidden not in source, forbidden
