import dataclasses
import hashlib
import json
import math

import pytest

from saslab import attacks, primitives
from saslab.attacks import (
    DEFENDED_KINDS,
    STRATEGIES,
    AttackOutcome,
    AttackStrategy,
    _relay,
    attack_kem2_replica,
    attack_kem_same_key,
    attack_kex2_collision,
    forge_trial,
    redirect_trial,
)
from saslab.harness import ConfigError, ExperimentConfig, run_experiment
from saslab.model import AdversaryView, Model, World, _record_to_dict
from saslab.primitives import (
    TOY256,
    KemMode,
    commit,
    decode_fields,
    encode_fields,
    generator_table,
    kem_encaps_star,
    kex_keygen,
    pke_encrypt,
    random_element,
)
from saslab.protocols import SPECS, EntropySpec, ProtocolConfig, ProtocolKind
from saslab.rng import derive_seed

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
# the collision loop shared by kex2-collision, kem2-replica and kem2-combined
# ---------------------------------------------------------------------------

# sha256 of [success, iterations, records] after a loop that finds nothing:
# n_e 32, seed 7, kem2-combined in the probabilistic KEM mode
EXHAUSTED_PINS = {
    ("kex2-collision", 0): "8443895ada13d993d6e01dc31d6fb14a93c2f247044b9937dbbb7e045c405fb8",
    ("kex2-collision", 50): "8e3d15436a4faf5b97cde06590a87192f604a7f4806e36465a0a10c948d7803c",
    ("kem2-replica", 0): "5c25b779ce7044efafe2f8f5bcbc1149dd543631a04122e880dba509bc44f874",
    ("kem2-replica", 50): "bf9f7c28e252a408cb8d77a45b8c7f07a088f7330730b252601f8ca90054934e",
    ("kem2-combined", 0): "fba30103003443658b221f3bbca9d0ebebea01b95d21cea497e32f24af1bf040",
    ("kem2-combined", 50): "e61e082edcb31f04b7a0920bd30c566a7a1c9619f749a2dc275d2891455286fa",
}


@pytest.mark.parametrize(
    "key", sorted(EXHAUSTED_PINS), ids=[f"{s}-{b}" for s, b in sorted(EXHAUSTED_PINS)]
)
def test_collision_loop_exhausted_budget_pinned(key):
    # the golden pins cover only the success path; this is the other exit
    name, budget = key
    spec = STRATEGIES[AttackStrategy(name)]
    cfg = ProtocolConfig(n_e=32, kem_mode=spec.kem_mode or KemMode.DETERMINISTIC)
    world = World(spec.targets[0], cfg, Model.UM, SEED)
    outcome = spec.run(world, budget)
    assert not outcome.success and outcome.iterations == budget
    assert world.undelivered == []  # the held reply is dropped, not left in flight
    records = [_record_to_dict(r) for r in world.records()]
    blob = json.dumps([outcome.success, outcome.iterations, records], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == EXHAUSTED_PINS[key]


# sha256 of [[success, iterations, records], ...] over the worlds at seeds 7,
# 8 and 9, n_e 6, on three paths the golden report pins do not take. Seed 7
# alone is not enough: there, a loop that keeps the receiver in its digests
# with identities off, or hashes its own key in place of the initiator's,
# happens to stop on the same candidate.
LANDED_PINS = {
    "kex2-collision-no-identities": (
        AttackStrategy.KEX2_ENTROPY_COLLISION, dict(include_receiver_identity=False),
        "2838ecce642e2c6d7bd365cf4b89f34864c0460689efdccbc7fe33de0ebd0e62",
    ),
    "kem2-combined-prob": (
        AttackStrategy.KEM2_COMBINED, dict(kem_mode=KemMode.PROBABILISTIC),
        "b2754af837d8eafc60a28457a0fcd1487c549293a184af8c44e826c5fe97dbc0",
    ),
    "kem2-replica-prob": (
        AttackStrategy.KEM2_REPLICA, dict(kem_mode=KemMode.PROBABILISTIC),
        "5424f68aa3dff622152ed756dda10dfca619a7b6f9ca421b515640be46557cbf",
    ),
}


@pytest.mark.parametrize("name", sorted(LANDED_PINS))
def test_collision_loop_landing_pinned(name):
    strategy, fields, pin = LANDED_PINS[name]
    spec = STRATEGIES[strategy]
    runs = []
    for seed in (SEED, SEED + 1, SEED + 2):
        world = World(spec.targets[0], ProtocolConfig(n_e=6, **fields), Model.UM, seed)
        outcome = spec.run(world, 1 << 12)
        records = [_record_to_dict(r) for r in world.records()]
        runs.append([outcome.success, outcome.iterations, records])
    assert all(success for success, _, _ in runs)
    blob = json.dumps(runs, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == pin


# Iteration counts of a collision loop at n_e 6: geometric with p = 2^-6,
# compared over log-spaced bins by Pearson's chi-square (6 degrees of
# freedom; 22.46 is the 0.999 quantile).
LOOP_BINS = [(1, 9), (9, 17), (17, 33), (33, 65), (65, 129), (129, 257), (257, 4097)]
CHI2_6_999 = 22.46
LOOP_WORLDS = 300


def _loop_outcomes(strategy, label, budget):
    spec = STRATEGIES[strategy]
    cfg = ProtocolConfig(n_e=6, kem_mode=spec.kem_mode or KemMode.DETERMINISTIC)
    return [
        spec.run(
            World(spec.targets[0], cfg, Model.UM,
                  derive_seed(SEED, label, strategy.value.encode(), i.to_bytes(4, "big"))),
            budget,
        )
        for i in range(LOOP_WORLDS)
    ]


@pytest.mark.parametrize(
    "strategy",
    [AttackStrategy.KEX2_ENTROPY_COLLISION, AttackStrategy.KEM2_REPLICA,
     AttackStrategy.KEM2_COMBINED],
    ids=lambda s: s.value,
)
def test_collision_loop_length_is_geometric(strategy):
    # C2 checks only the mean, which a loop spending two iterations on each
    # candidate would still pass; the whole distribution would not
    p = 2**-6
    survive = lambda n: (1 - p) ** n  # P(more than n iterations)
    outcomes = _loop_outcomes(strategy, b"loop-length", LOOP_BINS[-1][1] - 1)
    assert all(o.success for o in outcomes)
    chi2 = 0.0
    for low, high in LOOP_BINS:
        observed = sum(low <= o.iterations < high for o in outcomes)
        expected = LOOP_WORLDS * (survive(low - 1) - survive(high - 1))
        chi2 += (observed - expected) ** 2 / expected
    assert chi2 <= CHI2_6_999, chi2

    # at a budget of 2^6 the loop gives up with probability (1 - 2^-6)^64
    budget = 1 << 6
    outcomes = _loop_outcomes(strategy, b"loop-exhausted", budget)
    exhausted = sum(not o.success for o in outcomes)
    assert all(o.iterations == budget for o in outcomes if not o.success)
    mu = LOOP_WORLDS * survive(budget)
    sigma = math.sqrt(mu * (1 - survive(budget)))
    assert abs(exhausted - mu) <= 4 * sigma, (exhausted, mu)


@pytest.mark.parametrize("kind", [ProtocolKind.KEX2, ProtocolKind.KEM2], ids=["kex2", "kem2"])
def test_two_pass_wire_labels_are_the_declared_entropy_elements(kind):
    # the collision loop digests the two labels it decodes off the wire under
    # the names entropy "E" declares, so the two must stay the same
    world = um_world(kind, 11)
    world.start_session(b"alice", b"bob")
    view = AdversaryView(world)
    labels = []
    while view.pending():
        env = view.pending()[0]
        labels.append([label for label, _ in decode_fields(env.payload)])
        view.deliver(env)
    first, second, key = SPECS[kind].entropies["E"].elements
    assert labels == [[first], [second]] and key == "key"


# E layouts the collision loop cannot finish: it hashes the first wire label
# once per trial, then each candidate's second label and key
BAD_E_LAYOUTS = {
    "swapped": lambda first, second: (second, first, "key"),
    "second-left-out": lambda first, second: (first, "key"),
    "key-first": lambda first, second: ("key", first, second),
}


@pytest.mark.parametrize("kind", [ProtocolKind.KEX2, ProtocolKind.KEM2], ids=["kex2", "kem2"])
def test_the_collision_loop_refuses_an_entropy_row_it_cannot_finish(kind, monkeypatch):
    # a SPECS row whose E no longer lists the two wire labels then key is
    # refused with ValueError before any candidate is tried
    spec, finished = SPECS[kind], []
    rule = spec.entropies["E"]
    run = STRATEGIES[AttackStrategy.KEX2_ENTROPY_COLLISION
                     if kind is ProtocolKind.KEX2 else AttackStrategy.KEM2_REPLICA].run
    monkeypatch.setattr(attacks, "entropy_bits", lambda h, n_e: finished.append(h) or 0)
    for name, layout in BAD_E_LAYOUTS.items():
        names = layout(*rule.names[:2])
        mutant = EntropySpec(rule.receiver, {n: rule.elements[n] for n in names})
        with monkeypatch.context() as patch:
            patch.setitem(SPECS, kind, dataclasses.replace(spec, entropies={"E": mutant}))
            with pytest.raises(ValueError, match="E hashes"):
                run(um_world(kind, 11), 8)
        assert finished == [], name
    outcome = run(um_world(kind, 11), 8)  # the shipped row runs its candidates
    assert len(finished) == outcome.iterations > 0


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


def _hand_built_forge(world):
    """The kex3 and kem3-commit forges as written before forge_trial ran the
    initiator's own column for them: the reference its records must match."""
    kind = world.kind
    sid = world.start_session(b"alice", b"bob")
    view = AdversaryView(world)
    g = view.cfg.group

    if kind is ProtocolKind.KEX3:
        # commit to, then open, an element of the attacker's own
        own = kex_keygen(g, view.rng)
        c_e, d_e = commit(g.encode_element(own.public), view.rng)
        forged = {"com": c_e.encode(), "open": d_e.encode()}

    elif kind is ProtocolKind.KEM3_COMMIT:
        # commit to a secret of the attacker's own, then encapsulate it and
        # encrypt the blinder under the initiator's key once that is seen
        x_e = random_element(g, view.rng)
        c_e, d_e = commit(g.encode_element(x_e), view.rng)
        view.modify(view.pending()[0], encode_fields([("com", c_e.encode())]))
        env2 = view.pending()[0]
        pka = g.decode_element(dict(decode_fields(env2.payload))["pk"])
        view.deliver(env2)
        ct_e, _ = kem_encaps_star(pka, x_e, g, view.cfg.kem_mode, view.rng)
        forged = {"ct": ct_e.encode(g), "ctd": pke_encrypt(pka, g, d_e.blinder, view.rng)}

    _relay(view, forged)
    verdict = view.verify(b"alice", sid, b"bob", sid)
    return AttackOutcome(verdict == "accept", iterations=1)


@pytest.mark.parametrize("mode", list(KemMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("kind", [ProtocolKind.KEX3, ProtocolKind.KEM3_COMMIT],
                         ids=lambda kind: kind.value)
def test_standing_in_with_the_initiator_column_is_the_hand_built_forge(kind, mode):
    # same outcome, same records and the same adversary draws, seed by seed;
    # at n_e = 4 some trials land, so accepting and rejecting runs both count
    landed = 0
    for seed in range(100):
        worlds = [um_world(kind, seed, n_e=4, kem_mode=mode) for _ in range(2)]
        outcomes = [forge_trial(worlds[0]), _hand_built_forge(worlds[1])]
        assert outcomes[0] == outcomes[1], seed
        records = [[_record_to_dict(r) for r in world.records()] for world in worlds]
        assert records[0] == records[1], seed
        assert worlds[0].adversary_rng.randbytes(32) == worlds[1].adversary_rng.randbytes(32)
        landed += outcomes[0].success
    assert 0 < landed < 100


def test_random_forge_rejects_undefended_targets():
    with pytest.raises(ConfigError):
        ExperimentConfig(protocol="kem2", strategy="random-forge", trials=5)


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


def test_single_shot_trials_make_no_variable_base_pow(monkeypatch):
    # every element an end or the attacker raises in these trials was published
    # in the same trial, so its power comes from the generator table
    generator_table(TOY256)
    calls = []
    monkeypatch.setattr(primitives, "pow", lambda *a: calls.append(a) or pow(*a), raising=False)
    for kind in DEFENDED_KINDS:
        for trial in (forge_trial, redirect_trial):
            world = World(kind, ProtocolConfig(n_e=8), Model.UM, 27, (b"alice", b"bob", b"carol"))
            trial(world)
            assert calls == [], (kind.value, trial.__name__)


def test_a_collision_trial_remembers_a_handful_of_exponents(monkeypatch):
    # the three key pairs, and the one value bob and the attacker share; the
    # loop's candidates and their powers are never remembered
    monkeypatch.setattr(primitives, "_EXPONENTS", {})
    monkeypatch.setattr(primitives, "_POWERS", {})
    outcome = attack_kex2_collision(um_world(ProtocolKind.KEX2, 28, n_e=8), 1 << 12)
    assert outcome.success and outcome.iterations > 3
    assert len(primitives._EXPONENTS) == 3
    assert len(primitives._POWERS) == 1


def test_redirect_needs_three_parties():
    # refused before a session starts, not at the first injection toward carol
    world = um_world(ProtocolKind.MT_AUTH, 7, n_e=8)
    with pytest.raises(ValueError, match="needs the parties alice, bob, carol"):
        redirect_trial(world)
    assert world.records() == [] and world.undelivered == []


@pytest.mark.parametrize("kind", DEFENDED_KINDS, ids=[k.value for k in DEFENDED_KINDS])
def test_single_shot_trials_check_their_requirements_before_any_session(kind):
    # both need the unauthenticated model: an authenticated world is refused
    # before a session starts, not part-way through the flow
    for trial in (forge_trial, redirect_trial):
        world = World(kind, ProtocolConfig(n_e=8), Model.AM, 29, (b"alice", b"bob", b"carol"))
        with pytest.raises(ValueError, match="unauthenticated"):
            trial(world)
        assert world.records() == [] and world.undelivered == []
    world = um_world(ProtocolKind.KEX2, 29)
    with pytest.raises(ValueError, match="does not apply to kex2"):
        forge_trial(world)
    assert world.records() == []


def test_every_strategy_is_declared():
    assert set(STRATEGIES) == set(AttackStrategy)


def test_attack_code_never_touches_party_private_state():
    # review check: adversarial decisions go through the view facade; the
    # only world access is session setup and outcome measurement
    import inspect

    import saslab.attacks as attacks_module

    source = inspect.getsource(attacks_module)
    for forbidden in (
        "live_key", ".machine", "_entry(", "state_snapshot",
        "_hidden_rng", "_challenge_bit", "machine.key", "machine.entropies",
    ):
        assert forbidden not in source, forbidden
