"""Man-in-the-middle strategies against the shipped protocols.

Two families:

  demonstrations   the 2-pass protocols fall: an entropy-collision keypair
                   loop against the 2-pass exchange, and the same-key,
                   replica, and combined attacks against the 2-pass
                   encapsulation protocol

  negative tests   single-shot substitutions (random forge) and third-party
                   redirects against the 3/4/6-pass protocols, which succeed
                   only at the residual n_e-bit collision rate

Each strategy is declared once, in STRATEGIES: its targets, trial runner,
parties, and the rule that labels a combination defended or a
demonstration.

Every adversarial decision is made through the AdversaryView facade, i.e.
from wire traffic, public parameters, and values the attacker computed
itself. World access outside the view is measurement plumbing: starting the
session under attack and reading final records for the outcome report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable

from .model import AdversaryView, MessageEnvelope, Model, SessionId, World
from .primitives import (
    Encapsulation,
    KemMode,
    commit,
    decode_fields,
    encode_fields,
    kem_decaps_star,
    kem_encaps,
    kem_encaps_star,
    kem_keygen,
    kex_agree,
    kex_keygen,
    pke_encrypt,
    power_table,
    random_element,
)
from .protocols import SPECS, ProtocolConfig, ProtocolKind, session_entropy

DEFENDED_KINDS = (
    ProtocolKind.KEX3,
    ProtocolKind.KEM3_TWO_ENTROPY,
    ProtocolKind.KEM3_COMMIT,
    ProtocolKind.KEM4,
    ProtocolKind.KEM6,
)


class AttackStrategy(Enum):
    KEX2_ENTROPY_COLLISION = "kex2-collision"
    KEM_SAME_KEY = "kem-same-key"
    KEM2_REPLICA = "kem2-replica"
    KEM2_COMBINED = "kem2-combined"
    RANDOM_FORGE = "random-forge"
    REDIRECT = "redirect"


@dataclass
class AttackOutcome:
    success: bool
    iterations: int
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StrategySpec:
    """Everything the package declares about one attack strategy.

    run executes one trial on a fresh world within an iteration budget.
    demonstration(kind, cfg) is true when the combination is expected to
    break the residual bound rather than hold it.
    """

    targets: tuple[ProtocolKind, ...]
    run: Callable[[World, int], AttackOutcome]
    demonstration: Callable[[ProtocolKind, ProtocolConfig], bool]
    parties: tuple[bytes, ...] = (b"alice", b"bob")
    full_entropy: bool = False  # needs the public values in the kem2 entropy
    kem_mode: KemMode | None = None  # the KEM mode it needs, if any

    @property
    def implied_target(self) -> ProtocolKind | None:
        """The protocol attacked when none is named."""
        return self.targets[0] if len(self.targets) == 1 else None


def _no_receiver_identity(kind: ProtocolKind, cfg: ProtocolConfig) -> bool:
    """A redirect lands when no entropy value binds the receiver's identity."""
    return not cfg.include_receiver_identity or all(
        value.receiver is None for value in SPECS[kind].entropies.values()
    )


# The runners look the attack functions up when called, so a function
# replaced on this module is the one that runs.
STRATEGIES = {
    AttackStrategy.KEX2_ENTROPY_COLLISION: StrategySpec(
        (ProtocolKind.KEX2,),
        lambda world, budget: attack_kex2_collision(world, budget),
        lambda kind, cfg: True,
    ),
    AttackStrategy.KEM_SAME_KEY: StrategySpec(
        (ProtocolKind.KEM2,),
        lambda world, budget: attack_kem_same_key(world),
        lambda kind, cfg: cfg.kem2_key_only_entropy,
    ),
    AttackStrategy.KEM2_REPLICA: StrategySpec(
        (ProtocolKind.KEM2,),
        lambda world, budget: attack_kem2_replica(world, budget),
        lambda kind, cfg: True, full_entropy=True,
    ),
    AttackStrategy.KEM2_COMBINED: StrategySpec(
        (ProtocolKind.KEM2,),
        lambda world, budget: attack_kem2_replica(world, budget, reuse_secret=True),
        lambda kind, cfg: True, full_entropy=True,
        kem_mode=KemMode.PROBABILISTIC,
    ),
    AttackStrategy.RANDOM_FORGE: StrategySpec(
        DEFENDED_KINDS, lambda world, budget: forge_trial(world), lambda kind, cfg: False,
    ),
    AttackStrategy.REDIRECT: StrategySpec(
        tuple(ProtocolKind), lambda world, budget: redirect_trial(world),
        _no_receiver_identity, parties=(b"alice", b"bob", b"carol"),
    ),
}


def unmet_requirement(
    strategy: AttackStrategy, kind: ProtocolKind, cfg: ProtocolConfig
) -> str | None:
    """Why the strategy cannot attack this protocol configuration, or None."""
    spec = STRATEGIES[strategy]
    if kind not in spec.targets:
        return (
            f"{strategy.value} does not apply to {kind.value}; "
            f"valid targets: {', '.join(k.value for k in spec.targets)}"
        )
    if spec.full_entropy and cfg.kem2_key_only_entropy:
        return f"{strategy.value} needs the full entropy input"
    if spec.kem_mode is not None and cfg.kem_mode is not spec.kem_mode:
        return f"{strategy.value} requires the {spec.kem_mode.name.lower()} KEM mode"
    return None


def _require(strategy: AttackStrategy, world: World):
    reason = unmet_requirement(strategy, world.kind, world.cfg)
    if reason is None and world.model is not Model.UM:
        reason = "attack requires the unauthenticated model"
    if reason is not None:
        raise ValueError(reason)


# ---------------------------------------------------------------------------
# 2-pass key exchange: keypair collision loop
# ---------------------------------------------------------------------------

def attack_kex2_collision(world: World, budget: int) -> AttackOutcome:
    """Substitute both public elements and loop over keypairs toward the
    initiator until the two sides' short digests collide."""
    _require(AttackStrategy.KEX2_ENTROPY_COLLISION, world)

    sid = world.start_session(b"alice", b"bob")
    view = AdversaryView(world)
    g = view.cfg.group

    env1 = view.pending()[0]
    (pka_raw,) = [v for _, v in decode_fields(env1.payload)]
    # every candidate is agreed against pka
    pka = power_table(g, g.decode_element(pka_raw))

    toward_bob = kex_keygen(g, view.rng)
    toward_bob_raw = g.encode_element(toward_bob.public)
    view.modify(env1, encode_fields([("pka", toward_bob_raw)]))

    env2 = view.pending()[0]
    (pkb_raw,) = [v for _, v in decode_fields(env2.payload)]
    pkb = g.decode_element(pkb_raw)
    key_eb = kex_agree(toward_bob, pkb, g)
    digest = partial(session_entropy, ProtocolKind.KEX2, view.cfg, "E", env1.receiver)
    e_bob = digest({"pka": toward_bob_raw, "pkb": pkb_raw, "key": key_eb.key})

    found = None
    iterations = 0
    while iterations < budget:
        iterations += 1
        candidate = kex_keygen(g, view.rng)
        candidate_raw = g.encode_element(candidate.public)
        key_ea = kex_agree(candidate, pka, g)
        if digest({"pka": pka_raw, "pkb": candidate_raw, "key": key_ea.key}) == e_bob:
            found = candidate_raw
            break
    if found is None:
        view.drop(env2)
        return AttackOutcome(False, iterations)

    view.modify(env2, encode_fields([("pkb", found)]))
    verdict = view.verify(b"alice", sid, b"bob", sid)
    return AttackOutcome(verdict == "accept", iterations)


# ---------------------------------------------------------------------------
# 2-pass encapsulation: same key on all three ends
# ---------------------------------------------------------------------------

def attack_kem_same_key(world: World) -> AttackOutcome:
    """Swap in the attacker's public key, decapsulate the responder's secret,
    and re-encapsulate the exact same secret toward the initiator."""
    _require(AttackStrategy.KEM_SAME_KEY, world)

    sid = world.start_session(b"alice", b"bob")
    view = AdversaryView(world)
    g = view.cfg.group

    env1 = view.pending()[0]
    (pka_raw,) = [v for _, v in decode_fields(env1.payload)]
    pka = g.decode_element(pka_raw)
    own = kem_keygen(g, view.rng)
    view.modify(env1, encode_fields([("pk", g.encode_element(own.public))]))

    env2 = view.pending()[0]
    (ct_raw,) = [v for _, v in decode_fields(env2.payload)]
    x, attacker_key = kem_decaps_star(own.secret, Encapsulation.decode(ct_raw, g), g)
    ct_e, _ = kem_encaps_star(pka, x, g, view.cfg.kem_mode, view.rng)
    view.modify(env2, encode_fields([("ct", ct_e.encode(g))]))

    verdict = view.verify(b"alice", sid, b"bob", sid)
    alice = world.session_record(b"alice", sid)
    bob = world.session_record(b"bob", sid)
    all_equal = (
        alice.kappa is not None
        and alice.kappa == bob.kappa == attacker_key.key
    )
    return AttackOutcome(
        verdict == "accept" and all_equal,
        iterations=1,
        detail={"all_three_keys_equal": all_equal},
    )


# ---------------------------------------------------------------------------
# 2-pass encapsulation: replica / combined collision loops
# ---------------------------------------------------------------------------

def attack_kem2_replica(
    world: World, budget: int, reuse_secret: bool = False
) -> AttackOutcome:
    """Loop fresh encapsulations toward the initiator until the short digest
    matches the responder side. With reuse_secret the attacker re-encapsulates
    the responder's own secret (probabilistic mode only), so a success also
    leaves both ends with the same key."""
    strategy = AttackStrategy.KEM2_COMBINED if reuse_secret else AttackStrategy.KEM2_REPLICA
    _require(strategy, world)

    sid = world.start_session(b"alice", b"bob")
    view = AdversaryView(world)
    g = view.cfg.group

    env1 = view.pending()[0]
    (pka_raw,) = [v for _, v in decode_fields(env1.payload)]
    # every candidate is encapsulated under pka
    pka = power_table(g, g.decode_element(pka_raw))
    own = kem_keygen(g, view.rng)
    own_raw = g.encode_element(own.public)
    view.modify(env1, encode_fields([("pk", own_raw)]))

    env2 = view.pending()[0]
    (ct_raw,) = [v for _, v in decode_fields(env2.payload)]
    x_b, key_be = kem_decaps_star(own.secret, Encapsulation.decode(ct_raw, g), g)
    digest = partial(session_entropy, ProtocolKind.KEM2, view.cfg, "E", env1.receiver)
    e_bob = digest({"pk": own_raw, "ct": ct_raw, "key": key_be.key})

    found = None
    iterations = 0
    while iterations < budget:
        iterations += 1
        if reuse_secret:
            ct_e, key_ea = kem_encaps_star(pka, x_b, g, KemMode.PROBABILISTIC, view.rng)
        else:
            ct_e, key_ea, _ = kem_encaps(pka, g, view.cfg.kem_mode, view.rng)
        if digest({"pk": pka_raw, "ct": ct_e.encode(g), "key": key_ea.key}) == e_bob:
            found = ct_e
            break
    if found is None:
        view.drop(env2)
        return AttackOutcome(False, iterations)

    view.modify(env2, encode_fields([("ct", found.encode(g))]))
    verdict = view.verify(b"alice", sid, b"bob", sid)
    alice = world.session_record(b"alice", sid)
    bob = world.session_record(b"bob", sid)
    return AttackOutcome(
        verdict == "accept",
        iterations,
        detail={
            "initiator_key_equals_responder_key": (
                alice.kappa is not None and alice.kappa == bob.kappa
            ),
        },
    )


# ---------------------------------------------------------------------------
# defended protocols: single-shot substitution at the committed point
# ---------------------------------------------------------------------------

def _relay(view: AdversaryView, forged: dict[str, bytes]) -> None:
    """Carry the rest of the flow, substituting the forged fields."""
    while view.pending():
        env = view.pending()[0]
        fields = decode_fields(env.payload)
        if any(label in forged for label, _ in fields):
            view.modify(env, encode_fields([(k, forged.get(k, v)) for k, v in fields]))
        else:
            view.deliver(env)


def forge_trial(world: World) -> AttackOutcome:
    """Substitute a coherent forgery at the one undetermined point of the
    flow and hope the n_e-bit digests collide."""
    kind = world.kind
    sid = world.start_session(b"alice", b"bob")
    view = AdversaryView(world)
    g = view.cfg.group

    if kind is ProtocolKind.KEX3:
        # commit to, then open, an element of the attacker's own
        own = kex_keygen(g, view.rng)
        c_e, d_e = commit(g.encode_element(own.public), view.rng)
        forged = {"com": c_e.encode(), "open": d_e.encode()}

    elif kind is ProtocolKind.KEM3_TWO_ENTROPY:
        # a nonce of the attacker's own; the encapsulation passes untouched
        c_e, d_e = commit(view.rng.randbytes(32), view.rng)
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

    elif kind in (ProtocolKind.KEM4, ProtocolKind.KEM6):
        # an encapsulation of the attacker's own under the initiator's key,
        # carried through the second transfer leg in the responder's place
        env1 = view.pending()[0]
        pk = g.decode_element(dict(decode_fields(env1.payload))["pk"])
        view.deliver(env1)
        ct_e, _, _ = kem_encaps(pk, g, view.cfg.kem_mode, view.rng)
        c_e, d_e = commit(ct_e.encode(g), view.rng)
        forged = {"com_ct": c_e.encode(), "open_ct": d_e.encode()}

    else:
        raise ValueError(f"no forge strategy for {kind.value}")

    _relay(view, forged)
    verdict = view.verify(b"alice", sid, b"bob", sid)
    return AttackOutcome(verdict == "accept", iterations=1)


# ---------------------------------------------------------------------------
# redirect: unmodified flow, wrong destination
# ---------------------------------------------------------------------------

def redirect_trial(world: World) -> AttackOutcome:
    """Deliver the starter's flow, unmodified, to a third party instead of
    the intended peer, relabeling envelopes so both ends stay in-session."""
    sid = world.start_session(b"alice", b"bob")
    redirected = SessionId(b"alice", b"carol", sid.nonce)
    view = AdversaryView(world)

    while view.pending():
        env = view.pending()[0]
        if env.sender == b"alice":
            view.inject(
                MessageEnvelope(b"alice", b"carol", redirected, env.seq, env.payload)
            )
        else:  # carol's replies, presented to alice as if from bob
            view.inject(MessageEnvelope(b"bob", b"alice", sid, env.seq, env.payload))
        view.drop(env)

    verdict = view.verify(b"alice", sid, b"carol", redirected)
    return AttackOutcome(verdict == "accept", iterations=1)
