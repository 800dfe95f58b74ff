"""Man-in-the-middle strategies against the shipped protocols.

Two families:

  demonstrations   the 2-pass protocols fall: one entropy-collision loop,
                   _collide, tries consecutive secrets against the 2-pass
                   exchange and fresh (replica) or secret-reusing (combined)
                   encapsulations against the 2-pass encapsulation
                   protocol; the same-key attack re-encapsulates once

  negative tests   single-shot substitutions (random forge) and third-party
                   redirects against the 3/4/6-pass protocols, which succeed
                   only at the residual n_e-bit collision rate; the kex3 and
                   kem3-commit forges run the initiator's column in alice's
                   place, and forge_trial says why the others do not

Same-key sends one re-encapsulation, so it stays out of the loop.
kex2-collision and kem2-combined walk: they draw one exponent e per trial,
raise g^e and pka^e once, and step both by one product per candidate,
skipping e = q, where g^e is the identity. A kex2 candidate then costs two
products and two hashes, one in derive_key and one in the entropy digest; a
combined candidate three products and the digest. A replica cannot walk: its
x is fresh with every candidate, and so is r = H(x || pka) in the
deterministic mode, so a candidate costs a draw, three powers, its exponent
(hashed to a range, or drawn in the probabilistic mode), derive_key and the
digest. Every power comes from the generator table, the initiator's key by
its remembered exponent.

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
from typing import Callable

from .model import AdversaryView, MessageEnvelope, Model, SessionId, World
from .primitives import (
    Encapsulation,
    KemMode,
    commit,
    decode_fields,
    derive_key,
    encaps_randomness,
    encode_fields,
    entropy,
    entropy_bits,
    entropy_prefix,
    generator_table,
    kem_decaps_star,
    kem_encaps,
    kem_encaps_star,
    kem_keygen,
    kex_agree,
    kex_keygen,
    power,
    random_element,
)
from .protocols import (SPECS, Machine, ProtocolConfig, ProtocolKind, build_machine,
                        entropy_rule)

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
    __hash__ = object.__hash__  # singletons: STRATEGIES[strategy] skips Enum's Python-level hash


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
    """A redirect lands when the entropy rule blanks every value's receiver."""
    spec = SPECS[kind]
    return not any(entropy_rule(spec, cfg, label, b"bob")[0] for label in spec.entropies)


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


def _begin(strategy: AttackStrategy, world: World) -> tuple[SessionId, AdversaryView]:
    """Every attack's opening: refuse a world the strategy cannot attack, then
    start alice's session with bob and hand the attacker its view."""
    reason = unmet_requirement(strategy, world.kind, world.cfg)
    if reason is None and world.model is not Model.UM:
        reason = "attack requires the unauthenticated model"
    needed = STRATEGIES[strategy].parties
    if reason is None and not set(needed) <= set(world.parties):
        reason = f"{strategy.value} needs the parties {b', '.join(needed).decode()}"
    if reason is not None:
        raise ValueError(reason)
    return world.start_session(b"alice", b"bob"), AdversaryView(world)


# ---------------------------------------------------------------------------
# 2-pass protocols: entropy-collision loop
# ---------------------------------------------------------------------------

def _collide(world: World, budget: int, strategy: AttackStrategy) -> AttackOutcome:
    """Substitute the attacker's own key pair toward the responder, answer
    its reply, then try candidates toward the initiator until the two sides'
    short digests collide. Past the kind's key pair and answer, only the
    candidate step depends on the strategy.

    kex2-collision and kem2-combined walk one exponent: candidate i uses
    e + i, so g^e and pka^e advance by one product each, and the exponent q,
    whose g^q = 1 would put the identity on the wire, is stepped over. Under
    a random-oracle digest each distinct candidate lands with probability
    2^-n_e however candidates are enumerated, so the walk keeps the
    attack's rate. kem2-replica draws a fresh x, and with it a fresh r, for
    every candidate."""
    sid, view = _begin(strategy, world)
    g = view.cfg.group
    kex = view.kind is ProtocolKind.KEX2
    combined = strategy is AttackStrategy.KEM2_COMBINED
    walks = kex or combined  # a replica's x, and so its r, is fresh with every candidate

    env1 = view.pending()[0]
    ((first, pka_raw),) = decode_fields(env1.payload)
    gen = generator_table(g)  # the walk's first powers, and a replica's every time
    pka = g.decode_element(pka_raw)
    own = (kex_keygen if kex else kem_keygen)(g, view.rng)
    own_raw = g.encode_element(own.public)
    view.modify(env1, encode_fields([(first, own_raw)]))

    env2 = view.pending()[0]
    ((second, reply_raw),) = decode_fields(env2.payload)
    if kex:
        key_eb = kex_agree(own, g.decode_element(reply_raw), g)
    else:
        x_b, key_eb = kem_decaps_star(own.secret, Encapsulation.decode(reply_raw, g), g)
    receiver, names = entropy_rule(SPECS[view.kind], view.cfg, "E", env1.receiver)
    if names != (first, second, "key"):  # the candidates finish a digest of this layout
        raise ValueError(f"E hashes {', '.join(names)}, not {first}, {second}, key in order")
    e_bob = entropy(receiver, zip(names, (own_raw, reply_raw, key_eb.key)), view.cfg.n_e)
    prefix = entropy_prefix(receiver, [(first, pka_raw)])  # hashed once

    if walks:  # one exponent e, then g^e and pka^e step with it
        e = (view.rng.randrange(1, g.q) if kex  # kex_keygen's draw
             else encaps_randomness(x_b, pka, g, view.cfg.kem_mode, view.rng))
        element, shared = gen.pow(e), power(pka, e, g)
    iterations = 0
    for iterations in range(1, budget + 1):
        if kex:  # g^e on the wire, pka^e keyed as kex_agree keys it
            candidate_raw = g.encode_element(element)
            key_ea = derive_key(shared, g)
        elif combined:  # x_b re-encapsulated under the walked exponent
            candidate_raw = Encapsulation(element, x_b * shared % g.p).encode(g)
            key_ea = key_eb
        else:  # replica: kem_encaps's draws and three powers
            x = random_element(g, view.rng)
            r = encaps_randomness(x, pka, g, view.cfg.kem_mode, view.rng)
            candidate_raw = Encapsulation(gen.pow(r), x * power(pka, r, g) % g.p).encode(g)
            key_ea = derive_key(x, g)
        h = prefix.copy()
        h.update(encode_fields([(second, candidate_raw), ("key", key_ea.key)]))
        if entropy_bits(h, view.cfg.n_e) == e_bob.value:
            break
        if walks:  # e + 1; at e = q, where g^e = 1, on to g and pka
            element, shared = element * g.g % g.p, shared * pka % g.p
            if element == 1:
                element, shared = g.g, pka
    else:  # the budget ran out without a collision
        view.drop(env2)
        return AttackOutcome(False, iterations)

    view.modify(env2, encode_fields([(second, candidate_raw)]))
    verdict = view.verify(b"alice", sid, b"bob", sid)
    alice = world.session_record(b"alice", sid)
    bob = world.session_record(b"bob", sid)
    keys_match = alice.kappa is not None and alice.kappa == bob.kappa
    detail = {"initiator_key_equals_responder_key": keys_match}
    return AttackOutcome(verdict == "accept", iterations, detail)


def attack_kex2_collision(world: World, budget: int) -> AttackOutcome:
    """The 2-pass exchange demonstration: loop over public keys toward the initiator."""
    return _collide(world, budget, AttackStrategy.KEX2_ENTROPY_COLLISION)


def attack_kem2_replica(
    world: World, budget: int, reuse_secret: bool = False
) -> AttackOutcome:
    """Loop fresh encapsulations toward the initiator. With reuse_secret each
    one re-encapsulates the responder's own secret (probabilistic mode only),
    so a success also leaves both ends with the same key."""
    return _collide(world, budget, AttackStrategy.KEM2_COMBINED if reuse_secret
                    else AttackStrategy.KEM2_REPLICA)


# ---------------------------------------------------------------------------
# 2-pass encapsulation: same key on all three ends
# ---------------------------------------------------------------------------

def attack_kem_same_key(world: World) -> AttackOutcome:
    """Swap in the attacker's public key, decapsulate the responder's secret,
    and re-encapsulate the exact same secret toward the initiator."""
    sid, view = _begin(AttackStrategy.KEM_SAME_KEY, world)
    g = view.cfg.group

    env1 = view.pending()[0]
    ((first, pka_raw),) = decode_fields(env1.payload)
    pka = g.decode_element(pka_raw)
    own = kem_keygen(g, view.rng)
    view.modify(env1, encode_fields([(first, g.encode_element(own.public))]))

    env2 = view.pending()[0]
    ((second, ct_raw),) = decode_fields(env2.payload)
    x, attacker_key = kem_decaps_star(own.secret, Encapsulation.decode(ct_raw, g), g)
    ct_e, _ = kem_encaps_star(pka, x, g, view.cfg.kem_mode, view.rng)
    view.modify(env2, encode_fields([(second, ct_e.encode(g))]))

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
# defended protocols: single-shot substitution at the committed point
# ---------------------------------------------------------------------------

def _relay(view: AdversaryView, forged: dict[str, bytes]) -> None:
    """Carry the rest of the flow, substituting the forged fields."""
    while pending := view.pending():
        env = pending[0]
        fields = decode_fields(env.payload)
        if forged.keys().isdisjoint(dict(fields)):
            view.deliver(env)
        else:
            view.modify(env, encode_fields([(k, forged.get(k, v)) for k, v in fields]))


def _stand_in(view: AdversaryView, own: Machine) -> None:
    """Carry the flow with the attacker's own machine in the initiator's place:
    each initiator message becomes its next output, each reply is fed to it, then delivered."""
    out = own.advance(None)
    while pending := view.pending():
        env = pending[0]
        if env.sender == own.self_id:
            view.modify(env, out)
        else:
            out = own.advance(env.payload)
            view.deliver(env)


def forge_trial(world: World) -> AttackOutcome:
    """Substitute a coherent forgery at the one undetermined point of the
    flow and hope the n_e-bit digests collide."""
    sid, view = _begin(AttackStrategy.RANDOM_FORGE, world)
    g = view.cfg.group
    if view.kind is ProtocolKind.KEM3_TWO_ENTROPY:
        # a nonce of the attacker's own, relaying alice's real ct (her column
        # would encapsulate again: three more table powers)
        c_e, d_e = commit(view.rng.randbytes(32), view.rng)
        _relay(view, {"com": c_e.encode(), "open": d_e.encode()})
    elif view.kind in (ProtocolKind.KEM4, ProtocolKind.KEM6):
        # the attacker's own encapsulation under alice's key, on B's leg in bob's
        # place (B's column draws N_B before it encapsulates: other ct bytes)
        env1 = view.pending()[0]
        pk = g.decode_element(dict(decode_fields(env1.payload))["pk"])
        view.deliver(env1)
        ct_e, _ = kem_encaps(pk, g, view.cfg.kem_mode, view.rng)
        c_e, d_e = commit(ct_e.encode(g), view.rng)
        _relay(view, {"com_ct": c_e.encode(), "open_ct": d_e.encode()})
    else:  # kex3 and kem3-commit: the initiator's own column, in the attacker's hands
        side = SPECS[view.kind].starting_side
        _stand_in(view, build_machine(view.kind, view.cfg, side, b"alice", b"bob", view.rng))
    verdict = view.verify(b"alice", sid, b"bob", sid)
    return AttackOutcome(verdict == "accept", iterations=1)


# ---------------------------------------------------------------------------
# redirect: unmodified flow, wrong destination
# ---------------------------------------------------------------------------

def redirect_trial(world: World) -> AttackOutcome:
    """Deliver the starter's flow, unmodified, to a third party instead of
    the intended peer, relabeling envelopes so both ends stay in-session."""
    sid, view = _begin(AttackStrategy.REDIRECT, world)
    redirected = SessionId(b"alice", b"carol", sid.nonce)

    while pending := view.pending():
        env = pending[0]
        if env.sender == b"alice":
            view.inject(
                MessageEnvelope(b"alice", b"carol", redirected, env.seq, env.payload)
            )
        else:  # carol's replies, presented to alice as if from bob
            view.inject(MessageEnvelope(b"bob", b"alice", sid, env.seq, env.payload))
        view.drop(env)

    verdict = view.verify(b"alice", sid, b"carol", redirected)
    return AttackOutcome(verdict == "accept", iterations=1)
