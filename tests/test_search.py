"""Depth-1 search over adversarial schedules.

Every kind, and kem2 once more in its key-only profile, runs under UM, with
receiver identities on and off, at n_e 64 and three seeds, against each
single action of three families:

- substitute one field of one wire message: a fresh value of the same
  length, the value with one bit flipped and, for each group element of a
  public key or an encapsulation, the encoding of 1 or of p-1 in its place;
  the rest of the flow is delivered faithfully;
- drop one message;
- from message j on, send alice's flow to carol and present carol's replies
  to alice as bob's.

At n_e 64 an accept needs a 64-bit digest collision, so every accept is a
structural attack. The only accepts are the known ones: the redirect from
the first message where no entropy value binds the receiver's identity,
which is kem2 (in both profiles), and every kind with identities off. A new
accept is a protocol or model bug, not a pin to add. Key-only kem2's
same-key attack needs two coordinated substitutions, the attacker's own
public key towards bob and then bob's secret re-encapsulated towards alice,
so no single action finds it.

Under AM the same walk is refused: every substitution and every redirected
envelope raises ModelViolationError and changes nothing.
"""

import pytest

from saslab.attacks import STRATEGIES, AttackStrategy
from saslab.model import (
    Deliver,
    Drop,
    Inject,
    MessageEnvelope,
    Model,
    ModelViolationError,
    Modify,
    RuleViolationError,
    SequencingError,
    SessionId,
    SessionStatus,
    World,
)
from saslab.primitives import decode_fields, encode_fields
from saslab.protocols import SPECS, ProtocolConfig, ProtocolKind
from saslab.rng import HashDrbg

KINDS = list(ProtocolKind)
# (kind, kem2_key_only_entropy): every kind, and kem2 in its key-only profile
CONFIGS = [(kind, False) for kind in KINDS] + [(ProtocolKind.KEM2, True)]
CONFIG_IDS = [kind.value for kind in KINDS] + ["kem2-key-only"]
SEEDS = (1, 2, 3)
IDENTITIES = (True, False)
ELEMENT_COUNTS = {"pk": 1, "pka": 1, "pkb": 1, "ct": 2}  # fields made of group elements
TYPED_ERRORS = (ModelViolationError, RuleViolationError, SequencingError)


def _cfg(identities, key_only):
    return ProtocolConfig(
        n_e=64, include_receiver_identity=identities, kem2_key_only_entropy=key_only
    )


def _run(kind, key_only, identities, seed, act, peer=b"bob", model=Model.UM):
    """Start alice's session with bob, hand each pending envelope in turn to
    act(world, sid, message number, envelope), then verify alice's session
    against peer's. Returns the verdict, or the typed error verification
    raised, and whether any session aborted before it. Any exception the
    schedule raises escapes, and so does any other one from verification."""
    world = World(kind, _cfg(identities, key_only), model, seed, (b"alice", b"bob", b"carol"))
    sid = world.start_session(b"alice", b"bob")
    number = 0
    while world.undelivered:
        assert len(world.undelivered) == 1  # every flow is strictly sequential
        number += 1
        act(world, sid, number, world.undelivered[0])
    aborted = any(r.status is SessionStatus.ABORTED for r in world.records())
    peer_sid = SessionId(b"alice", peer, sid.nonce)
    try:
        return world.i_f_verify(b"alice", sid, peer, peer_sid), aborted
    except TYPED_ERRORS as exc:
        return exc, aborted


def _deliver(world, sid, number, env):
    world.schedule(Deliver(env))


def _redirected(sid, env):
    """The envelope redirect sends in env's place: alice's flow goes to carol,
    and carol's (or bob's) replies go to alice as bob's."""
    if env.sender == b"alice":
        redirected = SessionId(b"alice", b"carol", sid.nonce)
        return MessageEnvelope(b"alice", b"carol", redirected, env.seq, env.payload)
    return MessageEnvelope(b"bob", b"alice", sid, env.seq, env.payload)


def _honest_fields(kind, key_only, identities, seed):
    """(message number, field position, label, value) of each field the honest flow sends."""
    found = []

    def record(world, sid, number, env):
        for position, (label, value) in enumerate(decode_fields(env.payload)):
            found.append((number, position, label, value))
        _deliver(world, sid, number, env)

    verdict, _ = _run(kind, key_only, identities, seed, record)
    assert verdict == "accept"
    assert max(number for number, *_ in found) == SPECS[kind].message_count
    return found


def _substitutes(label, value, group, rng):
    yield "fresh", rng.randbytes(len(value))
    yield "flipped", value[:-1] + bytes([value[-1] ^ 1])
    size = group.element_size
    for part in range(ELEMENT_COUNTS.get(label, 0)):  # each element of the field in turn
        head, tail = value[: part * size], value[(part + 1) * size :]
        for name, element in (("one", 1), ("p-1", group.p - 1)):
            yield f"{name}@{part}", head + group.encode_element(element) + tail


@pytest.mark.parametrize("kind, key_only", CONFIGS, ids=CONFIG_IDS)
def test_every_field_substitution_aborts_or_rejects(kind, key_only):
    group = ProtocolConfig().group
    for identities in IDENTITIES:
        for seed in SEEDS:
            rng = HashDrbg(seed)
            for number, position, label, value in _honest_fields(kind, key_only, identities, seed):
                for name, substitute in _substitutes(label, value, group, rng):
                    assert substitute != value

                    def act(world, sid, current, env):
                        if current != number:
                            return _deliver(world, sid, current, env)
                        fields = decode_fields(env.payload)
                        assert fields[position] == (label, value)
                        fields[position] = (label, substitute)
                        world.schedule(Modify(env, encode_fields(fields)))

                    verdict, aborted = _run(kind, key_only, identities, seed, act)
                    case = (identities, seed, number, label, name)
                    assert aborted or verdict == "reject", (case, verdict)


@pytest.mark.parametrize("kind, key_only", CONFIGS, ids=CONFIG_IDS)
def test_every_drop_leaves_verification_unsequenced(kind, key_only):
    # a dropped message stalls the flow: the sender waits for a reply that
    # never comes and the receiver never finishes; a first message dropped
    # leaves bob's session not yet started
    for identities in IDENTITIES:
        for seed in SEEDS:
            for dropped in range(1, SPECS[kind].message_count + 1):

                def act(world, sid, number, env):
                    world.schedule(Drop(env) if number == dropped else Deliver(env))

                verdict, aborted = _run(kind, key_only, identities, seed, act)
                assert type(verdict) is SequencingError, (identities, seed, dropped, verdict)
                assert not aborted


@pytest.mark.parametrize("kind, key_only", CONFIGS, ids=CONFIG_IDS)
def test_redirects_accept_exactly_where_no_value_binds_the_receiver(kind, key_only):
    accepted, expected = set(), set()
    for identities in IDENTITIES:
        lands = kind is ProtocolKind.KEM2 or not identities
        demonstration = STRATEGIES[AttackStrategy.REDIRECT].demonstration
        assert lands == demonstration(kind, _cfg(identities, key_only))
        for seed in SEEDS:
            if lands:
                expected.add((identities, seed, 1))
            for start in range(1, SPECS[kind].message_count + 1):

                def act(world, sid, number, env):
                    if number < start:
                        return _deliver(world, sid, number, env)
                    world.schedule(Inject(_redirected(sid, env)))
                    world.schedule(Drop(env))

                verdict, _ = _run(kind, key_only, identities, seed, act, peer=b"carol")
                assert verdict in ("accept", "reject") or isinstance(verdict, TYPED_ERRORS)
                if verdict == "accept":
                    accepted.add((identities, seed, start))
    assert accepted == expected


@pytest.mark.parametrize("kind, key_only", CONFIGS, ids=CONFIG_IDS)
def test_am_refuses_every_substitution_and_redirect(kind, key_only):
    # the UM walk's Modify and Inject actions, tried at each message of an
    # honest AM flow before it is delivered: each one raises and changes
    # nothing, so the flow still completes
    group = ProtocolConfig().group
    for identities in IDENTITIES:
        for seed in SEEDS:
            rng = HashDrbg(seed)

            def act(world, sid, number, env):
                fields = decode_fields(env.payload)
                actions = [Inject(_redirected(sid, env))]
                for position, (label, value) in enumerate(fields):
                    for _, substitute in _substitutes(label, value, group, rng):
                        forged = fields[:position] + [(label, substitute)] + fields[position + 1 :]
                        actions.append(Modify(env, encode_fields(forged)))
                for action in actions:
                    before = (list(world.undelivered), [r.events for r in world.records()])
                    with pytest.raises(ModelViolationError):
                        world.schedule(action)
                    assert (list(world.undelivered), [r.events for r in world.records()]) == before
                _deliver(world, sid, number, env)

            verdict, aborted = _run(kind, key_only, identities, seed, act, model=Model.AM)
            assert verdict == "accept" and not aborted, (identities, seed)
