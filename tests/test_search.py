"""Depth-1 search over adversarial schedules.

Every kind runs under UM, with receiver identities on and off, at n_e 64 and
three seeds, against each single action of three families:

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
which is kem2, and every kind with identities off. A new accept is a
protocol or model bug, not a pin to add.
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
SEEDS = (1, 2, 3)
IDENTITIES = (True, False)
ELEMENT_COUNTS = {"pk": 1, "pka": 1, "pkb": 1, "ct": 2}  # fields made of group elements
TYPED_ERRORS = (ModelViolationError, RuleViolationError, SequencingError)


def _run(kind, identities, seed, act, peer=b"bob"):
    """Start alice's session with bob, hand each pending envelope in turn to
    act(world, sid, message number, envelope), then verify alice's session
    against peer's. Returns the verdict, or the typed error verification
    raised, and whether any session aborted before it. Any exception the
    schedule raises escapes, and so does any other one from verification."""
    cfg = ProtocolConfig(n_e=64, include_receiver_identity=identities)
    world = World(kind, cfg, Model.UM, seed, (b"alice", b"bob", b"carol"))
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


def _honest_fields(kind, identities, seed):
    """(message number, field position, label, value) of each field the honest flow sends."""
    found = []

    def record(world, sid, number, env):
        for position, (label, value) in enumerate(decode_fields(env.payload)):
            found.append((number, position, label, value))
        _deliver(world, sid, number, env)

    verdict, _ = _run(kind, identities, seed, record)
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


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_every_field_substitution_aborts_or_rejects(kind):
    group = ProtocolConfig().group
    for identities in IDENTITIES:
        for seed in SEEDS:
            rng = HashDrbg(seed)
            for number, position, label, value in _honest_fields(kind, identities, seed):
                for name, substitute in _substitutes(label, value, group, rng):
                    assert substitute != value

                    def act(world, sid, current, env):
                        if current != number:
                            return _deliver(world, sid, current, env)
                        fields = decode_fields(env.payload)
                        assert fields[position] == (label, value)
                        fields[position] = (label, substitute)
                        world.schedule(Modify(env, encode_fields(fields)))

                    verdict, aborted = _run(kind, identities, seed, act)
                    case = (identities, seed, number, label, name)
                    assert aborted or verdict == "reject", (case, verdict)


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_every_drop_leaves_verification_unsequenced(kind):
    # a dropped message stalls the flow: the sender waits for a reply that
    # never comes and the receiver never finishes; a first message dropped
    # leaves bob with no session at all, so there is nothing to verify
    for identities in IDENTITIES:
        for seed in SEEDS:
            for dropped in range(1, SPECS[kind].message_count + 1):

                def act(world, sid, number, env):
                    world.schedule(Drop(env) if number == dropped else Deliver(env))

                verdict, aborted = _run(kind, identities, seed, act)
                expected = RuleViolationError if dropped == 1 else SequencingError
                assert type(verdict) is expected, (identities, seed, dropped, verdict)
                assert not aborted


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_redirects_accept_exactly_where_no_value_binds_the_receiver(kind):
    accepted, expected = set(), set()
    for identities in IDENTITIES:
        cfg = ProtocolConfig(n_e=64, include_receiver_identity=identities)
        lands = kind is ProtocolKind.KEM2 or not identities
        assert lands == STRATEGIES[AttackStrategy.REDIRECT].demonstration(kind, cfg)
        for seed in SEEDS:
            if lands:
                expected.add((identities, seed, 1))
            for start in range(1, SPECS[kind].message_count + 1):

                def act(world, sid, number, env):
                    if number < start:
                        return _deliver(world, sid, number, env)
                    if env.sender == b"alice":
                        redirected = SessionId(b"alice", b"carol", sid.nonce)
                        moved = MessageEnvelope(b"alice", b"carol", redirected, env.seq,
                                                env.payload)
                    else:  # bob's or carol's reply, presented to alice as bob's
                        moved = MessageEnvelope(b"bob", b"alice", sid, env.seq, env.payload)
                    world.schedule(Inject(moved))
                    world.schedule(Drop(env))

                verdict, _ = _run(kind, identities, seed, act, peer=b"carol")
                assert verdict in ("accept", "reject") or isinstance(verdict, TYPED_ERRORS)
                if verdict == "accept":
                    accepted.add((identities, seed, start))
    assert accepted == expected
