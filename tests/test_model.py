import math
from dataclasses import replace

import pytest

from saslab import model, primitives
from saslab.attacks import forge_trial, redirect_trial
from saslab.model import (
    AdversaryView,
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
    TranscriptError,
    World,
    _record_to_dict,
    run_honest,
    transcript_export,
    transcript_replay,
)
from saslab.primitives import (
    MAX_MESSAGE_SIZE,
    MODP2048,
    TOY256,
    Encapsulation,
    KemMode,
    Opening,
    PowerTable,
    decode_fields,
    derive_key,
    encode_fields,
)
from saslab.protocols import ProtocolConfig, ProtocolKind
from saslab.rng import HashDrbg


def make_world(kind=ProtocolKind.KEX3, model=Model.AM, seed=1, **cfg_kwargs):
    return World(kind, ProtocolConfig(**cfg_kwargs), model, seed)


def test_honest_am_run_completes_with_matching_keys():
    world = make_world()
    init, resp = run_honest(world)
    assert init.status is SessionStatus.COMPLETED
    assert resp.status is SessionStatus.COMPLETED
    assert init.kappa == resp.kappa and init.kappa is not None
    assert init.entropies == resp.entropies and init.entropies


def test_am_rejects_modify_and_inject():
    world = make_world()
    world.start_session(b"alice", b"bob")
    env = world.undelivered[0]
    with pytest.raises(ModelViolationError):
        world.schedule(Modify(env, b"junk"))
    with pytest.raises(ModelViolationError):
        world.schedule(Inject(env))


def test_deliver_requires_envelope_in_undelivered_set():
    world = make_world()
    world.start_session(b"alice", b"bob")
    env = world.undelivered[0]
    fake = MessageEnvelope(env.sender, env.receiver, env.session, 99, env.payload)
    with pytest.raises(ModelViolationError):
        world.schedule(Deliver(fake))
    world.schedule(Deliver(env))
    with pytest.raises(ModelViolationError):
        world.schedule(Deliver(env))


def test_drop_prevents_delivery():
    world = make_world()
    world.start_session(b"alice", b"bob")
    world.schedule(Drop(world.undelivered[0]))
    assert not world.undelivered


def test_um_modify_leads_to_reject_and_abort():
    # a tampered public element changes the entropy input on one side only;
    # at n_e = 32 an accidental acceptance would be a 2^-32 collision
    world = World(ProtocolKind.KEX2, ProtocolConfig(n_e=32), Model.UM, seed=3)
    sid = world.start_session(b"alice", b"bob")
    world.schedule(Deliver(world.undelivered[0]))
    env = world.undelivered[0]  # bob's public element on its way back
    g = world.cfg.group
    forged = pow(g.g, 12345, g.p)
    from saslab.primitives import encode_fields
    world.schedule(Modify(env, encode_fields([("pkb", g.encode_element(forged))])))
    assert world.i_f_verify(b"alice", sid, b"bob", sid) == "reject"
    assert world.session_record(b"alice", sid).status is SessionStatus.ABORTED
    assert world.session_record(b"bob", sid).status is SessionStatus.ABORTED
    assert world.session_record(b"alice", sid).kappa is None


def test_tampered_runs_accept_at_collision_rate():
    # acceptance after tampering is a raw n_e-bit collision: expect about
    # trials * 2^-8, within 3 sigma
    trials = 10_000
    accepted = 0
    adv = HashDrbg(b"tamper-test")
    from saslab.primitives import encode_fields
    for i in range(trials):
        world = World(ProtocolKind.KEX2, ProtocolConfig(n_e=8), Model.UM, seed=b"tamper-%d" % i)
        sid = world.start_session(b"alice", b"bob")
        world.schedule(Deliver(world.undelivered[0]))
        env = world.undelivered[0]
        g = world.cfg.group
        forged = pow(g.g, adv.randrange(1, g.q), g.p)
        world.schedule(Modify(env, encode_fields([("pkb", g.encode_element(forged))])))
        if world.i_f_verify(b"alice", sid, b"bob", sid) == "accept":
            accepted += 1
    p = 2**-8
    mu, sigma = trials * p, math.sqrt(trials * p * (1 - p))
    assert abs(accepted - mu) <= 3 * sigma, f"{accepted} acceptances vs mean {mu:.1f}"


def test_corruption_override_forces_acceptance():
    world = World(ProtocolKind.KEX2, ProtocolConfig(n_e=32), Model.UM, seed=5)
    sid = world.start_session(b"alice", b"bob")
    world.schedule(Deliver(world.undelivered[0]))
    env = world.undelivered[0]
    g = world.cfg.group
    from saslab.primitives import encode_fields
    world.schedule(
        Modify(env, encode_fields([("pkb", g.encode_element(pow(g.g, 7, g.p)))]))
    )
    with pytest.raises(RuleViolationError):
        world.i_f_verify(b"alice", sid, b"bob", sid, override=True)
    world.corrupt(b"alice")
    assert world.i_f_verify(b"alice", sid, b"bob", sid, override=True) == "accept"
    for party in (b"alice", b"bob"):
        verified = [
            e for e in world.session_record(party, sid).events if e["event"] == "verified"
        ]
        assert verified and all(e["override"] is True for e in verified)
    record = world.session_record(b"alice", sid)
    assert record.status is SessionStatus.COMPLETED
    assert "corrupted" in record.event_types()
    assert any(
        e["event"] == "verified" and e["override"] for e in record.events
    )


def test_verification_before_entropy_is_a_sequencing_error():
    world = make_world(kind=ProtocolKind.KEX2)
    sid = world.start_session(b"alice", b"bob")
    world.schedule(Deliver(world.undelivered[0]))
    # bob is done but alice has not processed the reply yet
    with pytest.raises(SequencingError):
        world.i_f_verify(b"alice", sid, b"bob", sid)


# ---------------------------------------------------------------------------
# adversary query surface
# ---------------------------------------------------------------------------

def completed_session(seed=6):
    world = make_world(seed=seed)
    world.start_session(b"alice", b"bob")
    sid = next(iter(world.parties[b"alice"].sessions))
    while world.undelivered:
        world.schedule(Deliver(world.undelivered[0]))
    world.i_f_verify(b"alice", sid, b"bob", sid)
    return world, sid


def test_reveal_key_returns_kappa_and_logs():
    world, sid = completed_session()
    record = world.session_record(b"alice", sid)
    key = world.reveal_key(b"alice", sid)
    assert key.key == record.kappa
    assert "key-revealed" in record.event_types()


def test_reveal_state_returns_snapshot():
    world, sid = completed_session()
    state = world.reveal_state(b"bob", sid)
    assert state["kind"] == "kex3"
    assert "state-revealed" in world.session_record(b"bob", sid).event_types()


def test_expire_deletes_key():
    world, sid = completed_session()
    world.expire(b"alice", sid)
    with pytest.raises(RuleViolationError, match="session key deleted"):
        world.reveal_key(b"alice", sid)
    with pytest.raises(RuleViolationError, match="session key deleted"):
        world.test(b"alice", sid)
    assert "expired" in world.session_record(b"alice", sid).event_types()


def test_late_message_leaves_a_completed_session_alone():
    world = make_world(kind=ProtocolKind.KEX2, model=Model.UM, seed=10)
    init, _ = run_honest(world)
    sid = init.session
    events = list(init.events)
    late = MessageEnvelope(b"bob", b"alice", sid, 9, b"junk")
    with pytest.raises(RuleViolationError):
        world.schedule(Inject(late))
    assert init.status is SessionStatus.COMPLETED
    assert init.events == events
    assert init.kappa == world.reveal_key(b"alice", sid).key


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=[k.value for k in ProtocolKind])
def test_a_session_is_verified_once(kind):
    # a second verification must neither settle a session again nor put an
    # expired key back
    world = make_world(kind=kind, seed=13)
    records = run_honest(world)
    sid = records[0].session
    before = [(r.status, r.kappa, r.events) for r in records]
    with pytest.raises(RuleViolationError, match="already verified"):
        world.i_f_verify(b"alice", sid, b"bob", sid)
    assert [(r.status, r.kappa, r.events) for r in records] == before
    world.expire(b"alice", sid)
    with pytest.raises(RuleViolationError, match="already verified"):
        world.i_f_verify(b"alice", sid, b"bob", sid)
    with pytest.raises(RuleViolationError, match="session key deleted"):
        world.reveal_key(b"alice", sid)
    with pytest.raises(RuleViolationError, match="session key deleted"):
        world.test(b"alice", sid)


def test_a_session_is_not_verified_against_itself():
    # the adversary answers alice with its own key, so it holds her key; were
    # her session verified against itself it would complete, and the test
    # query would hand over a key the adversary knows
    world = make_world(kind=ProtocolKind.KEX2, model=Model.UM, seed=3, n_e=16)
    sid = world.start_session(b"alice", b"bob")
    group = world.cfg.group
    (_, pka), = decode_fields(world.undelivered[0].payload)
    world.schedule(Drop(world.undelivered[0]))
    own = primitives.kex_keygen(group, world.adversary_rng)
    reply = primitives.encode_fields([("pkb", group.encode_element(own.public))])
    world.schedule(Inject(MessageEnvelope(b"bob", b"alice", sid, 1, reply)))
    alice = world.session_record(b"alice", sid)
    assert alice.machine.key == primitives.kex_agree(own, group.decode_element(pka), group)
    events = list(alice.events)
    with pytest.raises(RuleViolationError, match="against itself"):
        world.i_f_verify(b"alice", sid, b"alice", sid)
    assert alice.status is SessionStatus.IN_PROCESS and alice.events == events
    with pytest.raises(RuleViolationError):
        world.test(b"alice", sid)


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=[k.value for k in ProtocolKind])
def test_a_party_cannot_start_a_session_with_itself(kind):
    # refused before the nonce is drawn or a record made: the next session
    # gets the id a fresh world would give its first
    world = make_world(kind=kind, seed=16)
    with pytest.raises(RuleViolationError, match="with itself"):
        run_honest(world, b"alice", b"alice")
    assert not world.records() and not world.undelivered
    assert world.start_session(b"alice", b"bob") == make_world(kind=kind, seed=16).start_session(
        b"alice", b"bob")


@pytest.mark.parametrize("name", [b"\xff", b"", b"x" * 65, "carol", bytearray(b"carol"),
                                  type("Name", (bytes,), {})(b"carol")],
                         ids=["not-utf8", "empty", "too-long", "str", "bytearray", "bytes-subclass"])
def test_a_world_refuses_a_bad_party_name(name):
    # valid names are remembered once checked; the type check still comes first,
    # so a name equal to a remembered one but of another type is refused, every time
    World(ProtocolKind.KEX2, ProtocolConfig(), Model.UM, 1, (b"alice", b"bob", b"carol"))
    for _ in range(2):
        with pytest.raises(ValueError, match="party name"):
            World(ProtocolKind.KEX2, ProtocolConfig(), Model.UM, 1, (b"alice", b"bob", name))


def test_remembered_party_names_are_bounded(monkeypatch):
    # past MAX_VALID_NAMES a name is checked each time, not kept
    monkeypatch.setattr(model, "_VALID_NAMES", set())
    monkeypatch.setattr(model, "MAX_VALID_NAMES", 2)
    names = (b"alice", b"bob", b"carol", b"dave")
    World(ProtocolKind.KEX2, ProtocolConfig(), Model.UM, 1, names)
    assert model._VALID_NAMES == {b"alice", b"bob"}
    for bad in (b"\xff", b"", b"x" * 65, "dave", bytearray(b"dave")):
        with pytest.raises(ValueError, match="party name"):
            World(ProtocolKind.KEX2, ProtocolConfig(), Model.UM, 1, names + (bad,))
    assert model._VALID_NAMES == {b"alice", b"bob"}


@pytest.mark.parametrize("n_e", [3, 65, "x", 8.0, True], ids=["3", "65", "str", "float", "bool"])
def test_a_world_refuses_an_impossible_entropy_width(n_e):
    # refused at construction, as a bad party name is, not by an abort
    # at the first entropy step after the powers are paid for
    with pytest.raises(ValueError, match="n_e"):
        World(ProtocolKind.KEX3, ProtocolConfig(n_e=n_e), Model.AM, 1)


@pytest.mark.parametrize("field", ["sender", "initiator", "responder"])
def test_inject_refuses_a_bad_party_name(field):
    # an injected envelope is the one the world did not build: it is refused
    # before any session is created or any event logged, also where the bad
    # name equals one the world has already checked
    world = make_world(kind=ProtocolKind.KEX2, model=Model.UM, seed=14)
    nonce = world.start_session(b"alice", b"bob").nonce
    events = [r.events for r in world.records()]
    for bad in (b"\xff", bytearray(b"alice"), "alice"):
        names = {"sender": b"alice", "initiator": b"alice", "responder": b"bob", field: bad}
        sid = SessionId(names["initiator"], names["responder"], nonce)
        env = MessageEnvelope(names["sender"], b"bob", sid, 0, world.undelivered[0].payload)
        with pytest.raises(RuleViolationError, match="party name"):
            world.schedule(Inject(env))
        assert [r.events for r in world.records()] == events
        assert not world.parties[b"bob"].sessions


# each malformed query the world refuses, on a session with every message
# delivered and not yet verified
BAD_QUERIES = {
    "verify-str-sid": lambda world, sid: world.i_f_verify(b"alice", sid, b"bob", sid.label()),
    "verify-list-sid": lambda world, sid: world.i_f_verify(b"alice", sid, b"bob", [sid]),
    "verify-int-sid": lambda world, sid: world.i_f_verify(b"alice", 0, b"bob", sid),
    "view-verify-str-sid": lambda world, sid: AdversaryView(world).verify(
        b"alice", sid.label(), b"bob", sid),
    "view-verify-list-sid": lambda world, sid: AdversaryView(world).verify(
        b"alice", sid, b"bob", [sid]),
    "view-verify-int-sid": lambda world, sid: AdversaryView(world).verify(b"alice", sid, b"bob", 7),
    "reveal_key-str-sid": lambda world, sid: world.reveal_key(b"alice", sid.label()),
    "reveal_key-none-sid": lambda world, sid: world.reveal_key(b"alice", None),
    "expire-str-sid": lambda world, sid: world.expire(b"bob", sid.label()),
    "expire-none-sid": lambda world, sid: world.expire(b"bob", None),
    "test-str-sid": lambda world, sid: world.test(b"alice", sid.label()),
    "test-none-sid": lambda world, sid: world.test(b"alice", None),
    "reveal_state-list-sid": lambda world, sid: world.reveal_state(b"bob", [sid]),
    "corrupt-list-party": lambda world, sid: world.corrupt([b"alice"]),
    "session_record-list-party": lambda world, sid: world.session_record([b"bob"], sid),
}
# a SessionId whose fields the world never builds, named in each query that takes a sid
MALFORMED_SIDS = {
    "str-names": lambda sid: SessionId("alice", "bob", sid.nonce),
    "undecodable-name": lambda sid: SessionId(b"\xff", b"bob", sid.nonce),
    "list-nonce": lambda sid: SessionId(b"alice", b"bob", list(sid.nonce)),
}
SID_QUERIES = {
    "session_record": lambda world, bad: world.session_record(b"bob", bad),
    "reveal_key": lambda world, bad: world.reveal_key(b"alice", bad),
    "reveal_state": lambda world, bad: world.reveal_state(b"bob", bad),
    "expire": lambda world, bad: world.expire(b"alice", bad),
    "test": lambda world, bad: world.test(b"alice", bad),
    "i_f_verify": lambda world, bad: world.i_f_verify(b"alice", bad, b"bob", bad),
}
BAD_QUERIES |= {
    f"{query}-{shape}": lambda world, sid, query=query, shape=shape: SID_QUERIES[query](
        world, MALFORMED_SIDS[shape](sid))
    for query in SID_QUERIES for shape in MALFORMED_SIDS
}


@pytest.mark.parametrize("shape", list(BAD_QUERIES))
def test_a_query_refuses_a_malformed_party_or_sid(shape):
    # a typed refusal, before any event is logged or any record settled
    world = make_world(model=Model.UM, seed=3)
    sid = world.start_session(b"alice", b"bob")
    while world.undelivered:
        world.schedule(Deliver(world.undelivered[0]))
    before = [(r.status, r.live_key, r.events) for r in world.records()]
    with pytest.raises(RuleViolationError):
        BAD_QUERIES[shape](world, sid)
    assert [(r.status, r.live_key, r.events) for r in world.records()] == before
    assert not any(party.corrupted for party in world.parties.values())
    assert world.i_f_verify(b"alice", sid, b"bob", sid) == "accept"  # the test query is unused
    assert world.test(b"alice", sid) is not None


def test_a_name_equal_to_a_party_name_is_that_party():
    # a memoryview hashes and compares as its bytes; the session id carries the
    # parties' own names, so the run and its records are those of bytes names
    world = make_world(seed=3)
    init, resp = run_honest(world, memoryview(b"alice"), b"bob")
    assert type(init.session.initiator) is bytes and init.parties == (b"alice", b"bob")
    assert resp.status is SessionStatus.COMPLETED
    assert [r.events for r in world.records()] == [
        r.events for r in run_honest(make_world(seed=3))]


OVERSIZED = bytes(MAX_MESSAGE_SIZE + 1)
# each shape the wire refuses, built from a pending envelope
BAD_WIRE_ACTIONS = {
    "modify-str-payload": lambda env: Modify(env, env.payload.hex()),
    "modify-oversized-payload": lambda env: Modify(env, OVERSIZED),
    "inject-not-an-envelope": lambda env: Inject(tuple(vars(env).values())),
    "inject-str-session": lambda env: Inject(replace(env, session=env.session.label())),
    "inject-str-seq": lambda env: Inject(replace(env, seq="0")),
    "inject-bool-seq": lambda env: Inject(replace(env, seq=False)),
    "inject-str-payload": lambda env: Inject(replace(env, payload=env.payload.hex())),
    "inject-oversized-payload": lambda env: Inject(replace(env, payload=OVERSIZED)),
    "inject-list-receiver": lambda env: Inject(replace(env, receiver=[env.receiver])),
    "inject-self-session": lambda env: Inject(
        replace(env, session=SessionId(env.receiver, env.receiver, env.session.nonce))),
}


@pytest.mark.parametrize("shape", list(BAD_WIRE_ACTIONS))
def test_the_wire_refuses_a_malformed_action(shape):
    # checked before any envelope is taken, session created or event logged
    world = make_world(kind=ProtocolKind.KEX2, model=Model.UM, seed=5)
    world.start_session(b"alice", b"bob")
    action = BAD_WIRE_ACTIONS[shape](world.undelivered[0])
    undelivered = list(world.undelivered)
    events = [r.events for r in world.records()]
    with pytest.raises(RuleViolationError):
        world.schedule(action)
    assert world.undelivered == undelivered
    assert [r.events for r in world.records()] == events
    assert not world.parties[b"bob"].sessions


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=[k.value for k in ProtocolKind])
def test_an_aborted_session_refuses_delivery(kind):
    # bob aborts on a junk first message; the real one, injected after it,
    # must not run bob's machine again or log a second abort
    world = make_world(kind=kind, model=Model.UM, seed=15)
    sid = world.start_session(b"alice", b"bob")
    env = world.undelivered[0]
    world.schedule(Modify(env, b"junk"))
    bob = world.session_record(b"bob", sid)
    assert bob.status is SessionStatus.ABORTED
    events = [r.events for r in world.records()]
    with pytest.raises(RuleViolationError, match="aborted"):
        world.schedule(Inject(env))
    assert [r.events for r in world.records()] == events
    assert bob.event_types() == ["created", "received", "aborted"]


def test_test_query_returns_a_key_once():
    world, sid = completed_session()
    key = world.test(b"alice", sid)
    assert len(key.key) == 32
    with pytest.raises(RuleViolationError):
        world.test(b"bob", sid)


def test_test_query_disqualified_by_reveal():
    world, sid = completed_session()
    world.reveal_key(b"alice", sid)
    with pytest.raises(RuleViolationError):
        world.test(b"alice", sid)


@pytest.mark.parametrize("reveal", ["reveal_key", "reveal_state"], ids=["key", "state"])
def test_test_query_disqualified_by_partner_reveal(reveal):
    # bob's session has alice's matching conversation: revealing it reveals
    # alice's key (or the state that derives it), so alice's is not fresh
    for seed in range(20):
        world, sid = completed_session(seed=200 + seed)
        getattr(world, reveal)(b"bob", sid)
        with pytest.raises(RuleViolationError):
            world.test(b"alice", sid)


def test_test_query_answers_beside_an_unrelated_reveal():
    world, sid = completed_session()
    other, _ = run_honest(world)  # a second alice-bob session
    world.reveal_key(b"bob", other.session)
    world.reveal_state(b"bob", other.session)
    assert len(world.test(b"alice", sid).key) == 32


def test_test_query_disqualified_by_corruption():
    world, sid = completed_session()
    world.corrupt(b"bob")
    with pytest.raises(RuleViolationError):
        world.test(b"alice", sid)


def test_test_query_requires_completed_session():
    world = make_world(kind=ProtocolKind.KEX2, seed=8)
    sid = world.start_session(b"alice", b"bob")
    with pytest.raises(RuleViolationError):
        world.test(b"alice", sid)


def test_challenge_bit_behaviour_is_seed_determined():
    # With the same seed, the test query is deterministic: either it always
    # returns the live key or always a fresh uniform key.
    world1, sid1 = completed_session(seed=9)
    world2, sid2 = completed_session(seed=9)
    k1 = world1.test(b"alice", sid1)
    k2 = world2.test(b"alice", sid2)
    assert k1 == k2
    real = world1.session_record(b"alice", sid1).kappa
    assert (k1.key == real) == (world1._challenge_bit == 1)


# ---------------------------------------------------------------------------
# invariants over event logs
# ---------------------------------------------------------------------------

def test_am_faithfulness_received_matches_sent():
    world = make_world(kind=ProtocolKind.KEM4, seed=10)
    init, resp = run_honest(world)
    sent = {
        (e["seq"], e["digest"])
        for record in (init, resp)
        for e in record.events
        if e["event"] == "sent"
    }
    for record in (init, resp):
        for e in record.events:
            if e["event"] == "received":
                assert (e["seq"], e["digest"]) in sent


def _logged_seqs(record, event):
    return [e["seq"] for e in record.events if e["event"] == event]


def test_each_session_numbers_its_own_messages():
    # two concurrent alice-bob sessions, their deliveries interleaved: each
    # session's sends count 0, 1, ... whatever the other session sent between
    world = make_world(kind=ProtocolKind.KEM4, model=Model.UM, seed=23)
    first = world.start_session(b"alice", b"bob")
    second = world.start_session(b"alice", b"bob")
    delivered = []
    while world.undelivered:
        env = world.undelivered[0]
        delivered.append(env.session)
        world.schedule(Deliver(env))
    assert delivered == [first, second] * 4
    for sid in (first, second):
        alice = world.session_record(b"alice", sid)
        bob = world.session_record(b"bob", sid)
        assert _logged_seqs(alice, "sent") == _logged_seqs(bob, "received") == [0, 1]
        assert _logged_seqs(bob, "sent") == _logged_seqs(alice, "received") == [0, 1]
        assert world.i_f_verify(b"alice", sid, b"bob", sid) == "accept"


def test_redirected_sessions_number_their_messages_apart():
    # alice's session with "bob" and carol's relabeled one share a nonce but
    # not a counter: each side's sends count from 0
    world = World(
        ProtocolKind.KEM4, ProtocolConfig(), Model.UM, 24, (b"alice", b"bob", b"carol")
    )
    redirect_trial(world)
    records = {record.parties[0]: record for record in world.records()}
    assert set(records) == {b"alice", b"carol"}
    assert _logged_seqs(records[b"alice"], "sent") == [0, 1]
    assert _logged_seqs(records[b"carol"], "sent") == [0, 1]
    assert _logged_seqs(records[b"carol"], "received") == [0, 1]
    assert _logged_seqs(records[b"alice"], "received") == [0, 1]


def test_event_indices_strictly_increase():
    world = make_world(kind=ProtocolKind.KEM6, seed=11)
    for record in run_honest(world):
        indices = [e["index"] for e in record.events]
        assert indices == sorted(indices) == list(range(len(indices)))
        assert record.events[0]["event"] == "created"


def test_completion_soundness():
    world = make_world(kind=ProtocolKind.KEM3_COMMIT, seed=12)
    for record in run_honest(world):
        if record.status is SessionStatus.COMPLETED:
            assert any(
                e["event"] == "verified" and (e["verdict"] == "accept" or e["override"])
                for e in record.events
            )


# the wire field that brings the peer's group value to the party that raises
# it, and whether that value travels inside a commitment opening
RAISED_FIELD = {
    ProtocolKind.KEX2: ("pkb", False),
    ProtocolKind.KEX3: ("open", True),
    ProtocolKind.KEM2: ("ct", False),
    ProtocolKind.KEM3_TWO_ENTROPY: ("ct", False),
    ProtocolKind.KEM3_COMMIT: ("ct", False),
    ProtocolKind.KEM4: ("open_ct", True),
    ProtocolKind.KEM6: ("open_ct", True),
}


@pytest.mark.parametrize("group", [TOY256, MODP2048], ids=["toy256", "modp2048"])
@pytest.mark.parametrize("kind", list(RAISED_FIELD), ids=[k.value for k in RAISED_FIELD])
def test_honest_key_equals_the_builtin_pow_of_the_revealed_secret(kind, group, monkeypatch):
    # both honest ends may take their shared element from one generator-table
    # power, so recompute it from a revealed secret with the built-in pow alone;
    # the ends themselves make no variable-base pow
    primitives.generator_table(group)
    calls = []
    monkeypatch.setattr(primitives, "pow", lambda *a: calls.append(a) or pow(*a), raising=False)
    world = make_world(kind=kind, seed=23, group=group)
    sid = world.start_session(b"alice", b"bob")
    secrets = {}
    while True:
        for party in (b"alice", b"bob"):
            if sid in world.parties[party].sessions:
                state = world.reveal_state(party, sid)
                if "pair.secret" in state:
                    secrets[party] = int(state["pair.secret"], 16)
        if not world.undelivered:
            break
        world.schedule(Deliver(world.undelivered[0]))
    assert world.i_f_verify(b"alice", sid, b"bob", sid) == "accept"
    assert calls == []

    label, opened = RAISED_FIELD[kind]
    (raiser, raw), = [
        (party, value)
        for party in (b"alice", b"bob")
        for payload in world.session_record(party, sid).conversation()[1]
        for name, value in decode_fields(payload)
        if name == label
    ]
    if opened:
        raw = Opening.decode(raw).message
    secret, p = secrets[raiser], group.p
    if kind in (ProtocolKind.KEX2, ProtocolKind.KEX3):
        shared = pow(group.decode_element(raw), secret, p)
    else:
        ct = Encapsulation.decode(raw, group)
        shared = ct.c2 * pow(ct.c1, -secret, p) % p
    kappa = derive_key(shared, group).key
    assert world.session_record(b"alice", sid).kappa == world.session_record(b"bob", sid).kappa == kappa


def _run_kem6_in_steps(seed, read):
    world = make_world(kind=ProtocolKind.KEM6, model=Model.UM, seed=seed)
    sid = world.start_session(b"alice", b"bob")
    while world.undelivered:
        world.schedule(Deliver(world.undelivered[0]))
        if read:
            for record in world.records():
                record.events
    world.i_f_verify(b"alice", sid, b"bob", sid)
    world.reveal_key(b"bob", sid)
    return world


def test_incremental_reads_give_one_log():
    read = _run_kem6_in_steps(seed=15, read=True)
    unread = _run_kem6_in_steps(seed=15, read=False)
    assert read.records() == unread.records()
    assert repr(read.records()) == repr(unread.records())
    for record, fresh in zip(read.records(), unread.records()):
        events = record.events
        assert events == fresh.events
        assert [e["index"] for e in events] == list(range(len(events)))
        assert record.event_types() == [e["event"] for e in events]
    sent = [e for e in read.records()[0].events if e["event"] == "sent"]
    assert sent and set(sent[0]) == {"index", "event", "seq", "labels", "digest", "size"}


# computed before the streams were made lazy: (seed, key the test query returns, bit)
TEST_QUERY_PINS = [
    (9, "2050c20f9ac203d70e7f016556c15b9bff5d31a1904588752f5bedd141c390e3", 1),
    (10, "09181630b1314ed96ec35ff087a5b0f278a852bc3721f35eec653ec0552a8823", 1),
    (11, "4444c180cc3d007e625a525ebd92f394175d85a27bb43d52c7de09aedee0528c", 0),
]
ADVERSARY_BYTES_SEED_7 = (
    "4d8104962827473e646bdbb1d1284014681f895bc79d030661e908558b3cdcdd"
    "522bc8bf10e19fec35ff55750cfe032ee1d01c4a5a7eca6f55d384dc7cd6f3c0"
)


@pytest.mark.parametrize("seed, key, bit", TEST_QUERY_PINS)
def test_lazy_challenge_stream_draws_the_same_bytes(seed, key, bit):
    world, sid = completed_session(seed=seed)
    assert world.test(b"alice", sid).key.hex() == key
    assert world._challenge_bit == bit


def test_lazy_adversary_stream_draws_the_same_bytes():
    world = make_world(kind=ProtocolKind.KEX2, model=Model.UM, seed=7)
    view = AdversaryView(world)
    assert view.rng is view.rng  # one stream per world, not one per access
    assert view.rng.randbytes(32).hex() + view.rng.randbytes(32).hex() == ADVERSARY_BYTES_SEED_7


# ---------------------------------------------------------------------------
# adversary view facade
# ---------------------------------------------------------------------------

def test_adversary_view_is_read_only_and_scoped():
    world = make_world(kind=ProtocolKind.KEX2, model=Model.UM, seed=13)
    view = AdversaryView(world)
    with pytest.raises(AttributeError):
        view.parties = {}
    public = {name for name in dir(view) if not name.startswith("_")}
    assert public == {
        "pending", "deliver", "modify", "inject", "drop", "corrupt", "verify", "rng", "cfg", "kind",
    }


def test_adversary_view_round_trip():
    world = make_world(kind=ProtocolKind.KEX2, model=Model.UM, seed=14)
    sid = world.start_session(b"alice", b"bob")
    view = AdversaryView(world)
    assert len(view.pending()) == 1
    view.deliver(view.pending()[0])
    view.deliver(view.pending()[0])
    assert view.verify(b"alice", sid, b"bob", sid) == "accept"


# ---------------------------------------------------------------------------
# transcripts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kind, mode",
    [
        (ProtocolKind.KEX3, KemMode.DETERMINISTIC),
        (ProtocolKind.KEM3_COMMIT, KemMode.DETERMINISTIC),
        (ProtocolKind.KEM3_COMMIT, KemMode.PROBABILISTIC),
        (ProtocolKind.KEM4, KemMode.DETERMINISTIC),
        (ProtocolKind.KEM4, KemMode.PROBABILISTIC),
        (ProtocolKind.KEM6, KemMode.DETERMINISTIC),
        (ProtocolKind.KEM6, KemMode.PROBABILISTIC),
    ],
    ids=lambda value: value.value,
)
def test_modp2048_runs_are_the_same_bytes_with_and_without_the_generator_table(
    kind, mode, monkeypatch
):
    def run():
        world = make_world(kind=kind, seed=22, group=MODP2048, kem_mode=mode)
        run_honest(world)
        return [_record_to_dict(r) for r in world.records()], transcript_export(world)

    assert primitives.generator_table(MODP2048).stride > 1
    tabled = run()
    empty = PowerTable(MODP2048.g, MODP2048.p, 0)
    monkeypatch.setattr(primitives, "_GENERATOR_TABLES", {(MODP2048.p, MODP2048.g): empty})
    assert primitives.generator_table(MODP2048) is empty
    assert run() == tabled
    assert all(record["status"] == "completed" for record in tabled[0])


def test_transcript_roundtrip_is_identity():
    world = make_world(kind=ProtocolKind.KEM3_TWO_ENTROPY, seed=15)
    run_honest(world)
    blob = transcript_export(world)
    replayed, _ = transcript_replay(blob)
    assert transcript_export(replayed) == blob


@pytest.mark.parametrize("kind, parties, ends, message", [
    pytest.param(ProtocolKind.KEX3, (b"carol", b"dave"), (b"carol", b"dave"), None,
                 id="carol-to-dave"),
    pytest.param(ProtocolKind.KEM4, (b"alice", b"bob", b"carol"), (b"bob", b"carol"), None,
                 id="bob-to-carol-of-three"),
    pytest.param(ProtocolKind.MT_AUTH, (b"alice", b"bob"), (b"alice", b"bob"), b"hello",
                 id="mt-auth-with-message"),
])
def test_transcript_records_the_run_it_exports(kind, parties, ends, message):
    # the header names the run's two ends and the initiator's message, so
    # replay runs that session and not a default alice-to-bob one
    world = World(kind, ProtocolConfig(), Model.AM, 23, parties)
    init, _ = run_honest(world, *ends, message)
    blob = transcript_export(world)
    replayed, (init2, resp2) = transcript_replay(blob)
    assert transcript_export(replayed) == blob
    assert init2.parties == ends and resp2.parties == ends[::-1]
    assert init2.kappa == init.kappa
    if message is not None:
        assert resp2.events[-1]["message"] == message.hex()


def test_transcript_export_refuses_other_than_one_session():
    world = make_world(seed=24)
    with pytest.raises(TranscriptError, match="one session, not 0"):
        transcript_export(world)
    run_honest(world)
    run_honest(world)
    with pytest.raises(TranscriptError, match="one session, not 2"):
        transcript_export(world)


@pytest.mark.parametrize("n_e", [100, 65, 3, 2, 0, -1])
def test_transcript_replay_refuses_an_entropy_width_out_of_range(n_e):
    # a header fault, found before any world is built; not a diverging replay
    import json

    from saslab.model import TRANSCRIPT_MAGIC

    world = World(ProtocolKind.KEX3, ProtocolConfig(), Model.AM, 22)
    run_honest(world)
    body = json.loads(transcript_export(world)[len(TRANSCRIPT_MAGIC) + 4 :])
    forged = json.dumps({**body, "n_e": n_e}).encode()
    with pytest.raises(TranscriptError, match=rf"malformed transcript header: .*n_e {n_e} "):
        transcript_replay(TRANSCRIPT_MAGIC + len(forged).to_bytes(4, "big") + forged)


def test_transcript_replay_with_altered_seed_changes_key():
    world = make_world(seed=16)
    init, _ = run_honest(world)
    blob = transcript_export(world)
    other = make_world(seed=17)
    run_honest(other)
    other_blob = transcript_export(other)
    replayed_other, (init2, _) = transcript_replay(other_blob)
    assert init2.kappa != init.kappa


def test_transcript_truncation_detected():
    world = make_world(seed=18)
    run_honest(world)
    blob = transcript_export(world)
    with pytest.raises(TranscriptError):
        transcript_replay(blob[:-3])
    with pytest.raises(TranscriptError):
        transcript_replay(b"NOTATRANSCRIPT")


def test_transcript_suite_mismatch_detected():
    world = make_world(seed=19)
    run_honest(world)
    blob = transcript_export(world)
    tampered = blob.replace(b'"hash": "sha256"', b'"hash": "sha512"')
    with pytest.raises(TranscriptError):
        transcript_replay(tampered)


def test_transcript_version_mismatch_detected():
    import json

    from saslab.model import TRANSCRIPT_MAGIC

    world = make_world(seed=20)
    run_honest(world)
    blob = transcript_export(world)
    body = json.loads(blob[len(TRANSCRIPT_MAGIC) + 4 :])
    body["version"] = 99
    forged = json.dumps(body, sort_keys=True).encode()
    framed = TRANSCRIPT_MAGIC + len(forged).to_bytes(4, "big") + forged
    with pytest.raises(TranscriptError, match="version"):
        transcript_replay(framed)


def test_transcript_replay_detects_a_diverging_recording():
    import json

    from saslab.model import TRANSCRIPT_MAGIC

    world = make_world(seed=21)
    run_honest(world)
    blob = transcript_export(world)
    body = json.loads(blob[len(TRANSCRIPT_MAGIC) + 4 :])
    kappa = body["records"][0]["kappa"]
    body["records"][0]["kappa"] = ("1" if kappa[0] == "0" else "0") + kappa[1:]
    forged = json.dumps(body, sort_keys=True).encode()
    framed = TRANSCRIPT_MAGIC + len(forged).to_bytes(4, "big") + forged
    with pytest.raises(TranscriptError, match="diverges"):
        transcript_replay(framed)


@pytest.mark.parametrize("case", ["forge", "drop", "reveal", "stranger", "unstarted"])
def test_transcript_export_refuses_a_run_replay_cannot_reproduce(case):
    # export replays the blob it built: a run the adversary altered, or one a
    # query followed, is not the honest run of its seeds, so it is refused;
    # so is a session only its responder holds, opened by an injected pka
    # from a party the world does not hold or from one that never started it
    if case in ("stranger", "unstarted"):
        world = make_world(kind=ProtocolKind.KEX2, model=Model.UM, seed=5)
        sender = b"mallory" if case == "stranger" else b"alice"
        g = world.cfg.group
        sid = SessionId(sender, b"bob", b"12345678")
        pka = encode_fields([("pka", g.encode_element(g.g))])
        world.schedule(Inject(MessageEnvelope(sender, b"bob", sid, 0, pka)))
        world.schedule(Drop(world.undelivered[0]))
    elif case == "forge":
        world = World(ProtocolKind.KEX3, ProtocolConfig(n_e=8), Model.UM, 5,
                      (b"alice", b"bob", b"carol"))
        forge_trial(world)
    elif case == "drop":
        world = make_world(kind=ProtocolKind.KEX2, seed=30)
        world.start_session(b"alice", b"bob")
        world.schedule(Drop(world.undelivered[0]))
    else:
        world = make_world(kind=ProtocolKind.KEX2, seed=30)
        init, _ = run_honest(world)
        world.reveal_key(b"alice", init.session)
    assert not world.undelivered and len({r.session for r in world.records()}) == 1
    with pytest.raises(TranscriptError, match="not an honest run"):
        transcript_export(world)
