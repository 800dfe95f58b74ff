import math

import pytest

from saslab.model import (
    AdversaryView,
    Corrupt,
    Deliver,
    Drop,
    Expire,
    Inject,
    MessageEnvelope,
    Model,
    ModelViolationError,
    Modify,
    RevealKey,
    RevealState,
    RuleViolationError,
    SequencingError,
    SessionStatus,
    Test,
    TranscriptError,
    World,
    run_honest,
    transcript_export,
    transcript_replay,
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
    outcome = world.i_f_verify(b"alice", sid, b"bob", sid)
    assert outcome.verdict == "reject"
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
        if world.i_f_verify(b"alice", sid, b"bob", sid).accepted:
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
    world.schedule(Corrupt(b"alice"))
    outcome = world.i_f_verify(b"alice", sid, b"bob", sid, override=True)
    assert outcome.accepted and outcome.override
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
    key = world.schedule(RevealKey(b"alice", sid))
    assert key.key == record.kappa
    assert "key-revealed" in record.event_types()


def test_reveal_state_returns_snapshot():
    world, sid = completed_session()
    state = world.schedule(RevealState(b"bob", sid))
    assert state["kind"] == "kex3"
    assert "state-revealed" in world.session_record(b"bob", sid).event_types()


def test_expire_deletes_key():
    world, sid = completed_session()
    world.schedule(Expire(b"alice", sid))
    with pytest.raises(RuleViolationError):
        world.schedule(RevealKey(b"alice", sid))
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
    assert init.kappa == world.parties[b"alice"].live_keys[sid].key
    assert init.events == events


def test_test_query_returns_a_key_once():
    world, sid = completed_session()
    key = world.schedule(Test(b"alice", sid))
    assert len(key.key) == 32
    with pytest.raises(RuleViolationError):
        world.schedule(Test(b"bob", sid))


def test_test_query_disqualified_by_reveal():
    world, sid = completed_session()
    world.schedule(RevealKey(b"alice", sid))
    with pytest.raises(RuleViolationError):
        world.schedule(Test(b"alice", sid))


@pytest.mark.parametrize("reveal", [RevealKey, RevealState], ids=["key", "state"])
def test_test_query_disqualified_by_partner_reveal(reveal):
    # bob's session has alice's matching conversation: revealing it reveals
    # alice's key (or the state that derives it), so alice's is not fresh
    for seed in range(20):
        world, sid = completed_session(seed=200 + seed)
        world.schedule(reveal(b"bob", sid))
        with pytest.raises(RuleViolationError):
            world.schedule(Test(b"alice", sid))


def test_test_query_answers_beside_an_unrelated_reveal():
    world, sid = completed_session()
    other, _ = run_honest(world)  # a second alice-bob session
    world.schedule(RevealKey(b"bob", other.session))
    world.schedule(RevealState(b"bob", other.session))
    assert len(world.schedule(Test(b"alice", sid)).key) == 32


def test_test_query_disqualified_by_corruption():
    world, sid = completed_session()
    world.schedule(Corrupt(b"bob"))
    with pytest.raises(RuleViolationError):
        world.schedule(Test(b"alice", sid))


def test_test_query_requires_completed_session():
    world = make_world(kind=ProtocolKind.KEX2, seed=8)
    sid = world.start_session(b"alice", b"bob")
    with pytest.raises(RuleViolationError):
        world.schedule(Test(b"alice", sid))


def test_challenge_bit_behaviour_is_seed_determined():
    # With the same seed, the test query is deterministic: either it always
    # returns the live key or always a fresh uniform key.
    world1, sid1 = completed_session(seed=9)
    world2, sid2 = completed_session(seed=9)
    k1 = world1.schedule(Test(b"alice", sid1))
    k2 = world2.schedule(Test(b"alice", sid2))
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


def _run_kem6_in_steps(seed, read):
    world = make_world(kind=ProtocolKind.KEM6, model=Model.UM, seed=seed)
    sid = world.start_session(b"alice", b"bob")
    while world.undelivered:
        world.schedule(Deliver(world.undelivered[0]))
        if read:
            for record in world.records():
                record.events
    world.i_f_verify(b"alice", sid, b"bob", sid)
    world.schedule(RevealKey(b"bob", sid))
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


# computed before the streams were made lazy: (seed, key Test returns, bit)
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
    assert world.schedule(Test(b"alice", sid)).key.hex() == key
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
    assert public == set(AdversaryView._ALLOWED)


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

def test_transcript_roundtrip_is_identity():
    world = make_world(kind=ProtocolKind.KEM3_TWO_ENTROPY, seed=15)
    run_honest(world)
    blob = transcript_export(world)
    replayed, _ = transcript_replay(blob)
    assert transcript_export(replayed) == blob


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
