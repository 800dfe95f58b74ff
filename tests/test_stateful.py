"""Random schedules of every adversary action against one World.

A hypothesis state machine drives one world with three parties and up to
two concurrent sessions of one kind. Each step is one action: start a
session, deliver, modify or drop a pending envelope, inject an envelope
(malformed shapes included), re-inject one the world sent earlier, corrupt
a party, reveal a session's key or state, expire it, ask the test query, or
verify two sessions (sometimes one session against itself); a query may
name a malformed party or a malformed sid. One more step
delivers every pending envelope in order, as the honest scheduler does, so
that flows reach verification. It reaches orders a fixed enumeration does
not, such as a reveal or an expire between two messages.

After every step these invariants hold:

- only ModelViolationError, RuleViolationError and SequencingError escape;
- a status leaves IN_PROCESS at most once, and a settled session takes no
  further message: it sends, receives and aborts nothing more;
- live_key is not None exactly when the session is COMPLETED and not
  expired;
- the test query answers at most once per world, and only for a session
  never revealed whose participants are not corrupted;
- an accept without override implies equal entropies;
- a session completes only in an accepting verification against another
  session;
- events are only ever appended;
- under AM, every received payload equals the payload its sender sent
  with that seq.

The entropy width is the minimum, 4 bits, so tampered sessions sometimes
accept and complete with keys that differ.
"""

from itertools import permutations

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

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
from saslab.primitives import MAX_MESSAGE_SIZE
from saslab.protocols import ProtocolConfig, ProtocolKind

PARTIES = (b"alice", b"bob", b"carol")
MAX_SESSIONS = 2
TYPED_ERRORS = (ModelViolationError, RuleViolationError, SequencingError)
# what a settled session may still log: the queries, and the transfer's delivery
SETTLED_EVENTS = {
    "corrupted", "key-revealed", "state-revealed", "expired", "tested", "mt-delivered",
}

# names as the adversary may write them: the parties, a stranger, and malformed ones
NAMES = st.sampled_from(PARTIES + (b"zed",)) | st.sampled_from(["bob", b"", b"\xff", [b"bob"]])
# session ids that are not a SessionId, or whose fields the world never builds
BAD_SIDS = st.sampled_from(["alice~bob~00", None, 0, [], SessionId("alice", "bob", bytes(8)),
                            SessionId(b"\xff", b"bob", bytes(8)),
                            SessionId(b"alice", b"bob", [0] * 8)])
SEQS = st.integers(0, 3) | st.sampled_from(["0", None, True])
PAYLOAD_EDITS = st.sampled_from(["flip", "truncate", "replay", "junk", "str", "oversized"])
STEPS = settings(derandomize=True, max_examples=50, stateful_step_count=30, deadline=None)


class WorldMachine(RuleBasedStateMachine):
    model = Model.UM

    def __init__(self):
        super().__init__()
        self.world = None
        self.started = 0
        self.sent = []  # every envelope the world put on the wire, in order
        self.logs = {}  # (party, sid) -> its events when last seen
        self.settled = {}  # (party, sid) -> (status, event count) when first seen settled
        self.answers = 0  # test queries answered
        self.accepted = []  # the (party, sid) pairs of every accepting verification

    @initialize(kind=st.sampled_from(list(ProtocolKind)), seed=st.integers(0, 1 << 16),
                identities=st.booleans())
    def build(self, kind, seed, identities):
        cfg = ProtocolConfig(n_e=4, include_receiver_identity=identities)
        self.world = World(kind, cfg, self.model, seed, PARTIES)

    def _do(self, query, *args):
        """Run one action; a typed refusal is an answer, anything else escapes."""
        try:
            return query(*args)
        except TYPED_ERRORS:
            return None
        finally:
            self.sent += [env for env in self.world.undelivered if env not in self.sent]

    def _sessions(self, data):
        """A (party, sid) to name in a query: mostly a session that exists,
        sometimes a party paired with another party's sid, a malformed name
        or a malformed sid."""
        records = self.world.records()
        ends = [(record.parties[0], record.session) for record in records]
        others = [(party, record.session) for record in records for party in PARTIES]
        malformed = (st.tuples(NAMES, st.sampled_from([sid for _, sid in ends]))
                     | st.tuples(st.sampled_from(PARTIES), BAD_SIDS))
        return data.draw(st.sampled_from(ends) | st.sampled_from(others) | malformed)

    def _edit(self, payload, edit, data):
        if edit == "flip" and payload:
            at = data.draw(st.integers(0, len(payload) - 1))
            flipped = payload[at] ^ 1 << data.draw(st.integers(0, 7))
            return payload[:at] + bytes([flipped]) + payload[at + 1 :]
        if edit == "truncate":
            return payload[: data.draw(st.integers(0, len(payload)))]
        if edit == "replay" and self.sent:
            return data.draw(st.sampled_from(self.sent)).payload
        if edit == "str":
            return payload.hex()
        if edit == "oversized":
            return bytes(MAX_MESSAGE_SIZE + 1)
        return data.draw(st.binary(max_size=48))

    # -- rules ------------------------------------------------------------------

    @precondition(lambda self: self.started < MAX_SESSIONS)
    @rule(ends=st.sampled_from(list(permutations(PARTIES, 2))))
    def start(self, ends):
        self.started += 1
        self._do(self.world.start_session, *ends)

    @precondition(lambda self: self.world.undelivered)
    @rule(data=st.data())
    def deliver(self, data):
        env = data.draw(st.sampled_from(self.world.undelivered))
        self._do(self.world.schedule, Deliver(env))

    @precondition(lambda self: self.world.undelivered)
    @rule()
    def deliver_all(self):
        # the honest scheduler: every pending envelope, oldest first, until none is left
        while self.world.undelivered:
            self._do(self.world.schedule, Deliver(self.world.undelivered[0]))

    @precondition(lambda self: self.world.undelivered)
    @rule(data=st.data(), edit=PAYLOAD_EDITS)
    def modify(self, data, edit):
        env = data.draw(st.sampled_from(self.world.undelivered))
        self._do(self.world.schedule, Modify(env, self._edit(env.payload, edit, data)))

    @precondition(lambda self: self.world.undelivered)
    @rule(data=st.data())
    def drop(self, data):
        env = data.draw(st.sampled_from(self.world.undelivered))
        self._do(self.world.schedule, Drop(env))

    @rule(data=st.data(), sender=NAMES, receiver=NAMES, seq=SEQS, edit=PAYLOAD_EDITS)
    def inject(self, data, sender, receiver, seq, edit):
        known = [record.session for record in self.world.records()]
        fresh = st.builds(SessionId, st.sampled_from(PARTIES), st.sampled_from(PARTIES),
                          st.binary(min_size=8, max_size=8))
        malformed = st.sampled_from(["alice~bob~00", None])
        sid = data.draw((st.sampled_from(known) if known else fresh) | fresh | malformed)
        base = data.draw(st.sampled_from(self.sent)).payload if self.sent else b""
        env = MessageEnvelope(sender, receiver, sid, seq, self._edit(base, edit, data))
        self._do(self.world.schedule, Inject(data.draw(st.sampled_from([env, (env,)]))))

    @precondition(lambda self: self.sent)
    @rule(data=st.data())
    def reinject(self, data):
        self._do(self.world.schedule, Inject(data.draw(st.sampled_from(self.sent))))

    @precondition(lambda self: not any(p.corrupted for p in self.world.parties.values()))
    @rule(party=NAMES)
    def corrupt(self, party):
        # one party at most, so that sessions between the other two stay fresh
        self._do(self.world.corrupt, party)

    @precondition(lambda self: self.world.records())
    @rule(data=st.data(), query=st.sampled_from(["reveal_key", "reveal_state", "expire"]))
    def reveal_or_expire(self, data, query):
        self._do(getattr(self.world, query), *self._sessions(data))

    @precondition(lambda self: self.world.records())
    @rule(data=st.data())
    def ask_test(self, data):
        party, sid = self._sessions(data)
        if self._do(self.world.test, party, sid) is not None:
            self.answers += 1
            record = self.world.session_record(party, sid)
            assert not {"key-revealed", "state-revealed"} & set(record.event_types()[:-1])
            assert not any(self.world.parties[p].corrupted for p in record.parties
                           if p in self.world.parties)

    @precondition(lambda self: self.world.records())
    @rule(data=st.data(), override=st.booleans())
    def verify(self, data, override):
        records = self.world.records()
        partners = [((a.parties[0], a.session), (b.parties[0], b.session))
                    for a in records for b in records
                    if a is not b and a.session.nonce == b.session.nonce]
        if partners and data.draw(st.booleans()):
            first, second = data.draw(st.sampled_from(partners))
        else:  # sometimes a session against itself
            first = self._sessions(data)
            second = first if data.draw(st.booleans()) else self._sessions(data)
        verdict = self._do(self.world.i_f_verify, *first, *second, override)
        if verdict == "accept":
            self.accepted.append((first, second))
        if verdict == "accept" and not override:
            ours, theirs = (self.world.session_record(*end) for end in (first, second))
            assert ours.entropies == theirs.entropies

    # -- invariants -------------------------------------------------------------

    def _records(self):
        return {(record.parties[0], record.session): record
                for record in (self.world.records() if self.world else ())}

    @invariant()
    def settled_once(self):
        for key, record in self._records().items():
            if key not in self.settled:
                if record.status is not SessionStatus.IN_PROCESS:
                    self.settled[key] = record.status, len(record.event_types())
                continue
            status, count = self.settled[key]
            assert record.status is status, key
            assert set(record.event_types()[count:]) <= SETTLED_EVENTS, record.event_types()

    @invariant()
    def live_key_exactly_while_completed_and_not_expired(self):
        for record in self._records().values():
            holds = (record.status is SessionStatus.COMPLETED
                     and "expired" not in record.event_types())
            assert (record.live_key is not None) == holds, record.event_types()

    @invariant()
    def completed_only_against_another_session(self):
        records = self._records()
        assert all(records[first] is not records[second] for first, second in self.accepted)
        verified = {end for pair in self.accepted for end in pair}
        for key, record in records.items():
            assert record.status is not SessionStatus.COMPLETED or key in verified, key

    @invariant()
    def test_answers_at_most_once(self):
        assert self.answers <= 1

    @invariant()
    def events_only_appended(self):
        for key, record in self._records().items():
            events = record.events
            before = self.logs.get(key, [])
            assert events[: len(before)] == before, key
            self.logs[key] = events

    @invariant()
    def am_delivers_what_was_sent(self):
        if self.model is not Model.AM:
            return
        records = self._records()
        for (party, sid), record in records.items():
            for event, details, payload in record._log:
                if event == "received":
                    sender = records[details["sender"].encode(), sid]
                    sent = {d["seq"]: p for e, d, p in sender._log if e == "sent"}
                    assert payload == sent[details["seq"]], (party, sid)


class AuthenticatedWorldMachine(WorldMachine):
    model = Model.AM


TestUnauthenticatedWorld = WorldMachine.TestCase
TestUnauthenticatedWorld.settings = STEPS
TestAuthenticatedWorld = AuthenticatedWorldMachine.TestCase
TestAuthenticatedWorld.settings = STEPS
