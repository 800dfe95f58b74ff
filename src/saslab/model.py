"""Execution substrate: parties, sessions, the message scheduler, the
out-of-band verification phase, and the adversary query surface.

Two delivery models are supported. Under the authenticated model (AM) the
adversary schedules, delays, or drops messages but every delivered message
is exactly what was sent. Under the unauthenticated model (UM) the adversary
may also rewrite payloads or inject fabricated envelopes. Verification of
session entropies runs over a tamper-proof comparison channel executed by
the scheduler; the adversary observes verdicts and can override one only by
corrupting a party first.

A single world is strictly sequential. Independent worlds share nothing and
can run in parallel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .primitives import MAX_MESSAGE_SIZE, SUITE_HEADER, SharedKey, decode_fields, group_by_name
from .protocols import (
    SPECS,
    Machine,
    ProtocolConfig,
    ProtocolError,
    ProtocolKind,
    build_machine,
)
from .rng import HashDrbg, derive_seed
from . import primitives

TRANSCRIPT_MAGIC = b"SASLAB-TR"
TRANSCRIPT_VERSION = 1

MAX_PARTY_NAME = 64


class Model(Enum):
    AM = "am"
    UM = "um"


class ModelViolationError(Exception):
    """Action not permitted under the active delivery model."""


class RuleViolationError(Exception):
    """Query broke its own rules (double test, revealing expired keys, ...)."""


class SequencingError(Exception):
    """Verification requested before both sessions reached their entropy."""


class TranscriptError(Exception):
    """Transcript is truncated, corrupt, or from an incompatible suite."""


# The wire records, SessionId and MessageEnvelope, are built for every session and
# message. Each fills its instance dict in one update, where the generated __init__
# of a frozen dataclass calls object.__setattr__ once per field; equality, hashing,
# repr, replace() and vars() stay the dataclass's.

@dataclass(frozen=True)
class SessionId:
    initiator: bytes
    responder: bytes
    nonce: bytes

    def __init__(self, initiator: bytes, responder: bytes, nonce: bytes):
        if len(nonce) != 8:
            raise ValueError("session nonce must be 8 bytes")
        vars(self).update(initiator=initiator, responder=responder, nonce=nonce)

    def __hash__(self):  # consistent with ==: equal ids have equal nonces
        return hash(self.nonce)

    def label(self) -> str:
        return f"{self.initiator.decode()}~{self.responder.decode()}~{self.nonce.hex()}"


@dataclass(frozen=True)
class MessageEnvelope:
    sender: bytes
    receiver: bytes
    session: SessionId
    seq: int
    payload: bytes

    def __init__(self, sender: bytes, receiver: bytes, session: SessionId, seq: int,
                 payload: bytes):
        vars(self).update(sender=sender, receiver=receiver, session=session, seq=seq,
                          payload=payload)


class SessionStatus(Enum):
    IN_PROCESS = "in-process"
    COMPLETED = "completed"
    ABORTED = "aborted"


@dataclass
class SessionRecord:
    """A party's one session: (P_i, P_j, s, key) plus status, entropies, an
    ordered event log, the machine of its side, the seq of its next outgoing
    message, and its live key, held exactly while the session is COMPLETED
    and not expired. The status leaves IN_PROCESS once and never moves again,
    and a settled session takes no further message.

    `log` keeps each event's name, details and, for "sent" and "received",
    the raw payload. `events` builds the event dicts from that log each time
    it is read, with the payload's summary (labels, digest, size): bulk
    trials that never read the log never pay for it.
    """

    parties: tuple[bytes, bytes]  # (self, peer)
    session: SessionId
    role: str  # "initiator" | "responder"
    machine: Machine = field(repr=False, compare=False)
    status: SessionStatus = SessionStatus.IN_PROCESS
    kappa: Optional[bytes] = None
    entropies: dict = field(default_factory=dict)
    sent: int = field(default=0, repr=False, compare=False)
    live_key: SharedKey | None = field(default=None, repr=False, compare=False)
    _log: list = field(default_factory=list, init=False)  # (event, details, payload)

    def log(self, event: str, payload: bytes | None = None, **details):
        self._log.append((event, details, payload))

    @property
    def events(self) -> list[dict]:
        events = []
        for index, (event, details, payload) in enumerate(self._log):
            summary = _payload_summary(payload) if payload is not None else {}
            events.append({"index": index, "event": event, **details, **summary})
        return events

    def event_types(self) -> list[str]:
        return [event for event, _, _ in self._log]

    def conversation(self) -> tuple[list[bytes], list[bytes]]:
        """The raw payloads this session sent and received, in order."""
        sent = [payload for event, _, payload in self._log if event == "sent"]
        received = [payload for event, _, payload in self._log if event == "received"]
        return sent, received


# -- wire actions: what the adversary does with messages ---------------------

@dataclass(frozen=True)
class Deliver:
    envelope: MessageEnvelope


@dataclass(frozen=True)
class Modify:
    envelope: MessageEnvelope
    payload: bytes


@dataclass(frozen=True)
class Inject:
    envelope: MessageEnvelope


@dataclass(frozen=True)
class Drop:
    envelope: MessageEnvelope


# Names that passed _valid_name, each checked once. A process meets a few party
# names, so the set stays far below its bound; past it, a new name is checked each time.
MAX_VALID_NAMES = 1024
_VALID_NAMES: set[bytes] = set()


def _valid_name(name: bytes) -> bool:
    """Whether `name` is 1..64 bytes of UTF-8: records, labels and logs decode it."""
    if type(name) is not bytes:  # first: a bytearray or a subclass equal to a valid name is not one
        return False
    if name in _VALID_NAMES:
        return True
    if not 0 < len(name) <= MAX_PARTY_NAME:
        return False
    try:
        name.decode()
    except UnicodeDecodeError:
        return False
    if len(_VALID_NAMES) < MAX_VALID_NAMES:
        _VALID_NAMES.add(name)
    return True


def _check_payload(payload: bytes) -> None:
    if type(payload) is not bytes or len(payload) > MAX_MESSAGE_SIZE:
        raise RuleViolationError(f"a payload is bytes, at most {MAX_MESSAGE_SIZE} of them")


def _check_sid(sid: SessionId) -> None:
    """A session id as the world builds one: two distinct valid names, a bytes nonce."""
    if not isinstance(sid, SessionId) or type(sid.nonce) is not bytes:
        raise RuleViolationError(f"not a SessionId with a bytes nonce: {sid!r}")
    if not (_valid_name(sid.initiator) and _valid_name(sid.responder)):
        raise RuleViolationError("party name must be 1..64 bytes of UTF-8")
    if sid.initiator == sid.responder:
        raise RuleViolationError(f"{sid.initiator!r} cannot hold a session with itself")


def _check_injected(env: MessageEnvelope) -> None:
    """An injected envelope is the one the world did not build: check all of it."""
    if not isinstance(env, MessageEnvelope):
        raise RuleViolationError(f"not an envelope: {env!r}")
    _check_sid(env.session)
    if type(env.seq) is not int or not (_valid_name(env.sender) and _valid_name(env.receiver)):
        raise RuleViolationError("an envelope carries an int seq and valid party names")
    _check_payload(env.payload)


class _Party:
    _rng = None  # what every party starts with, kept on the class until set
    corrupted = False

    def __init__(self, name: bytes, world_seed: bytes | int):
        self.name = name
        self._world_seed = world_seed
        self.sessions: dict[SessionId, SessionRecord] = {}

    @property
    def rng(self) -> HashDrbg:
        # built on first use (a redirect's bypassed peer never draws from it)
        if self._rng is None:
            self._rng = HashDrbg(derive_seed(self._world_seed, b"party", self.name))
        return self._rng


def _payload_summary(payload: bytes) -> dict:
    try:
        labels = [label for label, _ in decode_fields(payload)]
    except ValueError:
        labels = ["<unparseable>"]
    return {
        "labels": labels,
        "digest": primitives._tagged_hash("LOG/v1", payload).hex()[:16],
        "size": len(payload),
    }


class World:
    """One experiment world: a set of parties, a protocol kind, a delivery
    model, and deterministic per-party random streams."""

    _test_used = False
    _adversary_rng = _hidden_rng = _bit = None  # streams built on first use, below

    def __init__(
        self,
        kind: ProtocolKind,
        cfg: ProtocolConfig,
        model: Model,
        seed: bytes | int,
        party_names: tuple[bytes, ...] = (b"alice", b"bob"),
    ):
        self.kind = kind
        self.cfg = cfg
        self.model = model
        self.seed = seed
        self.party_names = tuple(party_names)
        if type(seed) is not bytes and not (type(seed) is int and 0 <= seed < 1 << 64):
            raise ValueError(f"seed {seed!r} is neither bytes nor an int in [0, 2^64)")
        if not all(map(_valid_name, self.party_names)):
            raise ValueError("party name must be 1..64 bytes of UTF-8")
        if len(set(self.party_names)) != len(self.party_names):
            raise ValueError("party names must be unique")
        self.parties = {name: _Party(name, seed) for name in self.party_names}
        self._sid_rng = HashDrbg(derive_seed(seed, b"session"))
        self.undelivered: list[MessageEnvelope] = []

    # Built on first use, once per world, into plain attributes (3.11's
    # cached_property takes a lock on first read): honest and redirect trials
    # never draw from these. Each stream depends on (seed, label) alone, so
    # it draws the same bytes whenever it is built.

    @property
    def adversary_rng(self) -> HashDrbg:
        if self._adversary_rng is None:
            self._adversary_rng = HashDrbg(derive_seed(self.seed, b"adversary"))
        return self._adversary_rng

    @property
    def _challenge_bit(self) -> int:
        if self._bit is None:  # the hidden stream's first draw
            self._hidden_rng = HashDrbg(derive_seed(self.seed, b"challenge"))
            self._bit = self._hidden_rng.randbit()
        return self._bit

    # -- session management --------------------------------------------------

    def _party(self, name: bytes) -> _Party:
        try:
            return self.parties[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name, a list say
            raise RuleViolationError(f"unknown party {name!r}")

    def _find(self, party: bytes, sid: SessionId) -> SessionRecord | None:
        """The party's session `sid` or None; only a miss checks that the world could build it."""
        try:  # _party raises no TypeError: it refuses an unhashable name
            record = self._party(party).sessions.get(sid)
        except TypeError:  # an unhashable nonce, a list say
            record = None
        if record is None:
            _check_sid(sid)
        return record

    def session_record(self, party: bytes, sid: SessionId) -> SessionRecord:
        record = self._find(party, sid)
        if record is None:
            raise RuleViolationError(f"no session {sid.label()} at {party!r}")
        return record

    def start_session(
        self, initiator: bytes, responder: bytes, message: bytes | None = None
    ) -> SessionId:
        """External call that triggers the protocol at the initiating party."""
        init, resp = self._party(initiator), self._party(responder)
        if init is resp:
            raise RuleViolationError(f"{initiator!r} cannot hold a session with itself")
        while True:  # the parties' own names: a name equal to one, of another type, is that party
            sid = SessionId(init.name, resp.name, self._sid_rng.randbytes(8))
            if sid not in init.sessions:
                break
        record = self._new_session(init, resp.name, sid, "initiator", message)
        out = record.machine.advance(None)
        if out is not None:
            self._emit(record, out)
        return sid

    def _new_session(self, party: _Party, peer: bytes, sid: SessionId, role: str,
                     message: bytes | None = None) -> SessionRecord:
        """A new session at `party`, running its role's figure column."""
        spec = SPECS[self.kind]
        side = spec.starting_side if role == "initiator" else spec.starting_side.other
        machine = build_machine(self.kind, self.cfg, side, party.name, peer, party.rng, message)
        record = party.sessions[sid] = SessionRecord((party.name, peer), sid, role, machine)
        record.log("created", kind=spec.name, role=role)
        return record

    def _emit(self, record: SessionRecord, payload: bytes) -> MessageEnvelope:
        """Send `payload` to the session's peer, numbered by its own counter."""
        seq = record.sent
        record.sent = seq + 1
        env = MessageEnvelope(*record.parties, record.session, seq, payload)
        self.undelivered.append(env)
        record.log("sent", payload, seq=seq)
        return env

    def _receive(self, env: MessageEnvelope, payload: bytes, modified: bool):
        receiver = self._party(env.receiver)
        record = receiver.sessions.get(env.session)
        if record is None:
            if env.session.responder != env.receiver:
                raise RuleViolationError(
                    f"{env.receiver!r} is not the responder of {env.session.label()}"
                )
            record = self._new_session(receiver, env.session.initiator, env.session, "responder")
        elif record.status is not SessionStatus.IN_PROCESS:
            raise RuleViolationError(
                f"session {env.session.label()} at {env.receiver!r} is {record.status.value}"
            )
        record.log("received", payload, seq=env.seq, sender=env.sender.decode(), modified=modified)
        try:
            out = record.machine.advance(payload)
        except ProtocolError as exc:
            record.status = SessionStatus.ABORTED
            record.entropies = dict(record.machine.entropies)
            record.log("aborted", reason=str(exc))
            return None
        if out is not None:
            return self._emit(record, out)
        return None

    # -- the scheduler --------------------------------------------------------

    def schedule(self, action: Deliver | Modify | Inject | Drop):
        """Apply one wire action under the active delivery model. The other
        adversary queries (corrupt, reveal, expire, test) are methods below.
        A payload or an injected envelope that cannot go on the wire is
        refused before any envelope is taken, session created or event logged."""
        if isinstance(action, Deliver):
            self._take(action.envelope)
            return self._receive(action.envelope, action.envelope.payload, modified=False)
        if isinstance(action, Drop):
            self._take(action.envelope)
            return None
        if not isinstance(action, (Modify, Inject)):
            raise RuleViolationError(f"unknown action {action!r}")
        if self.model is Model.AM:
            raise ModelViolationError(
                f"{type(action).__name__} is not available in the authenticated model"
            )
        if isinstance(action, Modify):
            _check_payload(action.payload)
            self._take(action.envelope)
            return self._receive(action.envelope, action.payload, modified=True)
        _check_injected(action.envelope)
        return self._receive(action.envelope, action.envelope.payload, modified=True)

    def _take(self, env: MessageEnvelope):
        try:
            self.undelivered.remove(env)
        except ValueError:
            raise ModelViolationError("envelope is not in the undelivered set")

    # -- out-of-band verification ---------------------------------------------

    def i_f_verify(
        self,
        initiator: bytes,
        initiator_sid: SessionId,
        responder: bytes,
        responder_sid: SessionId,
        override: bool = False,
    ) -> str:
        """Compare the two sessions' entropy values over the tamper-proof
        channel, complete or abort both sessions accordingly, and return the
        verdict, "accept" or "reject". Each session is verified once, against
        another; one not yet started, aborted or short of its entropy raises
        SequencingError."""
        first = self._verifying(initiator, initiator_sid)
        second = self._verifying(responder, responder_sid)
        if first is second:
            raise RuleViolationError("a session cannot be verified against itself")
        records = (first, second)
        for record in records:
            if record.status is SessionStatus.ABORTED:
                raise SequencingError("session aborted before verification")
            if record.status is SessionStatus.COMPLETED:
                raise RuleViolationError(f"session {record.session.label()} already verified")
            if not record.machine.done or not record.machine.entropies:
                raise SequencingError("verification requested before entropy was computed")
        ours, theirs = first.machine.entropies, second.machine.entropies
        if override:
            if not (self._party(initiator).corrupted or self._party(responder).corrupted):
                raise RuleViolationError("override requires a corrupted party")
            verdict = "accept"
            rounds = [(sorted(ours), "accept")]
        else:
            verdict = "accept" if ours == theirs else "reject"
            ordered = sorted(ours)
            groups = [[lbl] for lbl in ordered] if SPECS[self.kind].separate_rounds else [ordered]
            # a round accepts when its own values agree, as all do when the dicts are equal;
            # a label the other side lacks rejects
            rounds = [
                (labels, "accept" if verdict == "accept"
                 or all(ours[lbl] == theirs.get(lbl) for lbl in labels) else "reject")
                for labels in groups
            ]
        for record in records:
            record.entropies = dict(record.machine.entropies)
            for labels, round_verdict in rounds:
                record.log(
                    "verified", labels=list(labels), verdict=round_verdict,
                    override=override,
                )
            if verdict == "accept":
                record.status = SessionStatus.COMPLETED
                record.live_key = record.machine.key
                record.kappa = record.live_key.key
                if record.machine.delivered_message is not None:
                    record.log(
                        "mt-delivered",
                        sender=record.parties[1].decode(),
                        message=record.machine.delivered_message.hex(),
                    )
            else:
                record.status = SessionStatus.ABORTED
        return verdict

    def _verifying(self, party: bytes, sid: SessionId) -> SessionRecord:
        """The session one end of a verification names."""
        record = self._find(party, sid)
        if record is None:
            if party == sid.responder:
                raise SequencingError("verification requested before the session started")
            self.session_record(party, sid)  # which raises: no session
        return record

    # -- adversary queries ------------------------------------------------------

    def corrupt(self, party: bytes) -> dict:
        p = self._party(party)
        p.corrupted = True
        state = {}
        for sid, record in p.sessions.items():
            record.log("corrupted")
            state[sid.label()] = record.machine.state_snapshot()
        return state

    def _holding_key(self, party: bytes, sid: SessionId) -> SessionRecord:
        """The session, which must hold its live key: completed, not expired."""
        record = self.session_record(party, sid)
        if record.live_key is None:
            completed = record.status is SessionStatus.COMPLETED
            raise RuleViolationError("session key deleted" if completed else "no accepted key")
        return record

    def reveal_key(self, party: bytes, sid: SessionId) -> SharedKey:
        record = self._holding_key(party, sid)
        record.log("key-revealed")
        return record.live_key

    def reveal_state(self, party: bytes, sid: SessionId) -> dict:
        record = self.session_record(party, sid)
        record.log("state-revealed")
        return record.machine.state_snapshot()

    def expire(self, party: bytes, sid: SessionId):
        record = self._holding_key(party, sid)
        record.live_key = None
        record.log("expired")

    def test(self, party: bytes, sid: SessionId) -> SharedKey:
        if self._test_used:
            raise RuleViolationError("the test query can be asked only once")
        tested = self._holding_key(party, sid)
        # freshness covers the partners too: any session with the matching
        # conversation, which received what this one sent and the reverse
        sent, received = tested.conversation()
        for record in self.records():
            if record is tested or record.conversation() == (received, sent):
                if {"key-revealed", "state-revealed"} & set(record.event_types()):
                    raise RuleViolationError("session or its partner was revealed; test disallowed")
        if any(self.parties[p].corrupted for p in tested.parties if p in self.parties):
            raise RuleViolationError("a participant is corrupted; test disallowed")
        self._test_used = True
        tested.log("tested")
        if self._challenge_bit == 1:
            return tested.live_key
        return SharedKey(self._hidden_rng.randbytes(32))

    # -- bookkeeping -------------------------------------------------------------

    def records(self) -> list[SessionRecord]:
        return [r for p in self.parties.values() for r in p.sessions.values()]


class AdversaryView:
    """The attacker-visible surface: wire traffic and scheduling only.

    Attack strategies receive this facade instead of the world, which keeps
    them honest: party machines, records, and live keys are unreachable.
    """

    def __init__(self, world: World):
        object.__setattr__(self, "_world", world)

    def __setattr__(self, name, value):
        raise AttributeError("adversary view is read-only")

    @property
    def rng(self) -> HashDrbg:
        return self._world.adversary_rng

    @property
    def cfg(self) -> ProtocolConfig:
        return self._world.cfg

    @property
    def kind(self) -> ProtocolKind:
        return self._world.kind

    def pending(self) -> tuple[MessageEnvelope, ...]:
        return tuple(self._world.undelivered)

    def deliver(self, env: MessageEnvelope):
        return self._world.schedule(Deliver(env))

    def modify(self, env: MessageEnvelope, payload: bytes):
        return self._world.schedule(Modify(env, payload))

    def inject(self, env: MessageEnvelope):
        return self._world.schedule(Inject(env))

    def drop(self, env: MessageEnvelope):
        return self._world.schedule(Drop(env))

    def corrupt(self, party: bytes):
        return self._world.corrupt(party)

    def verify(
        self, initiator: bytes, initiator_sid: SessionId,
        responder: bytes, responder_sid: SessionId, override: bool = False,
    ) -> str:
        """Run the out-of-band comparison; the adversary observes the verdict."""
        return self._world.i_f_verify(
            initiator, initiator_sid, responder, responder_sid, override
        )


# ---------------------------------------------------------------------------
# honest driver and transcripts
# ---------------------------------------------------------------------------

def run_honest(
    world: World,
    initiator: bytes = b"alice",
    responder: bytes = b"bob",
    message: bytes | None = None,
) -> tuple[SessionRecord, SessionRecord]:
    """Start one session and deliver every message faithfully in order,
    then run the out-of-band verification."""
    sid = world.start_session(initiator, responder, message)
    while world.undelivered:
        world.schedule(Deliver(world.undelivered[0]))
    init_rec = world.session_record(initiator, sid)
    resp_rec = world.session_record(responder, sid)
    if (
        init_rec.status is not SessionStatus.ABORTED
        and resp_rec.status is not SessionStatus.ABORTED
    ):
        world.i_f_verify(initiator, sid, responder, sid)
    return init_rec, resp_rec


def _record_to_dict(record: SessionRecord) -> dict:
    return {
        "parties": [p.decode() for p in record.parties],
        "session": record.session.label(),
        "role": record.role,
        "status": record.status.value,
        "kappa": record.kappa.hex() if record.kappa else None,
        "entropies": {
            label: {"value": ev.value, "n_e": ev.n_e}
            for label, ev in sorted(record.entropies.items())
        },
        "events": record.events,
    }


def transcript_export(world: World) -> bytes:
    """Serialize a finished honest run into a replayable byte transcript.

    The header pins the format version, the hash-suite header, the group,
    the entropy width, mode flags, the master seed, and the run's two ends
    and initiator's message, if any; replay re-executes from those seeds.
    Raises TranscriptError when that replay does not reproduce the run.
    """
    if world.undelivered:
        raise TranscriptError("run not finished; undelivered messages remain")
    sessions = {record.session for record in world.records()}
    if len(sessions) != 1:
        raise TranscriptError(f"a transcript records one session, not {len(sessions)}")
    (sid,) = sessions
    run = {"driver": "honest", "initiator": sid.initiator.decode(),
           "responder": sid.responder.decode()}
    try:  # an injected session's initiator may be no party of the world, or hold no record
        message = world.parties[sid.initiator].sessions[sid].machine.message
    except KeyError:
        raise TranscriptError(f"not an honest run: no initiator record of {sid.label()}")
    if message is not None:
        run["message"] = message.hex()
    seed = world.seed
    body = {
        "version": TRANSCRIPT_VERSION,
        "suite": SUITE_HEADER,
        "kind": world.kind.value,
        "model": world.model.value,
        "group": world.cfg.group.name,
        "n_e": world.cfg.n_e,
        "kem_mode": world.cfg.kem_mode.value,
        "kem2_key_only_entropy": world.cfg.kem2_key_only_entropy,
        "include_receiver_identity": world.cfg.include_receiver_identity,
        "seed": seed.hex() if isinstance(seed, bytes) else seed,
        "seed_is_hex": isinstance(seed, bytes),
        "parties": [p.decode() for p in world.party_names],
        "run": run,
        "records": [_record_to_dict(r) for r in world.records()],
    }
    blob = json.dumps(body, sort_keys=True).encode()
    raw = TRANSCRIPT_MAGIC + len(blob).to_bytes(4, "big") + blob
    transcript_replay(raw)  # an adversary's run, or a query after it, diverges
    return raw


def transcript_replay(raw: bytes) -> tuple[World, tuple[SessionRecord, SessionRecord]]:
    """Re-execute the run recorded in a transcript from its seeds; raises
    TranscriptError unless every session record comes out as recorded."""
    if len(raw) < len(TRANSCRIPT_MAGIC) + 4 or not raw.startswith(TRANSCRIPT_MAGIC):
        raise TranscriptError("not a transcript")
    size = int.from_bytes(raw[len(TRANSCRIPT_MAGIC) : len(TRANSCRIPT_MAGIC) + 4], "big")
    blob = raw[len(TRANSCRIPT_MAGIC) + 4 :]
    if len(blob) != size:
        raise TranscriptError("truncated transcript")
    try:
        body = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise TranscriptError(f"corrupt transcript body: {exc}")
    if not isinstance(body, dict):
        raise TranscriptError("transcript body is not a JSON object")
    if body.get("version") != TRANSCRIPT_VERSION:
        raise TranscriptError(f"unsupported transcript version {body.get('version')!r}")
    if body.get("suite") != SUITE_HEADER:
        raise TranscriptError("transcript was produced by a different suite")
    run = body.get("run")
    if not isinstance(run, dict) or run.get("driver") != "honest":
        raise TranscriptError("only honest-run transcripts can be replayed")
    try:  # every header field present; ProtocolConfig and World check their own values
        cfg = ProtocolConfig(
            group=group_by_name(body["group"]),
            n_e=body["n_e"],
            kem_mode=primitives.KemMode(body["kem_mode"]),
            kem2_key_only_entropy=body["kem2_key_only_entropy"],
            include_receiver_identity=body["include_receiver_identity"],
        )
        if type(body["seed_is_hex"]) is not bool:
            raise TypeError("seed_is_hex must be a bool")
        seed = bytes.fromhex(body["seed"]) if body["seed_is_hex"] else body["seed"]
        world = World(
            ProtocolKind(body["kind"]), cfg, Model(body["model"]), seed,
            tuple(p.encode() for p in body["parties"]),
        )
        ends = [world.parties[run[end].encode()].name for end in ("initiator", "responder")]
        message = bytes.fromhex(run["message"]) if "message" in run else None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise TranscriptError(f"malformed transcript header: {type(exc).__name__}: {exc}") from exc
    records = run_honest(world, *ends, message)
    # compare in the recorded form, as the JSON round trip leaves it
    replayed = json.loads(json.dumps([_record_to_dict(r) for r in world.records()]))
    if replayed != body.get("records"):
        raise TranscriptError("not an honest run: the replay diverges from the recorded run")
    return world, records
