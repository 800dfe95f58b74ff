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
from functools import cached_property
from typing import Optional

from .primitives import SUITE_HEADER, SharedKey, decode_fields, group_by_name
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


@dataclass(frozen=True)
class SessionId:
    initiator: bytes
    responder: bytes
    nonce: bytes

    def __post_init__(self):
        if len(self.nonce) != 8:
            raise ValueError("session nonce must be 8 bytes")

    def label(self) -> str:
        return f"{self.initiator.decode()}~{self.responder.decode()}~{self.nonce.hex()}"


@dataclass(frozen=True)
class MessageEnvelope:
    sender: bytes
    receiver: bytes
    session: SessionId
    seq: int
    payload: bytes


class SessionStatus(Enum):
    IN_PROCESS = "in-process"
    COMPLETED = "completed"
    ABORTED = "aborted"


@dataclass
class SessionRecord:
    """A party's local view of one session: (P_i, P_j, s, key) plus status,
    entropies, and an ordered event log.

    `log` keeps each event's name, details and, for "sent" and "received",
    the raw payload. The payload's summary (labels, digest, size) is computed
    when `events` is first read, and each event dict is built once: bulk
    trials that never read the log never pay for it. Equality and repr cover
    the raw log, so they do not depend on whether it has been read.
    """

    parties: tuple[bytes, bytes]  # (self, peer)
    session: SessionId
    role: str  # "initiator" | "responder"
    status: SessionStatus = SessionStatus.IN_PROCESS
    kappa: Optional[bytes] = None
    entropies: dict = field(default_factory=dict)
    _log: list = field(default_factory=list, init=False)  # (event, details, payload)
    _events: list = field(default_factory=list, init=False, repr=False, compare=False)

    def log(self, event: str, payload: bytes | None = None, **details):
        self._log.append((event, details, payload))

    @property
    def events(self) -> list[dict]:
        for event, details, payload in self._log[len(self._events):]:
            summary = _payload_summary(payload) if payload is not None else {}
            self._events.append(
                {"index": len(self._events), "event": event, **details, **summary}
            )
        return self._events

    def event_types(self) -> list[str]:
        return [event for event, _, _ in self._log]

    def conversation(self) -> tuple[list[bytes], list[bytes]]:
        """The raw payloads this session sent and received, in order."""
        sent = [payload for event, _, payload in self._log if event == "sent"]
        received = [payload for event, _, payload in self._log if event == "received"]
        return sent, received


@dataclass
class OobVerification:
    """Outcome of one tamper-proof entropy comparison."""

    verdict: str  # "accept" | "reject"
    override: bool = False

    @property
    def accepted(self) -> bool:
        return self.verdict == "accept"


# -- adversary actions -------------------------------------------------------

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


@dataclass(frozen=True)
class Corrupt:
    party: bytes


@dataclass(frozen=True)
class RevealKey:
    party: bytes
    session: SessionId


@dataclass(frozen=True)
class RevealState:
    party: bytes
    session: SessionId


@dataclass(frozen=True)
class Expire:
    party: bytes
    session: SessionId


@dataclass(frozen=True)
class Test:
    __test__ = False  # keep pytest from collecting the query class

    party: bytes
    session: SessionId


AdversaryAction = (
    Deliver | Modify | Inject | Drop | Corrupt | RevealKey | RevealState | Expire | Test
)


@dataclass
class _SessionEntry:
    machine: Machine
    record: SessionRecord


class _Party:
    def __init__(self, name: bytes, rng: HashDrbg):
        self.name = name
        self.rng = rng
        self.corrupted = False
        self.sessions: dict[SessionId, _SessionEntry] = {}
        self.live_keys: dict[SessionId, SharedKey] = {}


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
        if any(not name or len(name) > MAX_PARTY_NAME for name in self.party_names):
            raise ValueError("party name must be 1..64 bytes")
        if len(set(self.party_names)) != len(self.party_names):
            raise ValueError("party names must be unique")
        self.parties = {
            name: _Party(name, HashDrbg(derive_seed(seed, b"party", name)))
            for name in self.party_names
        }
        self._sid_rng = HashDrbg(derive_seed(seed, b"session"))
        self._test_used = False
        self.undelivered: list[MessageEnvelope] = []
        self._seq: dict[tuple[SessionId, bytes], int] = {}

    # Built on first use, once per world: honest and redirect trials never
    # draw from these. Each stream depends on (seed, label) alone, so it
    # draws the same bytes whenever it is built.

    @cached_property
    def adversary_rng(self) -> HashDrbg:
        return HashDrbg(derive_seed(self.seed, b"adversary"))

    @cached_property
    def _hidden_rng(self) -> HashDrbg:
        return HashDrbg(derive_seed(self.seed, b"challenge"))

    @cached_property
    def _challenge_bit(self) -> int:
        return self._hidden_rng.randbit()

    # -- session management --------------------------------------------------

    def _party(self, name: bytes) -> _Party:
        try:
            return self.parties[name]
        except KeyError:
            raise RuleViolationError(f"unknown party {name!r}")

    def _entry(self, party: bytes, sid: SessionId) -> _SessionEntry:
        entry = self._party(party).sessions.get(sid)
        if entry is None:
            raise RuleViolationError(f"no session {sid.label()} at {party!r}")
        return entry

    def session_record(self, party: bytes, sid: SessionId) -> SessionRecord:
        return self._entry(party, sid).record

    def start_session(
        self, initiator: bytes, responder: bytes, message: bytes | None = None
    ) -> SessionId:
        """External call that triggers the protocol at the initiating party."""
        init = self._party(initiator)
        self._party(responder)
        while True:
            sid = SessionId(initiator, responder, self._sid_rng.randbytes(8))
            if sid not in init.sessions:
                break
        machine = build_machine(
            self.kind, self.cfg, SPECS[self.kind].starting_side,
            initiator, responder, init.rng, message,
        )
        record = SessionRecord(parties=(initiator, responder), session=sid, role="initiator")
        record.log("created", kind=self.kind.value, role="initiator")
        init.sessions[sid] = _SessionEntry(machine, record)
        out = machine.advance(None)
        if out is not None:
            self._emit(initiator, responder, sid, out, record)
        return sid

    def _emit(self, sender: bytes, receiver: bytes, sid: SessionId, payload: bytes,
              record: SessionRecord):
        key = (sid, sender)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        env = MessageEnvelope(sender, receiver, sid, seq, payload)
        self.undelivered.append(env)
        record.log("sent", payload, seq=seq)
        return env

    def _receive(self, env: MessageEnvelope, payload: bytes, modified: bool):
        receiver = self._party(env.receiver)
        entry = receiver.sessions.get(env.session)
        if entry is None:
            if env.session.responder != env.receiver:
                raise RuleViolationError(
                    f"{env.receiver!r} is not the responder of {env.session.label()}"
                )
            side = SPECS[self.kind].starting_side.other
            machine = build_machine(
                self.kind, self.cfg, side, env.receiver, env.session.initiator, receiver.rng
            )
            record = SessionRecord(
                parties=(env.receiver, env.session.initiator),
                session=env.session,
                role="responder",
            )
            record.log("created", kind=self.kind.value, role="responder")
            entry = _SessionEntry(machine, record)
            receiver.sessions[env.session] = entry
        elif entry.record.status is SessionStatus.COMPLETED:
            raise RuleViolationError(
                f"session {env.session.label()} at {env.receiver!r} is already completed"
            )
        entry.record.log(
            "received", payload, seq=env.seq, sender=env.sender.decode(), modified=modified
        )
        try:
            out = entry.machine.advance(payload)
        except ProtocolError as exc:
            entry.record.status = SessionStatus.ABORTED
            entry.record.kappa = None
            entry.record.entropies = dict(entry.machine.entropies)
            entry.record.log("aborted", reason=str(exc))
            return None
        if out is not None:
            peer = entry.record.parties[1]
            return self._emit(env.receiver, peer, env.session, out, entry.record)
        return None

    # -- the scheduler --------------------------------------------------------

    def schedule(self, action: AdversaryAction):
        """Apply one adversary action under the active delivery model."""
        if isinstance(action, (Modify, Inject)) and self.model is Model.AM:
            raise ModelViolationError(
                f"{type(action).__name__} is not available in the authenticated model"
            )
        if isinstance(action, Deliver):
            self._take(action.envelope)
            return self._receive(action.envelope, action.envelope.payload, modified=False)
        if isinstance(action, Modify):
            self._take(action.envelope)
            return self._receive(action.envelope, action.payload, modified=True)
        if isinstance(action, Inject):
            return self._receive(action.envelope, action.envelope.payload, modified=True)
        if isinstance(action, Drop):
            self._take(action.envelope)
            return None
        if isinstance(action, Corrupt):
            return self.corrupt(action.party)
        if isinstance(action, RevealKey):
            return self.reveal_key(action.party, action.session)
        if isinstance(action, RevealState):
            return self.reveal_state(action.party, action.session)
        if isinstance(action, Expire):
            return self.expire(action.party, action.session)
        if isinstance(action, Test):
            return self.test(action.party, action.session)
        raise RuleViolationError(f"unknown action {action!r}")

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
    ) -> OobVerification:
        """Compare the two sessions' entropy values over the tamper-proof
        channel and complete or abort both sessions accordingly."""
        first = self._entry(initiator, initiator_sid)
        second = self._entry(responder, responder_sid)
        for entry in (first, second):
            if entry.record.status is SessionStatus.ABORTED:
                raise SequencingError("session aborted before verification")
            if not entry.machine.done or not entry.machine.entropies:
                raise SequencingError("verification requested before entropy was computed")
        if override:
            if not (self._party(initiator).corrupted or self._party(responder).corrupted):
                raise RuleViolationError("override requires a corrupted party")
            verdict = "accept"
            rounds = [(sorted(first.machine.entropies), "accept")]
        else:
            if SPECS[self.kind].separate_rounds:
                groups = [[label] for label in sorted(first.machine.entropies)]
            else:
                groups = [sorted(first.machine.entropies)]
            rounds = []
            for labels in groups:
                ok = all(
                    first.machine.entropies.get(lbl) == second.machine.entropies.get(lbl)
                    for lbl in labels
                ) and set(first.machine.entropies) == set(second.machine.entropies)
                rounds.append((labels, "accept" if ok else "reject"))
            verdict = "accept" if all(v == "accept" for _, v in rounds) else "reject"
        outcome = OobVerification(verdict=verdict, override=override)
        for party_name, entry in ((initiator, first), (responder, second)):
            entry.record.entropies = dict(entry.machine.entropies)
            for labels, round_verdict in rounds:
                entry.record.log(
                    "verified", labels=list(labels), verdict=round_verdict,
                    override=override,
                )
            if outcome.accepted:
                entry.record.status = SessionStatus.COMPLETED
                entry.record.kappa = entry.machine.key.key
                self._party(party_name).live_keys[entry.record.session] = entry.machine.key
                if entry.machine.delivered_message is not None:
                    entry.record.log(
                        "mt-delivered",
                        sender=entry.record.parties[1].decode(),
                        message=entry.machine.delivered_message.hex(),
                    )
            else:
                entry.record.status = SessionStatus.ABORTED
                entry.record.kappa = None
        return outcome

    # -- adversary queries ------------------------------------------------------

    def corrupt(self, party: bytes) -> dict:
        p = self._party(party)
        p.corrupted = True
        state = {}
        for sid, entry in p.sessions.items():
            entry.record.log("corrupted")
            state[sid.label()] = entry.machine.state_snapshot()
        return state

    def reveal_key(self, party: bytes, sid: SessionId) -> SharedKey:
        p = self._party(party)
        entry = self._entry(party, sid)
        if entry.record.status is not SessionStatus.COMPLETED:
            raise RuleViolationError("no accepted key to reveal")
        key = p.live_keys.get(sid)
        if key is None:
            raise RuleViolationError("session key deleted")
        entry.record.log("key-revealed")
        return key

    def reveal_state(self, party: bytes, sid: SessionId) -> dict:
        entry = self._entry(party, sid)
        entry.record.log("state-revealed")
        return entry.machine.state_snapshot()

    def expire(self, party: bytes, sid: SessionId):
        p = self._party(party)
        entry = self._entry(party, sid)
        if entry.record.status is not SessionStatus.COMPLETED:
            raise RuleViolationError("only completed sessions expire")
        if sid not in p.live_keys:
            raise RuleViolationError("session already expired")
        del p.live_keys[sid]
        entry.record.log("expired")

    def test(self, party: bytes, sid: SessionId) -> SharedKey:
        if self._test_used:
            raise RuleViolationError("the test query can be asked only once")
        p = self._party(party)
        entry = self._entry(party, sid)
        if entry.record.status is not SessionStatus.COMPLETED:
            raise RuleViolationError("test requires a completed session")
        # freshness covers the partners too: any session with the matching
        # conversation, which received what this one sent and the reverse
        sent, received = entry.record.conversation()
        for record in self.records():
            if record is entry.record or record.conversation() == (received, sent):
                if {"key-revealed", "state-revealed"} & set(record.event_types()):
                    raise RuleViolationError("session or its partner was revealed; test disallowed")
        peer = entry.record.parties[1]
        if p.corrupted or (peer in self.parties and self._party(peer).corrupted):
            raise RuleViolationError("a participant is corrupted; test disallowed")
        key = p.live_keys.get(sid)
        if key is None:
            raise RuleViolationError("session key deleted")
        self._test_used = True
        entry.record.log("tested")
        if self._challenge_bit == 1:
            return key
        return SharedKey(self._hidden_rng.randbytes(32))

    # -- bookkeeping -------------------------------------------------------------

    def records(self) -> list[SessionRecord]:
        return [e.record for p in self.parties.values() for e in p.sessions.values()]


class AdversaryView:
    """The attacker-visible surface: wire traffic and scheduling only.

    Attack strategies receive this facade instead of the world, which keeps
    them honest: party machines, records, and live keys are unreachable.
    """

    _ALLOWED = (
        "pending", "deliver", "modify", "inject", "drop", "corrupt",
        "verify", "rng", "cfg", "kind", "model",
    )

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

    @property
    def model(self) -> Model:
        return self._world.model

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
        return self._world.schedule(Corrupt(party))

    def verify(
        self, initiator: bytes, initiator_sid: SessionId,
        responder: bytes, responder_sid: SessionId, override: bool = False,
    ) -> str:
        """Run the out-of-band comparison; the adversary observes the verdict."""
        outcome = self._world.i_f_verify(
            initiator, initiator_sid, responder, responder_sid, override
        )
        return outcome.verdict


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
    the entropy width, mode flags, and the master seed; replay re-executes
    from those seeds.
    """
    if world.undelivered:
        raise TranscriptError("run not finished; undelivered messages remain")
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
        "run": {"driver": "honest", "initiator": "alice", "responder": "bob"},
        "records": [_record_to_dict(r) for r in world.records()],
    }
    blob = json.dumps(body, sort_keys=True).encode()
    return TRANSCRIPT_MAGIC + len(blob).to_bytes(4, "big") + blob


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
    if body.get("version") != TRANSCRIPT_VERSION:
        raise TranscriptError(f"unsupported transcript version {body.get('version')!r}")
    if body.get("suite") != SUITE_HEADER:
        raise TranscriptError("transcript was produced by a different suite")
    if body.get("run", {}).get("driver") != "honest":
        raise TranscriptError("only honest-run transcripts can be replayed")
    cfg = ProtocolConfig(
        group=group_by_name(body["group"]),
        n_e=body["n_e"],
        kem_mode=primitives.KemMode(body["kem_mode"]),
        kem2_key_only_entropy=body["kem2_key_only_entropy"],
        include_receiver_identity=body["include_receiver_identity"],
    )
    seed = bytes.fromhex(body["seed"]) if body["seed_is_hex"] else body["seed"]
    world = World(
        ProtocolKind(body["kind"]), cfg, Model(body["model"]), seed,
        tuple(p.encode() for p in body["parties"]),
    )
    run = body["run"]
    records = run_honest(world, run["initiator"].encode(), run["responder"].encode())
    # compare in the recorded form, as the JSON round trip leaves it
    replayed = json.loads(json.dumps([_record_to_dict(r) for r in world.records()]))
    if replayed != body.get("records"):
        raise TranscriptError("replayed run diverges from the recorded run")
    return world, records
