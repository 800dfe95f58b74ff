"""Protocol state machines.

One Machine class runs either side (the figure's left or right column) of
every kind. The column is a generator function in the kind's SPECS row: it
yields each outgoing message with the labels it expects back. The 2- and
3-pass kinds write it as straight-line code that reads like the figure,
keeping values between messages in its locals. Machine.advance drives it on
incoming payloads, which are strict TLV layouts. Any failure (a schema
mismatch, a start signal out of turn, a message to a finished session, a
column that raises) aborts the session and closes the column. Machines
expose their session-entropy values and session key once computed;
comparing entropies is the out-of-band verification executed by the
scheduler, not by the machines.

Flows (arrows show wire messages; entropy receivers in brackets):

  kex2               A: pk_a -> B, B: pk_b -> A   2 msgs, E [B]
  kex3               B: com(pk_b) -> A            3 msgs, E_B [A]
                     A: pk_a -> B
                     B: opening -> A

  kem2               A: pk -> B, B: ct -> A       2 msgs, E [none]
  kem3-two-entropy   B: com(N) -> A               3 msgs, E_B1 + E_B2 [A]
                     A: pk -> B
                     B: (ct, opening) -> A

  kem3-commit        B: com(x) -> A               3 msgs, E [A]
                     A: pk -> B
                     B: (ct, enc(blinder)) -> A, abort unless x reopens

mt-auth (3 msgs), kem4 (4) and kem6 (6) are built from one commit /
challenge / open leg. A's leg carries the message (in kem4 and kem6 a fresh
one, A's public key pk riding in clear) and gives E_A [B]; B's leg carries
an encapsulation under pk and gives E_B [A]. The kinds differ only in which
leg steps share a wire message, so their flows are data: each SPECS entry's
schedule lists the wire labels of every message, and one column, _transfer,
runs any schedule. A label's prefix names its step; com and open act on the
sender's leg, chal on the peer's. kem6 is compile_mt(kem2). A sender takes
a message's steps in wire order, except that commits come last: kem4's
second message draws N_B before the encapsulation and its commitment.
Everything the rest of the package knows about a kind is in its SPECS entry,
kem6's included: which elements each entropy value hashes, in which order,
and whose identity it binds. entropy_rule reads that entry, for the
machines and the attacks alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Generator, Optional, Sequence

from .primitives import (
    Commitment,
    Encapsulation,
    EntropyValue,
    GroupParams,
    KemMode,
    KeyPair,
    MAX_ENTROPY_BITS,
    MIN_ENTROPY_BITS,
    Opening,
    REJECT,
    SharedKey,
    TOY256,
    commit,
    encode_fields,
    entropy,
    expect_fields,
    kem_decaps,
    kem_decaps_star,
    kem_encaps,
    kem_encaps_star,
    kem_keygen,
    kex_agree,
    kex_keygen,
    message_key,
    open_commitment,
    pke_decrypt,
    pke_encrypt,
    random_element,
)
from .rng import HashDrbg

NONCE_SIZE = 32  # random values N, N_A, N_B and m are all 32 bytes


class ProtocolKind(Enum):
    MT_AUTH = "mt-auth"
    KEX2 = "kex2"
    KEX3 = "kex3"
    KEM2 = "kem2"
    KEM3_TWO_ENTROPY = "kem3-two-entropy"
    KEM3_COMMIT = "kem3-commit"
    KEM4 = "kem4"
    KEM6 = "kem6"
    __hash__ = object.__hash__  # singletons: SPECS[kind] skips Enum's Python-level hash


class Side(Enum):
    """Figure column: A is the left party, B the right party."""

    A = "A"
    B = "B"

    @property
    def other(self) -> "Side":
        return Side.B if self is Side.A else Side.A


@dataclass(frozen=True)
class EntropySpec:
    """One entropy value of a flow.

    receiver is the side whose identity the value binds (None: the flow
    carries no receiver identity). elements maps each input element, in hash
    order, to the message index (1-based) at which it becomes determined, or
    "derived" for values computed from earlier ones. A main value must not
    depend on anything determined only by the final message; secondary
    values exist precisely to cover the final message. names, the element
    names in hash order, is built with the spec: a row is replaced, not
    edited in place.
    """

    receiver: Optional[Side]
    elements: dict
    main: bool = True
    names: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.elements))


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything the package declares about one protocol kind."""

    kind: ProtocolKind
    column: Callable[["Machine"], Generator]  # one side's figure column
    message_count: int
    starting_side: Side  # which side sends the first wire message
    entropies: dict[str, EntropySpec]
    # verify each entropy value in its own round (mutual authentication)
    # instead of all of them, concatenated, in one
    separate_rounds: bool = False
    # residual collision term of the security argument, in units of 2^-n_e
    residual_factor: float = 2.0
    # transfer kinds: the wire labels of each message, run by _transfer
    schedule: tuple[tuple[str, ...], ...] = ()
    # transfer kinds: A's and B's plan of the schedule (see _plan), built with the row
    plans: tuple = field(default=(), init=False, repr=False, compare=False)
    name: str = field(default="", init=False, repr=False, compare=False)  # the kind's value

    def __post_init__(self):
        object.__setattr__(self, "name", self.kind.value)
        if self.schedule:
            object.__setattr__(self, "plans", (_plan(self, Side.A), _plan(self, Side.B)))

    def build(self, cfg, side, self_id, peer_id, rng, message=None) -> "Machine":
        """A machine for one side of this kind; build_machine's arguments."""
        return Machine(self, cfg, side, self_id, peer_id, rng, message)


class ProtocolError(Exception):
    """Schema violation, malformed element, rejected opening, or abort."""


@dataclass(frozen=True)
class ProtocolConfig:
    """A run's settings, checked when built and frozen: a config that exists is
    valid; dataclasses.replace(cfg, ...) builds a variant, checked again. Kem2's
    key-only profile hashes the key alone (the same-key attack's target); without
    receiver identities (a negative control) no entropy value binds a name."""

    group: GroupParams = TOY256
    n_e: int = 16  # the width of the entropy value compared out of band
    kem_mode: KemMode = KemMode.DETERMINISTIC
    kem2_key_only_entropy: bool = False
    include_receiver_identity: bool = True

    def __post_init__(self):  # a bad field raises ValueError naming it
        for name, cls in (("group", GroupParams), ("n_e", int), ("kem_mode", KemMode),
                          ("kem2_key_only_entropy", bool), ("include_receiver_identity", bool)):
            if type(value := getattr(self, name)) is not cls:  # exactly: a bool is not an n_e
                raise ValueError(f"{name} must be of type {cls.__name__}, not {value!r}")
        if not MIN_ENTROPY_BITS <= self.n_e <= MAX_ENTROPY_BITS:
            raise ValueError(f"n_e {self.n_e} is outside [{MIN_ENTROPY_BITS}, {MAX_ENTROPY_BITS}]")


def entropy_rule(spec: ProtocolSpec, cfg: ProtocolConfig, label: str, receiver: bytes):
    """The receiver and element names, in order, that entropy value `label` of a SPECS row
    hashes: the receiver is blank where the value binds none or identities are off."""
    rule = spec.entropies[label]
    if rule.receiver is None or not cfg.include_receiver_identity:
        receiver = b""
    if cfg.kem2_key_only_entropy and spec.kind is ProtocolKind.KEM2:  # kem2's key-only profile
        return receiver, ("key",)
    return receiver, rule.names


def _open(c: Commitment, raw_opening: bytes) -> bytes:
    value = open_commitment(c, Opening.decode(raw_opening))
    if value is REJECT:
        raise ProtocolError("commitment opening rejected")
    return value


class Machine:
    """One party's side of a protocol run.

    The kind's SPECS row names the side's column, a generator function of
    the machine: it yields (fields to send or None, labels expected next),
    receives the decoded values of the next payload, and returns the fields
    of its last message (None when the peer sends the last message). Values
    kept between messages are the column's locals, or attributes that the
    column erases when it ends. An abort closes the column, so its locals
    are gone from then on.
    """

    # what a machine holds until its run sets it, kept on the class
    done = False
    aborted = False
    key: SharedKey | None = None
    delivered_message: bytes | None = None
    _expected: Sequence[str] = ()  # the labels the next payload must carry

    def __init__(
        self,
        spec: ProtocolSpec,
        cfg: ProtocolConfig,
        side: Side,
        self_id: bytes,
        peer_id: bytes,
        rng: HashDrbg,
        message: bytes | None = None,
    ):
        self.spec = spec
        self.cfg = cfg
        self.side = side
        self._starts = side is spec.starting_side  # sends the first message
        self.self_id = self_id
        self.peer_id = peer_id
        self.rng = rng
        self.message = message
        self.entropies: dict[str, EntropyValue] = {}
        self._step = 0
        self._flow = spec.column(self)

    def _entropy(self, label: str, **values: bytes) -> None:
        """Entropy value `label` by the machine's own row, the receiver chosen by side."""
        bound = self.spec.entropies[label].receiver
        receiver, names = entropy_rule(
            self.spec, self.cfg, label, self.self_id if bound is self.side else self.peer_id)
        self.entropies[label] = entropy(receiver, list(zip(names, map(values.__getitem__, names))),
                                        self.cfg.n_e)

    def advance(self, incoming: bytes | None = None) -> bytes | None:
        """Process a start signal (None) or an incoming payload.

        Returns the outgoing payload, or None when this side has nothing to
        send. On any failure it marks the machine aborted, closes the column
        and raises ProtocolError.
        """
        if self.aborted:
            raise ProtocolError("session already aborted")
        try:
            if self.done:
                raise ProtocolError("message delivered to a finished session")
            if (incoming is None) != (self._step == 0 and self._starts):
                raise ProtocolError("unexpected start signal" if incoming is None
                                    else "starting side expected a start signal")
            if self._step == 0:
                out, self._expected = next(self._flow)
            if incoming is not None:
                try:
                    values = expect_fields(incoming, self._expected)
                except ValueError as exc:
                    raise ProtocolError(f"step {self._step}: {exc}")
                out, self._expected = self._flow.send(values)
        except StopIteration as finished:
            out = finished.value
            self.done = True
        except (ProtocolError, ValueError) as exc:  # malformed elements and oversized inputs too
            self.aborted = True
            self._flow.close()
            raise exc if isinstance(exc, ProtocolError) else ProtocolError(str(exc))
        self._step += 1
        return None if out is None else encode_fields(out)

    def state_snapshot(self) -> dict:
        """Ephemeral session state, as exposed by a state-reveal query.

        Holds the machine's byte and integer attributes and the locals of
        its suspended column, with key pairs, commitments, openings and legs
        flattened into dotted names. A column that has returned or aborted
        holds no locals: session state is erased at completion.
        """
        out = {"kind": self.spec.kind.value, "side": self.side.value, "step": self._step}
        state = dict(vars(self))
        if self._flow.gi_frame is not None:
            state.update(self._flow.gi_frame.f_locals)
        for name, value in state.items():
            if name not in out:
                _reveal(name, value, out)
        return out


def _reveal(name: str, value, out: dict) -> None:
    if isinstance(value, bytes):
        out[name] = value.hex()
    elif isinstance(value, int) and not isinstance(value, bool):
        out[name] = hex(value)
    elif isinstance(value, (KeyPair, Commitment, Opening)):
        for key, inner in vars(value).items():
            _reveal(f"{name}.{key}", inner, out)
    elif isinstance(value, dict):  # a transfer's legs
        for key, inner in value.items():
            _reveal(f"{name}.{key}", inner, out)


# ---------------------------------------------------------------------------
# the 2- and 3-pass columns: kex2, kex3, kem2 and the kem3 variants
# ---------------------------------------------------------------------------

def _kex2(m: Machine):
    g = m.cfg.group
    if m.side is Side.A:
        pair = kex_keygen(g, m.rng)
        pka = g.encode_element(pair.public)
        (pkb,) = yield [("pka", pka)], ["pkb"]
        m.key = kex_agree(pair, g.decode_element(pkb), g)
        out = None
    else:
        (pka,) = yield None, ["pka"]
        peer = g.decode_element(pka)
        pair = kex_keygen(g, m.rng)
        pkb = g.encode_element(pair.public)
        m.key = kex_agree(pair, peer, g)
        out = [("pkb", pkb)]
    m._entropy("E", pka=pka, pkb=pkb, key=m.key.key)
    return out


def _kex3(m: Machine):
    """Responder commits to its public element before seeing the peer's."""
    g = m.cfg.group
    if m.side is Side.B:
        pair = kex_keygen(g, m.rng)
        pkb = g.encode_element(pair.public)
        c, d = commit(pkb, m.rng)
        (pka,) = yield [("com", c.encode())], ["pka"]
        m.key = kex_agree(pair, g.decode_element(pka), g)
        out = [("open", d.encode())]
    else:
        (raw_c,) = yield None, ["com"]
        c = Commitment(raw_c)
        pair = kex_keygen(g, m.rng)
        pka = g.encode_element(pair.public)
        (raw_d,) = yield [("pka", pka)], ["open"]
        pkb = _open(c, raw_d)
        m.key = kex_agree(pair, g.decode_element(pkb), g)
        out = None
    m._entropy("E_B", pka=pka, pkb=pkb, com=c.digest)
    return out

def _kem2(m: Machine):
    g = m.cfg.group
    if m.side is Side.A:
        pair = kem_keygen(g, m.rng)
        pk = g.encode_element(pair.public)
        (ct,) = yield [("pk", pk)], ["ct"]
        m.key = kem_decaps(pair.secret, Encapsulation.decode(ct, g), g)
        out = None
    else:
        (pk,) = yield None, ["pk"]
        encap, m.key = kem_encaps(g.decode_element(pk), g, m.cfg.kem_mode, m.rng)
        ct = encap.encode(g)
        out = [("ct", ct)]
    m._entropy("E", pk=pk, ct=ct, key=m.key.key)
    return out

def _kem3_two_entropy(m: Machine):
    """Responder commits to a nonce; two entropy values, verified together."""
    g = m.cfg.group
    if m.side is Side.B:
        n = m.rng.randbytes(NONCE_SIZE)
        c, d = commit(n, m.rng)
        (pk,) = yield [("com", c.encode())], ["pk"]
        encap, m.key = kem_encaps(g.decode_element(pk), g, m.cfg.kem_mode, m.rng)
        ct = encap.encode(g)
        out = [("ct", ct), ("open", d.encode())]
    else:
        (raw_c,) = yield None, ["com"]
        c = Commitment(raw_c)
        pair = kem_keygen(g, m.rng)
        pk = g.encode_element(pair.public)
        ct, raw_d = yield [("pk", pk)], ["ct", "open"]
        m.key = kem_decaps(pair.secret, Encapsulation.decode(ct, g), g)
        n = _open(c, raw_d)
        out = None
    m._entropy("E_B1", nonce=n, pk=pk, com=c.digest)
    m._entropy("E_B2", ct=ct, key=m.key.key)
    return out


def _kem3_commit(m: Machine):
    """Responder commits to the encapsulated secret itself.

    The commitment blinder travels encrypted under the initiator's public
    key; the initiator recomputes the secret from the encapsulation and
    aborts unless it reopens the commitment.
    """
    g = m.cfg.group
    if m.side is Side.B:
        x = random_element(g, m.rng)
        c, d = commit(g.encode_element(x), m.rng)
        (pk,) = yield [("com", c.encode())], ["pk"]
        peer = g.decode_element(pk)
        encap, m.key = kem_encaps_star(peer, x, g, m.cfg.kem_mode, m.rng)
        ctd = pke_encrypt(peer, g, d.blinder, m.rng)
        out = [("ct", encap.encode(g)), ("ctd", ctd)]
    else:
        (raw_c,) = yield None, ["com"]
        c = Commitment(raw_c)
        pair = kem_keygen(g, m.rng)
        pk = g.encode_element(pair.public)
        ct, ctd = yield [("pk", pk)], ["ct", "ctd"]
        blinder = pke_decrypt(pair.secret, g, ctd)
        x, m.key = kem_decaps_star(pair.secret, Encapsulation.decode(ct, g), g)
        if len(blinder) != 32:
            raise ProtocolError("recovered blinder has wrong length")
        if open_commitment(c, Opening(g.encode_element(x), blinder)) is REJECT:
            raise ProtocolError("decapsulated secret does not reopen the commitment")
        out = None
    m._entropy("E", pk=pk, com=c.digest, key=m.key.key)
    return out


# ---------------------------------------------------------------------------
# mt-auth, kem4 and kem6: transfer legs run from the schedule in SPECS
# ---------------------------------------------------------------------------

def _transfer(m: Machine):
    """Either side of a transfer kind, run from that side's plan (see _plan).
    A step sends its field when raw is None and takes the peer's otherwise.
    Each leg is kept under its entropy label; the value is computed once the
    opening is sent or received, on B's leg only after A has decapsulated.
    Values kept between messages are attributes, erased when the run ends."""
    m.legs = {"E_A": {}, "E_B": {}}
    m.pk = m.peer = m.pair = None  # the public key on the wire, its element, A's key pair
    try:
        out = None
        for sends, labels, steps in m.spec.plans[m.side is Side.B]:
            if sends:
                out = list(labels)
                for i, step, leg in steps:
                    out[i] = labels[i], step(m, leg, None)
            else:
                values = yield out, labels
                out = None
                for i, step, leg in steps:
                    step(m, leg, values[i])
            del i  # state_snapshot reveals a suspended column's int locals
        return out
    finally:
        m.legs = m.pk = m.peer = m.pair = None


def _pk_step(m: Machine, name: str, raw: bytes | None):
    g = m.cfg.group
    if raw is None:
        m.pair = kem_keygen(g, m.rng)
        raw = g.encode_element(m.pair.public)
    else:
        m.peer = g.decode_element(raw)
    m.pk = raw
    return raw


def _com_step(m: Machine, name: str, raw: bytes | None):
    leg = m.legs[name]
    if raw is not None:
        leg["c"] = Commitment(raw)
        return None
    if m.side is Side.A:  # the message, or a fresh value
        leg["msg"] = m.message if m.message is not None else m.rng.randbytes(NONCE_SIZE)
    else:  # an encapsulation under the pk that rode A's leg
        g = m.cfg.group
        encap, m.key = kem_encaps(m.peer, g, m.cfg.kem_mode, m.rng)
        leg["msg"] = encap.encode(g)
    leg["c"], leg["d"] = commit(leg["msg"], m.rng)
    return leg["c"].encode()


def _chal_step(m: Machine, name: str, raw: bytes | None):
    leg = m.legs[name]
    leg["chal"] = m.rng.randbytes(NONCE_SIZE) if raw is None else raw
    return leg["chal"]


def _open_step(m: Machine, name: str, raw: bytes | None):
    leg = m.legs[name]
    if raw is not None:
        leg["msg"] = _open(leg["c"], raw)
    if m.pk is None:  # no public key rode along: A's leg is the session's message
        m.key = message_key(leg["msg"])
        if raw is not None:
            m.delivered_message = leg["msg"]
    elif raw is not None and m.side is Side.A:  # B's leg: decapsulate
        g = m.cfg.group
        m.key = kem_decaps(m.pair.secret, Encapsulation.decode(leg["msg"], g), g)
    m._entropy(name, com=leg["c"].digest, chal=leg["chal"], msg=leg["msg"], pk=m.pk)
    return None if raw is not None else leg["d"].encode()


# a schedule label's prefix names its step
_STEPS = {"pk": _pk_step, "com": _com_step, "chal": _chal_step, "open": _open_step}


def _plan(spec: ProtocolSpec, side: Side) -> tuple:
    """One side's plan of a transfer schedule: per message, whether the side
    sends it, its labels, and its steps as (wire position, step, leg) in the
    order taken. A sender takes them in wire order, except that commits come
    last."""
    plan, sender = [], spec.starting_side
    for labels in spec.schedule:
        steps = [
            (i, _STEPS[label.split("_")[0]],
             "E_" + (sender.other if label.startswith("chal") else sender).value)
            for i, label in enumerate(labels)
        ]
        if sender is side:
            steps.sort(key=lambda step: labels[step[0]].startswith("com"))
        plan.append((sender is side, labels, steps))
        sender = sender.other
    return tuple(plan)


def compile_mt(inner: ProtocolKind) -> ProtocolSpec:
    """Wrap each message of the inner protocol in an authenticated transfer.

    Ships for the 2-pass encapsulation protocol only; the result is the
    6-message flow (3 messages per inner message), kem6.
    """
    if inner is not ProtocolKind.KEM2:
        raise ValueError(f"compiler supports kem2 as inner protocol, not {inner.value}")
    return SPECS[ProtocolKind.KEM6]


# ---------------------------------------------------------------------------
# the protocol catalogue
# ---------------------------------------------------------------------------

SPECS: dict[ProtocolKind, ProtocolSpec] = {spec.kind: spec for spec in (
    ProtocolSpec(
        ProtocolKind.MT_AUTH, _transfer, 3, Side.A,
        {"E_A": EntropySpec(Side.B, {"com": 1, "chal": 2, "msg": 1})},
        schedule=(("com",), ("chal",), ("open",)),
    ),
    ProtocolSpec(
        ProtocolKind.KEX2, _kex2, 2, Side.A,
        {"E": EntropySpec(Side.B, {"pka": 1, "pkb": 2, "key": "derived"})},
    ),
    ProtocolSpec(
        ProtocolKind.KEX3, _kex3, 3, Side.B,
        {"E_B": EntropySpec(Side.A, {"pka": 2, "pkb": 1, "com": 1})},
    ),
    ProtocolSpec(
        ProtocolKind.KEM2, _kem2, 2, Side.A,
        {"E": EntropySpec(None, {"pk": 1, "ct": 2, "key": "derived"})},
    ),
    ProtocolSpec(
        ProtocolKind.KEM3_TWO_ENTROPY, _kem3_two_entropy, 3, Side.B,
        {
            "E_B1": EntropySpec(Side.A, {"nonce": 1, "pk": 2, "com": 1}),
            "E_B2": EntropySpec(Side.A, {"ct": 3, "key": "derived"}, main=False),
        },
        residual_factor=3.0,
    ),
    ProtocolSpec(
        ProtocolKind.KEM3_COMMIT, _kem3_commit, 3, Side.B,
        {"E": EntropySpec(Side.A, {"pk": 2, "com": 1, "key": "derived"})},
        residual_factor=1.0,
    ),
    ProtocolSpec(
        ProtocolKind.KEM4, _transfer, 4, Side.A,
        {
            "E_A": EntropySpec(Side.B, {"com": 1, "chal": 2, "msg": 1, "pk": 1}),
            "E_B": EntropySpec(Side.A, {"com": 2, "chal": 3, "msg": 2}),
        },
        separate_rounds=True,
        schedule=(("pk", "com_m"), ("com_ct", "chal_b"), ("open_m", "chal_a"), ("open_ct",)),
    ),
    # the compiler's output: compile_mt(KEM2) returns this entry
    ProtocolSpec(
        ProtocolKind.KEM6, _transfer, 6, Side.A,
        {
            "E_A": EntropySpec(Side.B, {"com": 1, "chal": 2, "msg": 1, "pk": 1}),
            "E_B": EntropySpec(Side.A, {"com": 4, "chal": 5, "msg": 4}),
        },
        separate_rounds=True,
        schedule=(("pk", "com_m"), ("chal_b",), ("open_m",), ("com_ct",), ("chal_a",), ("open_ct",)),
    ),
)}

# a derived view for callers that only need the starting side
STARTING_SIDE = {kind: spec.starting_side for kind, spec in SPECS.items()}


def build_machine(
    kind: ProtocolKind,
    cfg: ProtocolConfig,
    side: Side,
    self_id: bytes,
    peer_id: bytes,
    rng: HashDrbg,
    message: bytes | None = None,
) -> Machine:
    return SPECS[kind].build(cfg, side, self_id, peer_id, rng, message)
