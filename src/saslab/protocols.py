"""Protocol state machines.

Each machine implements one side (the figure's left or right column) of a
message flow as one straight-line generator that reads like the column:
it yields each outgoing message with the labels it expects back, and the
values it keeps between messages are its locals. Machine.advance drives it
on incoming payloads. Payloads are strict TLV layouts; a schema mismatch or
a rejected commitment opening aborts the session. Machines expose their session-entropy values and
session key once computed; comparing entropies is the out-of-band
verification executed by the scheduler, not by the machines.

Flows (arrows show wire messages; entropy receivers in brackets):

  mt-auth            A: com(m)  ->  B             3 msgs, E_A [B]
                     A  <-  challenge N
                     A: opening ->  B

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

  kem4               A: (pk, com(m)) -> B         4 msgs, E_A [B], E_B [A]
                     B: (com(ct), N_B) -> A
                     A: (open(m), N_A) -> B
                     B: open(ct) -> A

  kem6               compile_mt(kem2): each kem2 message wrapped in one
                     authenticated transfer, the pk riding the first in
                     clear (6 msgs, the kem4 entropies)

mt-auth, kem4 and kem6 are built from one commit / challenge / open leg.
Everything the rest of the package knows about a kind is in its SPECS entry,
kem6's included: which elements each entropy value hashes, in which order,
and whose identity it binds. session_entropy computes a value from that
entry, for the machines and the attacks alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .primitives import (
    Commitment,
    Encapsulation,
    EntropyValue,
    GroupParams,
    KemMode,
    KeyPair,
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
    values exist precisely to cover the final message.
    """

    receiver: Optional[Side]
    elements: dict
    main: bool = True


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything the package declares about one protocol kind."""

    build: Callable[..., "Machine"]
    message_count: int
    starting_side: Side  # which side sends the first wire message
    entropies: dict[str, EntropySpec]
    # verify each entropy value in its own round (mutual authentication)
    # instead of all of them, concatenated, in one
    separate_rounds: bool = False
    # residual collision term of the security argument, in units of 2^-n_e
    residual_factor: float = 2.0


class ProtocolError(Exception):
    """Schema violation, malformed element, rejected opening, or abort."""


@dataclass
class ProtocolConfig:
    group: GroupParams = TOY256
    n_e: int = 16
    kem_mode: KemMode = KemMode.DETERMINISTIC
    # kem2 only: drop the public values from the entropy input, mirroring the
    # key-only digest variant (the same-key attack target).
    kem2_key_only_entropy: bool = False
    # negative-control switch: compute entropies without receiver identities
    include_receiver_identity: bool = True


def _entropy_rule(kind: ProtocolKind, cfg: ProtocolConfig, label: str, receiver: bytes):
    """The receiver and element names, in order, that entropy value `label` of a kind's flow
    hashes: the receiver is blank where the value binds none or identities are off."""
    spec = SPECS[kind].entropies[label]
    if spec.receiver is None or not cfg.include_receiver_identity:
        receiver = b""
    key_only = cfg.kem2_key_only_entropy and kind is ProtocolKind.KEM2  # kem2's key-only profile
    return receiver, ("key",) if key_only else tuple(spec.elements)


def entropy_input(
    kind: ProtocolKind, cfg: ProtocolConfig, label: str, receiver: bytes, values: dict
) -> tuple[bytes, list[tuple[str, bytes]]]:
    """What entropy value `label` hashes first, given `values` of a leading run of its elements."""
    receiver, names = _entropy_rule(kind, cfg, label, receiver)
    if tuple(values) != names[: len(values)]:
        raise ValueError(f"{label} hashes {', '.join(names)} in order, not {', '.join(values)}")
    return receiver, list(values.items())


def session_entropy(
    kind: ProtocolKind, cfg: ProtocolConfig, label: str, receiver: bytes, values: dict
) -> EntropyValue:
    """The entropy value `label` of a kind's flow over the elements it hashes out of `values`."""
    receiver, names = _entropy_rule(kind, cfg, label, receiver)
    return entropy(receiver, [(name, values[name]) for name in names], cfg.n_e)


def _open(c: Commitment, raw_opening: bytes) -> bytes:
    value = open_commitment(c, Opening.decode(raw_opening))
    if value is REJECT:
        raise ProtocolError("commitment opening rejected")
    return value


class _Leg:
    """One authenticated transfer of a value: the sender commits, the
    receiver answers with a fresh challenge, the sender opens.

    Wire labels carry the leg's suffixes (com_m, chal_b, open_m, ...); both
    sides digest the same (com, chal, msg) elements once the leg is done.
    """

    def __init__(self, value_suffix: str = "", chal_suffix: str = ""):
        self.labels = ("com" + value_suffix, "chal" + chal_suffix, "open" + value_suffix)

    def commit(self, value: bytes, rng: HashDrbg) -> tuple[str, bytes]:
        """Sender: commit to the value."""
        self.value = value
        self.c, self.d = commit(value, rng)
        return self.labels[0], self.c.encode()

    def challenge(self, raw_c: bytes, rng: HashDrbg) -> tuple[str, bytes]:
        """Receiver: take the commitment and draw the challenge."""
        self.c = Commitment(raw_c)
        self.nonce = rng.randbytes(NONCE_SIZE)
        return self.labels[1], self.nonce

    def open(self, nonce: bytes) -> tuple[str, bytes]:
        """Sender: take the challenge and reveal the opening."""
        self.nonce = nonce
        return self.labels[2], self.d.encode()

    def receive(self, raw_opening: bytes) -> bytes:
        """Receiver: the transferred value, or an abort if it does not open."""
        self.value = _open(self.c, raw_opening)
        return self.value

    def elements(self) -> dict[str, bytes]:
        return {"com": self.c.digest, "chal": self.nonce, "msg": self.value}


class Machine:
    """One party's side of a protocol run.

    A subclass writes its side as one generator, _run(), that reads like the
    figure's column: it yields (fields to send or None, labels expected
    next), receives the decoded values of the next payload, and returns the
    fields of its last message (None when the peer sends the last message).
    Values kept between messages are the generator's locals.
    """

    kind: ProtocolKind

    def __init__(
        self,
        cfg: ProtocolConfig,
        side: Side,
        self_id: bytes,
        peer_id: bytes,
        rng: HashDrbg,
        message: bytes | None = None,
    ):
        self.cfg = cfg
        self.side = side
        self._starts = side is SPECS[self.kind].starting_side  # sends the first message
        self.self_id = self_id
        self.peer_id = peer_id
        self.rng = rng
        self.message = message
        self.done = False
        self.aborted = False
        self.entropies: dict[str, EntropyValue] = {}
        self.key: SharedKey | None = None
        self.delivered_message: bytes | None = None
        self._step = 0
        self._flow = self._run()
        self._expected: list[str] = []

    def _entropy(self, label: str, **values: bytes) -> None:
        receiver_side = SPECS[self.kind].entropies[label].receiver
        receiver = self.self_id if receiver_side is self.side else self.peer_id
        self.entropies[label] = session_entropy(self.kind, self.cfg, label, receiver, values)

    def _fail(self, reason: str):
        self.aborted = True
        raise ProtocolError(reason)

    def _expect(self, payload: bytes) -> list[bytes]:
        try:
            return expect_fields(payload, self._expected)
        except ValueError as exc:
            raise ProtocolError(f"step {self._step}: {exc}")

    def advance(self, incoming: bytes | None = None) -> bytes | None:
        """Process a start signal (None) or an incoming payload.

        Returns the outgoing payload, or None when this side has nothing to
        send. Raises ProtocolError (and marks the machine aborted) on any
        schema or verification failure.
        """
        if self.aborted:
            raise ProtocolError("session already aborted")
        if self.done:
            self._fail("message delivered to a finished session")
        if (incoming is None) != (self._step == 0 and self._starts):
            self._fail("unexpected start signal" if incoming is None
                       else "starting side expected a start signal")
        try:
            if self._step == 0:
                out, self._expected = next(self._flow)
            if incoming is not None:
                out, self._expected = self._flow.send(self._expect(incoming))
        except StopIteration as finished:
            out = finished.value
            self.done = True
        except ProtocolError:
            self.aborted = True
            raise
        except ValueError as exc:  # malformed elements and oversized inputs too
            self._fail(str(exc))
        self._step += 1
        return None if out is None else encode_fields(out)

    def state_snapshot(self) -> dict:
        """Ephemeral session state, as exposed by a state-reveal query.

        Holds the machine's byte and integer attributes and the locals of
        its suspended column, with key pairs, commitments, openings and legs
        flattened into dotted names. A column that has returned or aborted
        holds no locals: session state is erased at completion.
        """
        out = {"kind": self.kind.value, "side": self.side.value, "step": self._step}
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
    elif isinstance(value, (KeyPair, Commitment, Opening, _Leg)):
        for key, inner in vars(value).items():
            _reveal(f"{name}.{key}", inner, out)


# ---------------------------------------------------------------------------
# mt-auth
# ---------------------------------------------------------------------------

class MtAuthMachine(Machine):
    """Authenticated transfer of one message: a single leg."""

    kind = ProtocolKind.MT_AUTH

    def _run(self):
        leg = _Leg()
        if self.side is Side.A:
            m = self.message if self.message is not None else self.rng.randbytes(NONCE_SIZE)
            (nonce,) = yield [leg.commit(m, self.rng)], ["chal"]
            out = [leg.open(nonce)]
        else:
            (raw_c,) = yield None, ["com"]
            (raw_d,) = yield [leg.challenge(raw_c, self.rng)], ["open"]
            self.delivered_message = leg.receive(raw_d)
            out = None
        self._entropy("E_A", **leg.elements())
        self.key = message_key(leg.value)
        return out


# ---------------------------------------------------------------------------
# kex2 / kex3
# ---------------------------------------------------------------------------

class Kex2Machine(Machine):
    kind = ProtocolKind.KEX2

    def _run(self):
        g = self.cfg.group
        if self.side is Side.A:
            pair = kex_keygen(g, self.rng)
            pka = g.encode_element(pair.public)
            (pkb,) = yield [("pka", pka)], ["pkb"]
            self.key = kex_agree(pair, g.decode_element(pkb), g)
            out = None
        else:
            (pka,) = yield None, ["pka"]
            peer = g.decode_element(pka)
            pair = kex_keygen(g, self.rng)
            pkb = g.encode_element(pair.public)
            self.key = kex_agree(pair, peer, g)
            out = [("pkb", pkb)]
        self._entropy("E", pka=pka, pkb=pkb, key=self.key.key)
        return out


class Kex3Machine(Machine):
    """Responder commits to its public element before seeing the peer's."""

    kind = ProtocolKind.KEX3

    def _run(self):
        g = self.cfg.group
        if self.side is Side.B:
            pair = kex_keygen(g, self.rng)
            pkb = g.encode_element(pair.public)
            c, d = commit(pkb, self.rng)
            (pka,) = yield [("com", c.encode())], ["pka"]
            self.key = kex_agree(pair, g.decode_element(pka), g)
            out = [("open", d.encode())]
        else:
            (raw_c,) = yield None, ["com"]
            c = Commitment(raw_c)
            pair = kex_keygen(g, self.rng)
            pka = g.encode_element(pair.public)
            (raw_d,) = yield [("pka", pka)], ["open"]
            pkb = _open(c, raw_d)
            self.key = kex_agree(pair, g.decode_element(pkb), g)
            out = None
        self._entropy("E_B", pka=pka, pkb=pkb, com=c.digest)
        return out


# ---------------------------------------------------------------------------
# kem2
# ---------------------------------------------------------------------------

class Kem2Machine(Machine):
    kind = ProtocolKind.KEM2

    def _run(self):
        g = self.cfg.group
        if self.side is Side.A:
            pair = kem_keygen(g, self.rng)
            pk = g.encode_element(pair.public)
            (ct,) = yield [("pk", pk)], ["ct"]
            self.key = kem_decaps(pair.secret, Encapsulation.decode(ct, g), g)
            out = None
        else:
            (pk,) = yield None, ["pk"]
            encap, self.key = kem_encaps(g.decode_element(pk), g, self.cfg.kem_mode, self.rng)
            ct = encap.encode(g)
            out = [("ct", ct)]
        self._entropy("E", pk=pk, ct=ct, key=self.key.key)
        return out


# ---------------------------------------------------------------------------
# kem3 variants
# ---------------------------------------------------------------------------

class Kem3TwoEntropyMachine(Machine):
    """Responder commits to a nonce; two entropy values, verified together."""

    kind = ProtocolKind.KEM3_TWO_ENTROPY

    def _run(self):
        g = self.cfg.group
        if self.side is Side.B:
            n = self.rng.randbytes(NONCE_SIZE)
            c, d = commit(n, self.rng)
            (pk,) = yield [("com", c.encode())], ["pk"]
            encap, self.key = kem_encaps(g.decode_element(pk), g, self.cfg.kem_mode, self.rng)
            ct = encap.encode(g)
            out = [("ct", ct), ("open", d.encode())]
        else:
            (raw_c,) = yield None, ["com"]
            c = Commitment(raw_c)
            pair = kem_keygen(g, self.rng)
            pk = g.encode_element(pair.public)
            ct, raw_d = yield [("pk", pk)], ["ct", "open"]
            self.key = kem_decaps(pair.secret, Encapsulation.decode(ct, g), g)
            n = _open(c, raw_d)
            out = None
        self._entropy("E_B1", nonce=n, pk=pk, com=c.digest)
        self._entropy("E_B2", ct=ct, key=self.key.key)
        return out


class Kem3CommitMachine(Machine):
    """Responder commits to the encapsulated secret itself.

    The commitment blinder travels encrypted under the initiator's public
    key; the initiator recomputes the secret from the encapsulation and
    aborts unless it reopens the commitment.
    """

    kind = ProtocolKind.KEM3_COMMIT

    def _run(self):
        g = self.cfg.group
        if self.side is Side.B:
            x = random_element(g, self.rng)
            c, d = commit(g.encode_element(x), self.rng)
            (pk,) = yield [("com", c.encode())], ["pk"]
            peer = g.decode_element(pk)
            encap, self.key = kem_encaps_star(peer, x, g, self.cfg.kem_mode, self.rng)
            ctd = pke_encrypt(peer, g, d.blinder, self.rng)
            out = [("ct", encap.encode(g)), ("ctd", ctd)]
        else:
            (raw_c,) = yield None, ["com"]
            c = Commitment(raw_c)
            pair = kem_keygen(g, self.rng)
            pk = g.encode_element(pair.public)
            ct, ctd = yield [("pk", pk)], ["ct", "ctd"]
            blinder = pke_decrypt(pair.secret, g, ctd)
            x, self.key = kem_decaps_star(pair.secret, Encapsulation.decode(ct, g), g)
            if len(blinder) != 32:
                raise ProtocolError("recovered blinder has wrong length")
            if open_commitment(c, Opening(g.encode_element(x), blinder)) is REJECT:
                raise ProtocolError("decapsulated secret does not reopen the commitment")
            out = None
        self._entropy("E", pk=pk, com=c.digest, key=self.key.key)
        return out


# ---------------------------------------------------------------------------
# kem4 / kem6: two transfer legs, of a fresh value m from A (the public key
# riding alongside in clear) and of the encapsulation from B; they differ
# only in which leg steps travel together in one wire message
# ---------------------------------------------------------------------------

class Kem4Machine(Machine):
    """Each leg's challenge rides with the other leg's commit or open."""

    kind = ProtocolKind.KEM4

    def _run(self):
        g = self.cfg.group
        m_leg, ct_leg = _Leg("_m", "_b"), _Leg("_ct", "_a")
        if self.side is Side.A:
            pair = kem_keygen(g, self.rng)
            pk = g.encode_element(pair.public)
            com_m = m_leg.commit(self.rng.randbytes(NONCE_SIZE), self.rng)
            raw_cct, nonce_b = yield [("pk", pk), com_m], ["com_ct", "chal_b"]
            chal_a = ct_leg.challenge(raw_cct, self.rng)
            open_m = m_leg.open(nonce_b)
            self._entropy("E_A", **m_leg.elements(), pk=pk)
            (raw_dct,) = yield [open_m, chal_a], ["open_ct"]
            encap = Encapsulation.decode(ct_leg.receive(raw_dct), g)
            self.key = kem_decaps(pair.secret, encap, g)
            out = None
        else:
            pk, raw_cm = yield None, ["pk", "com_m"]
            peer = g.decode_element(pk)
            chal_b = m_leg.challenge(raw_cm, self.rng)
            encap, self.key = kem_encaps(peer, g, self.cfg.kem_mode, self.rng)
            com_ct = ct_leg.commit(encap.encode(g), self.rng)
            raw_dm, nonce_a = yield [com_ct, chal_b], ["open_m", "chal_a"]
            m_leg.receive(raw_dm)
            self._entropy("E_A", **m_leg.elements(), pk=pk)
            out = [ct_leg.open(nonce_a)]
        self._entropy("E_B", **ct_leg.elements())
        return out


# ---------------------------------------------------------------------------
# compiler: wrap each message of the 2-pass encapsulation protocol in an
# authenticated transfer
# ---------------------------------------------------------------------------

class _CompiledKem2Machine(Machine):
    """One leg per kem2 message, three wire messages each: the public key
    rides the first leg in clear, folded into that leg's entropy, and the
    encapsulation is the value of the second."""

    kind = ProtocolKind.KEM6

    def _run(self):
        g = self.cfg.group
        m_leg, ct_leg = _Leg("_m", "_b"), _Leg("_ct", "_a")
        if self.side is Side.A:
            pair = kem_keygen(g, self.rng)
            pk = g.encode_element(pair.public)
            com_m = m_leg.commit(self.rng.randbytes(NONCE_SIZE), self.rng)
            (nonce_b,) = yield [("pk", pk), com_m], ["chal_b"]
            open_m = m_leg.open(nonce_b)
            self._entropy("E_A", **m_leg.elements(), pk=pk)
            (raw_cct,) = yield [open_m], ["com_ct"]
            (raw_dct,) = yield [ct_leg.challenge(raw_cct, self.rng)], ["open_ct"]
            encap = Encapsulation.decode(ct_leg.receive(raw_dct), g)
            self.key = kem_decaps(pair.secret, encap, g)
            out = None
        else:
            pk, raw_cm = yield None, ["pk", "com_m"]
            peer = g.decode_element(pk)
            (raw_dm,) = yield [m_leg.challenge(raw_cm, self.rng)], ["open_m"]
            m_leg.receive(raw_dm)
            self._entropy("E_A", **m_leg.elements(), pk=pk)
            # leg 1 delivered: the inner protocol replies, leg 2 wraps it
            encap, self.key = kem_encaps(peer, g, self.cfg.kem_mode, self.rng)
            (nonce_a,) = yield [ct_leg.commit(encap.encode(g), self.rng)], ["chal_a"]
            out = [ct_leg.open(nonce_a)]
        self._entropy("E_B", **ct_leg.elements())
        return out


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

SPECS: dict[ProtocolKind, ProtocolSpec] = {
    ProtocolKind.MT_AUTH: ProtocolSpec(
        MtAuthMachine, 3, Side.A,
        {"E_A": EntropySpec(Side.B, {"com": 1, "chal": 2, "msg": 1})},
    ),
    ProtocolKind.KEX2: ProtocolSpec(
        Kex2Machine, 2, Side.A,
        {"E": EntropySpec(Side.B, {"pka": 1, "pkb": 2, "key": "derived"})},
    ),
    ProtocolKind.KEX3: ProtocolSpec(
        Kex3Machine, 3, Side.B,
        {"E_B": EntropySpec(Side.A, {"pka": 2, "pkb": 1, "com": 1})},
    ),
    ProtocolKind.KEM2: ProtocolSpec(
        Kem2Machine, 2, Side.A,
        {"E": EntropySpec(None, {"pk": 1, "ct": 2, "key": "derived"})},
    ),
    ProtocolKind.KEM3_TWO_ENTROPY: ProtocolSpec(
        Kem3TwoEntropyMachine, 3, Side.B,
        {
            "E_B1": EntropySpec(Side.A, {"nonce": 1, "pk": 2, "com": 1}),
            "E_B2": EntropySpec(Side.A, {"ct": 3, "key": "derived"}, main=False),
        },
        residual_factor=3.0,
    ),
    ProtocolKind.KEM3_COMMIT: ProtocolSpec(
        Kem3CommitMachine, 3, Side.B,
        {"E": EntropySpec(Side.A, {"pk": 2, "com": 1, "key": "derived"})},
        residual_factor=1.0,
    ),
    ProtocolKind.KEM4: ProtocolSpec(
        Kem4Machine, 4, Side.A,
        {
            "E_A": EntropySpec(Side.B, {"com": 1, "chal": 2, "msg": 1, "pk": 1}),
            "E_B": EntropySpec(Side.A, {"com": 2, "chal": 3, "msg": 2}),
        },
        separate_rounds=True,
    ),
    # the compiler's output: compile_mt(KEM2) returns this entry
    ProtocolKind.KEM6: ProtocolSpec(
        _CompiledKem2Machine, 6, Side.A,
        {
            "E_A": EntropySpec(Side.B, {"com": 1, "chal": 2, "msg": 1, "pk": 1}),
            "E_B": EntropySpec(Side.A, {"com": 4, "chal": 5, "msg": 4}),
        },
        separate_rounds=True,
    ),
}

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
