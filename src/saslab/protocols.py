"""Protocol state machines.

Each machine implements one side (the figure's left or right column) of a
message flow, advancing on incoming payloads and emitting outgoing ones.
Payloads are strict TLV layouts; a schema mismatch or a rejected commitment
opening aborts the session. Machines expose their session-entropy values and
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
Everything the rest of the package knows about a kind is in its SPECS entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .primitives import (
    Commitment,
    Encapsulation,
    EntropyValue,
    GroupParams,
    KemMode,
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
    carries no receiver identity). elements maps each input element to the
    message index (1-based) at which it becomes determined, or "derived" for
    values computed from earlier ones. A main value must not depend on
    anything determined only by the final message; secondary values exist
    precisely to cover the final message.
    """

    receiver: Optional[Side]
    elements: dict
    main: bool = True


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything the package declares about one protocol kind."""

    machine: Callable[..., "Machine"]
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


def kex2_elements(pka: bytes, pkb: bytes, key: SharedKey) -> list[tuple[str, bytes]]:
    """Entropy input of the 2-pass exchange, over encoded public elements."""
    return [("pka", pka), ("pkb", pkb), ("key", key.key)]


def kem2_elements(
    cfg: ProtocolConfig, pk: bytes, ct: bytes, key: SharedKey
) -> list[tuple[str, bytes]]:
    """Entropy input of the 2-pass encapsulation, over the encoded pk and ct."""
    if cfg.kem2_key_only_entropy:
        return [("key", key.key)]
    return [("pk", pk), ("ct", ct), ("key", key.key)]


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

    def elements(self, *extras: tuple[str, bytes]) -> list[tuple[str, bytes]]:
        return [("com", self.c.digest), ("chal", self.nonce), ("msg", self.value), *extras]


class Machine:
    """One party's state machine for a protocol run."""

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

    # -- helpers -----------------------------------------------------------

    def _entropy(self, label: str, elements: list[tuple[str, bytes]]) -> None:
        receiver_side = SPECS[self.kind].entropies[label].receiver
        if receiver_side is None or not self.cfg.include_receiver_identity:
            receiver = b""
        else:
            receiver = self.self_id if receiver_side is self.side else self.peer_id
        self.entropies[label] = entropy(receiver, elements, self.cfg.n_e)

    def _fail(self, reason: str):
        self.aborted = True
        raise ProtocolError(reason)

    def _expect(self, payload: bytes, labels: list[str]) -> list[bytes]:
        try:
            return expect_fields(payload, labels)
        except ValueError as exc:
            raise ProtocolError(f"step {self._step}: {exc}")

    # -- public surface ----------------------------------------------------

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
        starts = self._step == 0 and self.side is SPECS[self.kind].starting_side
        if incoming is None and not starts:
            self._fail("unexpected start signal")
        if incoming is not None and starts:
            self._fail("starting side expected a start signal")
        try:
            out = self._advance(incoming)
        except ProtocolError:
            self.aborted = True
            raise
        except ValueError as exc:  # malformed elements and oversized inputs too
            self._fail(str(exc))
        self._step += 1
        return out

    def _advance(self, incoming: bytes | None) -> bytes | None:
        raise NotImplementedError

    def state_snapshot(self) -> dict:
        """Ephemeral session state, as exposed by a state-reveal query."""
        skip = {"cfg", "rng", "entropies"}
        out = {"kind": self.kind.value, "side": self.side.value, "step": self._step}
        state = dict(self.__dict__)
        for name, value in self.__dict__.items():
            if isinstance(value, _Leg):
                state.update((f"{name}.{k}", v) for k, v in vars(value).items())
        for name, value in state.items():
            if name in skip or name in out:
                continue
            if isinstance(value, bytes):
                out[name] = value.hex()
            elif isinstance(value, int) and not isinstance(value, bool):
                out[name] = hex(value)
        return out


# ---------------------------------------------------------------------------
# mt-auth
# ---------------------------------------------------------------------------

class MtAuthMachine(Machine):
    """Authenticated transfer of one message: a single leg."""

    kind = ProtocolKind.MT_AUTH

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._leg = _Leg()

    def _advance(self, incoming):
        if self._step == 0:
            if self.side is Side.A:
                m = self.message if self.message is not None else self.rng.randbytes(NONCE_SIZE)
                return encode_fields([self._leg.commit(m, self.rng)])
            (raw_c,) = self._expect(incoming, ["com"])
            return encode_fields([self._leg.challenge(raw_c, self.rng)])
        out = None
        if self.side is Side.A:
            (raw_n,) = self._expect(incoming, ["chal"])
            out = encode_fields([self._leg.open(raw_n)])
        else:
            (raw_d,) = self._expect(incoming, ["open"])
            self.delivered_message = self._leg.receive(raw_d)
        self._entropy("E_A", self._leg.elements())
        self.key = message_key(self._leg.value)
        self.done = True
        return out


# ---------------------------------------------------------------------------
# kex2 / kex3
# ---------------------------------------------------------------------------

class Kex2Machine(Machine):
    kind = ProtocolKind.KEX2

    def _advance(self, incoming):
        g = self.cfg.group
        if self.side is Side.A:
            if self._step == 0:
                self._pair = kex_keygen(g, self.rng)
                return encode_fields([("pka", g.encode_element(self._pair.public))])
            (raw,) = self._expect(incoming, ["pkb"])
            self.key = kex_agree(self._pair, g.decode_element(raw), g)
            self._entropy("E", kex2_elements(g.encode_element(self._pair.public), raw, self.key))
            self.done = True
            return None
        (raw,) = self._expect(incoming, ["pka"])
        pka = g.decode_element(raw)
        self._pair = kex_keygen(g, self.rng)
        pkb = g.encode_element(self._pair.public)
        self.key = kex_agree(self._pair, pka, g)
        self._entropy("E", kex2_elements(raw, pkb, self.key))
        self.done = True
        return encode_fields([("pkb", pkb)])


class Kex3Machine(Machine):
    """Responder commits to its public element before seeing the peer's."""

    kind = ProtocolKind.KEX3

    def _kex3_entropy(self, pka: bytes, pkb: bytes):
        self._entropy("E_B", [("pka", pka), ("pkb", pkb), ("com", self._c.digest)])

    def _advance(self, incoming):
        g = self.cfg.group
        if self.side is Side.B:
            if self._step == 0:
                self._pair = kex_keygen(g, self.rng)
                self._c, self._d = commit(g.encode_element(self._pair.public), self.rng)
                return encode_fields([("com", self._c.encode())])
            (raw,) = self._expect(incoming, ["pka"])
            self.key = kex_agree(self._pair, g.decode_element(raw), g)
            self._kex3_entropy(raw, g.encode_element(self._pair.public))
            self.done = True
            return encode_fields([("open", self._d.encode())])
        # Side.A
        if self._step == 0:
            (raw_c,) = self._expect(incoming, ["com"])
            self._c = Commitment(raw_c)
            self._pair = kex_keygen(g, self.rng)
            return encode_fields([("pka", g.encode_element(self._pair.public))])
        (raw_d,) = self._expect(incoming, ["open"])
        pkb = _open(self._c, raw_d)
        self.key = kex_agree(self._pair, g.decode_element(pkb), g)
        self._kex3_entropy(g.encode_element(self._pair.public), pkb)
        self.done = True
        return None


# ---------------------------------------------------------------------------
# kem2
# ---------------------------------------------------------------------------

class Kem2Machine(Machine):
    kind = ProtocolKind.KEM2

    def _advance(self, incoming):
        g = self.cfg.group
        if self.side is Side.A:
            if self._step == 0:
                self._pair = kem_keygen(g, self.rng)
                return encode_fields([("pk", g.encode_element(self._pair.public))])
            (raw,) = self._expect(incoming, ["ct"])
            self.key = kem_decaps(self._pair.secret, Encapsulation.decode(raw, g), g)
            pk = g.encode_element(self._pair.public)
            self._entropy("E", kem2_elements(self.cfg, pk, raw, self.key))
            self.done = True
            return None
        (raw,) = self._expect(incoming, ["pk"])
        pk = g.decode_element(raw)
        ct, self.key, self._x = kem_encaps(pk, g, self.cfg.kem_mode, self.rng)
        ct_raw = ct.encode(g)
        self._entropy("E", kem2_elements(self.cfg, raw, ct_raw, self.key))
        self.done = True
        return encode_fields([("ct", ct_raw)])


# ---------------------------------------------------------------------------
# kem3 variants
# ---------------------------------------------------------------------------

class Kem3TwoEntropyMachine(Machine):
    """Responder commits to a nonce; two entropy values, verified together."""

    kind = ProtocolKind.KEM3_TWO_ENTROPY

    def _entropy_pair(self, n: bytes, pk: int, ct: Encapsulation):
        g = self.cfg.group
        self._entropy(
            "E_B1",
            [("nonce", n), ("pk", g.encode_element(pk)), ("com", self._c.digest)],
        )
        self._entropy("E_B2", [("ct", ct.encode(g)), ("key", self.key.key)])

    def _advance(self, incoming):
        g = self.cfg.group
        if self.side is Side.B:
            if self._step == 0:
                self._n = self.rng.randbytes(NONCE_SIZE)
                self._c, self._d = commit(self._n, self.rng)
                return encode_fields([("com", self._c.encode())])
            (raw,) = self._expect(incoming, ["pk"])
            pk = g.decode_element(raw)
            ct, self.key, _ = kem_encaps(pk, g, self.cfg.kem_mode, self.rng)
            self._entropy_pair(self._n, pk, ct)
            self.done = True
            return encode_fields([("ct", ct.encode(g)), ("open", self._d.encode())])
        # Side.A
        if self._step == 0:
            (raw_c,) = self._expect(incoming, ["com"])
            self._c = Commitment(raw_c)
            self._pair = kem_keygen(g, self.rng)
            return encode_fields([("pk", g.encode_element(self._pair.public))])
        raw_ct, raw_d = self._expect(incoming, ["ct", "open"])
        ct = Encapsulation.decode(raw_ct, g)
        self.key = kem_decaps(self._pair.secret, ct, g)
        self._entropy_pair(_open(self._c, raw_d), self._pair.public, ct)
        self.done = True
        return None


class Kem3CommitMachine(Machine):
    """Responder commits to the encapsulated secret itself.

    The commitment blinder travels encrypted under the initiator's public
    key; the initiator recomputes the secret from the encapsulation and
    aborts unless it reopens the commitment.
    """

    kind = ProtocolKind.KEM3_COMMIT

    def _commit_entropy(self, pk: int):
        g = self.cfg.group
        self._entropy(
            "E",
            [("pk", g.encode_element(pk)), ("com", self._c.digest), ("key", self.key.key)],
        )

    def _advance(self, incoming):
        g = self.cfg.group
        if self.side is Side.B:
            if self._step == 0:
                self._x = random_element(g, self.rng)
                self._c, self._d = commit(g.encode_element(self._x), self.rng)
                return encode_fields([("com", self._c.encode())])
            (raw,) = self._expect(incoming, ["pk"])
            pk = g.decode_element(raw)
            ct, self.key = kem_encaps_star(pk, self._x, g, self.cfg.kem_mode, self.rng)
            ct_d = pke_encrypt(pk, g, self._d.blinder, self.rng)
            self._commit_entropy(pk)
            self.done = True
            return encode_fields([("ct", ct.encode(g)), ("ctd", ct_d)])
        # Side.A
        if self._step == 0:
            (raw_c,) = self._expect(incoming, ["com"])
            self._c = Commitment(raw_c)
            self._pair = kem_keygen(g, self.rng)
            return encode_fields([("pk", g.encode_element(self._pair.public))])
        raw_ct, raw_ctd = self._expect(incoming, ["ct", "ctd"])
        blinder = pke_decrypt(self._pair.secret, g, raw_ctd)
        ct = Encapsulation.decode(raw_ct, g)
        x, self.key = kem_decaps_star(self._pair.secret, ct, g)
        if len(blinder) != 32:
            raise ProtocolError("recovered blinder has wrong length")
        reopened = open_commitment(self._c, Opening(g.encode_element(x), blinder))
        if reopened is REJECT:
            raise ProtocolError("decapsulated secret does not reopen the commitment")
        self._commit_entropy(self._pair.public)
        self.done = True
        return None


# ---------------------------------------------------------------------------
# kem4 / kem6: two transfer legs, of a fresh value m from A (the public key
# riding alongside in clear) and of the encapsulation from B
# ---------------------------------------------------------------------------

class _KemLegs(Machine):
    """The steps kem4 and kem6 share; they differ only in which steps
    travel together in one wire message."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._m_leg, self._ct_leg = _Leg("_m", "_b"), _Leg("_ct", "_a")

    def _send_pk(self) -> list[tuple[str, bytes]]:
        """A: key pair, and a commitment to a fresh m to authenticate it."""
        g = self.cfg.group
        self._pair = kem_keygen(g, self.rng)
        self._pk_raw = g.encode_element(self._pair.public)
        m = self.rng.randbytes(NONCE_SIZE)
        return [("pk", self._pk_raw), self._m_leg.commit(m, self.rng)]

    def _receive_pk(self, incoming: bytes) -> tuple[str, bytes]:
        """B: take the public key and challenge the commitment to m."""
        self._pk_raw, raw_cm = self._expect(incoming, ["pk", "com_m"])
        self._pk = self.cfg.group.decode_element(self._pk_raw)
        return self._m_leg.challenge(raw_cm, self.rng)

    def _m_entropy(self) -> None:
        self._entropy("E_A", self._m_leg.elements(("pk", self._pk_raw)))

    def _encapsulate(self) -> tuple[str, bytes]:
        """B: encapsulate under the received key and commit to the result."""
        g = self.cfg.group
        ct, self.key, _ = kem_encaps(self._pk, g, self.cfg.kem_mode, self.rng)
        return self._ct_leg.commit(ct.encode(g), self.rng)

    def _finish(self) -> None:
        self._entropy("E_B", self._ct_leg.elements())
        self.done = True

    def _decapsulate(self, incoming: bytes) -> None:
        """A, last step: open the encapsulation and derive the key."""
        g = self.cfg.group
        (raw_dct,) = self._expect(incoming, ["open_ct"])
        ct = Encapsulation.decode(self._ct_leg.receive(raw_dct), g)
        self.key = kem_decaps(self._pair.secret, ct, g)
        self._finish()


class Kem4Machine(_KemLegs):
    """Each leg's challenge rides with the other leg's commit or open."""

    kind = ProtocolKind.KEM4

    def _advance(self, incoming):
        if self.side is Side.A:
            if self._step == 0:
                return encode_fields(self._send_pk())
            if self._step == 1:
                raw_cct, raw_nb = self._expect(incoming, ["com_ct", "chal_b"])
                chal = self._ct_leg.challenge(raw_cct, self.rng)
                opening = self._m_leg.open(raw_nb)
                self._m_entropy()
                return encode_fields([opening, chal])
            return self._decapsulate(incoming)
        if self._step == 0:
            chal = self._receive_pk(incoming)
            return encode_fields([self._encapsulate(), chal])
        raw_dm, raw_na = self._expect(incoming, ["open_m", "chal_a"])
        self._m_leg.receive(raw_dm)
        self._m_entropy()
        opening = self._ct_leg.open(raw_na)
        self._finish()
        return encode_fields([opening])


# ---------------------------------------------------------------------------
# compiler: wrap each message of the 2-pass encapsulation protocol in an
# authenticated transfer
# ---------------------------------------------------------------------------

@dataclass
class CompiledProtocol:
    inner: ProtocolKind
    message_count: int
    build: Callable[..., Machine] = field(repr=False)


class _CompiledKem2Machine(_KemLegs):
    """One leg per kem2 message, three wire messages each: the public key
    rides the first leg in clear, folded into that leg's entropy, and the
    encapsulation is the value of the second."""

    kind = ProtocolKind.KEM6

    def _advance(self, incoming):
        if self.side is Side.A:
            if self._step == 0:
                return encode_fields(self._send_pk())
            if self._step == 1:
                (raw_nb,) = self._expect(incoming, ["chal_b"])
                opening = self._m_leg.open(raw_nb)
                self._m_entropy()
                return encode_fields([opening])
            if self._step == 2:
                (raw_cct,) = self._expect(incoming, ["com_ct"])
                return encode_fields([self._ct_leg.challenge(raw_cct, self.rng)])
            return self._decapsulate(incoming)
        if self._step == 0:
            return encode_fields([self._receive_pk(incoming)])
        if self._step == 1:
            (raw_dm,) = self._expect(incoming, ["open_m"])
            self._m_leg.receive(raw_dm)
            self._m_entropy()
            # leg 1 delivered: the inner protocol replies, leg 2 wraps it
            return encode_fields([self._encapsulate()])
        (raw_na,) = self._expect(incoming, ["chal_a"])
        opening = self._ct_leg.open(raw_na)
        self._finish()
        return encode_fields([opening])


def compile_mt(inner: ProtocolKind) -> CompiledProtocol:
    """Wrap each message of the inner protocol in an authenticated transfer.

    Ships for the 2-pass encapsulation protocol only; the result is the
    6-message flow (3 messages per inner message), registered as kem6.
    """
    if inner is not ProtocolKind.KEM2:
        raise ValueError(f"compiler supports kem2 as inner protocol, not {inner.value}")
    return CompiledProtocol(
        inner=inner,
        message_count=3 * SPECS[inner].message_count,
        build=_CompiledKem2Machine,
    )


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
}
# kem6 is the compiler's output, registered once kem2, which it wraps, is in
_KEM6 = compile_mt(ProtocolKind.KEM2)
SPECS[ProtocolKind.KEM6] = ProtocolSpec(
    _KEM6.build, _KEM6.message_count, Side.A,
    {
        "E_A": EntropySpec(Side.B, {"com": 1, "chal": 2, "msg": 1, "pk": 1}),
        "E_B": EntropySpec(Side.A, {"com": 4, "chal": 5, "msg": 4}),
    },
    separate_rounds=True,
)

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
    return SPECS[kind].machine(cfg, side, self_id, peer_id, rng, message)
