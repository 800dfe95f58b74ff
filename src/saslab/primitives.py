"""Cryptographic building blocks for the protocol laboratory.

Everything here is hash-backed toy cryptography over a configurable prime
group: a hash commitment scheme, finite-field key exchange, an ElGamal-style
KEM (probabilistic or de-randomized), hybrid public-key encryption for
opening blinders, and the short session-entropy digest compared during the
out-of-band verification phase.

All randomness comes from an explicit random-source argument; values are
immutable after construction. REJECT is a value, not an exception: a failed
commitment opening returns it instead of raising.

Canonical serialization (bit-exact across runs):
  - integers big-endian, length-prefixed where variable
  - group elements as big-endian bytes left-padded to the modulus width
  - entropy input = receiver-id TLV, then each element as
    [u8 label-len][label][u32 value-len][value]
"""

from __future__ import annotations

import hashlib
import struct
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .rng import HashDrbg, expand

# Domain-separation tags, recorded in the suite header so transcripts are
# replayable against the exact hash configuration that produced them.
COMMIT_TAG = "CS/v1"
KDF_TAG = "KDF/v1"
DERAND_TAG = "FO/v1"
ENTROPY_TAG = "ENT/v1"
STREAM_TAG = "STM/v1"

DIGEST_SIZE = 32
BLINDER_SIZE = 32
MAX_MESSAGE_SIZE = 1 << 16

SUITE_HEADER = {
    "suite": "saslab",
    "version": 1,
    "hash": "sha256",
    "digest_size": DIGEST_SIZE,
    "tags": {
        "commit": COMMIT_TAG,
        "kdf": KDF_TAG,
        "derand": DERAND_TAG,
        "entropy": ENTROPY_TAG,
        "stream": STREAM_TAG,
    },
}


class SizeError(ValueError):
    """Input exceeds the declared maximum size."""


class MalformedElementError(ValueError):
    """A group element or encapsulation is outside its valid range."""


class _Reject:
    """Singleton returned by a failed commitment opening (the bottom value)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "REJECT"

    def __bool__(self) -> bool:
        return False


REJECT = _Reject()


def _tagged_hash(tag: str, *parts: bytes) -> bytes:
    return hashlib.sha256(tag.encode("ascii") + b"".join(parts)).digest()


def hash_to_range(tag: str, data: bytes, upper: int) -> int:
    """Deterministic integer in [0, upper) from counter-expanded SHA-256.

    Expands 16 extra bytes past the modulus width before reduction so the
    bias is negligible even for 2048-bit moduli.
    """
    if upper <= 0:
        raise ValueError("upper bound must be positive")
    need = (upper.bit_length() + 7) // 8 + 16
    return int.from_bytes(expand(tag.encode("ascii"), need, width=4, suffix=data), "big") % upper


# ---------------------------------------------------------------------------
# Canonical TLV serialization
# ---------------------------------------------------------------------------

MAX_LABEL_HEADERS = 256


class _LabelHeaders(dict):
    """Each label's TLV header, [u8 length][label], built and checked on its
    first use. Labels are the few wire and entropy names of the protocols, so
    the map stays far below its bound; a label met past it is checked each time."""

    def __missing__(self, label: str) -> bytes:
        raw = label.encode("ascii")
        if not 0 < len(raw) < 256:
            raise ValueError("label must be 1..255 ASCII bytes")
        head = bytes([len(raw)]) + raw
        if len(self) < MAX_LABEL_HEADERS:
            self[label] = head
        return head


_LABEL_HEADERS = _LabelHeaders()


def encode_fields(fields: Sequence[tuple[str, bytes]]) -> bytes:
    parts = []
    for label, value in fields:
        try:
            parts += (_LABEL_HEADERS[label], len(value).to_bytes(4, "big"), value)
        except OverflowError:
            raise SizeError("value too long for TLV encoding") from None
    return b"".join(parts)


_U32 = struct.Struct(">I")  # a TLV value length


def decode_fields(payload: bytes) -> list[tuple[str, bytes]]:
    """Strict TLV parse; trailing or truncated bytes raise ValueError."""
    if type(payload) is not bytes:  # slices of a bytearray or view are not bytes
        payload = bytes(memoryview(payload))
    fields = []
    end = len(payload)
    pos = 0
    while pos < end:
        label_len = payload[pos]
        start = pos + 1 + label_len  # where the value length begins
        if label_len == 0 or start + 4 > end:
            raise ValueError("truncated TLV field")
        (size,) = _U32.unpack_from(payload, start)
        pos = start + 4 + size
        if pos > end:
            raise ValueError("truncated TLV value")
        fields.append((payload[start - label_len : start].decode("ascii"), payload[start + 4 : pos]))
    return fields


def expect_fields(payload: bytes, labels: Sequence[str]) -> list[bytes]:
    """Parse a payload and require exactly the given label sequence.

    One pass matches each expected label's header in place and takes its
    value; a payload that does not match exactly is parsed again by
    decode_fields, which says what is wrong with it."""
    if type(payload) is not bytes:
        payload = bytes(memoryview(payload))
    values, pos, end = [], 0, len(payload)
    for label in labels:
        head = _LABEL_HEADERS[label]
        if not payload.startswith(head, pos):
            break
        pos += len(head) + 4  # where the value begins
        if pos > end:
            break
        (size,) = _U32.unpack_from(payload, pos - 4)
        values.append(payload[pos : pos + size])
        pos += size  # past the end if the value is cut short: the check below fails
    else:
        if pos == end:
            return values
    fields = decode_fields(payload)
    if [label for label, _ in fields] != list(labels):
        raise ValueError(
            f"payload schema mismatch: expected {list(labels)}, "
            f"got {[label for label, _ in fields]}"
        )
    return [value for _, value in fields]


# ---------------------------------------------------------------------------
# Group parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupParams:
    """Multiplicative group modulo a prime, with a prime-order subgroup.

    p is the modulus, g generates the subgroup of prime order q, and
    q divides p - 1. Construction checks only the cheap structural facts;
    the primality of p and q and the order of g are the caller's contract,
    which the test suite checks for the shipped groups. element_size, the
    byte width of the canonical group-element encoding, is computed here too.
    """

    p: int
    g: int
    q: int
    name: str = "custom"

    def __post_init__(self):
        if not 1 < self.g < self.p:
            raise MalformedElementError("generator out of range")
        if self.q < 2 or (self.p - 1) % self.q != 0:
            raise MalformedElementError("subgroup order must divide p - 1")
        object.__setattr__(self, "element_size", (self.p.bit_length() + 7) // 8)

    def contains(self, x: int) -> bool:
        return 1 <= x <= self.p - 1

    # encode_element and decode_element check contains() inline
    def encode_element(self, x: int) -> bytes:
        if not 1 <= x < self.p:
            raise MalformedElementError(f"element {x} out of range")
        return x.to_bytes(self.element_size, "big")

    def decode_element(self, raw: bytes) -> int:
        if len(raw) != self.element_size:
            raise MalformedElementError("wrong element encoding length")
        x = int.from_bytes(raw, "big")
        if not 1 <= x < self.p:
            raise MalformedElementError("decoded element out of range")
        return x


# 256-bit safe prime (p = 2q + 1, q prime); g = 4 generates the order-q
# subgroup of quadratic residues. Small enough for fast attack loops.
_TOY256_P = 0xC00000000000000000000000000000000000000000000000000000000000A0EB
_TOY256_Q = (_TOY256_P - 1) // 2

# RFC 3526 group 14 (2048-bit MODP). p = 2q + 1 with q prime; p = 7 mod 8,
# so 2 is a quadratic residue and has exact order q.
_MODP2048_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
_MODP2048_Q = (_MODP2048_P - 1) // 2

TOY256 = GroupParams(p=_TOY256_P, g=4, q=_TOY256_Q, name="toy256")
MODP2048 = GroupParams(p=_MODP2048_P, g=2, q=_MODP2048_Q, name="modp2048")

GROUPS = {"toy256": TOY256, "modp2048": MODP2048}


def group_by_name(name: str) -> GroupParams:
    try:
        return GROUPS[name]
    except (KeyError, TypeError):  # TypeError: a name that cannot be a key, such as a list
        raise ValueError(f"unknown group {name!r}; choose from {sorted(GROUPS)}")


# ---------------------------------------------------------------------------
# Precomputed powers of a fixed base
# ---------------------------------------------------------------------------

# Memory allowed for one table, counted as its rows x 256 entries of
# sys.getsizeof(p) bytes each. It sizes the generator tables, which live for
# the whole process: toy256 fits at stride 1 (32 rows, 0.49 MB; with Python
# 3.11 on a 2-core Xeon VM it takes 5 ms to build and answers in 17 us
# against 147 us for pow) and modp2048 at stride 37 (7 rows, 0.54 MB; 259
# multiplications and 36 squarings per power).
TABLE_MAX_BYTES = 550_000


class PowerTable:
    """Powers of one base modulo p, precomputed for fixed-base exponentiation.

    A comb (Lim and Lee, CRYPTO '94) with teeth stride bits apart: row i,
    entry d, is the product of base^(2^(stride * (8i + k))) over the set bits
    k of d, which at stride 1 is base^(d * 2^(8i)). pow(e) makes stride passes
    over the rows, one squaring apart; pass u takes its digits from characters
    u, u + stride, ... of e's binary string, so the highest bit offset goes
    first. A larger stride trades those squarings for fewer rows. pow(e)
    equals the built-in pow(base, e, p) for every integer e: exponents outside
    [0, limit), negative ones included, go to the built-in. A table built for
    0 exponent bits has no rows and hands every exponent but 0 on.
    """

    __slots__ = ("base", "p", "stride", "limit", "_rows", "_size")

    def __init__(self, base: int, p: int, exponent_bits: int, stride: int = 1):
        self.base, self.p, self.stride = base, p, stride
        count = -(-exponent_bits // (8 * stride))
        self._size = stride * count  # exponent bytes
        self.limit = 1 << (8 * self._size)
        rows = []
        tooth = base % p
        for _ in range(count):
            row = [1]
            for _ in range(8):
                row += [x * tooth % p for x in row]
                tooth = pow(tooth, 1 << stride, p)
            rows.append(row)
        self._rows = rows

    def pow(self, e: int) -> int:
        if not 0 <= e < self.limit:
            return pow(self.base, e, self.p)
        p, rows, stride = self.p, self._rows, self.stride
        if stride == 1 or not rows:  # one pass whose digits are the bytes of e
            passes = (e.to_bytes(self._size, "little"),)
        else:
            bits = f"{e:0{8 * self._size}b}"
            passes = [int(bits[u::stride], 2).to_bytes(len(rows), "little") for u in range(stride)]
        result = 1
        for digits in passes:
            result = result * result % p
            for row, d in zip(rows, digits):
                result = result * row[d] % p
        return result


_GENERATOR_TABLES: dict[tuple[int, int], PowerTable] = {}


def generator_table(params: GroupParams) -> PowerTable:
    """The table of the group's generator, built on first use and kept per
    (p, g). It covers the exponents [0, q] at the smallest stride that keeps
    it within TABLE_MAX_BYTES."""
    key = (params.p, params.g)
    table = _GENERATOR_TABLES.get(key)
    if table is None:
        bits = params.q.bit_length()
        max_rows = max(1, TABLE_MAX_BYTES // (256 * sys.getsizeof(params.p)))
        stride = -(-bits // (8 * max_rows))
        table = _GENERATOR_TABLES[key] = PowerTable(params.g, params.p, bits, stride)
    return table


# Exponents of the elements g^e this process published as a public key or a
# c1, keyed by (p, g, element): only _keygen and kem_encaps_star publish, so
# random elements and the collision loop's candidates are never kept. Beside
# them, the shared powers g^E by E, and each encapsulation under a published
# g^e with its (e, x). A trial uses what it keeps before it ends, so 64 entries
# a map suffice: under 50 kB each on modp2048, 90 kB for the encapsulations.
REMEMBERED_EXPONENTS = 64
_EXPONENTS: dict[tuple[int, int, int], int] = {}
_POWERS: dict[tuple[int, int, int], int] = {}
_ENCAPSULATIONS: dict[tuple[int, int, int, int], tuple[int, int]] = {}


def _keep(memo: dict, key: tuple, value):
    """Insert key -> value into one of the maps above, evicting its oldest entry."""
    memo[key] = value
    if len(memo) > REMEMBERED_EXPONENTS:
        del memo[next(iter(memo))]
    return value


def _remember(params: GroupParams, e: int) -> int:
    """Publish g^e: compute it from the generator table and keep e for power."""
    element = generator_table(params).pow(e)
    _keep(_EXPONENTS, (params.p, params.g, element), e)
    return element


def power(element: int, k: int, params: GroupParams, shared: bool = False) -> int:
    """pow(element, k, p) for an element in [1, p - 1] and any integer k.

    For a remembered g^e this is g^(e*k mod (p-1)) from the generator table,
    the same value by Fermat since p is prime (the GroupParams contract). A
    shared value, one that both ends of a trial raise, is kept by exponent."""
    e = _EXPONENTS.get((params.p, params.g, element))
    if e is None:
        return pow(element, k, params.p)
    key = (params.p, params.g, e * k % (params.p - 1))
    if shared:
        return _POWERS.get(key) or _keep(_POWERS, key, generator_table(params).pow(key[2]))
    return generator_table(params).pow(key[2])


# ---------------------------------------------------------------------------
# Shared keys and key exchange
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharedKey:
    """32-byte session key derived from a group element via the KDF."""

    key: bytes

    def __post_init__(self):
        if len(self.key) != DIGEST_SIZE:
            raise ValueError("shared key must be exactly 32 bytes")


def derive_key(element: int, params: GroupParams) -> SharedKey:
    """H_key over the canonical encoding of a group element."""
    return SharedKey(_tagged_hash(KDF_TAG, params.encode_element(element)))


def message_key(message: bytes) -> SharedKey:
    """Session output for pure message-transfer runs: H_key over the message.

    Gives transfer sessions the same completion shape as key exchanges, so
    one record type and one matching test cover every protocol.
    """
    return SharedKey(
        _tagged_hash(KDF_TAG, b"MSG", len(message).to_bytes(4, "big"), message)
    )


@dataclass(frozen=True)
class KeyPair:
    secret: int
    public: int


def _keygen(params: GroupParams, rng: HashDrbg) -> KeyPair:
    secret = rng.randrange(1, params.q)
    return KeyPair(secret=secret, public=_remember(params, secret))


def random_element(params: GroupParams, rng: HashDrbg) -> int:
    """Uniform element g^e of the order-q subgroup, e drawn from [1, q]."""
    return generator_table(params).pow(rng.randrange(1, params.q + 1))


def kex_keygen(params: GroupParams, rng: HashDrbg) -> KeyPair:
    """Fresh exchange key pair: secret uniform in [1, q-1], public g^secret."""
    return _keygen(params, rng)


def kex_agree(own: KeyPair, peer_public: int, params: GroupParams) -> SharedKey:
    """Derive the shared key from a peer's public element.

    Raises MalformedElementError for elements outside [1, p-1]; both honest
    sides of an exchange derive bitwise-equal keys.
    """
    if not params.contains(peer_public):
        raise MalformedElementError("peer public element out of range")
    return derive_key(power(peer_public, own.secret, params, shared=True), params)


# ---------------------------------------------------------------------------
# ElGamal-style KEM
# ---------------------------------------------------------------------------

class KemMode(Enum):
    PROBABILISTIC = "prob"
    DETERMINISTIC = "det"


@dataclass(frozen=True)
class Encapsulation:
    """ElGamal encapsulation (c1, c2) = (g^r, x * pk^r)."""

    c1: int
    c2: int

    def encode(self, params: GroupParams) -> bytes:
        return params.encode_element(self.c1) + params.encode_element(self.c2)

    @classmethod
    def decode(cls, raw: bytes, params: GroupParams) -> "Encapsulation":
        size = params.element_size
        if len(raw) != 2 * size:
            raise MalformedElementError("wrong encapsulation length")
        return cls(
            c1=params.decode_element(raw[:size]),
            c2=params.decode_element(raw[size:]),
        )


def kem_keygen(params: GroupParams, rng: HashDrbg) -> KeyPair:
    """Fresh KEM key pair, drawn exactly as an exchange key pair."""
    return _keygen(params, rng)


def encaps_randomness(
    x: int, pk: int, params: GroupParams, mode: KemMode, rng: HashDrbg | None
) -> int:
    """The encapsulation exponent r of x under pk: hashed in deterministic
    mode, drawn from rng in probabilistic mode."""
    if mode is KemMode.DETERMINISTIC:
        # r = H_r(x || pk): the de-randomization that makes (pk, x) -> ct rigid.
        data = params.encode_element(x) + params.encode_element(pk)
        return 1 + hash_to_range(DERAND_TAG, data, params.q - 1)
    if rng is None:
        raise ValueError("probabilistic encapsulation needs a random source")
    return rng.randrange(1, params.q)


def kem_encaps_star(
    pk: int,
    x: int,
    params: GroupParams,
    mode: KemMode = KemMode.DETERMINISTIC,
    rng: HashDrbg | None = None,
) -> tuple[Encapsulation, SharedKey]:
    """Encapsulate a caller-supplied secret x under pk."""
    if not params.contains(pk):
        raise MalformedElementError("public key out of range")
    if not params.contains(x):
        raise MalformedElementError("secret element out of range")
    e = _EXPONENTS.get((params.p, params.g, pk))  # before _remember can evict pk
    r = encaps_randomness(x, pk, params, mode, rng)
    ct = Encapsulation(
        c1=_remember(params, r),
        c2=(x * power(pk, r, params, shared=True)) % params.p,
    )
    if e is not None:  # decapsulation under e gives x back exactly (kem_decaps_star)
        _keep(_ENCAPSULATIONS, (params.p, params.g, ct.c1, ct.c2), (e, x))
    return ct, derive_key(x, params)


def kem_encaps(
    pk: int, params: GroupParams, mode: KemMode, rng: HashDrbg
) -> tuple[Encapsulation, SharedKey]:
    """Encapsulate a fresh uniform subgroup element."""
    return kem_encaps_star(pk, random_element(params, rng), params, mode, rng)


def kem_decaps_star(
    sk: int, ct: Encapsulation, params: GroupParams
) -> tuple[int, SharedKey]:
    """Recover (x, K) from an encapsulation.

    Implicit-rejection style: a tampered ciphertext decapsulates to a
    different x and therefore a different key, without raising.
    """
    if not (params.contains(ct.c1) and params.contains(ct.c2)):
        raise MalformedElementError("malformed encapsulation")
    # c1^(p-1-sk) = c1^-sk for every c1 in [1, p-1] by Fermat, p being prime (the
    # GroupParams contract), and needs no modular inverse. For a ct this process
    # encapsulated under g^e that is x * g^(re) * g^(r(p-1-e)) = x when sk == e.
    e, x = _ENCAPSULATIONS.get((params.p, params.g, ct.c1, ct.c2), (None, None))
    if e != sk:
        x = ct.c2 * power(ct.c1, params.p - 1 - sk, params) % params.p
    if x == 0:
        raise MalformedElementError("degenerate encapsulation")
    return x, derive_key(x, params)


def kem_decaps(sk: int, ct: Encapsulation, params: GroupParams) -> SharedKey:
    return kem_decaps_star(sk, ct, params)[1]


# ---------------------------------------------------------------------------
# Hybrid public-key encryption (carries commitment blinders)
# ---------------------------------------------------------------------------

def _xor_stream(key: SharedKey, data: bytes) -> bytes:
    """data XOR the key's keystream, as one big-integer XOR of equal-length strings."""
    stream = expand(STREAM_TAG.encode("ascii") + key.key, len(data))
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(len(data), "big")


def pke_encrypt(
    pk: int, params: GroupParams, plaintext: bytes, rng: HashDrbg
) -> bytes:
    """Hybrid encryption: fresh probabilistic encapsulation + XOR stream."""
    if len(plaintext) > MAX_MESSAGE_SIZE:
        raise SizeError("plaintext too long")
    ct, key = kem_encaps(pk, params, KemMode.PROBABILISTIC, rng)
    return ct.encode(params) + _xor_stream(key, plaintext)


def pke_decrypt(sk: int, params: GroupParams, ciphertext: bytes) -> bytes:
    header = 2 * params.element_size
    if len(ciphertext) < header:
        raise MalformedElementError("truncated ciphertext")
    ct = Encapsulation.decode(ciphertext[:header], params)
    return _xor_stream(kem_decaps(sk, ct, params), ciphertext[header:])


# ---------------------------------------------------------------------------
# Hash commitment scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Commitment:
    """Commitment digest c = H(tag || len(m) || m || r)."""

    digest: bytes

    def __post_init__(self):
        if len(self.digest) != DIGEST_SIZE:
            raise ValueError("commitment digest must be 32 bytes")

    def encode(self) -> bytes:
        return self.digest


@dataclass(frozen=True)
class Opening:
    """Opening (m, r); valid only relative to a commitment."""

    message: bytes
    blinder: bytes

    def __post_init__(self):
        if len(self.blinder) != BLINDER_SIZE:
            raise ValueError("blinder must be 32 bytes")

    def encode(self) -> bytes:
        return len(self.message).to_bytes(4, "big") + self.message + self.blinder

    @classmethod
    def decode(cls, raw: bytes) -> "Opening":
        if len(raw) < 4 + BLINDER_SIZE:
            raise ValueError("truncated opening")
        size = int.from_bytes(raw[:4], "big")
        if len(raw) != 4 + size + BLINDER_SIZE:
            raise ValueError("opening length mismatch")
        return cls(message=raw[4 : 4 + size], blinder=raw[4 + size :])


def _commitment_digest(tag: str, message: bytes, blinder: bytes) -> bytes:
    return _tagged_hash(
        tag, len(message).to_bytes(4, "big"), message, blinder
    )


def commit(message: bytes, rng: HashDrbg) -> tuple[Commitment, Opening]:
    """Commit to a message with a fresh 32-byte uniform blinder."""
    if len(message) > MAX_MESSAGE_SIZE:
        raise SizeError("message too long to commit")
    blinder = rng.randbytes(BLINDER_SIZE)
    digest = _commitment_digest(COMMIT_TAG, message, blinder)
    return Commitment(digest), Opening(message=message, blinder=blinder)


def open_commitment(c: Commitment, d: Opening):
    """Return the committed message, or REJECT if (c, d) do not match."""
    if _commitment_digest(COMMIT_TAG, d.message, d.blinder) == c.digest:
        return d.message
    return REJECT


# ---------------------------------------------------------------------------
# Session entropy
# ---------------------------------------------------------------------------

MIN_ENTROPY_BITS = 4
MAX_ENTROPY_BITS = 64


@dataclass(frozen=True)
class EntropyValue:
    """n_e-bit session digest; equality is the out-of-band acceptance test."""

    value: int
    n_e: int

    def __post_init__(self):
        if not MIN_ENTROPY_BITS <= self.n_e <= MAX_ENTROPY_BITS:
            raise ValueError("entropy width out of range")
        if not 0 <= self.value < 1 << self.n_e:
            raise ValueError("entropy value exceeds declared width")

    def __str__(self) -> str:
        return f"{self.value:0{(self.n_e + 3) // 4}x}/{self.n_e}"


def entropy_prefix(receiver: bytes, elements: Sequence[tuple[str, bytes]]):
    """The SHA-256 state of an entropy digest after the receiver and a leading run of elements."""
    if len(receiver) > 255:
        raise SizeError("receiver identity too long")
    data = bytes([len(receiver)]) + receiver + encode_fields(elements)
    return hashlib.sha256(ENTROPY_TAG.encode("ascii") + data)


def entropy_bits(h, n_e: int) -> int:
    """The top n_e bits of a finished entropy digest."""
    return int.from_bytes(h.digest()[:8], "big") >> (64 - n_e)


def entropy(
    receiver: bytes,
    elements: Iterable[tuple[str, bytes]],
    n_e: int,
) -> EntropyValue:
    """Digest the receiver identity and the labeled session elements.

    The serialization is length-prefixed and order-significant, so element
    boundaries and ordering cannot be confused. Truncation keeps the top
    n_e bits of the digest. Protocols whose flows omit a receiver identity
    pass b"".
    """
    if not MIN_ENTROPY_BITS <= n_e <= MAX_ENTROPY_BITS:
        raise ValueError(f"entropy width must be in [{MIN_ENTROPY_BITS}, {MAX_ENTROPY_BITS}]")
    elements = list(elements)
    if len(dict(elements)) != len(elements):
        raise ValueError("duplicate entropy element label")
    return EntropyValue(entropy_bits(entropy_prefix(receiver, elements), n_e), n_e)
