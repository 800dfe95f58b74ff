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
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .rng import HashDrbg

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
    h = hashlib.sha256()
    h.update(tag.encode("ascii"))
    for part in parts:
        h.update(part)
    return h.digest()


def hash_to_range(tag: str, data: bytes, upper: int) -> int:
    """Deterministic integer in [0, upper) from counter-expanded SHA-256.

    Expands 16 extra bytes past the modulus width before reduction so the
    bias is negligible even for 2048-bit moduli.
    """
    if upper <= 0:
        raise ValueError("upper bound must be positive")
    need = (upper.bit_length() + 7) // 8 + 16
    stream = b""
    counter = 0
    while len(stream) < need:
        stream += _tagged_hash(tag, counter.to_bytes(4, "big"), data)
        counter += 1
    return int.from_bytes(stream[:need], "big") % upper


# ---------------------------------------------------------------------------
# Canonical TLV serialization
# ---------------------------------------------------------------------------

def tlv_field(label: str, value: bytes) -> bytes:
    raw = label.encode("ascii")
    if not 0 < len(raw) < 256:
        raise ValueError("label must be 1..255 ASCII bytes")
    if len(value) >= 1 << 32:
        raise SizeError("value too long for TLV encoding")
    return bytes([len(raw)]) + raw + len(value).to_bytes(4, "big") + value


def encode_fields(fields: Sequence[tuple[str, bytes]]) -> bytes:
    return b"".join(tlv_field(label, value) for label, value in fields)


def decode_fields(payload: bytes) -> list[tuple[str, bytes]]:
    """Strict TLV parse; trailing or truncated bytes raise ValueError."""
    fields = []
    view = memoryview(payload)
    pos = 0
    while pos < len(view):
        label_len = view[pos]
        pos += 1
        if label_len == 0 or pos + label_len + 4 > len(view):
            raise ValueError("truncated TLV field")
        label = bytes(view[pos : pos + label_len]).decode("ascii")
        pos += label_len
        value_len = int.from_bytes(view[pos : pos + 4], "big")
        pos += 4
        if pos + value_len > len(view):
            raise ValueError("truncated TLV value")
        fields.append((label, bytes(view[pos : pos + value_len])))
        pos += value_len
    return fields


def expect_fields(payload: bytes, labels: Sequence[str]) -> list[bytes]:
    """Parse a payload and require exactly the given label sequence."""
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

def _is_probable_prime(n: int, rounds: int = 40) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = HashDrbg(n % (1 << 64))
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class GroupParams:
    """Multiplicative group modulo a prime, with a prime-order subgroup.

    p is the modulus, g generates the subgroup of prime order q, and
    q divides p - 1. Construction checks only the cheap structural facts;
    validate() performs the full (primality-checking) validation used for
    the shipped groups.
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

    @property
    def element_size(self) -> int:
        """Byte width of the canonical group-element encoding."""
        return (self.p.bit_length() + 7) // 8

    def contains(self, x: int) -> bool:
        return 1 <= x <= self.p - 1

    def in_subgroup(self, x: int) -> bool:
        return self.contains(x) and pow(x, self.q, self.p) == 1

    def validate(self) -> None:
        if not _is_probable_prime(self.p):
            raise MalformedElementError("modulus is not prime")
        if not _is_probable_prime(self.q):
            raise MalformedElementError("subgroup order is not prime")
        if pow(self.g, self.q, self.p) != 1 or self.g == 1:
            raise MalformedElementError("generator does not have order q")

    def encode_element(self, x: int) -> bytes:
        if not self.contains(x):
            raise MalformedElementError(f"element {x} out of range")
        return x.to_bytes(self.element_size, "big")

    def decode_element(self, raw: bytes) -> int:
        if len(raw) != self.element_size:
            raise MalformedElementError("wrong element encoding length")
        x = int.from_bytes(raw, "big")
        if not self.contains(x):
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
    except KeyError:
        raise ValueError(f"unknown group {name!r}; choose from {sorted(GROUPS)}")


# ---------------------------------------------------------------------------
# Precomputed powers of a fixed base
# ---------------------------------------------------------------------------

# Exponent bits per table row. With Python 3.11 on a 2-core Xeon VM a
# toy256 table takes 2.4 ms and 0.18 MB to build at width 6 and answers in
# 37 us against 171 us for pow; width 8 answers in 27 us but takes 0.56 MB.
TABLE_WIDTH = 6
# Larger moduli keep the built-in pow: on the same machine a 2048-bit table
# at width 4 takes 150 ms and 2.4 MB to build, which every run on such a
# group would pay in set-up time and peak memory.
TABLE_MAX_MODULUS_BITS = 256


class PowerTable:
    """Powers of one base modulo p, precomputed for fixed-base exponentiation.

    Row i holds base^(d * 2^(width * i)) for every width-bit digit d, so an
    exponent below limit costs one multiplication per row and no squaring
    (Brickell, Gordon, McCurley and Wilson, EUROCRYPT '92). pow(e) equals
    the built-in pow(base, e, p) for every integer e: exponents outside
    [0, limit), negative ones included, go to the built-in. A table built
    for 0 exponent bits has no rows and hands every exponent but 0 on.
    """

    __slots__ = ("base", "p", "width", "limit", "_rows")

    def __init__(self, base: int, p: int, exponent_bits: int, width: int = TABLE_WIDTH):
        self.base, self.p, self.width = base, p, width
        count = -(-exponent_bits // width)
        self.limit = 1 << (width * count)
        rows = []
        power = base % p
        for _ in range(count):
            row = [1]
            for _ in range((1 << width) - 1):
                row.append(row[-1] * power % p)
            rows.append(row)
            power = row[-1] * power % p
        self._rows = rows

    def pow(self, e: int) -> int:
        if not 0 <= e < self.limit:
            return pow(self.base, e, self.p)
        p, width, mask = self.p, self.width, (1 << self.width) - 1
        result = 1
        for row in self._rows:
            result = result * row[e & mask] % p
            e >>= width
        return result


def power_table(params: GroupParams, base: int) -> PowerTable:
    """A table of base covering the group's exponents [0, q]; an empty one
    above TABLE_MAX_MODULUS_BITS."""
    tabled = params.p.bit_length() <= TABLE_MAX_MODULUS_BITS
    return PowerTable(base, params.p, params.q.bit_length() if tabled else 0)


_GENERATOR_TABLES: dict[tuple[int, int], PowerTable] = {}


def generator_table(params: GroupParams) -> PowerTable:
    """The table of the group's generator, built on first use and kept per (p, g)."""
    key = (params.p, params.g)
    table = _GENERATOR_TABLES.get(key)
    if table is None:
        table = _GENERATOR_TABLES[key] = power_table(params, params.g)
    return table


def _as_table(element: int | PowerTable, params: GroupParams) -> PowerTable:
    """A peer element as a table: the caller's own, or an empty one."""
    if not isinstance(element, PowerTable):
        return PowerTable(element, params.p, 0)
    if element.p != params.p:
        raise ValueError("power table built for another modulus")
    return element


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
    return KeyPair(secret=secret, public=generator_table(params).pow(secret))


def random_element(params: GroupParams, rng: HashDrbg) -> int:
    """Uniform element g^e of the order-q subgroup, e drawn from [1, q]."""
    return generator_table(params).pow(rng.randrange(1, params.q + 1))


def kex_keygen(params: GroupParams, rng: HashDrbg) -> KeyPair:
    """Fresh exchange key pair: secret uniform in [1, q-1], public g^secret."""
    return _keygen(params, rng)


def kex_agree(
    own: KeyPair, peer_public: int | PowerTable, params: GroupParams
) -> SharedKey:
    """Derive the shared key from a peer's public element, given as an int
    or as its power table.

    Raises MalformedElementError for elements outside [1, p-1]; both honest
    sides of an exchange derive bitwise-equal keys.
    """
    peer = _as_table(peer_public, params)
    if not params.contains(peer.base):
        raise MalformedElementError("peer public element out of range")
    return derive_key(peer.pow(own.secret), params)


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


def _encaps_randomness(
    x: int, pk: int, params: GroupParams, mode: KemMode, rng: HashDrbg | None
) -> int:
    if mode is KemMode.DETERMINISTIC:
        # r = H_r(x || pk): the de-randomization that makes (pk, x) -> ct rigid.
        data = params.encode_element(x) + params.encode_element(pk)
        return 1 + hash_to_range(DERAND_TAG, data, params.q - 1)
    if rng is None:
        raise ValueError("probabilistic encapsulation needs a random source")
    return rng.randrange(1, params.q)


def kem_encaps_star(
    pk: int | PowerTable,
    x: int,
    params: GroupParams,
    mode: KemMode = KemMode.DETERMINISTIC,
    rng: HashDrbg | None = None,
) -> tuple[Encapsulation, SharedKey]:
    """Encapsulate a caller-supplied secret x under pk, given as an int or
    as its power table."""
    pk = _as_table(pk, params)
    if not params.contains(pk.base):
        raise MalformedElementError("public key out of range")
    if not params.contains(x):
        raise MalformedElementError("secret element out of range")
    r = _encaps_randomness(x, pk.base, params, mode, rng)
    ct = Encapsulation(
        c1=generator_table(params).pow(r),
        c2=(x * pk.pow(r)) % params.p,
    )
    return ct, derive_key(x, params)


def kem_encaps(
    pk: int | PowerTable,
    params: GroupParams,
    mode: KemMode,
    rng: HashDrbg,
) -> tuple[Encapsulation, SharedKey, int]:
    """Encapsulate a fresh uniform subgroup element.

    The secret x is returned alongside the key: the attack strategies need
    the starred Encaps/Decaps interface, and protocol code simply ignores it.
    """
    x = random_element(params, rng)
    ct, key = kem_encaps_star(pk, x, params, mode, rng)
    return ct, key, x


def kem_decaps_star(
    sk: int, ct: Encapsulation, params: GroupParams
) -> tuple[int, SharedKey]:
    """Recover (x, K) from an encapsulation.

    Implicit-rejection style: a tampered ciphertext decapsulates to a
    different x and therefore a different key, without raising.
    """
    if not (params.contains(ct.c1) and params.contains(ct.c2)):
        raise MalformedElementError("malformed encapsulation")
    x = (ct.c2 * pow(pow(ct.c1, sk, params.p), -1, params.p)) % params.p
    if x == 0:
        raise MalformedElementError("degenerate encapsulation")
    return x, derive_key(x, params)


def kem_decaps(sk: int, ct: Encapsulation, params: GroupParams) -> SharedKey:
    return kem_decaps_star(sk, ct, params)[1]


# ---------------------------------------------------------------------------
# Hybrid public-key encryption (carries commitment blinders)
# ---------------------------------------------------------------------------

def _keystream(key: SharedKey, length: int) -> bytes:
    stream = b""
    counter = 0
    while len(stream) < length:
        stream += _tagged_hash(STREAM_TAG, key.key, counter.to_bytes(8, "big"))
        counter += 1
    return stream[:length]


def pke_encrypt(
    pk: int, params: GroupParams, plaintext: bytes, rng: HashDrbg
) -> bytes:
    """Hybrid encryption: fresh probabilistic encapsulation + XOR stream."""
    if len(plaintext) > MAX_MESSAGE_SIZE:
        raise SizeError("plaintext too long")
    ct, key, _ = kem_encaps(pk, params, KemMode.PROBABILISTIC, rng)
    body = bytes(a ^ b for a, b in zip(plaintext, _keystream(key, len(plaintext))))
    return ct.encode(params) + body


def pke_decrypt(sk: int, params: GroupParams, ciphertext: bytes) -> bytes:
    header = 2 * params.element_size
    if len(ciphertext) < header:
        raise MalformedElementError("truncated ciphertext")
    ct = Encapsulation.decode(ciphertext[:header], params)
    key = kem_decaps(sk, ct, params)
    body = ciphertext[header:]
    return bytes(a ^ b for a, b in zip(body, _keystream(key, len(body))))


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

    @property
    def bits(self) -> bytes:
        """Value as bytes, unused high bits zero."""
        return self.value.to_bytes((self.n_e + 7) // 8, "big")

    def __str__(self) -> str:
        return f"{self.value:0{(self.n_e + 3) // 4}x}/{self.n_e}"


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
    labels = [label for label, _ in elements]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate entropy element label")
    if len(receiver) > 255:
        raise SizeError("receiver identity too long")
    data = bytes([len(receiver)]) + receiver + encode_fields(elements)
    digest = _tagged_hash(ENTROPY_TAG, data)
    value = int.from_bytes(digest[:8], "big") >> (64 - n_e)
    return EntropyValue(value=value, n_e=n_e)
