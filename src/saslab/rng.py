"""Deterministic random source used by every randomized operation.

Experiments must be bit-reproducible across platforms and Python versions,
so nothing here relies on random.Random internals. One counter-mode
SHA-256 expander, `expand`, makes every stream: the DRBG's, the KEM's hash
to a range and the PKE keystream. Child seeds are derived by hashing, which
keeps parallel trials independent and replayable.
"""

from __future__ import annotations

import hashlib


def derive_seed(seed: bytes | int, *context: bytes) -> bytes:
    """Derive a 32-byte child seed from a parent seed and context labels."""
    if isinstance(seed, int):
        seed = seed.to_bytes(8, "big")
    # SEED/v1, then the seed and each context label as [u32 length][bytes], hashed as one buffer
    parts = [b"SEED/v1"]
    for part in (seed, *context):
        parts += (len(part).to_bytes(4, "big"), part)
    return hashlib.sha256(b"".join(parts)).digest()


def expand(prefix: bytes, length: int, start: int = 0, width: int = 8, suffix: bytes = b"") -> bytes:
    """The first `length` bytes of SHA-256(prefix || counter || suffix) for counter = start,
    start + 1, ..., each counter written as `width` big-endian bytes."""
    # the first block ahead of the loop: the cheapest form for a one-block DRBG refill
    stream = hashlib.sha256(prefix + start.to_bytes(width, "big") + suffix).digest()
    while len(stream) < length:
        start += 1
        stream += hashlib.sha256(prefix + start.to_bytes(width, "big") + suffix).digest()
    return stream[:length]


class HashDrbg:
    """SHA-256 counter-mode deterministic byte/integer generator."""

    def __init__(self, seed: bytes | int):
        if isinstance(seed, int):
            seed = seed.to_bytes(8, "big", signed=False)
        self._key = hashlib.sha256(b"DRBG/v1" + seed).digest()
        self._counter = 0
        self._buffer = b""

    def randbytes(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("byte count must be non-negative")
        buffer = self._buffer
        if len(buffer) < n:  # append the next whole blocks, enough for n bytes on their own
            blocks = (n + 31) // 32
            buffer += expand(self._key, 32 * blocks, self._counter)
            self._counter += blocks
        self._buffer = buffer[n:]
        return buffer[:n]

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("upper bound must be positive")
        nbits = n.bit_length()
        nbytes = (nbits + 7) // 8
        shift = nbytes * 8 - nbits
        while True:
            candidate = int.from_bytes(self.randbytes(nbytes), "big") >> shift
            if candidate < n:
                return candidate

    def randrange(self, low: int, high: int) -> int:
        """Uniform integer in [low, high)."""
        if high <= low:
            raise ValueError("empty range")
        return low + self.randbelow(high - low)

    def randbit(self) -> int:
        return self.randbytes(1)[0] & 1
