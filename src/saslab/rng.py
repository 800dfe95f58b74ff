"""Deterministic random source used by every randomized operation.

Experiments must be bit-reproducible across platforms and Python versions,
so nothing here relies on random.Random internals. The generator is a
SHA-256 counter-mode DRBG; child seeds are derived by hashing, which keeps
parallel trials independent and replayable.
"""

from __future__ import annotations

import hashlib


def derive_seed(seed: bytes | int, *context: bytes) -> bytes:
    """Derive a 32-byte child seed from a parent seed and context labels."""
    if isinstance(seed, int):
        seed = seed.to_bytes(8, "big")
    h = hashlib.sha256(b"SEED/v1")
    h.update(len(seed).to_bytes(4, "big"))
    h.update(seed)
    for part in context:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h.digest()


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
        while len(self._buffer) < n:
            block = hashlib.sha256(
                self._key + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

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
