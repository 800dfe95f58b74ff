"""A fixed CPU loop that measures how fast the machine runs right now.

The shared 2-core VM the benchmark was built on drifts in speed by about
±15% over minutes, more for interpreter-heavy code than for big-integer
arithmetic. Timing metrics are therefore reported at a reference speed: each
run times this loop between its rounds (and after each set-up), and scales
its wall times by REFERENCE_S / (measured time of one slice). The loop mixes
the two kinds of work saslab does, interpreted byte and dict handling with
SHA-256, and 256-bit modular exponentiation, and it uses no saslab code, so a
change to saslab moves the scaled metrics exactly as it moves wall time.
"""

from __future__ import annotations

import hashlib
import time

# one slice on the machine of the first baseline; fixed, so that scaled
# times from different runs and commits are comparable
REFERENCE_S = 0.020

_P = 0xC00000000000000000000000000000000000000000000000000000000000A0EB


def _interpreted() -> None:
    table = {}
    for i in range(300):
        key = i.to_bytes(8, "big")
        table[key] = hashlib.sha256(key + b"x" * 40).digest()[:8]
        table[key] = bytes([key[j] for j in range(8)]) + table[key]


def _modexp() -> None:
    x = 5
    for i in range(20):
        x = pow(x, _P - 2 - i, _P)


def run_slice() -> float:
    """Seconds one calibration slice took."""
    started = time.perf_counter()
    for _ in range(10):
        _interpreted()
    for _ in range(5):
        _modexp()
    return time.perf_counter() - started


def scale(slices: list[float]) -> float:
    """Factor that turns wall times measured alongside these slices into
    times at the reference speed."""
    return REFERENCE_S * len(slices) / sum(slices)
