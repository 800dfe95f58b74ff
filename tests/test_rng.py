"""Pinned outputs of the seed derivation and the DRBG.

Every seeded result of the package (trial seeds, party streams, reports)
flows from these two functions, so their bytes are frozen here: a change
to how they hash must leave each vector as it is.
"""

import pytest

import hashlib

from saslab.rng import HashDrbg, derive_seed, expand

SEED_VECTORS = [
    ((7,), "4c99d8b928eca69602a1dab981c2ec427131cd51fa912aca470d2c7503bb980d"),
    ((b"seed-bytes",), "0175f94cab3db9128ae2bbde1e9611b8b5657714250a9148d4520f03b4c86553"),
    (
        (7, b"trial", (3).to_bytes(8, "big")),
        "e2625eae03ee5a11081f386f97f9c8955662cf593ef99d869a6b20cdc5f4a80c",
    ),
    ((b"", b"a", b"", b"ccc"), "0590150fbcf5cb69dcf672abfe1f5fa235a08300f5ed13265dcc2204d8ea4e73"),
    (((1 << 64) - 1, b"x" * 70), "7f255a6a229ea709057b94eb3948c1f35472e93d6dba1459a4c4a7d3e6fffa7c"),
]

DRBG_VECTORS = [
    (
        7,
        "2283aab784060b555e488bb33a1c5111958b2ce48b9983890e48bdf621ef59df"
        "53c4e4dab06c46de4cf4293ca9746df9aa8479ef2ee571afdf7a68558dcbb240",
    ),
    (
        b"drbg-seed",
        "e4f7f5e7a1caa03167dd538301895af5e66488a54653209240784a44a94a1560"
        "051272ca02afdf7089fa44cf4f395584c687892a6f50e474dec6b19f944f7cfa",
    ),
]


@pytest.mark.parametrize("args, digest", SEED_VECTORS)
def test_derive_seed_pinned(args, digest):
    assert derive_seed(*args).hex() == digest


@pytest.mark.parametrize("seed, stream", DRBG_VECTORS)
def test_drbg_first_64_bytes_pinned(seed, stream):
    assert HashDrbg(seed).randbytes(64).hex() == stream
    # the same bytes when drawn in pieces
    rng = HashDrbg(seed)
    assert (rng.randbytes(5) + rng.randbytes(40) + rng.randbytes(19)).hex() == stream


# randbytes(100) after randbytes(5): 27 bytes are left of block 0, so the other
# 73 come from a refill that starts at counter 1 and spans three blocks
REFILL_STREAM = (
    "5b12146c76f761f6c0a512bb43eca7e44ba0b4ea6b4a43dc2598a6602517a837"
    "1df575a76f2800e3d91d18a1ce46bff9903b910c0849ef4a3d5a4c9aff4d4b02"
    "c324c2717e71106fc94b79ebb305ec2f0d0bb715b029d81a074384b4ac27e436"
    "416971a7"
)


def test_drbg_refill_at_a_nonzero_counter_pinned():
    rng = HashDrbg(b"refill")
    rng.randbytes(5)
    assert rng.randbytes(100).hex() == REFILL_STREAM


@pytest.mark.parametrize("length, start, width, suffix", [
    (0, 0, 8, b""), (1, 0, 8, b""), (32, 5, 8, b""), (33, 0, 4, b"tail"), (100, 7, 2, b"x"),
])
def test_expand_is_the_counter_mode_layout(length, start, width, suffix):
    blocks = b"".join(
        hashlib.sha256(b"prefix" + (start + i).to_bytes(width, "big") + suffix).digest()
        for i in range(4)
    )
    assert expand(b"prefix", length, start, width, suffix) == blocks[:length]


def test_derive_seed_separates_context_parts():
    # length prefixes keep (b"ab", b"c") apart from (b"a", b"bc")
    assert derive_seed(1, b"ab", b"c") != derive_seed(1, b"a", b"bc")
