"""Pinned outputs of the seed derivation and the DRBG.

Every seeded result of the package (trial seeds, party streams, reports)
flows from these two functions, so their bytes are frozen here: a change
to how they hash must leave each vector as it is.
"""

import pytest

from saslab.rng import HashDrbg, derive_seed

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


def test_derive_seed_separates_context_parts():
    # length prefixes keep (b"ab", b"c") apart from (b"a", b"bc")
    assert derive_seed(1, b"ab", b"c") != derive_seed(1, b"a", b"bc")
