import functools
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from saslab import primitives
from saslab.primitives import (
    BLINDER_SIZE,
    MODP2048,
    REJECT,
    TOY256,
    Commitment,
    Encapsulation,
    GroupParams,
    KemMode,
    KeyPair,
    MalformedElementError,
    Opening,
    PowerTable,
    SizeError,
    commit,
    decode_fields,
    derive_key,
    encaps_randomness,
    encode_fields,
    entropy,
    entropy_bits,
    entropy_prefix,
    expect_fields,
    generator_table,
    group_by_name,
    kem_decaps,
    kem_decaps_star,
    kem_encaps,
    kem_encaps_star,
    kem_keygen,
    kex_agree,
    kex_keygen,
    open_commitment,
    pke_decrypt,
    pke_encrypt,
    power,
    random_element,
)
from saslab.rng import HashDrbg


def oracle_modexp(base: int, exponent: int, modulus: int) -> int:
    """Independent square-and-multiply ladder used as the arithmetic oracle."""
    result = 1
    base %= modulus
    while exponent:
        if exponent & 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        exponent >>= 1
    return result


class FixedSecretRng(HashDrbg):
    """Random source whose next randrange calls return preset values."""

    def __init__(self, *values: int):
        super().__init__(0)
        self._values = list(values)

    def randrange(self, low: int, high: int) -> int:
        if self._values:
            value = self._values.pop(0)
            assert low <= value < high
            return value
        return super().randrange(low, high)


SMALL = GroupParams(p=23, g=5, q=11)


# ---------------------------------------------------------------------------
# commitment scheme
# ---------------------------------------------------------------------------

def test_commit_open_roundtrip():
    rng = HashDrbg(1)
    c, d = commit(b"hello world", rng)
    assert open_commitment(c, d) == b"hello world"


def test_commit_empty_message():
    c, d = commit(b"", HashDrbg(2))
    assert open_commitment(c, d) == b""


def test_commit_message_too_long():
    with pytest.raises(SizeError):
        commit(b"x" * ((1 << 16) + 1), HashDrbg(3))


def test_commitments_distinct_across_rng_states():
    rng = HashDrbg(4)
    seen = {commit(b"same message", rng)[0].digest for _ in range(1000)}
    assert len(seen) == 1000


def test_open_rejects_flipped_blinder():
    c, d = commit(b"payload", HashDrbg(5))
    bad = Opening(d.message, bytes([d.blinder[0] ^ 1]) + d.blinder[1:])
    assert open_commitment(c, bad) is REJECT


def test_open_rejects_substituted_messages():
    rng = HashDrbg(6)
    c, d = commit(b"the real message", rng)
    accepted = 0
    for _ in range(10_000):
        forged = Opening(rng.randbytes(16), d.blinder)
        if open_commitment(c, forged) is not REJECT:
            accepted += 1
    assert accepted == 0


@given(message=st.binary(max_size=256))
@settings(max_examples=50, deadline=None)
def test_commit_roundtrip_property(message):
    c, d = commit(message, HashDrbg(message))
    assert open_commitment(c, d) == message


def test_opening_wire_roundtrip():
    d = Opening(b"msg", bytes(range(32)))
    assert Opening.decode(d.encode()) == d
    with pytest.raises(ValueError):
        Opening.decode(d.encode()[:-1])


# ---------------------------------------------------------------------------
# key exchange
# ---------------------------------------------------------------------------

def test_kex_keygen_matches_oracle():
    pair = kex_keygen(SMALL, FixedSecretRng(6))
    assert pair.secret == 6
    assert pair.public == oracle_modexp(5, 6, 23) == 8


def test_kex_keygen_secret_one_gives_generator():
    pair = kex_keygen(SMALL, FixedSecretRng(1))
    assert pair.public == SMALL.g


def test_kex_public_always_in_range():
    rng = HashDrbg(7)
    for _ in range(200):
        pair = kex_keygen(TOY256, rng)
        assert 1 <= pair.public <= TOY256.p - 1


def test_kex_agree_matches_frozen_oracle():
    # a = 6 -> A = 8, b = 15 -> B = 19; shared element 19^6 = 8^15 = 2 mod 23
    alice = kex_keygen(SMALL, FixedSecretRng(6))
    bob = KeyPair(secret=15, public=oracle_modexp(5, 15, 23))
    assert bob.public == 19
    assert oracle_modexp(19, 6, 23) == oracle_modexp(8, 15, 23) == 2
    expected = derive_key(2, SMALL)
    assert kex_agree(alice, bob.public, SMALL) == expected
    assert kex_agree(bob, alice.public, SMALL) == expected


def test_kex_agree_symmetric_over_many_runs():
    rng = HashDrbg(8)
    for _ in range(1000):
        a = kex_keygen(TOY256, rng)
        b = kex_keygen(TOY256, rng)
        assert kex_agree(a, b.public, TOY256) == kex_agree(b, a.public, TOY256)


def test_kex_agree_tampered_peer_key_mismatch():
    rng = HashDrbg(9)
    mismatches = 0
    for _ in range(1000):
        a = kex_keygen(TOY256, rng)
        b = kex_keygen(TOY256, rng)
        tampered = (b.public * TOY256.g) % TOY256.p
        if kex_agree(a, tampered, TOY256) != kex_agree(b, a.public, TOY256):
            mismatches += 1
    assert mismatches == 1000


def test_kex_agree_rejects_malformed_elements():
    a = kex_keygen(SMALL, HashDrbg(10))
    for bad in (0, 23, 24):
        with pytest.raises(MalformedElementError):
            kex_agree(a, bad, SMALL)


# ---------------------------------------------------------------------------
# precomputed power tables
# ---------------------------------------------------------------------------

@functools.cache
def _tables():
    """(params, table) pairs: each group's generator table as shipped, and
    modp2048 for g at stride 64."""
    return (
        (TOY256, generator_table(TOY256)),
        (MODP2048, PowerTable(MODP2048.g, MODP2048.p, MODP2048.q.bit_length(), stride=64)),
        (MODP2048, generator_table(MODP2048)),
    )


def test_power_table_covers_the_group_exponents():
    for params, table in _tables():
        assert table.limit > params.q
    assert generator_table(MODP2048).limit > MODP2048.q


def test_power_table_stride_follows_the_modulus_size():
    # a generator table lives for the whole process: toy256 keeps stride 1;
    # modp2048 is strided to stay near 0.5 MB, at no more work per power than
    # the 6-bit layout's 350 multiplications and 204 squarings
    assert generator_table(TOY256).stride == 1
    table = generator_table(MODP2048)
    assert table.stride > 1
    entries = len(table._rows) << 8
    assert entries * MODP2048.element_size <= 550_000
    assert len(table._rows) * table.stride + (table.stride - 1) <= 350 + 204


def _comb_exponent(d: int, i: int, stride: int) -> int:
    """Sum of 2^(stride * (8i + k)) over the set bits k of d: the exponent
    of row i, entry d, of a comb whose teeth are stride bits apart."""
    return sum(1 << (stride * (8 * i + k)) for k in range(8) if d >> k & 1)


def test_power_table_rows_hold_the_strided_powers():
    for params, table in _tables():
        for i, row in enumerate(table._rows):
            assert len(row) == 256
            for d in (0, 1, 2, 3, 128, 255):
                if table.stride == 1:  # the rows of contiguous byte digits
                    assert _comb_exponent(d, i, 1) == d << (8 * i)
                exponent = _comb_exponent(d, i, table.stride)
                assert row[d] == pow(table.base, exponent, params.p), (i, d)


@pytest.mark.parametrize(
    "rows, stride", [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 2), (3, 2), (5, 1)]
)
def test_power_table_equals_pow_for_every_small_exponent(rows, stride):
    # every exponent below 2^12, every byte at every digit position, every
    # entry of every row at every pass, and the exponents around the limit
    for base in (SMALL.g, 2, SMALL.p - 1):
        table = PowerTable(base, SMALL.p, 8 * stride * rows, stride=stride)
        assert len(table._rows) == rows
        assert table.limit == 1 << (8 * stride * rows)
        single_digits = [d << (8 * k) for k in range(stride * rows) for d in range(256)]
        comb_entries = [
            _comb_exponent(d, i, stride) << u
            for i in range(rows) for d in range(256) for u in range(stride)
        ]
        around_limit = range(table.limit - 4096, table.limit + 4096)
        for e in (*range(-SMALL.q, 4096), *single_digits, *comb_entries, *around_limit):
            assert table.pow(e) == pow(base, e, SMALL.p), (base, e)


@given(index=st.integers(0, 2), data=st.data())
@settings(max_examples=150, deadline=None)
def test_power_table_equals_pow(index, data):
    params, table = _tables()[index]
    e = data.draw(st.integers(min_value=-params.q, max_value=4 * table.limit - 1))
    assert table.pow(e) == pow(table.base, e, params.p)


def test_power_table_edge_exponents():
    for params, table in _tables():
        q, limit = params.q, table.limit
        for e in (0, 1, q - 1, q, q + 1, limit - 1, limit, -1, -q):
            assert table.pow(e) == pow(table.base, e, params.p), e


def test_in_range_power_calls_no_builtin_pow(monkeypatch):
    # one multiplication squares between the comb's passes, so the modp2048
    # generator table (stride 37) hands no part of an in-range power to the
    # built-in pow
    table = generator_table(MODP2048)
    calls = []
    monkeypatch.setattr(primitives, "pow", lambda *a: calls.append(a) or pow(*a), raising=False)
    assert table.stride > 1
    for e in (0, 1, 2, MODP2048.q - 1, table.limit - 1):
        assert table.pow(e) == pow(table.base, e, MODP2048.p)
    assert calls == []
    assert table.pow(-1) == pow(MODP2048.g, -1, MODP2048.p)  # out of range
    assert len(calls) == 1


def test_empty_power_table_hands_every_exponent_to_pow():
    for stride in (1, 2):
        table = PowerTable(TOY256.g, TOY256.p, 0, stride)
        assert table.limit == 1
        for e in (0, 1, TOY256.q, -3):
            assert table.pow(e) == pow(TOY256.g, e, TOY256.p)


def test_generator_table_built_once_per_modulus_and_generator(monkeypatch):
    builds = []

    def counting(base, p, exponent_bits, stride=1):
        builds.append((p, base))
        return PowerTable(base, p, exponent_bits, stride)

    monkeypatch.setattr(primitives, "_GENERATOR_TABLES", {})
    monkeypatch.setattr(primitives, "PowerTable", counting)
    rng = HashDrbg(31)
    renamed = GroupParams(p=TOY256.p, g=TOY256.g, q=TOY256.q, name="toy256-copy")
    for params in (TOY256, renamed, SMALL):
        pair = kex_keygen(params, rng)
        assert pair.public == pow(params.g, pair.secret, params.p)
        kem_keygen(params, rng)
        random_element(params, rng)
        kem_encaps(pair.public, params, KemMode.PROBABILISTIC, rng)
    assert builds == [(TOY256.p, TOY256.g), (SMALL.p, SMALL.g)]
    assert generator_table(renamed) is generator_table(TOY256)


@pytest.mark.parametrize("params", [TOY256, MODP2048], ids=["toy256", "modp2048"])
@pytest.mark.parametrize("mode", [KemMode.PROBABILISTIC, KemMode.DETERMINISTIC])
def test_table_encapsulation_step_equals_kem_encaps_star(mode, params):
    # the collision loop's kem2 candidate: r by the one rule, then both
    # powers from the generator table, the initiator's published key through
    # its remembered exponent
    pk = kem_keygen(params, HashDrbg(32)).public
    x = random_element(params, HashDrbg(33))
    r = encaps_randomness(x, pk, params, mode, HashDrbg(34))
    step = Encapsulation(generator_table(params).pow(r), x * power(pk, r, params) % params.p)
    assert (step, derive_key(x, params)) == kem_encaps_star(pk, x, params, mode, HashDrbg(34))


# ---------------------------------------------------------------------------
# remembered exponents
# ---------------------------------------------------------------------------

def _exponents(params: GroupParams, sk: int):
    """0, 1, decapsulation's p - 1 - sk, and integers of either sign past p."""
    return st.one_of(
        st.sampled_from([0, 1, params.p - 1 - sk, -1, -sk]),
        st.integers(-2 * params.p, 2 * params.p),
    )


def _check_remembered_power(params: GroupParams, data) -> None:
    rng = HashDrbg(data.draw(st.integers(0, 2**32), label="seed"))
    pair = kem_keygen(params, rng)
    ct, _ = kem_encaps(pair.public, params, KemMode.PROBABILISTIC, rng)
    element = data.draw(st.sampled_from([pair.public, ct.c1]), label="element")
    assert (params.p, params.g, element) in primitives._EXPONENTS
    k = data.draw(_exponents(params, pair.secret), label="k")
    assert primitives.power(element, k, params) == pow(element, k, params.p)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_remembered_power_equals_pow(data):
    _check_remembered_power(TOY256, data)


@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_remembered_power_equals_pow_full_size_group(data):
    _check_remembered_power(MODP2048, data)


@given(
    element=st.one_of(
        st.sampled_from([1, TOY256.p - 1, TOY256.p - 4]),  # orders 1 and 2, and -g
        st.integers(1, TOY256.p - 1),  # half of them outside the order-q subgroup
    ),
    sk=st.integers(1, TOY256.q - 1),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_unremembered_power_equals_pow(element, sk, data):
    assert (TOY256.p, TOY256.g, element) not in primitives._EXPONENTS
    k = data.draw(_exponents(TOY256, sk), label="k")
    assert primitives.power(element, k, TOY256) == pow(element, k, TOY256.p)


def test_remembered_exponents_evict_the_oldest(monkeypatch):
    monkeypatch.setattr(primitives, "_EXPONENTS", {})
    capacity = primitives.REMEMBERED_EXPONENTS
    rng = HashDrbg(37)
    pairs = [kex_keygen(TOY256, rng) for _ in range(capacity + 3)]
    ct, _ = kem_encaps(pairs[-1].public, TOY256, KemMode.DETERMINISTIC, rng)
    assert list(primitives._EXPONENTS) == [
        (TOY256.p, TOY256.g, element) for element in [pair.public for pair in pairs[4:]] + [ct.c1]
    ]
    for pair in (pairs[0], pairs[-1]):  # evicted, and still remembered
        for k in (0, 1, TOY256.p - 1 - pair.secret, -pair.secret):
            assert primitives.power(pair.public, k, TOY256) == pow(pair.public, k, TOY256.p)
        assert kex_agree(pairs[1], pair.public, TOY256) == derive_key(
            pow(pair.public, pairs[1].secret, TOY256.p), TOY256
        )


def test_only_primitives_names_the_remembered_exponents():
    # attack code runs in the same process, so no other module may read the maps
    names = r"\b(_EXPONENTS|_POWERS|_ENCAPSULATIONS|_keep)\b"
    for path in Path(primitives.__file__).parent.glob("*.py"):
        if path.name != "primitives.py":
            assert not re.search(names, path.read_text()), path.name


def _check_agreement(params: GroupParams, seed: int) -> None:
    rng = HashDrbg(seed)
    a, b = kex_keygen(params, rng), kex_keygen(params, rng)
    shared = derive_key(pow(b.public, a.secret, params.p), params)
    assert kex_agree(a, b.public, params) == shared
    # the second end finds g^(ab) among the remembered powers
    assert (params.p, params.g, a.secret * b.secret % (params.p - 1)) in primitives._POWERS
    assert kex_agree(b, a.public, params) == shared


@given(seed=st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_both_ends_agree_as_pow(seed):
    _check_agreement(TOY256, seed)


@given(seed=st.integers(0, 2**32))
@settings(max_examples=3, deadline=None)
def test_both_ends_agree_as_pow_full_size_group(seed):
    _check_agreement(MODP2048, seed)


@pytest.mark.parametrize("params", [TOY256, MODP2048], ids=["toy256", "modp2048"])
def test_a_recorded_encapsulation_decapsulates_as_the_formula(params, monkeypatch):
    rng = HashDrbg(41)
    pair, other = kem_keygen(params, rng), kem_keygen(params, rng)
    ct, key = kem_encaps(pair.public, params, KemMode.PROBABILISTIC, rng)
    entry = (params.p, params.g, ct.c1, ct.c2)
    assert primitives._ENCAPSULATIONS[entry][0] == pair.secret
    keys = (pair.secret, pair.secret + params.q, other.secret)
    for sk in keys:
        x = ct.c2 * pow(ct.c1, params.p - 1 - sk, params.p) % params.p
        assert kem_decaps_star(sk, ct, params) == (x, derive_key(x, params))
    assert [kem_decaps_star(sk, ct, params)[1] == key for sk in keys] == [True, True, False]
    # the recorded x answers only the key it was recorded for
    monkeypatch.setitem(primitives._ENCAPSULATIONS, entry, (pair.secret, 5))
    answers = [kem_decaps_star(sk, ct, params)[0] for sk in keys]
    assert answers[0] == 5 and 5 not in answers[1:]


def test_remembered_powers_and_encapsulations_evict_the_oldest(monkeypatch):
    for name in ("_EXPONENTS", "_POWERS", "_ENCAPSULATIONS"):
        monkeypatch.setattr(primitives, name, {})
    capacity = primitives.REMEMBERED_EXPONENTS
    p, g = TOY256.p, TOY256.g
    rng = HashDrbg(43)
    pair = kex_keygen(TOY256, rng)
    ks = range(2, capacity + 5)
    for k in ks:
        assert power(pair.public, k, TOY256, shared=True) == pow(pair.public, k, p)
    assert list(primitives._POWERS) == [(p, g, pair.secret * k % (p - 1)) for k in ks[3:]]
    kept = dict(primitives._POWERS)
    assert power(pair.public, 1, TOY256) == pair.public  # a value only one end raises
    assert primitives._POWERS == kept

    encapsulated = []  # a fresh key per ct, so each key is still remembered when used
    for _ in range(capacity + 3):
        owner = kem_keygen(TOY256, rng)
        ct, _ = kem_encaps(owner.public, TOY256, KemMode.DETERMINISTIC, rng)
        encapsulated.append((owner, ct))
    assert [key[2:] for key in primitives._ENCAPSULATIONS] == [
        (ct.c1, ct.c2) for _, ct in encapsulated[3:]
    ]
    for owner, ct in (encapsulated[0], encapsulated[-1]):  # evicted, and still recorded
        x = ct.c2 * pow(ct.c1, p - 1 - owner.secret, p) % p
        assert kem_decaps_star(owner.secret, ct, TOY256) == (x, derive_key(x, TOY256))


# ---------------------------------------------------------------------------
# KEM
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", [KemMode.PROBABILISTIC, KemMode.DETERMINISTIC])
@pytest.mark.parametrize("params", [SMALL, TOY256], ids=["small", "toy256"])
def test_kem_roundtrip(mode, params):
    rng = HashDrbg(11)
    pair = kem_keygen(params, rng)
    x = random_element(params, rng)
    ct, key = kem_encaps_star(pair.public, x, params, mode, rng)
    assert kem_decaps(pair.secret, ct, params) == key
    assert kem_decaps_star(pair.secret, ct, params) == (x, key)


def test_kem_deterministic_mode_is_rigid():
    rng = HashDrbg(12)
    pair = kem_keygen(TOY256, rng)
    x = pow(TOY256.g, 99, TOY256.p)
    ct1, k1 = kem_encaps_star(pair.public, x, TOY256, KemMode.DETERMINISTIC)
    ct2, k2 = kem_encaps_star(pair.public, x, TOY256, KemMode.DETERMINISTIC)
    assert ct1 == ct2 and k1 == k2
    assert ct1.encode(TOY256) == ct2.encode(TOY256)


def test_kem_probabilistic_same_secret_distinct_ct_same_key():
    rng = HashDrbg(13)
    pair = kem_keygen(TOY256, rng)
    x = pow(TOY256.g, 7, TOY256.p)
    ct1, k1 = kem_encaps_star(pair.public, x, TOY256, KemMode.PROBABILISTIC, rng)
    ct2, k2 = kem_encaps_star(pair.public, x, TOY256, KemMode.PROBABILISTIC, rng)
    assert k1 == k2
    assert ct1.c1 != ct2.c1


def test_kem_reencapsulation_preserves_key():
    # Decapsulating under one key pair and re-encapsulating the recovered
    # secret to a different public key yields the same shared key.
    rng = HashDrbg(14)
    first = kem_keygen(TOY256, rng)
    second = kem_keygen(TOY256, rng)
    ct, key = kem_encaps(first.public, TOY256, KemMode.DETERMINISTIC, rng)
    x, recovered = kem_decaps_star(first.secret, ct, TOY256)
    assert recovered == key
    _, rekeyed = kem_encaps_star(second.public, x, TOY256, KemMode.DETERMINISTIC)
    assert rekeyed == key


def test_kem_tampered_c2_changes_key_without_error():
    rng = HashDrbg(15)
    pair = kem_keygen(TOY256, rng)
    mismatches = 0
    for _ in range(1000):
        ct, key = kem_encaps(pair.public, TOY256, KemMode.DETERMINISTIC, rng)
        tampered = Encapsulation(ct.c1, (ct.c2 * TOY256.g) % TOY256.p)
        if kem_decaps(pair.secret, tampered, TOY256) != key:
            mismatches += 1
    assert mismatches == 1000


def test_kem_encaps_star_rejects_out_of_range_secret():
    pair = kem_keygen(TOY256, HashDrbg(16))
    with pytest.raises(MalformedElementError):
        kem_encaps_star(pair.public, 0, TOY256, KemMode.DETERMINISTIC)
    with pytest.raises(MalformedElementError):
        kem_encaps_star(pair.public, TOY256.p, TOY256, KemMode.DETERMINISTIC)


def test_kem_encaps_rejects_malformed_pk():
    with pytest.raises(MalformedElementError):
        kem_encaps(0, TOY256, KemMode.DETERMINISTIC, HashDrbg(17))


def _decaps_by_inverse(sk: int, c1: int, c2: int, p: int) -> int:
    """The reference decapsulation: c2 / c1^sk, through a modular inverse."""
    return c2 * pow(c1, -sk, p) % p


@given(
    sk=st.integers(1, TOY256.q - 1),
    c1=st.integers(1, TOY256.p - 1),  # half of [1, p-1] is outside the order-q subgroup
    c2=st.integers(1, TOY256.p - 1),
)
@example(sk=5, c1=1, c2=7)
@example(sk=TOY256.q - 1, c1=TOY256.p - 1, c2=7)  # order 2
@example(sk=5, c1=TOY256.p - 1, c2=TOY256.p - 1)
@example(sk=6, c1=TOY256.p - 4, c2=TOY256.g)  # -g, outside the subgroup
@settings(max_examples=200, deadline=None)
def test_kem_decaps_star_equals_the_inverse_formula(sk, c1, c2):
    x, key = kem_decaps_star(sk, Encapsulation(c1, c2), TOY256)
    assert x == _decaps_by_inverse(sk, c1, c2, TOY256.p)
    assert key == derive_key(x, TOY256)


def test_kem_decaps_star_equals_the_inverse_formula_full_size_group():
    p, q = MODP2048.p, MODP2048.q
    assert pow(p - 4, q, p) != 1 and pow(p - 2, q, p) != 1  # outside the subgroup
    rng = HashDrbg(36)
    inside = random_element(MODP2048, rng)
    for sk in (1, q - 1, kem_keygen(MODP2048, rng).secret):
        for c1 in (1, p - 1, p - 2, p - 4, inside):
            for c2 in (1, p - 1, inside):
                x, _ = kem_decaps_star(sk, Encapsulation(c1, c2), MODP2048)
                assert x == _decaps_by_inverse(sk, c1, c2, p), (sk, c1, c2)


def test_kem_roundtrip_full_size_group():
    rng = HashDrbg(26)
    pair = kem_keygen(MODP2048, rng)
    for mode in (KemMode.PROBABILISTIC, KemMode.DETERMINISTIC):
        x = random_element(MODP2048, rng)
        ct, key = kem_encaps_star(pair.public, x, MODP2048, mode, rng)
        assert kem_decaps_star(pair.secret, ct, MODP2048) == (x, key)


# ---------------------------------------------------------------------------
# hybrid PKE
# ---------------------------------------------------------------------------

def test_pke_roundtrip():
    rng = HashDrbg(18)
    pair = kem_keygen(TOY256, rng)
    message = b"opening blinder payload"
    assert pke_decrypt(pair.secret, TOY256, pke_encrypt(pair.public, TOY256, message, rng)) == message


def test_pke_fresh_randomness():
    rng = HashDrbg(19)
    pair = kem_keygen(TOY256, rng)
    c1 = pke_encrypt(pair.public, TOY256, b"m", rng)
    c2 = pke_encrypt(pair.public, TOY256, b"m", rng)
    assert c1 != c2


def test_pke_wrong_key_never_recovers_plaintext():
    rng = HashDrbg(20)
    pair = kem_keygen(TOY256, rng)
    other = kem_keygen(TOY256, rng)
    matches = 0
    for i in range(1000):
        message = rng.randbytes(24)
        ciphertext = pke_encrypt(pair.public, TOY256, message, rng)
        if pke_decrypt(other.secret, TOY256, ciphertext) == message:
            matches += 1
    assert matches == 0


def test_pke_truncated_ciphertext_errors():
    rng = HashDrbg(21)
    pair = kem_keygen(TOY256, rng)
    ciphertext = pke_encrypt(pair.public, TOY256, b"hello", rng)
    with pytest.raises(MalformedElementError):
        pke_decrypt(pair.secret, TOY256, ciphertext[: TOY256.element_size])


@given(message=st.binary(max_size=128))
@settings(max_examples=25, deadline=None)
def test_pke_roundtrip_property(message):
    rng = HashDrbg(message + b"pke")
    pair = kem_keygen(TOY256, rng)
    assert pke_decrypt(pair.secret, TOY256, pke_encrypt(pair.public, TOY256, message, rng)) == message


# Known answers of the counter-mode expander's callers: each spans more than one
# SHA-256 block, so a change to the counter's width, start or place moves them.
PKE_PLAINTEXT = b"blinder bytes that span two blocks of the stream"
PKE_CIPHERTEXT = (
    "706643d9eabaea774f21d952ed053949bc1364e3654d11cac27c398314eec667"  # c1
    "84e928c4918a7d593e35713376fd6daac7f0f12bf4fecd9518e0bfe6f49fca8e"  # c2
    "cef85cbef8e3b7bbe861f26a0169f59ab2c94be6e137148a99f99f10a3698cfe"  # body
    "0a4f5f3de68ff9aeda3a8170dcfacb3b"
)
HASH_TO_RANGE_PINS = {
    # 48 bytes expanded (2 blocks)
    "toy256": "50c6c8df20af220b9c9280b5ebf3ea34607aaf2f24b1bcee9b8e52ac26f8b39b",
    # 272 bytes expanded (9 blocks)
    "modp2048": (
        "760412c792c00dd39e3746027be38c861bfebd5fc711c56cb348b88f96adc48c"
        "51d578f642c9f4c78580a0ed86ba8a4d26c8fba620d1f034e36da77e230031c1"
        "5bab39823461cbc37ae363436df6571a8025c4d2be83b5b7f91f9a94cb6f67c9"
        "3b728a489bc2961b0677eaed97bdd0ffe71f114c481c24e2748052419379421a"
        "67812798b5f7bb52b970dc7be317b3d02d2e371abf67fcf2312374b4af8ec77d"
        "f0f74e3883c31d04d1e807d5c0bf13c74283b9e95b964bdc53db8eb5b40c296e"
        "9f480982743cb9831f3ca5e2aa165c93b290cf36c94b494cdfebac8875bb4424"
        "a8c5500d3391c8903452f0f7d5fc3efdfaa9ce906ade93f792b821817707d73f"
    ),
}


def test_pke_encrypt_known_answer():
    pair = kem_keygen(TOY256, HashDrbg(b"pke-key"))
    ciphertext = pke_encrypt(pair.public, TOY256, PKE_PLAINTEXT, HashDrbg(b"pke-rng"))
    assert ciphertext.hex() == PKE_CIPHERTEXT
    assert pke_decrypt(pair.secret, TOY256, ciphertext) == PKE_PLAINTEXT


@pytest.mark.parametrize("params", [TOY256, MODP2048], ids=["toy256", "modp2048"])
def test_hash_to_range_known_answer(params):
    # the de-randomized KEM's r - 1 = H(x || pk) mod (q - 1), here of fixed bytes
    value = primitives.hash_to_range(primitives.DERAND_TAG, b"known-answer", params.q - 1)
    assert f"{value:x}" == HASH_TO_RANGE_PINS[params.name]


# ---------------------------------------------------------------------------
# session entropy
# ---------------------------------------------------------------------------

def test_entropy_deterministic():
    elements = [("pk", b"\x01\x02"), ("ct", b"\x03")]
    assert entropy(b"bob", elements, 16) == entropy(b"bob", elements, 16)


def test_entropy_receiver_changes_value():
    # At n_e = 16 a pair of receivers collides with probability 2^-16;
    # over 10^4 pairs the expected count is 0.15, so 3 sigma allows at most 1.
    rng = HashDrbg(22)
    collisions = 0
    for i in range(10_000):
        elements = [("x", rng.randbytes(8))]
        if entropy(b"alice", elements, 16) == entropy(b"bob", elements, 16):
            collisions += 1
    assert collisions <= 1


def test_entropy_reordering_changes_value():
    rng = HashDrbg(23)
    collisions = 0
    for _ in range(100):
        a, b = rng.randbytes(8), rng.randbytes(8)
        fwd = entropy(b"r", [("a", a), ("b", b)], 32)
        rev = entropy(b"r", [("b", b), ("a", a)], 32)
        if fwd == rev:
            collisions += 1
    assert collisions == 0


def test_entropy_truncation_bound():
    rng = HashDrbg(24)
    for n_e in (4, 8, 13, 16, 33, 64):
        for _ in range(50):
            elements = [("x", rng.randbytes(4))]
            value = entropy(b"r", elements, n_e)
            assert 0 <= value.value < 1 << n_e
            # the top n_e bits of the one 64-bit digest prefix
            assert value.value == entropy(b"r", elements, 64).value >> (64 - n_e)


@given(
    receiver=st.binary(max_size=255),
    elements=st.dictionaries(
        st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8),
        st.binary(max_size=40),
        max_size=5,
    ).map(lambda d: list(d.items())),
    n_e=st.integers(4, 64),
)
@settings(max_examples=200, deadline=None)
def test_entropy_prefix_finished_with_the_rest_is_entropy(receiver, elements, n_e):
    # the state after any leading run, finished with the TLV of the rest,
    # is the digest entropy() truncates
    value = entropy(receiver, elements, n_e).value
    for k in range(len(elements) + 1):
        h = entropy_prefix(receiver, elements[:k])
        h.update(encode_fields(elements[k:]))
        assert entropy_bits(h, n_e) == value


def test_entropy_prefix_rejects_a_long_receiver():
    with pytest.raises(SizeError):
        entropy_prefix(b"r" * 256, [])


def test_entropy_duplicate_label_rejected():
    with pytest.raises(ValueError):
        entropy(b"r", [("x", b"1"), ("x", b"2")], 16)


def test_entropy_width_bounds():
    for bad in (3, 65, 0):
        with pytest.raises(ValueError):
            entropy(b"r", [("x", b"1")], bad)


# ---------------------------------------------------------------------------
# serialization and groups
# ---------------------------------------------------------------------------

@given(
    fields=st.lists(
        st.tuples(st.text(alphabet="abcdefgh_", min_size=1, max_size=8), st.binary(max_size=64)),
        max_size=6,
    )
)
@settings(max_examples=50, deadline=None)
def test_tlv_roundtrip(fields):
    assert decode_fields(encode_fields(fields)) == fields


@given(data=st.binary(max_size=80))
@settings(max_examples=300, deadline=None)
def test_decode_fields_on_arbitrary_bytes(data):
    # either a strict rejection or a parse that re-encodes to the same bytes
    try:
        fields = decode_fields(data)
    except ValueError:
        return
    assert all(type(value) is bytes for _, value in fields)
    assert encode_fields(fields) == data


@given(
    fields=st.lists(
        st.tuples(st.text(alphabet="abc_", min_size=1, max_size=4), st.binary(max_size=12)),
        min_size=1, max_size=4,
    ),
    cut=st.integers(min_value=1),
    flip=st.integers(min_value=0),
)
@settings(max_examples=200, deadline=None)
def test_decode_fields_on_damaged_encodings(fields, cut, flip):
    payload = encode_fields(fields)
    # a cut inside the last field, keeping at least its label-length byte
    last = len(encode_fields(fields[:-1]))
    truncated = payload[: last + 1 + cut % (len(payload) - last - 1)]
    with pytest.raises(ValueError, match="truncated TLV"):
        decode_fields(truncated)
    damaged = bytearray(payload)
    damaged[flip % len(payload)] ^= 0x80
    try:
        parsed = decode_fields(damaged)
    except ValueError:
        return
    assert encode_fields(parsed) == bytes(damaged)


@pytest.mark.parametrize(
    "payload, message",
    [
        (b"\x00\x00\x00\x00\x00", "truncated TLV field"),  # zero-length label
        (b"\x02pk\x00\x00\x00", "truncated TLV field"),  # header cut short
        (b"\x02pk", "truncated TLV field"),  # no value length at all
        (b"\x05pk", "truncated TLV field"),  # label runs past the end
        (b"\x02pk\x00\x00\x00\x03ab", "truncated TLV value"),  # value runs past the end
        (b"\x02pk\x00\x00\x00\x00\x01", "truncated TLV field"),  # trailing byte
    ],
)
def test_decode_fields_rejects_malformed(payload, message):
    with pytest.raises(ValueError, match=message):
        decode_fields(payload)


def test_decode_fields_rejects_non_ascii_label():
    with pytest.raises(ValueError):
        decode_fields(b"\x02p\xe9\x00\x00\x00\x00")


def test_decode_fields_edge_layouts():
    assert decode_fields(b"") == []
    assert decode_fields(b"\x01a\x00\x00\x00\x00") == [("a", b"")]
    label = "x" * 255
    payload = bytes([255]) + label.encode() + (3).to_bytes(4, "big") + b"abc"
    assert decode_fields(payload) == [(label, b"abc")]


@pytest.mark.parametrize("label", ["", "x" * 256, "p\u00e9"])
def test_encode_fields_rejects_bad_labels(label, monkeypatch):
    # refused on every call: before any label's header is kept, and after
    # valid labels' headers are, and never kept itself
    monkeypatch.setattr(primitives, "_LABEL_HEADERS", primitives._LabelHeaders())
    for _ in range(2):
        with pytest.raises(ValueError):
            encode_fields([(label, b"2")])
    encode_fields([("ok", b"1"), ("pk", b"")])
    assert set(primitives._LABEL_HEADERS) == {"ok", "pk"}
    for _ in range(2):
        with pytest.raises(ValueError):
            encode_fields([("ok", b"1"), (label, b"2")])
        with pytest.raises(ValueError):
            expect_fields(encode_fields([("ok", b"1")]), ["ok", label])
    assert set(primitives._LABEL_HEADERS) == {"ok", "pk"}


def test_label_headers_are_bounded(monkeypatch):
    # past MAX_LABEL_HEADERS a label is checked and encoded each time, not kept
    monkeypatch.setattr(primitives, "_LABEL_HEADERS", primitives._LabelHeaders())
    labels = [f"l{i}" for i in range(primitives.MAX_LABEL_HEADERS + 10)]
    for label in labels:
        payload = encode_fields([(label, b"v")])
        assert payload == bytes([len(label)]) + label.encode() + b"\x00\x00\x00\x01v"
        assert expect_fields(payload, [label]) == [b"v"]
    assert len(primitives._LABEL_HEADERS) == primitives.MAX_LABEL_HEADERS
    with pytest.raises(ValueError):
        encode_fields([("", b"v")])


def test_encode_fields_layout():
    assert encode_fields([]) == b""
    assert encode_fields([("pk", b"\x01\x02"), ("c", b"")]) == (
        b"\x02pk\x00\x00\x00\x02\x01\x02" b"\x01c\x00\x00\x00\x00"
    )
    label = "y" * 255
    assert encode_fields([(label, b"v")])[:256] == bytes([255]) + label.encode()
    # any bytes-like value encodes as its bytes
    assert encode_fields([("v", bytearray(b"ab"))]) == encode_fields([("v", b"ab")])
    assert encode_fields([("v", memoryview(b"ab"))]) == encode_fields([("v", b"ab")])


@pytest.mark.parametrize("wrap", [bytearray, memoryview], ids=["bytearray", "memoryview"])
def test_decode_fields_accepts_bytes_like_input(wrap):
    fields = [("pk", b"\x01" * 3), ("com", b"")]
    decoded = decode_fields(wrap(encode_fields(fields)))
    assert decoded == fields
    assert all(type(value) is bytes for _, value in decoded)


def _expect_by_decoding(payload, labels):
    """expect_fields as decode_fields and one comparison of the labels."""
    fields = decode_fields(payload)
    if [label for label, _ in fields] != list(labels):
        raise ValueError("payload schema mismatch")
    return [value for _, value in fields]


@given(
    fields=st.lists(
        st.tuples(st.sampled_from(["pk", "ct", "com", "open_m"]), st.binary(max_size=6)),
        max_size=4,
    ),
    labels=st.lists(st.sampled_from(["pk", "ct", "com", "open_m"]), max_size=4),
    cut=st.integers(min_value=0, max_value=40),
    extra=st.binary(max_size=3),
)
@example(fields=[("pk", b"ab")], labels=["pk"], cut=0, extra=b"\x02pk\x00\x00")
@settings(max_examples=300, deadline=None)
def test_expect_fields_is_decoding_then_comparing_labels(fields, labels, cut, extra):
    # on whole, cut, extended and relabelled payloads the one pass returns
    # what decoding and comparing the labels returns, and raises where it raises
    whole = encode_fields(fields)
    for payload in (whole, whole[: len(whole) - cut], whole + extra, bytearray(whole)):
        try:
            expected = _expect_by_decoding(payload, labels)
        except ValueError:
            with pytest.raises(ValueError):
                expect_fields(payload, labels)
        else:
            assert expect_fields(payload, labels) == expected
            assert all(type(value) is bytes for value in expected)


def test_expect_fields_enforces_schema():
    payload = encode_fields([("pk", b"\x01"), ("com", b"\x02")])
    assert expect_fields(payload, ["pk", "com"]) == [b"\x01", b"\x02"]
    with pytest.raises(ValueError):
        expect_fields(payload, ["com", "pk"])
    with pytest.raises(ValueError):
        decode_fields(payload[:-1])


def _is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller-Rabin with `rounds` bases drawn from a stream seeded by n."""
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


def validate_group(params: GroupParams) -> None:
    """The GroupParams contract in full: p and q prime and g of order q."""
    if not _is_probable_prime(params.p):
        raise MalformedElementError("modulus is not prime")
    if not _is_probable_prime(params.q):
        raise MalformedElementError("subgroup order is not prime")
    if pow(params.g, params.q, params.p) != 1 or params.g == 1:
        raise MalformedElementError("generator does not have order q")


def test_shipped_groups_validate():
    validate_group(TOY256)
    validate_group(MODP2048)
    assert group_by_name("toy256") is TOY256
    assert group_by_name("modp2048") is MODP2048
    with pytest.raises(ValueError):
        group_by_name("toy512")


def test_small_demo_group_fails_strict_validation():
    # (p=23, g=5, q=11) is fine for arithmetic demos but 5 has order 22.
    with pytest.raises(MalformedElementError):
        validate_group(SMALL)


def test_element_encoding_roundtrip():
    for params in (SMALL, TOY256):
        for x in (1, params.g, params.p - 1):
            assert params.decode_element(params.encode_element(x)) == x
    with pytest.raises(MalformedElementError):
        TOY256.encode_element(TOY256.p)


def test_shared_key_is_32_bytes():
    key = derive_key(2, SMALL)
    assert len(key.key) == 32
