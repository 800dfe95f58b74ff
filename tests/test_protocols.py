import pytest

from saslab import protocols
from saslab.attacks import DEFENDED_KINDS
from saslab.model import Model, SessionStatus, World, run_honest
from saslab.primitives import (
    GroupParams,
    KemMode,
    derive_key,
    encode_fields,
    entropy,
    expect_fields,
)
from saslab.protocols import (
    SPECS,
    Machine,
    ProtocolConfig,
    ProtocolError,
    ProtocolKind,
    Side,
    build_machine,
    compile_mt,
)
from saslab.rng import HashDrbg

ALL_KINDS = list(ProtocolKind)
SMALL = GroupParams(p=23, g=5, q=11)


def drive_pair(
    kind, cfg, seed_a=b"A", seed_b=b"B", message=None, machine_b_factory=None
):
    """Run both sides of a protocol directly, alternating messages."""
    starter_side = SPECS[kind].starting_side
    rng = {Side.A: HashDrbg(seed_a), Side.B: HashDrbg(seed_b)}
    build = lambda side, self_id, peer_id: build_machine(
        kind, cfg, side, self_id, peer_id, rng[side],
        message if side is starter_side else None,
    )
    machines = {Side.A: build(Side.A, b"alice", b"bob"), Side.B: build(Side.B, b"bob", b"alice")}
    if machine_b_factory is not None:
        machines[Side.B] = machine_b_factory(rng[Side.B])
    current = starter_side
    payload = machines[current].advance(None)
    count = 1 if payload is not None else 0
    while payload is not None:
        current = current.other
        payload = machines[current].advance(payload)
        if payload is not None:
            count += 1
    return machines[Side.A], machines[Side.B], count


@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_honest_runs_complete_with_matching_outputs(kind):
    for i in range(25):
        world = World(kind, ProtocolConfig(), Model.AM, seed=(100 + i))
        init, resp = run_honest(world)
        assert init.status is SessionStatus.COMPLETED, init.events
        assert resp.status is SessionStatus.COMPLETED
        assert init.kappa == resp.kappa and init.kappa
        assert init.entropies == resp.entropies and init.entropies


@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_message_counts_match_figures(kind):
    _, _, count = drive_pair(kind, ProtocolConfig())
    assert count == SPECS[kind].message_count


@pytest.mark.parametrize("mode", [KemMode.PROBABILISTIC, KemMode.DETERMINISTIC])
def test_kem_protocols_complete_in_both_modes(mode):
    for kind in (
        ProtocolKind.KEM2,
        ProtocolKind.KEM3_TWO_ENTROPY,
        ProtocolKind.KEM3_COMMIT,
        ProtocolKind.KEM4,
        ProtocolKind.KEM6,
    ):
        a, b, _ = drive_pair(kind, ProtocolConfig(kem_mode=mode))
        assert a.key == b.key and a.entropies == b.entropies


def test_kex3_small_group_oracle():
    # With secrets a = 6 and b = 4 over (p=23, g=5): A = 8, B = 4, and the
    # shared element is 4^6 = 8^4 * 8... independently: 4^6 mod 23 = 2 and
    # 8^4 mod 23 = 4096 mod 23, both reduce to the element 2.
    assert pow(4, 6, 23) == 2
    assert pow(8, 4, 23) == 2

    class FixedSecret(HashDrbg):
        def __init__(self, secret):
            super().__init__(secret)
            self._secret = secret
            self._used = False

        def randrange(self, low, high):
            if not self._used:
                self._used = True
                assert low <= self._secret < high
                return self._secret
            return super().randrange(low, high)

    cfg = ProtocolConfig(group=SMALL, n_e=16)
    rng_a, rng_b = FixedSecret(6), FixedSecret(4)
    a = build_machine(ProtocolKind.KEX3, cfg, Side.A, b"alice", b"bob", rng_a)
    b = build_machine(ProtocolKind.KEX3, cfg, Side.B, b"bob", b"alice", rng_b)
    msg = b.advance(None)
    msg = a.advance(msg)
    msg = b.advance(msg)
    a.advance(msg)
    assert a.key == b.key == derive_key(2, SMALL)
    assert a.entropies == b.entropies


def test_kem3_commit_aborts_on_tampered_encapsulation():
    cfg = ProtocolConfig()
    g = cfg.group
    a = build_machine(ProtocolKind.KEM3_COMMIT, cfg, Side.A, b"alice", b"bob", HashDrbg(20))
    b = build_machine(ProtocolKind.KEM3_COMMIT, cfg, Side.B, b"bob", b"alice", HashDrbg(21))
    msg = b.advance(None)
    msg = a.advance(msg)
    msg = b.advance(msg)
    # flip the encapsulation, leave the commitment and encrypted blinder alone
    from saslab.primitives import Encapsulation, decode_fields
    fields = dict(decode_fields(msg))
    ct = Encapsulation.decode(fields["ct"], g)
    tampered = Encapsulation(ct.c1, (ct.c2 * g.g) % g.p)
    forged = encode_fields([("ct", tampered.encode(g)), ("ctd", fields["ctd"])])
    with pytest.raises(ProtocolError, match="reopen"):
        a.advance(forged)
    assert a.aborted


def test_schema_mismatch_aborts():
    cfg = ProtocolConfig()
    a = build_machine(ProtocolKind.KEX2, cfg, Side.A, b"alice", b"bob", HashDrbg(22))
    a.advance(None)
    with pytest.raises(ProtocolError):
        a.advance(encode_fields([("unexpected", b"x")]))
    assert a.aborted


def test_kem2_key_only_entropy_flag():
    cfg = ProtocolConfig(kem2_key_only_entropy=True)
    a, b, _ = drive_pair(ProtocolKind.KEM2, cfg)
    expected = entropy(b"", [("key", a.key.key)], cfg.n_e)
    assert a.entropies == {"E": expected} == b.entropies


def test_receiver_identity_enters_entropy():
    # same seeds, different peer identity on the side that hashes its peer:
    # the entropy must differ, and stripping identities must restore equality
    cfg = ProtocolConfig()
    a1, b1, _ = drive_pair(ProtocolKind.MT_AUTH, cfg)
    rng_b = HashDrbg(b"B")
    other = build_machine(
        ProtocolKind.MT_AUTH, cfg, Side.B, b"carol", b"alice", rng_b
    )
    a2, b2, _ = drive_pair(
        ProtocolKind.MT_AUTH, cfg, machine_b_factory=lambda rng: other
    )
    assert a1.entropies == b1.entropies
    assert a2.entropies != b2.entropies  # a2 hashed "bob", carol hashed herself

    stripped = ProtocolConfig(include_receiver_identity=False)
    a3, b3, _ = drive_pair(
        ProtocolKind.MT_AUTH,
        stripped,
        machine_b_factory=lambda rng: build_machine(
            ProtocolKind.MT_AUTH, stripped, Side.B, b"carol", b"alice", rng
        ),
    )
    assert a3.entropies == b3.entropies


def test_mt_auth_delivers_message_only_after_acceptance():
    world = World(ProtocolKind.MT_AUTH, ProtocolConfig(), Model.AM, seed=23)
    init, resp = run_honest(world, message=b"m" * 32)
    delivered = [e for e in resp.events if e["event"] == "mt-delivered"]
    assert len(delivered) == 1
    assert delivered[0]["message"] == (b"m" * 32).hex()
    verified_at = resp.event_types().index("verified")
    assert resp.event_types().index("mt-delivered") > verified_at


# ---------------------------------------------------------------------------
# kem4 / kem6 equivalence and the compiler
# ---------------------------------------------------------------------------

def run_with_seeds(kind_or_factory, seed_a, seed_b):
    if isinstance(kind_or_factory, ProtocolKind):
        a, b, _ = drive_pair(kind_or_factory, ProtocolConfig(), seed_a, seed_b)
        return a, b
    rng_a, rng_b = HashDrbg(seed_a), HashDrbg(seed_b)
    a = kind_or_factory(ProtocolConfig(), Side.A, b"alice", b"bob", rng_a)
    b = kind_or_factory(ProtocolConfig(), Side.B, b"bob", b"alice", rng_b)
    payload = a.advance(None)
    current = Side.B
    machines = {Side.A: a, Side.B: b}
    while payload is not None:
        payload = machines[current].advance(payload)
        current = current.other
    return a, b


def test_kem6_equals_kem4_under_shared_rng_schedule():
    for i in range(50):
        seed_a, seed_b = (b"eq-a-%d" % i), (b"eq-b-%d" % i)
        a4, b4 = run_with_seeds(ProtocolKind.KEM4, seed_a, seed_b)
        a6, b6 = run_with_seeds(ProtocolKind.KEM6, seed_a, seed_b)
        assert a4.entropies == a6.entropies == b6.entropies
        assert a4.key == a6.key == b6.key


def test_compile_mt_produces_six_messages():
    compiled = compile_mt(ProtocolKind.KEM2)
    assert compiled.message_count == 6
    assert compiled is SPECS[ProtocolKind.KEM6]  # kem6 is the compiler's output


def test_compile_mt_rejects_other_inner_protocols():
    with pytest.raises(ValueError):
        compile_mt(ProtocolKind.KEX2)


def test_compiled_machine_matches_handwritten_kem6():
    compiled = compile_mt(ProtocolKind.KEM2)
    for i in range(25):
        seed_a, seed_b = (b"cmp-a-%d" % i), (b"cmp-b-%d" % i)
        a6, b6 = run_with_seeds(ProtocolKind.KEM6, seed_a, seed_b)
        ac, bc = run_with_seeds(compiled.build, seed_a, seed_b)
        assert ac.entropies == a6.entropies
        assert bc.entropies == b6.entropies
        assert ac.key == a6.key and bc.key == b6.key
        assert ac.done and bc.done


def test_compiled_honest_run_completes():
    compiled = compile_mt(ProtocolKind.KEM2)
    a, b = run_with_seeds(compiled.build, b"x", b"y")
    assert a.done and b.done and not a.aborted and not b.aborted
    assert a.entropies == b.entropies and a.key == b.key


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_commitment_precedes_opening_in_transcripts(kind):
    world = World(kind, ProtocolConfig(), Model.AM, seed=24)
    init, resp = run_honest(world)
    sent = []
    for record in (init, resp):
        for e in record.events:
            if e["event"] == "sent":
                sent.append((e["index"], record.role, e["labels"]))
    # order the global flow: initiator and responder alternate, so sort by
    # (seq within role) is not enough; reconstruct from reception order instead
    flow = []
    for record in (init, resp):
        for e in record.events:
            if e["event"] == "received":
                flow.append((e["seq"], record.role, e["labels"]))
    labels_in_order = [
        label for _, _, labels in sorted(flow, key=lambda t: (t[0], t[1])) for label in labels
    ]
    for label in labels_in_order:
        if label.startswith("open"):
            suffix = label[len("open"):]
            com_label = "com" + suffix
            assert com_label in labels_in_order
            assert labels_in_order.index(com_label) < labels_in_order.index(label)


def test_entropy_input_discipline():
    # main entropy values never depend on anything first fixed by the final
    # message; derived keys and locally held values are the only exceptions
    for kind in DEFENDED_KINDS:
        final = SPECS[kind].message_count
        for label, info in SPECS[kind].entropies.items():
            if not info.main:
                continue
            for element, origin in info.elements.items():
                if origin in ("derived", "local"):
                    continue
                assert origin < final, (kind, label, element)


def test_entropy_receiver_metadata_covers_all_kinds(monkeypatch):
    # every kind declares its entropy values, an honest run computes exactly
    # the declared ones, and each value hashes exactly its declared elements
    real = protocols.entropy
    hashed = {}

    def recording(receiver, elements, n_e):
        value = real(receiver, elements, n_e)
        hashed[id(value)] = [label for label, _ in elements]
        return value

    monkeypatch.setattr(protocols, "entropy", recording)
    for kind in ALL_KINDS:
        assert kind in SPECS and SPECS[kind].entropies
        a, b, _ = drive_pair(kind, ProtocolConfig())
        assert set(a.entropies) == set(b.entropies) == set(SPECS[kind].entropies)
        for machine in (a, b):
            for label, value in machine.entropies.items():
                declared = list(SPECS[kind].entropies[label].elements)
                assert hashed[id(value)] == declared, (kind, machine.side, label)


def test_state_snapshot_redacts_nothing_needed():
    # the suspended side exposes its ephemeral secret; a finished one nothing
    cfg = ProtocolConfig()
    g = cfg.group
    a = build_machine(ProtocolKind.KEX2, cfg, Side.A, b"alice", b"bob", HashDrbg(25))
    b = build_machine(ProtocolKind.KEX2, cfg, Side.B, b"bob", b"alice", HashDrbg(26))
    first = a.advance(None)
    (pka,) = expect_fields(first, ["pka"])

    def secrets(snapshot):
        ints = [int(v, 16) for v in snapshot.values() if str(v).startswith("0x")]
        return [s for s in ints if pow(g.g, s, g.p) == g.decode_element(pka)]

    snapshot = a.state_snapshot()
    assert snapshot["kind"] == "kex2" and snapshot["step"] == 1
    assert secrets(snapshot)
    a.advance(b.advance(first))
    assert a.done and not secrets(a.state_snapshot())
