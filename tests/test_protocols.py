import dataclasses

import pytest

from saslab import protocols
from saslab.attacks import DEFENDED_KINDS
from saslab.model import (
    AdversaryView,
    Deliver,
    Inject,
    MessageEnvelope,
    Model,
    Modify,
    SequencingError,
    SessionStatus,
    World,
    run_honest,
)
from saslab.primitives import (
    GroupParams,
    KemMode,
    commit,
    decode_fields,
    derive_key,
    encode_fields,
    entropy,
    expect_fields,
)
from saslab.protocols import (
    SPECS,
    EntropySpec,
    Machine,
    ProtocolConfig,
    ProtocolError,
    ProtocolKind,
    Side,
    build_machine,
    compile_mt,
    entropy_rule,
)
from saslab.rng import HashDrbg

ALL_KINDS = list(ProtocolKind)
TRANSFER_KINDS = [kind for kind in ALL_KINDS if SPECS[kind].schedule]
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


# (kind, the label of a peer element on the wire, the party that decodes it)
PEER_ELEMENTS = [
    (ProtocolKind.KEX2, "pka", b"bob"),
    (ProtocolKind.KEX2, "pkb", b"alice"),
    (ProtocolKind.KEM3_COMMIT, "pk", b"alice"),  # alice takes column B
]


@pytest.mark.parametrize("kind, label, party", PEER_ELEMENTS,
                         ids=[f"{kind.value}-{label}" for kind, label, _ in PEER_ELEMENTS])
@pytest.mark.parametrize("bad, reason", [
    ("short", "wrong element encoding length"),
    ("zero", "decoded element out of range"),
    ("p", "decoded element out of range"),
])
def test_a_malformed_peer_element_aborts_the_session(kind, label, party, bad, reason):
    # the adversary replaces the element on the wire; its receiver aborts on
    # decoding it, and verifying the aborted session is a sequencing error
    world = World(kind, ProtocolConfig(), Model.UM, seed=32)
    g = world.cfg.group
    sid = world.start_session(b"alice", b"bob")
    while True:
        env = world.undelivered[0]
        fields = decode_fields(env.payload)
        if label in dict(fields):
            break
        world.schedule(Deliver(env))
    raw = dict(fields)[label]
    value = {"short": raw[:-1], "zero": bytes(len(raw)), "p": g.p.to_bytes(len(raw), "big")}[bad]
    world.schedule(Modify(env, encode_fields([(k, value if k == label else v) for k, v in fields])))
    record = world.session_record(party, sid)
    assert record.status is SessionStatus.ABORTED
    assert record.events[-1]["reason"] == reason
    assert not world.undelivered
    peer = b"alice" if party == b"bob" else b"bob"
    with pytest.raises(SequencingError, match="session aborted before verification"):
        world.i_f_verify(party, sid, peer, sid)


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
# transfer schedules
# ---------------------------------------------------------------------------

def test_the_transfer_kinds_are_schedules():
    assert TRANSFER_KINDS == [ProtocolKind.MT_AUTH, ProtocolKind.KEM4, ProtocolKind.KEM6]


@pytest.mark.parametrize("kind", TRANSFER_KINDS, ids=[k.value for k in TRANSFER_KINDS])
def test_schedule_agrees_with_its_specs_row(kind):
    # com and open act on the sender's own leg, chal on the peer's, and the
    # pk rides A's; each entropy element must be declared at the message the
    # schedule puts it in (msg at its leg's commit)
    spec = SPECS[kind]
    assert len(spec.schedule) == spec.message_count
    placed, sender = {}, spec.starting_side
    for index, labels in enumerate(spec.schedule, 1):
        for label in labels:
            step = label.split("_")[0]
            owner = sender.other if step == "chal" else sender
            assert (f"E_{owner.value}", step) not in placed, label
            placed[f"E_{owner.value}", step] = index
        sender = sender.other
    for name, value in spec.entropies.items():
        for element, index in value.elements.items():
            assert placed[name, "com" if element == "msg" else element] == index, (name, element)
        assert placed[name, "com"] < placed[name, "chal"] < placed[name, "open"]


@pytest.mark.parametrize("kind", [ProtocolKind.KEM4, ProtocolKind.KEM6], ids=["kem4", "kem6"])
def test_a_committed_non_encapsulation_aborts_after_decoding(kind):
    # the adversary carries B's leg with a commitment to bytes that open fine
    # but are no encapsulation: A aborts on decoding them, before E_B, and
    # keeps E_A alone; B, which has sent its opening, holds E_A and E_B
    world = World(kind, ProtocolConfig(), Model.UM, seed=31)
    sid = world.start_session(b"alice", b"bob")
    view = AdversaryView(world)
    c, d = commit(b"\x01" * 32, view.rng)
    forged = {"com_ct": c.encode(), "open_ct": d.encode()}
    while view.pending():
        env = view.pending()[0]
        fields = decode_fields(env.payload)
        if any(label in forged for label, _ in fields):
            view.modify(env, encode_fields([(k, forged.get(k, v)) for k, v in fields]))
        else:
            view.deliver(env)
    alice = world.session_record(b"alice", sid)
    assert alice.status is SessionStatus.ABORTED
    assert alice.events[-1]["reason"] == "wrong encapsulation length"
    assert list(alice.entropies) == ["E_A"]
    bob = world.parties[b"bob"].sessions[sid].machine
    assert bob.done and not bob.aborted
    assert list(bob.entropies) == ["E_A", "E_B"]
    assert bob.entropies["E_A"] == alice.entropies["E_A"]


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


ENTROPY_PROFILES = {
    "identities": ProtocolConfig(),
    "no-identities": ProtocolConfig(include_receiver_identity=False),
    "kem2-key-only": ProtocolConfig(kem2_key_only_entropy=True),
}


@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_session_entropy_is_entropy_over_the_declared_elements(kind, monkeypatch):
    # entropy_rule gives what each SPECS row declares: the bound receiver or
    # none, then its elements in declared order, or the key alone under kem2's
    # key-only profile (which no other kind heeds); and entropy over the
    # values a machine holds, taken by that rule, is the machine's value
    real, held = Machine._entropy, []

    def recording(machine, label, **values):
        held.append((machine, label, values))
        real(machine, label, **values)

    monkeypatch.setattr(Machine, "_entropy", recording)
    # drive_pair's parties; a value that binds no side is offered a name to blank
    identity = {Side.A: b"alice", Side.B: b"bob", None: b"bob"}
    for profile, cfg in ENTROPY_PROFILES.items():
        held.clear()
        drive_pair(kind, cfg)
        assert sorted(label for _, label, _ in held) == sorted([*SPECS[kind].entropies] * 2)
        for machine, label, values in held:
            rule = SPECS[kind].entropies[label]
            key_only = cfg.kem2_key_only_entropy and kind is ProtocolKind.KEM2
            bound = rule.receiver is not None and cfg.include_receiver_identity
            receiver, names = entropy_rule(SPECS[kind], cfg, label, identity[rule.receiver])
            assert receiver == (identity[rule.receiver] if bound else b""), (profile, label)
            assert names == (("key",) if key_only else tuple(rule.elements)), (profile, label)
            expected = entropy(receiver, [(n, values[n]) for n in names], cfg.n_e)
            assert machine.entropies[label] == expected, (profile, label, machine.side)


def test_a_swapped_specs_row_reaches_the_machines(monkeypatch):
    # kem3-commit's E without pk, the first mutant of ROADMAP item 1: both
    # machines hash the mutant's elements whether the row's entropy spec or
    # the whole row is replaced, so no per-row rule is kept outside the row
    kind, cfg = ProtocolKind.KEM3_COMMIT, ProtocolConfig(n_e=64)
    real, hashed = protocols.entropy, []

    def recording(receiver, elements, n_e):
        hashed.append([label for label, _ in elements])
        return real(receiver, elements, n_e)

    monkeypatch.setattr(protocols, "entropy", recording)
    a, b, _ = drive_pair(kind, cfg)
    shipped = a.entropies["E"]
    assert b.entropies["E"] == shipped and hashed == [["pk", "com", "key"]] * 2
    rule = SPECS[kind].entropies["E"]
    mutant = EntropySpec(rule.receiver, {k: v for k, v in rule.elements.items() if k != "pk"})
    swaps = {
        "spec": (SPECS[kind].entropies, "E", mutant),
        "row": (SPECS, kind, dataclasses.replace(SPECS[kind], entropies={"E": mutant})),
    }
    for swap, (mapping, key, value) in swaps.items():
        with monkeypatch.context() as patch:
            patch.setitem(mapping, key, value)
            hashed.clear()
            a2, b2, _ = drive_pair(kind, cfg)
            assert hashed == [["com", "key"]] * 2, swap
            assert a2.key == a.key and a2.entropies["E"] == b2.entropies["E"] != shipped, swap
            records = run_honest(World(kind, cfg, Model.AM, 5))
            assert hashed[2:] == [["com", "key"]] * 2, swap
            assert records[0].entropies == records[1].entropies, swap
    assert SPECS[kind].entropies["E"] is rule


BAD_CONFIG_FIELDS = [
    *(("n_e", value) for value in (3, 65, "8", 8.0, True)),
    *(("kem_mode", value) for value in ("det", "prob", None)),
    *((flag, value) for flag in ("kem2_key_only_entropy", "include_receiver_identity")
      for value in ("no", 1, None)),
    *(("group", value) for value in ("toy256", None)),
]


@pytest.mark.parametrize("name, value", BAD_CONFIG_FIELDS,
                         ids=[f"{name}={value!r}" for name, value in BAD_CONFIG_FIELDS])
def test_a_protocol_config_refuses_a_bad_field(name, value):
    # refused when built, naming the field: a string kem mode would run the
    # probabilistic branch, a string flag would read as true, and a bool n_e
    # would be a one-bit code
    with pytest.raises(ValueError, match=name):
        ProtocolConfig(**{name: value})
    with pytest.raises(ValueError, match=name):  # a variant is checked as it is built
        dataclasses.replace(ProtocolConfig(), **{name: value})


def test_a_protocol_config_is_frozen_and_its_variants_are_checked():
    # a World keeps the config it was given: changing it after construction
    # would run a width the construction never saw
    cfg = ProtocolConfig(n_e=8)
    world = World(ProtocolKind.KEX3, cfg, Model.AM, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n_e = 3
    assert world.cfg is cfg and cfg.n_e == 8
    init, resp = run_honest(world)
    assert init.status is resp.status is SessionStatus.COMPLETED
    with pytest.raises(ValueError, match=r"^n_e 65 is outside \[4, 64\]$"):
        dataclasses.replace(cfg, n_e=65)
    assert dataclasses.replace(cfg, n_e=64, kem_mode=KemMode.PROBABILISTIC) == ProtocolConfig(
        n_e=64, kem_mode=KemMode.PROBABILISTIC)


@pytest.mark.parametrize("seed", [-1, 1 << 64, 1.5, True, "07", bytearray(b"\x07")])
def test_a_world_refuses_a_bad_seed(seed):
    # a seed is bytes, or an int that fits the 8 bytes derive_seed encodes
    with pytest.raises(ValueError, match="seed"):
        World(ProtocolKind.KEX3, ProtocolConfig(), Model.AM, seed)


@pytest.mark.parametrize("seed", [0, (1 << 64) - 1, b"", b"\x07"])
def test_a_world_takes_each_end_of_the_seed_range(seed):
    init, resp = run_honest(World(ProtocolKind.KEX3, ProtocolConfig(), Model.AM, seed))
    assert init.status is resp.status is SessionStatus.COMPLETED


def test_a_finished_column_keeps_no_secret():
    # the suspended side keeps its ephemeral key pair in its column's frame; a
    # finished side has no frame, so its session state is erased at completion
    cfg = ProtocolConfig()
    g = cfg.group
    a = build_machine(ProtocolKind.KEX2, cfg, Side.A, b"alice", b"bob", HashDrbg(25))
    b = build_machine(ProtocolKind.KEX2, cfg, Side.B, b"bob", b"alice", HashDrbg(26))
    first = a.advance(None)
    (pka,) = expect_fields(first, ["pka"])
    pair = a._flow.gi_frame.f_locals["pair"]
    assert pow(g.g, pair.secret, g.p) == g.decode_element(pka)
    a.advance(b.advance(first))
    assert a.done and a._flow.gi_frame is None


@pytest.mark.parametrize("kind", [ProtocolKind.KEM4, ProtocolKind.KEM6], ids=["kem4", "kem6"])
def test_transfer_state_is_erased_when_the_run_ends(kind):
    # a suspended side keeps its key pair and its legs; a side that has
    # finished, or aborted on a bad opening, keeps neither
    cfg = ProtocolConfig()
    a = build_machine(kind, cfg, Side.A, b"alice", b"bob", HashDrbg(27))
    b = build_machine(kind, cfg, Side.B, b"bob", b"alice", HashDrbg(28))
    payload, receiver, other = a.advance(None), b, a
    while not b.done:
        payload, receiver, other = receiver.advance(payload), other, receiver
    assert a.pair.secret and a.legs["E_B"]["c"].digest
    (raw,) = expect_fields(payload, ["open_ct"])
    tampered = raw[:-1] + bytes([raw[-1] ^ 1])
    with pytest.raises(ProtocolError, match="opening rejected"):
        a.advance(encode_fields([("open_ct", tampered)]))
    for machine in (a, b):
        assert keeps_no_column_state(machine)


def keeps_no_column_state(machine) -> bool:
    """The machine's column has no frame, and a transfer's attributes are erased."""
    kept = (getattr(machine, name, None) for name in ("legs", "pk", "peer", "pair"))
    return machine._flow.gi_frame is None and all(value is None for value in kept)


@pytest.mark.parametrize("way", ["schema", "start-signal"])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_an_aborted_machine_keeps_no_column_state(kind, way):
    # after the first message both sides have run their column; abort each
    # with a payload of the wrong schema or a second start signal, and
    # neither may keep the column's locals (pair, c, ...) or the
    # attributes it keeps (legs, pk, peer, pair)
    world = World(kind, ProtocolConfig(), Model.UM, seed=41)
    sid = world.start_session(b"alice", b"bob")
    first = world.undelivered[0]
    starter = world.parties[first.sender].sessions[sid].machine
    assert not keeps_no_column_state(starter)  # the live column shows
    world.schedule(Deliver(first))
    for name, peer in ((b"alice", b"bob"), (b"bob", b"alice")):
        machine = world.parties[name].sessions[sid].machine
        if way == "schema":
            bogus = MessageEnvelope(peer, name, sid, 1, encode_fields([("bogus", b"x")]))
            world.schedule(Inject(bogus))
            assert world.session_record(name, sid).status is SessionStatus.ABORTED
        else:
            with pytest.raises(ProtocolError):
                machine.advance(None)
        assert machine.aborted
        assert keeps_no_column_state(machine), name
