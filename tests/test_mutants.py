"""Mutants of the shipped protocols, each killed by an attack and an oracle.

A mutant is a SPECS row replaced through monkeypatch. It is killed when an
attack on it is accepted and the matching-conversations oracle flags that
accept, while the same attack on the shipped row is rejected. Golden byte
pins do not count as kills.

The oracle needs no expected outcome (Bellare and Rogaway, CRYPTO '93): an
accept must come with matching conversations, each end having received
exactly what the other sent, between two ends that each name the other as
peer. A redirect relays payloads unchanged, so only the peer check sees it:
alice names bob, but her end was verified against carol's.

One mutant is killed by a criterion instead: kem3-commit without its
reopen check, run through acceptance.criterion_6 as a function, which
tampers with the encapsulation alone and must see the initiator abort.

Survivors, each with receiver=None on one entropy value, are not all alike.
Measured at n_e 8 with 10^4 redirect trials at seed 7 (asserted nowhere):

- kem3-two-entropy's E_B1 and E_B2 survive at n_e 64 and are weakened at
  low n_e: the redirect succeeds 51 (E_B1) and 34 (E_B2) times, against 0 on
  the shipped row. The other of the two values still binds the receiver the
  redirect changes, so a redirect needs one digest collision, not two.
- kem4's and kem6's E_B: 42 successes each, the same trials as on the
  shipped rows. E_B binds the initiator's name, which a redirect leaves
  alone, and E_A still binds the receiver it changes: equivalent for the
  redirect.
"""

import dataclasses

import pytest

from saslab import protocols
from saslab.acceptance import criterion_6
from saslab.attacks import redirect_trial
from saslab.model import AdversaryView, Model, SessionStatus, World, run_honest
from saslab.primitives import (
    Commitment,
    Encapsulation,
    decode_fields,
    encode_fields,
    kem_decaps_star,
    kem_encaps_star,
    kem_keygen,
    pke_decrypt,
    pke_encrypt,
)
from saslab.protocols import SPECS, ProtocolConfig, ProtocolError, ProtocolKind, Side

CFG = ProtocolConfig(n_e=64)  # a collision of the digests is out of reach
PARTIES = (b"alice", b"bob", b"carol")  # carol: the redirect's third party
SEEDS = range(1, 6)


def matching_conversations(world, end_a, end_b) -> bool:
    """Each end, a (party, sid) pair, received exactly what the other sent, and
    names the other's party as peer."""
    (a, sid_a), (b, sid_b) = end_a, end_b
    record_a, record_b = world.session_record(a, sid_a), world.session_record(b, sid_b)
    sent_a, received_a = record_a.conversation()
    sent_b, received_b = record_b.conversation()
    return (received_a == sent_b and received_b == sent_a
            and record_a.parties == (a, b) and record_b.parties == (b, a))


def oracle_holds(world, ends, verdict) -> bool:
    return verdict != "accept" or matching_conversations(world, *ends)


def kem3_commit_reencapsulating_mitm(world):
    """Relay alice's com and send alice the attacker's pk in place of bob's;
    decapsulate x and decrypt the blinder from her reply, then re-encapsulate
    x and re-encrypt the blinder under bob's pk, so bob's reopen check passes.
    Returns the two verified ends and the verdict of the out-of-band comparison."""
    sid = world.start_session(b"alice", b"bob")
    view = AdversaryView(world)
    g = view.cfg.group
    view.deliver(view.pending()[0])  # com
    env = view.pending()[0]
    ((_, pkb_raw),) = decode_fields(env.payload)
    own = kem_keygen(g, view.rng)
    view.modify(env, encode_fields([("pk", g.encode_element(own.public))]))
    env = view.pending()[0]
    (_, ct_raw), (_, ctd) = decode_fields(env.payload)
    x, _ = kem_decaps_star(own.secret, Encapsulation.decode(ct_raw, g), g)
    blinder = pke_decrypt(own.secret, g, ctd)
    pkb = g.decode_element(pkb_raw)
    ct, _ = kem_encaps_star(pkb, x, g, view.cfg.kem_mode, view.rng)
    ctd = pke_encrypt(pkb, g, blinder, view.rng)
    view.modify(env, encode_fields([("ct", ct.encode(g)), ("ctd", ctd)]))
    return ((b"alice", sid), (b"bob", sid)), view.verify(b"alice", sid, b"bob", sid)


def redirect(world):
    """attacks.redirect_trial, which verifies alice's end against carol's.
    Returns those two ends and the verdict."""
    accepted = redirect_trial(world).success
    (alice,), (carol,) = (world.parties[party].sessions for party in (b"alice", b"carol"))
    return ((b"alice", alice), (b"carol", carol)), "accept" if accepted else "reject"


def replaced(kind, label, **changes):
    """The kind's SPECS row with entropy value `label` changed as given."""
    spec = SPECS[kind]
    rule = dataclasses.replace(spec.entropies[label], **changes)
    return dataclasses.replace(spec, entropies={**spec.entropies, label: rule})


def without(kind, label, element):
    """The kind's SPECS row with `element` left out of entropy value `label`."""
    elements = SPECS[kind].entropies[label].elements
    return replaced(kind, label, elements={n: o for n, o in elements.items() if n != element})


# name: (kind, the mutant row, the attack that kills it)
MUTANTS = {
    "kem3-commit-E-without-pk": (
        ProtocolKind.KEM3_COMMIT,
        lambda: without(ProtocolKind.KEM3_COMMIT, "E", "pk"),
        kem3_commit_reencapsulating_mitm,
    ),
    "kex3-E_B-without-receiver": (
        ProtocolKind.KEX3,
        lambda: replaced(ProtocolKind.KEX3, "E_B", receiver=None),
        redirect,
    ),
    "mt-auth-E_A-without-receiver": (
        ProtocolKind.MT_AUTH,
        lambda: replaced(ProtocolKind.MT_AUTH, "E_A", receiver=None),
        redirect,
    ),
    "kem4-E_A-without-receiver": (
        ProtocolKind.KEM4,
        lambda: replaced(ProtocolKind.KEM4, "E_A", receiver=None),
        redirect,
    ),
    "kem6-E_A-without-receiver": (
        ProtocolKind.KEM6,
        lambda: replaced(ProtocolKind.KEM6, "E_A", receiver=None),
        redirect,
    ),
    "kem3-commit-E-without-receiver": (
        ProtocolKind.KEM3_COMMIT,
        lambda: replaced(ProtocolKind.KEM3_COMMIT, "E", receiver=None),
        redirect,
    ),
}


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=[k.value for k in ProtocolKind])
def test_honest_runs_have_matching_conversations(kind):
    # the oracle passes every shipped kind's honest accept
    for seed in SEEDS:
        world = World(kind, CFG, Model.AM, seed)
        init, _ = run_honest(world)
        assert init.status is SessionStatus.COMPLETED, seed
        ends = (b"alice", init.session), (b"bob", init.session)
        assert matching_conversations(world, *ends), seed


@pytest.mark.parametrize("name", MUTANTS)
def test_a_mutant_is_accepted_by_its_attack_and_flagged_by_the_oracle(name, monkeypatch):
    kind, mutant, attack = MUTANTS[name]

    def runs():
        out = []
        for seed in SEEDS:
            world = World(kind, CFG, Model.UM, seed, PARTIES)
            ends, verdict = attack(world)
            out.append((verdict, oracle_holds(world, ends, verdict)))
        return out

    assert runs() == [("reject", True)] * len(SEEDS)  # the shipped row holds
    with monkeypatch.context() as patch:
        patch.setitem(SPECS, kind, mutant())
        assert runs() == [("accept", False)] * len(SEEDS)
    assert runs() == [("reject", True)] * len(SEEDS)  # and holds again once restored


def kem3_commit_without_reopen_check(m):
    """protocols._kem3_commit with the initiator's `open_commitment(...) is
    REJECT` abort left out: it takes any encapsulation as the committed one."""
    if m.side is Side.B:
        return (yield from protocols._kem3_commit(m))
    g = m.cfg.group
    (raw_c,) = yield None, ["com"]
    c = Commitment(raw_c)
    pair = kem_keygen(g, m.rng)
    pk = g.encode_element(pair.public)
    ct, ctd = yield [("pk", pk)], ["ct", "ctd"]
    blinder = pke_decrypt(pair.secret, g, ctd)
    _, m.key = kem_decaps_star(pair.secret, Encapsulation.decode(ct, g), g)
    if len(blinder) != 32:
        raise ProtocolError("recovered blinder has wrong length")
    m._entropy("E", pk=pk, com=c.digest, key=m.key.key)
    return None


def test_kem3_commit_without_its_reopen_check_fails_criterion_6(monkeypatch):
    # C6 tampers with the encapsulation alone; only the reopen check aborts on it
    assert criterion_6().passed  # the shipped row holds
    with monkeypatch.context() as patch:
        patch.setitem(SPECS, ProtocolKind.KEM3_COMMIT, dataclasses.replace(
            SPECS[ProtocolKind.KEM3_COMMIT], column=kem3_commit_without_reopen_check))
        result = criterion_6()
    assert not result.passed and result.detail == "0/10000 aborts", result.line()
