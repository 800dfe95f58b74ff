"""Golden hashes: seeded outcomes must not move when the code is refactored.

Three layers of pins, all at small sizes:

  reports      the report content_sha256 of one honest config per protocol
               and one config per attack strategy, through run_experiment
  transcripts  the sha256 of an exported honest transcript per protocol and
               KEM mode, which covers every message, entropy and key, and so
               the order in which each machine draws from its random source
  attacks      the sha256 of the session records left by one run of each
               strategy against each of its targets

A pin changes only when seeded outcomes change on purpose; such a change
says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from saslab import attacks
from saslab.harness import ExperimentConfig, build_report, run_experiment
from saslab.model import Model, World, _record_to_dict, run_honest, transcript_export
from saslab.primitives import KemMode
from saslab.protocols import ProtocolConfig, ProtocolKind

SEED = 7

REPORT_PINS = [
    (dict(protocol="mt-auth", n_e=8, trials=3),
     "d119684fb8bdcc5e1ce983b06231f3fb47f6307100489ff7e9dfc32d3c7db68a"),
    (dict(protocol="kex2", n_e=8, trials=3),
     "67c9203b4b1c83caaf4c3932cf80806834c36d1ae38eb5e021ea513f407d45a3"),
    (dict(protocol="kex3", n_e=8, trials=3),
     "ca7fc0b2799844e4379b048659c6a1a581bc64c2cf841c4750e93af2bfba39a2"),
    (dict(protocol="kem2", n_e=8, trials=3),
     "dd38054cd08d0a6a6fbe40c7772dec391840dcee96ec333b1fcc6982ed956512"),
    (dict(protocol="kem3-two-entropy", n_e=8, trials=3),
     "0cd19e9735fced4f1a179b47ceca555015458c0fbb486c72ea148e5484a3d392"),
    (dict(protocol="kem3-commit", n_e=8, trials=3),
     "b501ee9bd31339bcd6ddac1186a36eb6018499e03ea7170209ae9576b885f4f0"),
    (dict(protocol="kem4", n_e=8, trials=3),
     "9cac0fd626ae574f8670ab3cf88eb9714ff968b3fbd37833651d7ec998766ee2"),
    (dict(protocol="kem6", n_e=8, trials=3),
     "153262f02863d6e83ada657dc26f5e06224d00031abb65991e60c96e0baeda06"),
    (dict(protocol="kex2", strategy="kex2-collision", n_e=4, trials=4, budget=1000),
     "3981867f39fb80167430cc24b0d634e195fabe7d7aec436231c19c134131af01"),
    (dict(protocol="kem2", strategy="kem-same-key", n_e=4, trials=16),
     "11e70e15656c3bd2565f708e1a26f6d12d47f888e6f98892b2d2a625746b4874"),
    (dict(protocol="kem2", strategy="kem2-replica", n_e=4, trials=4, budget=1000),
     "d4a3f0d6bb1b430239ed16e8f43166fcabff19c805d45125d89906e534589afe"),
    (dict(protocol="kem2", strategy="kem2-combined", kem_mode="prob", n_e=4, trials=4,
          budget=1000),
     "67c274f266e782a07ae39ee23e81b1d3a99c65c7140e2d2b6a649cedfc881ed7"),
    (dict(protocol="kem6", strategy="random-forge", n_e=4, trials=32),
     "2da20886841fadc7f6c8bbc996cd55b276bfd14021eb37a9b02ddc64fe3735a6"),
    (dict(protocol="kem4", strategy="redirect", n_e=4, trials=32),
     "f1ef6410a5e46466840bdd91239b1dee2c8c8e659407e127162efdaf91bb289e"),
]

# (protocol, kem mode) -> sha256 of the exported honest transcript
TRANSCRIPT_PINS = {
    ("mt-auth", "det"): "160f81c964b136f37b563992162f82e1e5a0885341e27c5005a8852c61954353",
    ("mt-auth", "prob"): "ebffbed9d19de1b63238403f94a23f3611adf6abfc4fc8bcfb5fdc9f87562bd5",
    ("kex2", "det"): "ccb0c83173357c16b3252a6ac1dc9f7532b1131d6ff5db27f8e22a1cdce03bc7",
    ("kex2", "prob"): "8f59f54c771ebbec50b11309e79bab0e4f17e8b185b88146709956d6adaa6356",
    ("kex3", "det"): "bdfb06a760eff0331ee1ebdefd8261b99d81d3f2573d630fd49cc78097f11c89",
    ("kex3", "prob"): "98f4e7d909ab60eeb4d9f9daec2388bc5fc30b3e2f1287dd663a0cbceb817416",
    ("kem2", "det"): "07969dc9e8b31bf31f3225be2439f8a20eeec613f8c932fe47391af1a8519d47",
    ("kem2", "prob"): "4a31ea21cff664504c0fb1b7085af93c5ba942c7a63d5a155f99a296283a7593",
    ("kem3-two-entropy", "det"): "39e5dd8ad67b10c61ea558b08d75401151b320fd4f1d66218e39d77e0753e910",
    ("kem3-two-entropy", "prob"): "3ab7f2fdde69ae1de7f44ab79af07d69191134b2e1e22e9ae88aa00b1d2f7819",
    ("kem3-commit", "det"): "ee78805eaeafd6e7131f0af888ec089ddda2838ad43a504f7d6fd2ada58d44a5",
    ("kem3-commit", "prob"): "775288e3336281c8600566aa8a26e7ecb6ff980f158867def063c7521fc10656",
    ("kem4", "det"): "6fd3b3322e11f8f6e93a9f61d0395476935b9b5cfce001c624176e549bef1b93",
    ("kem4", "prob"): "4c6517ccb5883eb8aa1146dfa540db459e24238693773920e33387742422b338",
    ("kem6", "det"): "a0427d925c378aa384c20db4787db1e9dddef4d9cab0d08f8e1d3b62c345d65e",
    ("kem6", "prob"): "c307915fc1987d8a9b530630bdff0966fd054b420f8c4d5de15f45a3c671302d",
}

# (strategy, protocol) -> sha256 of the records one trial leaves behind
ATTACK_PINS = {
    ("kex2-collision", "kex2"): "2680acfc6399475874053a1812b33a7a86dbd5f75468e1d9b644c3ac05433199",
    ("kem-same-key", "kem2"): "5de9a8808c20180fb893a31e8db1fc46b0cd4a50bdafc65f14009d8b401d6457",
    ("kem2-replica", "kem2"): "10059cfdfdd25d7eb861aaad5c8cd7a9e68f7104e61abc4744383a8bcdaccc66",
    ("kem2-combined", "kem2"): "00ad39bae2e571eea97b4b428be5ae6f1b9bdecb672ac25f493418c9bfc6fbae",
    ("random-forge", "kex3"): "328425a193d7289f12c12a2d2c68223c997c52801b49e38767c3fee7188cc7a2",
    ("random-forge", "kem3-two-entropy"): "88f59266e245f5af756c95beb6382464f093b3dc1e5c4fd1330a59be1c09f1fb",
    ("random-forge", "kem3-commit"): "21615ce151f2a62a0403ccb084776dda5b3b01cfbdb43d3307ab1bbcbd1e3b2c",
    ("random-forge", "kem4"): "a334301740f3d09a1df42e15f9814f9d820516855bf3351ad556624b3fb99735",
    ("random-forge", "kem6"): "df8bd763797fb213e30db9686c71635a36cfc34310134c9cdec62c1bf8958e4d",
    ("redirect", "mt-auth"): "4a312897b1c65d86fe04799fb7ed63593cc88395cb236ad97631cb31478c207e",
    ("redirect", "kex2"): "d773dd1108402fe13be9a7cea0b893e81eea1eaaabd85055026b6d1818527ece",
    ("redirect", "kex3"): "d5d059052144564e040a148ce77fee3ebf562127d4db9138c8d1b5c90eab7c2d",
    ("redirect", "kem2"): "1a36e6414378586414b985734cb87c4914550d204e3e1f3a4c7ae5095ea202cc",
    ("redirect", "kem3-two-entropy"): "2ab314717842b6c3df5c9d23f41d7b835bdbeddd5f7adab34d1516f5bca3e2c9",
    ("redirect", "kem3-commit"): "c280fa39dcde62fc978d89f8390bb9ba34d3cc276416aab6f10fde37f5868052",
    ("redirect", "kem4"): "347cd24ec0820a483404c4acb5fa86cd792393a9af47af8ea2a22f76c755bb26",
    ("redirect", "kem6"): "085a0af19d66b5d653ac51f01284662ab531280b3b76a0e0a0a8c55d4c493e48",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "fields, pin", REPORT_PINS,
    ids=[f"{f['protocol']}-{f.get('strategy', 'honest')}" for f, _ in REPORT_PINS],
)
def test_report_content_hash_pinned(fields, pin):
    config = ExperimentConfig(seed=SEED, **fields)
    report = build_report([run_experiment(config)], config=config)
    assert report["content_sha256"] == pin


@pytest.mark.parametrize("key", sorted(TRANSCRIPT_PINS), ids="-".join)
def test_honest_transcript_pinned(key):
    protocol, mode = key
    cfg = ProtocolConfig(n_e=8, kem_mode=KemMode(mode))
    world = World(ProtocolKind(protocol), cfg, Model.AM, SEED)
    run_honest(world)
    assert _sha(transcript_export(world)) == TRANSCRIPT_PINS[key]


def _attack(strategy, world):
    if strategy == "kex2-collision":
        return attacks.attack_kex2_collision(world, 1000)
    if strategy == "kem-same-key":
        return attacks.attack_kem_same_key(world)
    if strategy == "kem2-replica":
        return attacks.attack_kem2_replica(world, 1000)
    if strategy == "kem2-combined":
        return attacks.attack_kem2_replica(world, 1000, reuse_secret=True)
    if strategy == "random-forge":
        return attacks.forge_trial(world)
    return attacks.redirect_trial(world)


@pytest.mark.parametrize("key", sorted(ATTACK_PINS), ids="-".join)
def test_attack_records_pinned(key):
    strategy, protocol = key
    mode = KemMode.PROBABILISTIC if strategy == "kem2-combined" else KemMode.DETERMINISTIC
    parties = (b"alice", b"bob", b"carol") if strategy == "redirect" else (b"alice", b"bob")
    world = World(
        ProtocolKind(protocol), ProtocolConfig(n_e=4, kem_mode=mode), Model.UM, SEED, parties
    )
    outcome = _attack(strategy, world)
    records = [_record_to_dict(r) for r in world.records()]
    blob = json.dumps([outcome.success, outcome.iterations, records], sort_keys=True)
    assert _sha(blob.encode()) == ATTACK_PINS[key]
