"""Isolated timings of saslab's public functions, and process-pool scaling.

Each timing is the median over a few batches of the per-call time, in µs.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time

from saslab import harness
from saslab.model import Model, SessionStatus, World, run_honest
from saslab.primitives import GROUPS, kex_agree, kex_keygen
from saslab.protocols import STARTING_SIDE, ProtocolConfig, ProtocolKind, Side, build_machine
from saslab.rng import HashDrbg, derive_seed

BATCHES = 3
PAIRED_BATCHES = 7


def _per_call_us(fn, calls: int) -> float:
    samples = []
    for _ in range(BATCHES):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - started) / calls * 1e6)
    return statistics.median(samples)


def _party_rng(seed: bytes, name: bytes) -> HashDrbg:
    # the stream World gives a party, so a bare run does the same
    # arithmetic as the world-driven run it is subtracted from
    return HashDrbg(derive_seed(seed, b"party", name))


def _bare_run(kind: ProtocolKind, cfg: ProtocolConfig, seed: bytes) -> None:
    """Two machines driven directly, without a World."""
    machines = {
        Side.A: build_machine(kind, cfg, Side.A, b"alice", b"bob", _party_rng(seed, b"alice")),
        Side.B: build_machine(kind, cfg, Side.B, b"bob", b"alice", _party_rng(seed, b"bob")),
    }
    side = STARTING_SIDE[kind]
    payload = machines[side].advance(None)
    while payload is not None:
        side = side.other
        payload = machines[side].advance(payload)
    a, b = machines[Side.A], machines[Side.B]
    if a.key != b.key or a.entropies != b.entropies:
        raise AssertionError(f"bare {kind.value} run ended with mismatched keys")


def _world_run(kind: ProtocolKind, cfg: ProtocolConfig, seed: bytes) -> None:
    init, resp = run_honest(World(kind, cfg, Model.AM, seed))
    if not (init.status is SessionStatus.COMPLETED and resp.status is SessionStatus.COMPLETED):
        raise AssertionError(f"honest {kind.value} run did not complete")


def _run_pair_us(kind: ProtocolKind, cfg: ProtocolConfig, runs: int) -> tuple[float, float]:
    """Median per-run µs of bare runs and of world overhead, from batches that
    alternate the two over the same seeds."""
    seeds = [derive_seed(0, b"micro-run", i.to_bytes(4, "big")) for i in range(runs)]
    bare, overhead = [], []
    for _ in range(PAIRED_BATCHES):
        started = time.perf_counter()
        for seed in seeds:
            _bare_run(kind, cfg, seed)
        middle = time.perf_counter()
        for seed in seeds:
            _world_run(kind, cfg, seed)
        ended = time.perf_counter()
        bare.append((middle - started) / runs * 1e6)
        overhead.append((ended - middle - (middle - started)) / runs * 1e6)
    return statistics.median(bare), statistics.median(overhead)


def layer_timings() -> dict[str, float]:
    out = {}
    rng = HashDrbg(derive_seed(0, b"micro"))
    for name, group in GROUPS.items():
        calls = 200 if group.p.bit_length() <= 256 else 4
        out[f"primitives.kex_keygen_us.{name}"] = _per_call_us(lambda: kex_keygen(group, rng), calls)
        own, peer = kex_keygen(group, rng), kex_keygen(group, rng).public
        out[f"primitives.kex_agree_us.{name}"] = _per_call_us(lambda: kex_agree(own, peer, group), calls)
    out["rng.randbytes_us"] = _per_call_us(lambda: rng.randbytes(32), 5000)
    cfg = ProtocolConfig(n_e=8)
    for kind in ProtocolKind:
        bare, overhead = _run_pair_us(kind, cfg, 20)
        out[f"protocols.bare_run_us.{kind.value}"] = bare
        out[f"model.world_overhead_us.{kind.value}"] = overhead
    return out


def build_report_ms(summaries) -> float:
    return _per_call_us(lambda: harness.build_report(summaries), 20) / 1000


def pool_scaling(configs) -> tuple[float, bool]:
    """Serial over parallel wall time for the configs, and whether both
    runs gave the same report content hash."""
    jobs = min(2, len(os.sched_getaffinity(0)))
    walls, hashes = [], []
    for parallelism in (1, jobs):
        started = time.perf_counter()
        summaries = [
            harness.run_experiment(dataclasses.replace(c, parallelism=parallelism))
            for c in configs
        ]
        walls.append(time.perf_counter() - started)
        hashes.append(harness.build_report(summaries)["content_sha256"])
    return walls[0] / walls[1], hashes[0] == hashes[1]
