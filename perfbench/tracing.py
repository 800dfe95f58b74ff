"""Span tracer for the traced run.

It wraps saslab's public functions from outside the package. `protocols`,
`attacks`, `model` and `harness` import primitives and rng functions by
name, so a function is replaced in every saslab module that holds it, not
only in the module that defines it. Methods are replaced on their class.

Spans are kept in memory as (name id, start ns, end ns, parent index) and
written out as JSON when the run ends. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# layer -> public functions timed in that layer
FUNCTIONS = {
    "rng": ("derive_seed",),
    "primitives": (
        "kex_keygen", "kem_keygen", "kem_encaps", "kem_encaps_star",
        "kex_agree", "kem_decaps_star", "pke_encrypt", "commit",
        "open_commitment", "entropy", "encode_fields", "decode_fields",
    ),
    "protocols": ("build_machine",),
    "model": ("run_honest",),
    "attacks": (
        "forge_trial", "redirect_trial", "attack_kex2_collision",
        "attack_kem2_replica",
    ),
}
# layer -> (class, method) pairs
METHODS = {
    "rng": (("HashDrbg", "randbytes"),),
    "protocols": (("Machine", "advance"),),
    "model": (
        ("World", "__init__"), ("World", "start_session"),
        ("World", "schedule"), ("World", "i_f_verify"),
    ),
}
# trial entry points whose outcome says whether the trial aborted before verify
ENTRY_POINTS = ("attacks.forge_trial", "attacks.redirect_trial")
MESSAGE_ACTIONS = ("Deliver", "Modify", "Inject")


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in FUNCTIONS.items() for fn in fns]
    names += [f"{layer}.{cls}.{meth}" for layer, pairs in METHODS.items() for cls, meth in pairs]
    return names


def _aborted(args, result) -> bool:
    return bool(result.detail.get("aborted"))


def _is_message(args, result) -> bool:
    return type(args[1]).__name__ in MESSAGE_ACTIONS


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        """A span around a call the benchmark makes itself."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (self._name_id(name), start, end, parent)

    def wrap(self, name: str, fn, observe=None):
        name_id = self._name_id(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if observe is not None and observe(args, result):
                counts[name] += 1
            return result

        return traced

    def install(self) -> None:
        import saslab

        modules = [m for n, m in sys.modules.items() if n == "saslab" or n.startswith("saslab.")]
        for layer, fns in FUNCTIONS.items():
            home = getattr(saslab, layer)
            for fn_name in fns:
                original = getattr(home, fn_name)
                name = f"{layer}.{fn_name}"
                wrapper = self.wrap(name, original, _aborted if name in ENTRY_POINTS else None)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for layer, pairs in METHODS.items():
            home = getattr(saslab, layer)
            for cls_name, meth in pairs:
                cls = getattr(home, cls_name)
                original = vars(cls)[meth]
                name = f"{layer}.{cls_name}.{meth}"
                observe = _is_message if meth == "schedule" else None
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, observe))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, tuple[int, int]]:
        """name -> (calls, total self time in ns)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for index, (name_id, start, end, _) in enumerate(self.spans):
            calls[name_id] += 1
            self_ns[name_id] += end - start - child_ns[index]
        return {name: (calls[i], self_ns[i]) for i, name in enumerate(self.names)}

    def dump(self, path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump(
                {**meta, "names": self.names, "spans": self.spans},
                out, separators=(",", ":"),
            )
