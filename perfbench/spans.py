"""Span tracer that wraps indexlab's public functions from outside.

`Tracer.install()` replaces each function in `LAYERS` with a wrapper in
every `indexlab.*` module namespace that binds it, so calls between modules
(and calls within a module, which go through its globals) are recorded.
`uninstall()` puts the originals back; both are cheap, so a run can switch
tracing on and off around single calls.  The program's files stay
untouched.

Each call becomes a span (layer id, parent span, start ns, end ns) kept in
flat arrays in memory; `write()` dumps them when the run ends.  A layer's
self time is the duration of its spans minus the time their direct child
spans cover; its total time counts only outermost activations, so a
recursive call is not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, function) pairs wrapped in a traced run, in report order
LAYERS = (
    ("cli", "main"),
    ("intpoly", "parse_poly"),
    ("intpoly", "poly_discriminant"),
    ("numberfield", "is_irreducible"),
    ("numberfield", "build_field"),
    ("arith", "factorint"),
    ("arith", "square_divisor_primes"),
    ("arith", "primes_upto"),
    ("numberfield", "dedekind_test"),
    ("numberfield", "split_prime"),
    ("modpoly", "factor_mod_p"),
    ("refinement", "max_i_valuation"),
    ("refinement", "min_index_valuation"),
    ("invariants", "full_report"),
    ("invariants", "good_element"),
    ("invariants", "maccluer_support"),
    ("numberfield", "char_poly"),
    ("families", "verify_one"),
)

LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYERS)


class Tracer:
    def __init__(self):
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.nested = array("b")  # 1 if the same layer was already active
        self._stack: list[int] = []
        self._depth = [0] * len(LAYERS)
        self._bindings: list[tuple[object, str, object, object]] = []
        # counts read from public return values
        self.round2_primes = 0
        self.i_witness_level_max = 0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, lid: int, fn):
        layer, parent, start, end, nested = (
            self.layer, self.parent, self.start, self.end, self.nested,
        )
        stack, depth, clock = self._stack, self._depth, time.perf_counter_ns
        name = LAYER_NAMES[lid]
        on_return = {
            "numberfield.build_field": self._saw_field,
            "refinement.max_i_valuation": self._saw_i_witness,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            layer.append(lid)
            parent.append(stack[-1] if stack else -1)
            nested.append(1 if depth[lid] else 0)
            end.append(0)
            stack.append(idx)
            depth[lid] += 1
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth[lid] -= 1
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def _saw_field(self, field):
        self.round2_primes += len(field.index_valuations)

    def _saw_i_witness(self, result):
        witness = result[1]
        if witness is not None:
            self.i_witness_level_max = max(self.i_witness_level_max, witness[0])

    def install(self):
        """Wrap every layer in every indexlab module that binds it.

        The wrappers are made on the first call; later calls put the same
        wrappers back, so a run can switch tracing on and off per call.
        """
        if not self._bindings:
            modules = [
                m for name, m in list(sys.modules.items())
                if m is not None and (name == "indexlab" or name.startswith("indexlab."))
            ]
            for lid, (mod, fn) in enumerate(LAYERS):
                original = getattr(sys.modules[f"indexlab.{mod}"], fn)
                wrapper = self._wrap(lid, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._bindings.append((m, attr, original, wrapper))
        for m, attr, _, wrapper in self._bindings:
            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original, _ in self._bindings:
            setattr(m, attr, original)

    # -- reporting --------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, total_s (outermost activations), self_s."""
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        calls = [0] * len(LAYERS)
        total = [0] * len(LAYERS)
        self_ns = [0] * len(LAYERS)
        for i in range(n):
            lid = self.layer[i]
            dur = self.end[i] - self.start[i]
            calls[lid] += 1
            self_ns[lid] += dur - child_ns[i]
            if not self.nested[i]:
                total[lid] += dur
        return {
            name: {
                "calls": calls[lid],
                "total_s": total[lid] / 1e9,
                "self_s": self_ns[lid] / 1e9,
            }
            for lid, name in enumerate(LAYER_NAMES)
        }

    def write(self, path):
        """Dump every span as [layer, parent, start_ns, end_ns], one per line."""
        t0 = self.start[0] if len(self.start) else 0
        with open(path, "w") as fh:
            fh.write(json.dumps({"layers": LAYER_NAMES}) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    f"[{self.layer[i]},{self.parent[i]},"
                    f"{self.start[i] - t0},{self.end[i] - t0}]\n"
                )
