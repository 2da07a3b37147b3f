"""Per-layer tracing from outside the package.

In a traced child, `Tracer.install` replaces each public function named in
LAYERS, in every lensframe namespace that binds it, with a wrapper that
records a span (name, start, end, parent).  Spans stay in memory until
`Tracer.dump`.  The parent reads them back with `load` and turns them into
per-layer self times with `self_times`.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

import arith

# (module, function) pairs, named as lensframe's modules export them.
LAYERS = (
    ("sweeps", "lift_mismatch"),
    ("sweeps", "invariant_table"),
    ("sweeps", "residue_table"),
    ("classify", "collision_scan"),
    ("classify", "invariant_fibers"),
    ("classify", "verify_prime_classification"),
    ("classify", "related"),
    ("modring", "mod_inverse"),
    ("modring", "normalize"),
    ("modring", "units"),
    ("modring", "square_units"),
    ("modring", "is_prime"),
    ("framing", "framing_invariant"),
    ("framing", "normalized_framing_invariant"),
    ("connectsum", "find_exotic_pairs"),
    ("connectsum", "canonical_key"),
    ("connectsum", "sums_equivalent"),
    ("cli", "run_verification"),
    ("cli", "table_rows"),
    ("cli", "main"),
)
CACHED = ("sweeps.invariant_table", "sweeps.residue_table", "modring.units", "modring.square_units")
SWEEP_KERNELS = ("sweeps.lift_mismatch", "sweeps.invariant_table", "sweeps.residue_table")
PAIR_COUNTS = ("classify.collision_scan", "connectsum.find_exotic_pairs")
COUNTERS = ("sweeps.units_swept", "classify.collision_scan.pairs", "connectsum.find_exotic_pairs.pairs")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports, in report order."""
    metrics = []
    for module, function in LAYERS:
        name = f"{module}.{function}"
        metrics += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
        if name in CACHED:
            metrics.append((f"{name}.hit_ratio", "ratio", "higher"))
    metrics += [(c, "count", "lower") for c in COUNTERS]
    metrics += [
        ("cli.output_bytes", "bytes", "lower"),
        ("cli.rows_emitted", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.remainder_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return metrics


class Tracer:
    """Records spans around calls into lensframe's public functions (one thread)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._cached: dict[str, object] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "lensframe" or n.startswith("lensframe.")]
        for module, function in LAYERS:
            fn = getattr(sys.modules.get(f"lensframe.{module}"), function, None)
            if fn is None:
                continue
            wrapper = self._wrap(f"{module}.{function}", fn)
            for namespace in modules:
                for attr, value in list(vars(namespace).items()):
                    if value is fn:
                        setattr(namespace, attr, wrapper)

    def _wrap(self, name: str, fn):
        ix = len(self.names)
        self.names.append(name)
        name_ix, parent, start, end, stack = self.name_ix, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns
        info = getattr(fn, "cache_info", None)
        if name in CACHED and info is not None:
            self._cached[name] = info
            self._cache_start[name] = (info().hits, info().misses)
        on_result = self._on_result(name)

        def traced(*args, **kwargs):
            i = len(start)
            name_ix.append(ix)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(i)
            misses = info().misses if on_result and info else 0
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_result:
                on_result(args, result, info().misses > misses if info else True)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_result(self, name: str):
        counters = self.counters
        if name in SWEEP_KERNELS:
            # A cached table sweeps the unit group only when the call misses.
            def count_units(args, result, missed):
                if missed:
                    counters["sweeps.units_swept"] += arith.totient(args[0])

            return count_units
        if name in PAIR_COUNTS:
            key = f"{name}.pairs"

            def count_pairs(args, result, missed):
                counters[key] += len(result)

            return count_pairs
        return None

    def dump(self, side: Path) -> None:
        cache = {}
        for name, info in self._cached.items():
            hits0, misses0 = self._cache_start[name]
            now = info()
            cache[name] = [now.hits - hits0, now.misses - misses0]
        (side / "spans.json").write_text(
            json.dumps({"names": self.names, "counters": self.counters, "cache": cache})
        )
        for field in ("name_ix", "parent", "start", "end"):
            (side / f"spans.{field}").write_bytes(getattr(self, field).tobytes())


def load(side: Path):
    """(meta, name_ix, parent, start, end) as a traced child wrote them."""
    meta = json.loads((side / "spans.json").read_text())
    arrays = []
    for field, code in (("name_ix", "i"), ("parent", "i"), ("start", "q"), ("end", "q")):
        values = array(code)
        values.frombytes((side / f"spans.{field}").read_bytes())
        arrays.append(values)
    return (meta, *arrays)


def self_times(n_names: int, name_ix, parent, start, end) -> tuple[list[int], list[int]]:
    """Calls and self time (ns) per name: each span's duration minus its children's."""
    calls = [0] * n_names
    self_ns = [0] * n_names
    own = [e - s for s, e in zip(start, end)]
    # A span comes after its parent, so own[i] is still span i's full duration here.
    for i, d in enumerate(own):
        if parent[i] >= 0:
            own[parent[i]] -= d
    for i, ix in enumerate(name_ix):
        calls[ix] += 1
        self_ns[ix] += own[i]
    return calls, self_ns


def layer_metrics(side: Path, wall_s: float) -> dict[str, float]:
    """Per-layer values from one traced child; the remainder closes the sum to wall_s."""
    meta, name_ix, parent, start, end = load(side)
    calls, self_ns = self_times(len(meta["names"]), name_ix, parent, start, end)
    by_name = {name: (calls[i], self_ns[i]) for i, name in enumerate(meta["names"])}
    values: dict[str, float] = {}
    covered = 0
    for module, function in LAYERS:
        name = f"{module}.{function}"
        n, ns = by_name.get(name, (0, 0))
        values[f"{name}.calls"] = n
        values[f"{name}.self_s"] = ns / 1e9
        covered += ns
        if name in CACHED:
            hits, misses = meta["cache"].get(name, (0, 0))
            values[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values.update(meta["counters"])
    values["trace.wall_s"] = wall_s
    values["trace.remainder_s"] = wall_s - covered / 1e9
    return values
