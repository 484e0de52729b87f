"""Spans around the library's public functions, installed only for traced runs.

The benchmark wraps every public module-level function of the package
modules (plus ``RunStore.record``) and patches each module namespace that
holds the original, so calls between modules are seen as well. A span is
``[name, layer, start, end, parent, m, full]``: ``layer`` is the defining
module, ``m`` the ground size of the first argument when it has one, and
``full`` whether the call completed a full scan (see ``_FULL``). Spans are
kept in memory; a layer's self time is its spans' durations minus the parts
covered by their child spans.

Run as a script, this file is the traced CLI child:

    python3 bench/spans.py SPANS.json -- check doc.json

installs the spans, runs ``chainrep.cli.main`` on the arguments and writes
the spans and counters to SPANS.json.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
from collections import Counter
from math import comb
from time import perf_counter

LAYERS = ("setfn", "chains", "represent", "recursion", "choquet", "lawinv", "cli")
# Scalar helpers called per value; a span each would swamp what they measure.
_SKIP = {"as_scalar", "parse_rational", "rational_str", "require_sweepable"}
# Generators: counted per item; their time is the caller's.
_COUNTED = {"all_chains": "chains.chains_swept",
            "equal_distribution_densities": "lawinv.rearrangements"}
# Private stages of the CLI pipeline, wrapped when present, in the CLI child only.
CLI_PHASES = {
    "parse": ("_load_document", "parse_set_function_document",
              "parse_weighted_space_document", "_parse_f"),
    "emit": ("_emit", "serialize_set_function"),
    "persist": ("_persist", "document_digest", "RunStore.record"),
}


def _exchange_triples(m: int, witness) -> int:
    """Triples (A, i, j) the exchange test scans before it stops."""
    if witness is None:
        return comb(m, 2) << (m - 2) if m >= 2 else 0
    n = sum(comb(m - bin(a).count("1"), 2) for a in range(witness.base))
    outside = [k for k in range(m) if not witness.base >> k & 1]
    for i, j in itertools.combinations(outside, 2):
        n += 1
        if (i, j) == (witness.i, witness.j):
            break
    return n


def _verify_cells(m, report):
    # Route (c) builds one 2^m-cell DP table per subset until the first miss.
    wit = report.c_witness
    return ((wit[0] + 1) if wit else 1 << m) << m


# name -> (result, m) -> {counter: n}
_COUNTERS = {
    "is_submodular": lambda r, m: {"setfn.exchange_triples": _exchange_triples(m, r[1])},
    "is_supermodular": lambda r, m: {"setfn.exchange_triples": _exchange_triples(m, r[1])},
    "subset_sums": lambda r, m: {"chains.subset_sums_calls": 1},
    "sup_over_chains": lambda r, m: {"represent.dp_cells": 1 << m},
    "inf_over_chains": lambda r, m: {"represent.dp_cells": 1 << m},
    "verify_submodular_equivalence": lambda r, m: {"represent.dp_cells": _verify_cells(m, r)},
    "verify_supermodular_equivalence": lambda r, m: {"represent.dp_cells": _verify_cells(m, r)},
    "recursion_step": lambda r, m: {"represent.dp_cells": 1 << (2 * m), "recursion.steps": 1},
}
# A call counts as a full scan (for the per-m medians) when this holds.
_FULL = {
    "verify_submodular_equivalence": lambda r: r.all_hold,
    "verify_supermodular_equivalence": lambda r: r.all_hold,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.on = False
        self._stack: list[int] = []

    def span(self, name: str, layer: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = _COUNTERS.get(name)
        full = _FULL.get(name)

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            ground = getattr(args[0], "ground", None) if args else None
            m = ground.size if ground is not None else None
            idx = len(spans)
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, m, False]
            spans.append(rec)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                rec[2] = start
                stack.pop()
            rec[6] = full(result) if full else True
            if counter:
                counts.update(counter(result, m))
            return result
        traced.__wrapped__ = fn
        return traced

    def counted(self, key: str, fn):
        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if self.on:
                    self.counts[key] += 1
                yield item
        traced.__wrapped__ = fn
        return traced

    def install(self, cli_phases: bool = False):
        """Wrap the package's public functions; return a callable that undoes it."""
        pkg = importlib.import_module("chainrep")
        mods = [pkg] + [importlib.import_module(f"chainrep.{n}")
                        for n in LAYERS + ("counterexample",)]
        phases = {n for names in CLI_PHASES.values() for n in names}
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"chainrep.{layer}"]
            private = phases if cli_phases and layer == "cli" else set()
            for name, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if name in _SKIP or (name.startswith("_") and name not in private):
                    continue
                if name in _COUNTED:
                    wrappers[obj] = self.counted(_COUNTED[name], obj)
                else:
                    wrappers[obj] = self.span(name, layer, obj)
        undo = []
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    undo.append((mod, name, obj))
        store = getattr(sys.modules["chainrep.cli"], "RunStore", None)
        if store is not None and hasattr(store, "record"):
            original = store.record
            store.record = self.span("RunStore.record", "cli", original)
            undo.append((store, "record", original))

        def uninstall():
            for target, name, obj in undo:
                setattr(target, name, obj)
        return uninstall

    def extend(self, recorded: dict) -> None:
        """Add spans and counts recorded in another process (see ``dump``)."""
        base = len(self.spans)
        for s in recorded["spans"]:
            self.spans.append(s[:4] + [s[4] + base if s[4] >= 0 else -1] + s[5:])
        self.counts.update(recorded["counts"])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def self_times(spans) -> list[float]:
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def outermost(spans, names) -> float:
    """Total duration of spans named in ``names`` not nested in another of them."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s[0] not in names:
            continue
        p = s[4]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][4]
        if p < 0:
            total += s[3] - s[2]
    return total


def _child_main(argv: list[str]) -> None:
    out, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: spans.py SPANS.json -- CLI-ARGS...")
    tracer = Tracer()
    tracer.install(cli_phases=True)
    cli = sys.modules["chainrep.cli"]
    tracer.on = True
    try:
        code = cli.main(cli_args)
    finally:
        tracer.on = False
        tracer.dump(out)
    raise SystemExit(code)


if __name__ == "__main__":
    _child_main(sys.argv[1:])
