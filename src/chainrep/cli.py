"""Command line front end: document ingestion, checks, traces, reports.

Documents are JSON. A set-function document is

    {"ground_set": ["1", "2"], "values": {"": "0", "1": "3/2", "2": "1", "1,2": "2"}}

with one entry per subset, keyed by comma-joined labels ('' for the empty
set), and values written as exact rational strings (optional sign,
integer, optional '/' followed by a positive integer). A weighted-space
document replaces "values" with per-element "nu" and "density" lists.

Exit codes are a stable contract: 0 success (submodular / exact match),
1 negative finding, 2 input error, 3 step cap reached, 4 internal
inconsistency (a route disagreement that should be unreachable).

Each run appends a JSON record keyed by the input document's digest under
CHAINREP_DATA_DIR (default ~/.chainrep) unless --no-persist is given.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import hashlib
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import counterexample
from .chains import SWEEP_LIMIT, DiscreteMeasure
from .choquet import SimpleFunction, choquet, choquet_sup_representation, risk_measure
from .errors import (
    ChainrepError,
    DocumentError,
    InternalConsistencyError,
    MaxStepsExceeded,
    NotSubmodular,
    ZeroTotalMass,
)
from .lawinv import (
    WeightedSpace,
    distribution_of_density,
    domination_report,
    kusuoka_measure,
    choquet_product_formula,
    spectral_decomposition_check,
    v_mu_integral,
)
from .recursion import iterate_to_fixed_point, recursion_step
from .setfn import GroundSet, SetFunction, dual_transform, is_monotone, is_submodular
from .represent import verify_submodular_equivalence

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_STEP_CAP = 3
EXIT_INTERNAL = 4

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str, where: str) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise DocumentError(f"{where}: not a rational string: {text!r}")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:  # past the interpreter's int digit limit
        raise DocumentError(f"{where}: {exc}") from exc
    if den == 0:
        raise DocumentError(f"{where}: zero denominator in {text!r}")
    return Fraction(num, den)


def rational_str(x: Fraction) -> str:
    return str(x)


def _parse_ground(obj, where: str) -> GroundSet:
    if not isinstance(obj, list) or not all(isinstance(s, str) for s in obj):
        raise DocumentError(f"{where}: ground_set must be a list of strings")
    for lab in obj:
        if not lab or "," in lab:
            raise DocumentError(
                f"{where}: label {lab!r} must be nonempty and comma-free"
            )
    try:
        return GroundSet(tuple(obj))
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def parse_set_function_document(obj) -> SetFunction:
    """Validate and build a set function from a parsed JSON object."""
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    extra = set(obj) - {"ground_set", "values"}
    if extra:
        raise DocumentError(f"unknown top-level keys: {sorted(extra)}")
    if "ground_set" not in obj or "values" not in obj:
        raise DocumentError("document needs 'ground_set' and 'values'")
    ground = _parse_ground(obj["ground_set"], "ground_set")
    raw = obj["values"]
    if not isinstance(raw, dict):
        raise DocumentError("values must be an object")
    values: list[Fraction | None] = [None] * (1 << ground.size)
    for key, text in raw.items():
        labels = key.split(",") if key else []
        if len(set(labels)) != len(labels):
            raise DocumentError(f"values[{key!r}]: repeated label in key")
        try:
            mask = ground.mask_of(labels)
        except KeyError as exc:
            raise DocumentError(f"values[{key!r}]: {exc.args[0]}") from exc
        if values[mask] is not None:
            raise DocumentError(
                f"values[{key!r}]: subset already given as "
                f"{ground.subset_key(mask)!r}"
            )
        values[mask] = parse_rational(text, f"values[{key!r}]")
    for mask, val in enumerate(values):
        if val is None:
            raise DocumentError(
                f"missing subset {ground.subset_key(mask)!r} in values"
            )
    if values[0] != 0:
        raise DocumentError("value of the empty subset '' must be 0")
    return SetFunction(ground, tuple(values))


def serialize_set_function(v: SetFunction) -> dict:
    """Canonical document: subset keys by cardinality then label order."""
    return {
        "ground_set": list(v.ground.elements),
        "values": {
            v.ground.subset_key(mask): rational_str(v.values[mask])
            for mask in v.ground.subsets_by_cardinality()
        },
    }


def parse_weighted_space_document(obj) -> WeightedSpace:
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    extra = set(obj) - {"ground_set", "nu", "density"}
    if extra:
        raise DocumentError(f"unknown top-level keys: {sorted(extra)}")
    for key in ("ground_set", "nu", "density"):
        if key not in obj:
            raise DocumentError(f"weighted-space document needs {key!r}")
    ground = _parse_ground(obj["ground_set"], "ground_set")
    def vector(name):
        raw = obj[name]
        if not isinstance(raw, list) or len(raw) != ground.size:
            raise DocumentError(
                f"{name} must list one rational per element "
                f"({ground.size} expected)"
            )
        return tuple(
            parse_rational(t, f"{name}[{i}]") for i, t in enumerate(raw)
        )
    nu = vector("nu")
    density = vector("density")
    try:
        return WeightedSpace(ground, DiscreteMeasure(ground, nu), density)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def document_digest(obj) -> str:
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _load_document(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge or deep literals
        raise DocumentError(f"{path}: invalid JSON: {exc}") from exc


class RunStore:
    """Append-only run records under a content-addressed directory."""

    def __init__(self, root: str | os.PathLike | None = None):
        env = os.environ.get("CHAINREP_DATA_DIR")
        self.root = Path(root or env or Path.home() / ".chainrep")

    def record(self, digest: str, command: str, parameters: dict, outputs) -> Path:
        directory = self.root / digest
        directory.mkdir(parents=True, exist_ok=True)
        stamp = _dt.datetime.now(_dt.timezone.utc)
        base = f"run-{stamp.strftime('%Y%m%dT%H%M%S%f')}"
        path = directory / f"{base}.json"
        n = 0
        while path.exists():
            n += 1
            path = directory / f"{base}-{n}.json"
        payload = {
            "digest": digest,
            "command": command,
            "parameters": parameters,
            "outputs": outputs,
            "timestamp": stamp.isoformat(),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return path


def _emit(args, payload: dict, table_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in table_lines:
            print(line)


def _persist(args, digest: str, command: str, parameters: dict, outputs) -> None:
    if getattr(args, "no_persist", False):
        return
    RunStore().record(digest, command, parameters, outputs)


def _mask_str(ground: GroundSet, mask: int) -> str:
    return "{" + ",".join(ground.labels_of(mask)) + "}"


def _value_row(v: SetFunction, order: list[int]) -> list[str]:
    return [rational_str(v.values[mask]) for mask in order]


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c])
        for c in range(len(header))
    ]
    def fmt(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    return [fmt(header)] + [fmt(r) for r in rows]


def cmd_check(args) -> int:
    doc = _load_document(args.file)
    v = parse_set_function_document(doc)
    g = v.ground
    mono, mono_wit = is_monotone(v)
    sub, sub_wit = is_submodular(v)
    payload = {"monotone": mono, "submodular": sub}
    lines = [f"monotone: {'yes' if mono else 'no'}"]
    if mono_wit:
        lines.append(
            f"  witness: v({_mask_str(g, mono_wit.small)}) > "
            f"v({_mask_str(g, mono_wit.large)})"
        )
        payload["monotone_witness"] = [
            g.subset_key(mono_wit.small), g.subset_key(mono_wit.large)
        ]
    lines.append(f"submodular: {'yes' if sub else 'no'}")
    if sub_wit:
        x, y = sub_wit.pair_masks()
        lines.append(
            f"  witness: v({_mask_str(g, x)}) + v({_mask_str(g, y)}) < "
            f"v({_mask_str(g, x | y)}) + v({_mask_str(g, x & y)})"
        )
        payload["submodular_witness"] = [g.subset_key(x), g.subset_key(y)]
    if mono and g.size > SWEEP_LIMIT:
        lines.append("four-way equivalence: not evaluated "
                     f"(route (b) would sweep {g.size}! chains)")
    elif mono:
        report = verify_submodular_equivalence(v)
        payload["equivalence"] = dict(
            zip("abcd", report.booleans)
        )
        lines.append(
            "four-way equivalence (submodular / chain measures in core / "
            "chain sup attains / local core attains): "
            + " ".join("yes" if b else "no" for b in report.booleans)
        )
    _emit(args, payload, lines)
    _persist(args, document_digest(doc), "check", {"file": args.file}, payload)
    return EXIT_OK if sub else EXIT_NEGATIVE


def cmd_iterate(args) -> int:
    doc = _load_document(args.file)
    v = parse_set_function_document(doc)
    order = v.ground.subsets_by_cardinality()
    header = ["n"] + [_mask_str(v.ground, m) for m in order] + ["submodular"]
    code = EXIT_OK
    try:
        trace = iterate_to_fixed_point(v, args.max_steps)
    except MaxStepsExceeded as exc:
        trace = exc.trace
        code = EXIT_STEP_CAP
    rows = [
        [f"v_{n}"] + _value_row(it, order) + ["yes" if flag else "no"]
        for n, (it, flag) in enumerate(zip(trace.iterates, trace.submodular_flags))
    ]
    lines = _table(header, rows)
    if trace.fixed_point_index is not None:
        lines.append(f"fixed point at n={trace.fixed_point_index}")
    else:
        lines.append("step cap reached before a fixed point (partial trace)")
    payload = {
        "iterates": [
            {v.ground.subset_key(m): rational_str(it.values[m]) for m in order}
            for it in trace.iterates
        ],
        "submodular_flags": list(trace.submodular_flags),
        "fixed_point_index": trace.fixed_point_index,
    }
    _emit(args, payload, lines)
    _persist(
        args, document_digest(doc), "iterate",
        {"file": args.file, "max_steps": args.max_steps}, payload,
    )
    return code


def cmd_repro_table(args) -> int:
    v0 = counterexample.V0
    expected = {
        "v0": counterexample.V0,
        "v1": counterexample.V1_EXPECTED,
        "v2": counterexample.V2_EXPECTED,
    }
    if args.self_test:
        # Injected fault: bump one expected cell to prove the diff trips.
        cells = dict(counterexample.V2_CELLS)
        cells["1,2"] += 1
        expected["v2"] = counterexample._build(cells)
    actual = {"v0": v0}
    actual["v1"] = recursion_step(actual["v0"])
    actual["v2"] = recursion_step(actual["v1"])
    order = v0.ground.subsets_by_cardinality()
    diffs = []
    for row in ("v0", "v1", "v2"):
        for mask in order:
            want = expected[row].values[mask]
            got = actual[row].values[mask]
            if want != got:
                diffs.append((row, mask, want, got))
    header = ["n"] + [_mask_str(v0.ground, m) for m in order]
    rows = [[row] + _value_row(actual[row], order) for row in ("v0", "v1", "v2")]
    lines = _table(header, rows)
    payload = {"cells": 3 * len(order), "mismatches": []}
    if diffs:
        for row, mask, want, got in diffs:
            lines.append(
                f"MISMATCH {row} {_mask_str(v0.ground, mask)}: "
                f"expected {want}, got {got}"
            )
            payload["mismatches"].append(
                {"row": row, "subset": v0.ground.subset_key(mask),
                 "expected": rational_str(want), "actual": rational_str(got)}
            )
    else:
        lines.append(f"exact match on all {3 * len(order)} cells")
    _emit(args, payload, lines)
    _persist(
        args, document_digest(serialize_set_function(v0)), "repro-table",
        {"self_test": args.self_test}, payload,
    )
    return EXIT_NEGATIVE if diffs else EXIT_OK


def _parse_f(ground: GroundSet, text: str) -> SimpleFunction:
    parts = text.split(",")
    if len(parts) != ground.size:
        raise DocumentError(
            f"--f needs {ground.size} comma-separated rationals, got {len(parts)}"
        )
    return SimpleFunction(
        ground, tuple(parse_rational(p.strip(), f"--f[{i}]") for i, p in enumerate(parts))
    )


def cmd_choquet(args) -> int:
    doc = _load_document(args.file)
    v = parse_set_function_document(doc)
    f = _parse_f(v.ground, args.f)
    value = choquet(v, f)
    payload = {"choquet": rational_str(value)}
    lines = [f"choquet integral: {value}"]
    code = EXIT_OK
    if args.sup:
        try:
            sup_val, chain = choquet_sup_representation(v, f)
        except NotSubmodular as exc:
            print(f"chain supremum refused: {exc}", file=sys.stderr)
            return EXIT_NEGATIVE
        payload["chain_supremum"] = rational_str(sup_val)
        lines.append(f"chain supremum: {sup_val}")
        if args.witness:
            payload["witness_chain"] = list(chain.label_order())
            lines.append(f"attaining chain: {','.join(chain.label_order())}")
    if args.risk:
        try:
            rho = risk_measure(v, f)
        except ZeroTotalMass as exc:
            raise DocumentError(str(exc)) from exc
        payload["risk"] = rational_str(rho)
        lines.append(f"risk measure: {rho}")
    _emit(args, payload, lines)
    _persist(
        args, document_digest(doc), "choquet",
        {"file": args.file, "f": args.f, "risk": args.risk, "sup": args.sup},
        payload,
    )
    return code


def cmd_spectral(args) -> int:
    doc = _load_document(args.file)
    w = parse_weighted_space_document(doc)
    f = _parse_f(w.ground, args.f)
    try:
        if not f.is_nonnegative():
            raise DocumentError("--f must be nonnegative for spectral reports")
        dist = distribution_of_density(w)
        direct = v_mu_integral(w, f)
        product = choquet_product_formula(w, f)
        spectral = kusuoka_measure(w)
        decomposition = spectral_decomposition_check(w, f)
        dom = domination_report(w, f)
    except InternalConsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ZeroTotalMass as exc:
        raise DocumentError(str(exc)) from exc
    if not direct == product == decomposition.by_components:
        print(
            f"internal inconsistency: direct={direct} product={product} "
            f"spectral={decomposition.by_components}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    lines = ["distribution of the density:"]
    for bp, lv in zip(dist.breakpoints, dist.levels):
        lines.append(f"  F({bp}) = {lv}")
    lines.append("quantile segments (lo <= beta < hi -> value):")
    for lo, hi, z in dist.quantile_segments():
        lines.append(f"  [{lo}, {hi}) -> {z}")
    lines.append("spectral atoms (level: mass):")
    for alpha, mass in spectral.atoms:
        lines.append(f"  {alpha}: {mass}")
    lines.append(f"integral, layer route:    {direct}")
    lines.append(f"integral, product route:  {product}")
    lines.append(f"integral, spectral route: {decomposition.by_components}")
    lines.append(f"integral against mu:      {dom.paired_integral}")
    lines.append(f"equal-distribution sup:   {dom.rearrangement_supremum}")
    if dom.gap_to_paired > 0:
        lines.append(f"strict gap above the mu pairing: {dom.gap_to_paired}")
    payload = {
        "breakpoints": [rational_str(b) for b in dist.breakpoints],
        "levels": [rational_str(l) for l in dist.levels],
        "atoms": [
            [rational_str(a), rational_str(m)] for a, m in spectral.atoms
        ],
        "integral": rational_str(direct),
        "integral_product_route": rational_str(product),
        "integral_spectral_route": rational_str(decomposition.by_components),
        "paired_integral": rational_str(dom.paired_integral),
        "rearrangement_supremum": rational_str(dom.rearrangement_supremum),
    }
    _emit(args, payload, lines)
    _persist(
        args, document_digest(doc), "spectral",
        {"file": args.file, "f": args.f}, payload,
    )
    return EXIT_OK


def cmd_represent(args) -> int:
    doc = _load_document(args.file)
    v = parse_set_function_document(doc)
    report = verify_submodular_equivalence(v)
    names = (
        "submodular",
        "chain measures in lower core",
        "chain suprema attain v",
        "local cores attained",
    )
    lines = [
        f"{name}: {'yes' if b else 'no'}"
        for name, b in zip(names, report.booleans)
    ]
    lines.append(f"consistent: {'yes' if report.consistent else 'no'}")
    payload = {
        "booleans": dict(zip("abcd", report.booleans)),
        "consistent": report.consistent,
    }
    _emit(args, payload, lines)
    _persist(args, document_digest(doc), "represent", {"file": args.file}, payload)
    return EXIT_OK if report.all_hold else EXIT_NEGATIVE


def cmd_dual(args) -> int:
    doc = _load_document(args.file)
    v = parse_set_function_document(doc)
    out = serialize_set_function(dual_transform(v))
    text = json.dumps(out, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)
    _persist(
        args, document_digest(doc), "dual",
        {"file": args.file, "output": args.output}, out,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainrep",
        description="exact chain representations of submodular set functions",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output style (default: table)",
    )
    common.add_argument(
        "--no-persist", action="store_true", help="skip the run record"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="monotonicity / submodularity report")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("iterate", parents=[common],
                       help="run the chain-supremum recursion to its fixed point")
    p.add_argument("file")
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(fn=cmd_iterate)

    p = sub.add_parser("repro-table", parents=[common],
                       help="re-derive the bundled two-step golden table")
    p.add_argument("--self-test", action="store_true",
                   help="perturb one expected cell to exercise the diff path")
    p.set_defaults(fn=cmd_repro_table)

    p = sub.add_parser("choquet", parents=[common],
                       help="integrate a simple function against the set function")
    p.add_argument("file")
    p.add_argument("--f", required=True,
                   help="comma-separated rational values, one per element")
    p.add_argument("--risk", action="store_true",
                   help="also print the normalized reflected integral")
    p.add_argument("--sup", action="store_true",
                   help="also print the chain supremum (submodular input only)")
    p.add_argument("--witness", action="store_true",
                   help="with --sup, print the attaining chain")
    p.set_defaults(fn=cmd_choquet)

    p = sub.add_parser("spectral", parents=[common],
                       help="distribution, quantiles, spectral atoms, and the three integral routes")
    p.add_argument("file")
    p.add_argument("--f", required=True)
    p.set_defaults(fn=cmd_spectral)

    p = sub.add_parser("represent", parents=[common],
                       help="four-way equivalence report")
    p.add_argument("file")
    p.set_defaults(fn=cmd_represent)

    p = sub.add_parser("dual", parents=[common],
                       help="emit the complement-transform document")
    p.add_argument("file")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(fn=cmd_dual)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalConsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ChainrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
