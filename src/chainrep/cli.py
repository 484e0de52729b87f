"""Command line front end: document ingestion, checks, traces, reports.

Documents are JSON. A set-function document is

    {"ground_set": ["1", "2"], "values": {"": "0", "1": "3/2", "2": "1", "1,2": "2"}}

with one entry per subset, keyed by comma-joined labels ('' for the empty
set), and values written as exact rational strings (optional sign,
integer, optional '/' followed by a positive integer). A weighted-space
document replaces "values" with per-element "nu" and "density" lists.

Every command runs one pipeline: :func:`run_command` loads the subject,
the command's ``cmd_*`` function computes and renders it, and
:func:`run_command` emits the result and persists the run record. Errors
reach :func:`main`, which alone maps them to exit codes.

Exit codes are a stable contract: 0 success (submodular / exact match),
1 negative finding, 2 input error (also an unwritable output file or run
store), 3 step cap reached, 4 internal inconsistency (a route
disagreement that should be unreachable).

Each run appends a JSON record keyed by the input document's digest under
CHAINREP_DATA_DIR (default ~/.chainrep) unless --no-persist is given. Its
parameters are the command's arguments.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from contextlib import nullcontext
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from time import gmtime, strftime, time_ns

# Only errors and setfn load with this module: each command imports the
# modules it runs, so that start-up pays for no module the command skips.
from .errors import (
    ChainrepError,
    DocumentError,
    InternalConsistencyError,
    NotSubmodular,
    ZeroTotalMass,
)
from .setfn import GroundSet, SetFunction, dual_transform, is_monotone, is_submodular

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_STEP_CAP = 3
EXIT_INTERNAL = 4

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
# Digits allowed in the numerator and in the denominator of an input value.
_MAX_DIGITS = 4300


def parse_rational(text: str, where: str) -> Fraction:
    return Fraction(*_parse_ratio(text, where))


def _parse_ratio(text: str, where: str) -> tuple[int, int]:
    """(numerator, positive denominator) of a rational string, in lowest terms."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise DocumentError(f"{where}: not a rational string: {text!r}")
    num, _, den = text.partition("/")
    if max(len(num.lstrip("+-")), len(den)) > _MAX_DIGITS:
        raise DocumentError(f"{where}: a value has more than {_MAX_DIGITS} digits")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # the interpreter's int-to-str limit is set lower
        num, den = int(Decimal(num)), int(Decimal(den or 1))
    if den == 0:
        raise DocumentError(f"{where}: zero denominator in {text!r}")
    g = gcd(num, den)
    return num // g, den // g


def rational_str(x: Fraction) -> str:
    """Exact text of a rational, whatever its length."""
    try:
        return str(x)
    except ValueError:  # past the interpreter's int-to-str digit limit
        num = str(Decimal(x.numerator))
        return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def _parse_ground(obj, where: str) -> GroundSet:
    if not isinstance(obj, list) or not all(isinstance(s, str) for s in obj):
        raise DocumentError(f"{where}: ground_set must be a list of strings")
    try:
        return GroundSet(tuple(obj))
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def _require_keys_within(obj, keys: set[str]) -> None:
    """Refuse a document that is not a JSON object or has other top-level keys."""
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    extra = set(obj) - keys
    if extra:
        raise DocumentError(f"unknown top-level keys: {sorted(extra)}")


def parse_set_function_document(obj) -> SetFunction:
    """Validate and build a set function from a parsed JSON object."""
    _require_keys_within(obj, {"ground_set", "values"})
    if "ground_set" not in obj or "values" not in obj:
        raise DocumentError("document needs 'ground_set' and 'values'")
    ground = _parse_ground(obj["ground_set"], "ground_set")
    raw = obj["values"]
    if not isinstance(raw, dict):
        raise DocumentError("values must be an object")
    values: list[tuple[int, int] | None] = [None] * (1 << ground.size)
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
        values[mask] = _parse_ratio(text, f"values[{key!r}]")
    for mask, val in enumerate(values):
        if val is None:
            raise DocumentError(
                f"missing subset {ground.subset_key(mask)!r} in values"
            )
    if values[0][0] != 0:
        raise DocumentError("value of the empty subset '' must be 0")
    den = lcm(*{d for _, d in values})  # of reduced ratios: the image is in lowest terms
    ints = [n * (den // d) for n, d in values]
    return SetFunction._from_lowest_terms(ground, ints, den)


def serialize_set_function(v: SetFunction) -> dict:
    """Canonical document: subset keys by cardinality then label order."""
    order, keys = v.ground.keyed_subsets()
    return {
        "ground_set": list(v.ground.elements),
        "values": dict(zip(keys, _value_row(v, order))),
    }


def parse_weighted_space_document(obj) -> WeightedSpace:
    from .chains import DiscreteMeasure
    from .lawinv import WeightedSpace

    _require_keys_within(obj, {"ground_set", "nu", "density"})
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


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key given twice is refused."""
    obj, seen = dict(pairs), set()
    if len(obj) < len(pairs):
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"repeated key {key!r}")
    return obj


def _load_document(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge or deep literals
        raise DocumentError(f"{path}: invalid JSON: {exc}") from exc


# Namespace attributes that choose or format a run rather than parametrise it.
_NOT_PARAMETERS = {"command", "format", "no_persist", "fn", "load"}


def _emit(args, payload: dict, table_lines: list[str] | None) -> None:
    """Print the output, or write it to the -o file; no table lines means JSON.

    JSON is encoded straight into the stream, so its whole text is never
    held in memory.
    """
    output = getattr(args, "output", None)
    with open(output, "w") if output else nullcontext(sys.stdout) as fh:
        if args.format == "json" or table_lines is None:
            json.dump(payload, fh, indent=2)
        else:
            fh.write("\n".join(table_lines))
        fh.write("\n")


def _persist(args, digest: str | None, outputs) -> None:
    """Append a run record under CHAINREP_DATA_DIR/<digest>/.

    ``digest`` is the input document's :func:`document_digest`.
    """
    if args.no_persist:
        return
    try:
        root = Path(os.environ.get("CHAINREP_DATA_DIR") or Path.home() / ".chainrep")
    except RuntimeError as exc:  # HOME unset and the uid has no passwd entry
        raise OSError("run store: no home directory found; set CHAINREP_DATA_DIR") from exc
    directory = root / digest
    directory.mkdir(parents=True, exist_ok=True)
    seconds, micros = divmod(time_ns() // 1000, 1_000_000)
    utc = gmtime(seconds)
    fraction = f".{micros:06d}" if micros else ""  # as datetime.isoformat() prints it
    record = {
        "digest": digest,
        "command": args.command,
        "parameters": {
            k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS
        },
        "outputs": outputs,
        "timestamp": strftime("%Y-%m-%dT%H:%M:%S", utc) + fraction + "+00:00",
    }
    text = json.dumps(record, sort_keys=True)
    base = strftime("run-%Y%m%dT%H%M%S", utc) + f"{micros:06d}"
    path, n = directory / f"{base}.json", 0
    while True:
        try:  # exclusive create: two runs in one clock tick never share a name
            fh = open(path, "x")
            break
        except FileExistsError:
            n += 1
            path = directory / f"{base}-{n}.json"
    with fh:
        fh.write(text)


def _value_row(v: SetFunction, order: list[int]) -> list[str]:
    # Each distinct value of the image is formatted once.
    ints, den = v.image
    text = {x: rational_str(Fraction(x, den)) for x in set(ints)}
    return [text[ints[mask]] for mask in order]


def _yes(b: bool) -> str:
    return "yes" if b else "no"


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    def fmt(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    return [fmt(header)] + [fmt(r) for r in rows]


def _set_function_table(names, functions, extra=None):
    """Table lines and each row's {subset key: value} of set functions on one ground set.

    ``extra`` is an optional last column: its header and one cell per row.
    """
    order, keys = functions[0].ground.keyed_subsets()
    cells = [_value_row(v, order) for v in functions]
    header = ["n"] + ["{" + key + "}" for key in keys]
    rows = [[name] + row for name, row in zip(names, cells)]
    if extra:
        header.append(extra[0])
        rows = [row + [cell] for row, cell in zip(rows, extra[1])]
    return _table(header, rows), [dict(zip(keys, row)) for row in cells]


def _render(values):
    """Payload entries and table lines of (JSON key, line prefix, rational) triples."""
    payload = {key: rational_str(x) for key, _, x in values}
    return payload, [label + payload[key] for key, label, _ in values]


# Each cmd_* computes and renders one subject: it returns the payload (the
# JSON output and run-record outputs), the table lines (None when the output
# has no table form) and the exit code.
def cmd_check(args, v: SetFunction):
    from .represent import SWEEP_LIMIT, _submodular_report

    g = v.ground
    mono, mono_wit = is_monotone(v)
    # The four-way report runs route (a), the exchange test, itself; v is
    # known to be monotone, so the report does not test that again.
    report = _submodular_report(v) if mono and g.size <= SWEEP_LIMIT else None
    sub, sub_wit = (report.a_holds, report.a_witness) if report is not None else is_submodular(v)
    payload = {"monotone": mono, "submodular": sub}
    lines = [f"monotone: {_yes(mono)}"]
    if mono_wit:
        small, large = g.subset_key(mono_wit.small), g.subset_key(mono_wit.large)
        lines.append(f"  witness: v({{{small}}}) > v({{{large}}})")
        payload["monotone_witness"] = [small, large]
    lines.append(f"submodular: {_yes(sub)}")
    if sub_wit:
        lines.append(f"  witness: {sub_wit.inequality(g)}")
        payload["submodular_witness"] = [g.subset_key(s) for s in sub_wit.pair_masks()]
    if report is not None:
        payload["equivalence"] = dict(zip("abcd", report.booleans))
        lines.append(
            "four-way equivalence (submodular / chain measures in core / "
            "chain sup attains / local core attains): "
            + " ".join(map(_yes, report.booleans))
        )
    elif mono:
        lines.append("four-way equivalence: not evaluated "
                     f"(route (b) would sweep {g.size}! chains)")
    return payload, lines, EXIT_OK if sub else EXIT_NEGATIVE


def cmd_iterate(args, v: SetFunction):
    from .recursion import iterate_to_fixed_point

    trace = iterate_to_fixed_point(v, args.max_steps)
    lines, iterates = _set_function_table(
        [f"v_{n}" for n in range(len(trace.iterates))], trace.iterates,
        ("submodular", map(_yes, trace.submodular_flags)),
    )
    if trace.reached_fixed_point:
        lines.append(f"fixed point at n={trace.fixed_point_index}")
    else:
        lines.append("step cap reached before a fixed point (partial trace)")
    payload = {
        "iterates": iterates,
        "submodular_flags": list(trace.submodular_flags),
        "fixed_point_index": trace.fixed_point_index,
    }
    return payload, lines, EXIT_OK if trace.reached_fixed_point else EXIT_STEP_CAP


def cmd_repro_table(args, v0: SetFunction):
    from . import counterexample
    from .recursion import recursion_step

    rows = ("v0", "v1", "v2")
    expected = [counterexample.V0_CELLS, counterexample.V1_CELLS, counterexample.V2_CELLS]
    if args.self_test:
        # Injected fault: bump one expected cell to prove the diff trips.
        expected[2] = expected[2] | {"1,2": expected[2]["1,2"] + 1}
    v1 = recursion_step(v0)
    lines, actual = _set_function_table(rows, [v0, v1, recursion_step(v1)])
    # rational_str prints each value in one canonical form, as str does the
    # integer golden cells, so two cells are equal exactly when their values are.
    mismatches = [
        {"row": row, "subset": key, "expected": str(want), "actual": got[key]}
        for row, wanted, got in zip(rows, expected, actual)
        for key, want in wanted.items() if str(want) != got[key]
    ]
    cells = sum(map(len, actual))
    lines += [
        f"MISMATCH {d['row']} {{{d['subset']}}}: expected {d['expected']}, got {d['actual']}"
        for d in mismatches
    ] or [f"exact match on all {cells} cells"]
    payload = {"cells": cells, "mismatches": mismatches}
    return payload, lines, EXIT_NEGATIVE if mismatches else EXIT_OK


def _parse_f(ground: GroundSet, text: str) -> SimpleFunction:
    from .choquet import SimpleFunction

    parts = text.split(",")
    if len(parts) != ground.size:
        raise DocumentError(
            f"--f needs {ground.size} comma-separated rationals, got {len(parts)}"
        )
    return SimpleFunction(
        ground, tuple(parse_rational(p.strip(), f"--f[{i}]") for i, p in enumerate(parts))
    )


def cmd_choquet(args, v: SetFunction):
    from .choquet import choquet, choquet_sup_representation, risk_measure

    if args.witness and not args.sup:
        raise DocumentError("--witness needs --sup")
    f = _parse_f(v.ground, args.f)
    values = [("choquet", "choquet integral: ", choquet(v, f))]
    if args.sup:
        sup_val, chain = choquet_sup_representation(v, f)
        values.append(("chain_supremum", "chain supremum: ", sup_val))
    risk = [("risk", "risk measure: ", risk_measure(v, f))] if args.risk else []
    payload, lines = _render(values)
    if args.witness:
        payload["witness_chain"] = list(chain.label_order())
        lines.append(f"attaining chain: {','.join(chain.label_order())}")
    risk_payload, risk_lines = _render(risk)
    return payload | risk_payload, lines + risk_lines, EXIT_OK


def cmd_spectral(args, w: WeightedSpace):
    from .lawinv import (
        choquet_product_formula,
        distribution_of_density,
        domination_report,
        spectral_decomposition_check,
    )

    f = _parse_f(w.ground, args.f)
    if not f.is_nonnegative():
        raise DocumentError("--f must be nonnegative for spectral reports")
    dist = distribution_of_density(w)
    decomposition = spectral_decomposition_check(w, f)
    direct = decomposition.direct
    product = choquet_product_formula(w, f)
    dom = domination_report(w, f)
    r = rational_str
    # spectral_decomposition_check has already matched direct and by_components.
    if direct != product:
        raise InternalConsistencyError(
            f"direct={r(direct)} product={r(product)} "
            f"spectral={r(decomposition.by_components)}"
        )
    breakpoints = list(map(r, dist.breakpoints))
    levels = list(map(r, dist.levels))
    # The spectral atoms, in order, are those the decomposition ran over.
    atoms = [[r(alpha), r(mass)] for alpha, mass, _ in decomposition.components]
    integrals, integral_lines = _render([
        ("integral", "integral, layer route:    ", direct),
        ("integral_product_route", "integral, product route:  ", product),
        ("integral_spectral_route", "integral, spectral route: ", decomposition.by_components),
        ("paired_integral", "integral against mu:      ", dom.paired_integral),
        ("rearrangement_supremum", "equal-distribution sup:   ", dom.rearrangement_supremum),
    ])
    lines = ["distribution of the density:"]
    lines += [f"  F({bp}) = {lv}" for bp, lv in zip(breakpoints, levels)]
    lines.append("quantile segments (lo <= beta < hi -> value):")
    lines += [f"  [{r(lo)}, {r(hi)}) -> {r(z)}" for lo, hi, z in dist.quantile_segments()]
    lines.append("spectral atoms (level: mass):")
    lines += [f"  {alpha}: {mass}" for alpha, mass in atoms]
    lines += integral_lines
    if dom.gap_to_paired > 0:
        lines.append(f"strict gap above the mu pairing: {r(dom.gap_to_paired)}")
    payload = {"breakpoints": breakpoints, "levels": levels, "atoms": atoms, **integrals}
    return payload, lines, EXIT_OK


def cmd_represent(args, v: SetFunction):
    from .represent import verify_submodular_equivalence

    report = verify_submodular_equivalence(v)
    names = ("submodular", "chain measures in lower core", "chain suprema attain v",
             "local cores attained")
    lines = [f"{name}: {_yes(b)}" for name, b in zip(names, report.booleans)]
    lines.append(f"consistent: {_yes(report.consistent)}")
    payload = {"booleans": dict(zip("abcd", report.booleans)), "consistent": report.consistent}
    return payload, lines, EXIT_OK if report.all_hold else EXIT_NEGATIVE


def cmd_dual(args, v: SetFunction):
    # A document has no table form: it is emitted as JSON in either format.
    return serialize_set_function(dual_transform(v)), None, EXIT_OK


def run_command(args) -> int:
    """Load the subject, compute and render it, then emit and persist once."""
    if args.command == "repro-table":
        from . import counterexample

        subject = counterexample.V0
        doc = serialize_set_function(subject)
    else:
        doc = _load_document(args.file)
        subject = args.load(doc)
    # The parsed document can be several times the size of its file: only
    # its digest, and only for a run that persists, outlives the load.
    digest = None if args.no_persist else document_digest(doc)
    del doc
    payload, lines, code = args.fn(args, subject)
    _emit(args, payload, lines)
    _persist(args, digest, payload)
    return code


class _StepCap(argparse.Action):
    """--max-steps: 0 allows no step, a negative cap is refused."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"must be nonnegative, got {value}")
        setattr(namespace, self.dest, value)


# The subcommands, in the order that --help and usage messages list them.
_COMMANDS = ("check", "iterate", "repro-table", "choquet", "spectral", "represent", "dual")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; given one of the commands, only its subparser is built.

    Either parser prints the same usage line, so a run that names its
    command first parses as it would with every subparser built.
    """
    every = command not in _COMMANDS
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
    # Every command but repro-table reads a document, by default a set function.
    document = argparse.ArgumentParser(add_help=False, parents=[common])
    document.add_argument("file")
    document.set_defaults(load=parse_set_function_document)
    sub = parser.add_subparsers(
        dest="command", required=True,
        # With one subparser built, list all seven as argparse itself would.
        metavar=None if every else "{" + ",".join(_COMMANDS) + "}",
    )

    if every or command == "check":
        p = sub.add_parser("check", parents=[document],
                           help="monotonicity / submodularity report")
        p.set_defaults(fn=cmd_check)

    if every or command == "iterate":
        p = sub.add_parser("iterate", parents=[document],
                           help="run the chain-supremum recursion to its fixed point")
        p.add_argument("--max-steps", type=int, default=None, action=_StepCap)
        p.set_defaults(fn=cmd_iterate)

    if every or command == "repro-table":
        p = sub.add_parser("repro-table", parents=[common],
                           help="re-derive the bundled two-step golden table")
        p.add_argument("--self-test", action="store_true",
                       help="perturb one expected cell to exercise the diff path")
        p.set_defaults(fn=cmd_repro_table)

    if every or command == "choquet":
        p = sub.add_parser("choquet", parents=[document],
                           help="integrate a simple function against the set function")
        p.add_argument("--f", required=True,
                       help="comma-separated rational values, one per element")
        p.add_argument("--risk", action="store_true",
                       help="also print the normalized reflected integral")
        p.add_argument("--sup", action="store_true",
                       help="also print the chain supremum (submodular input only)")
        p.add_argument("--witness", action="store_true",
                       help="with --sup, print the attaining chain")
        p.set_defaults(fn=cmd_choquet)

    if every or command == "spectral":
        p = sub.add_parser("spectral", parents=[document],
                           help="distribution, quantiles, spectral atoms, and the three integral routes")
        p.add_argument("--f", required=True)
        p.set_defaults(fn=cmd_spectral, load=parse_weighted_space_document)

    if every or command == "represent":
        p = sub.add_parser("represent", parents=[document],
                           help="four-way equivalence report")
        p.set_defaults(fn=cmd_represent)

    if every or command == "dual":
        p = sub.add_parser("dual", parents=[document],
                           help="emit the complement-transform document")
        p.add_argument("--output", "-o", default=None)
        p.set_defaults(fn=cmd_dual)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    # Exit code and stderr prefix of each error, in order: the first match wins.
    errors = (
        ((DocumentError, ZeroTotalMass), EXIT_INPUT, "input error"),
        (NotSubmodular, EXIT_NEGATIVE, "chain supremum refused"),
        (InternalConsistencyError, EXIT_INTERNAL, "internal inconsistency"),
        (ChainrepError, EXIT_INPUT, "error"),
        # A failed read is a DocumentError already, so this is a failed write.
        (OSError, EXIT_INPUT, "cannot write"),
    )
    try:
        return run_command(args)
    except (ChainrepError, OSError) as exc:
        code, prefix = next(
            (code, prefix) for kinds, code, prefix in errors if isinstance(exc, kinds)
        )
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
