"""Document round-trips, command behavior, exit codes, persistence."""

import argparse
import contextlib
import datetime
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chainrep
from chainrep import (
    GroundSet, SetFunction, cli, is_monotone, is_submodular, verify_submodular_equivalence,
)
from chainrep.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_STEP_CAP,
    document_digest,
    main,
    parse_set_function_document,
    parse_weighted_space_document,
    serialize_set_function,
)
from chainrep.counterexample import V0, V2_EXPECTED
from chainrep.errors import DocumentError
from chainrep.setfn import dual_transform

import support


def write_doc(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def v0_doc(tmp_path):
    return write_doc(tmp_path, "v0.json", serialize_set_function(V0))


def v2_doc(tmp_path):
    return write_doc(tmp_path, "v2.json", serialize_set_function(V2_EXPECTED))


def weighted_doc(tmp_path, nu, density, labels=None):
    labels = labels or [str(i + 1) for i in range(len(nu))]
    return write_doc(
        tmp_path, "space.json",
        {"ground_set": labels, "nu": nu, "density": density},
    )


class TestDocuments:
    def test_round_trip_is_key_for_key(self):
        doc = serialize_set_function(V0)
        again = serialize_set_function(parse_set_function_document(doc))
        assert list(doc["values"]) == list(again["values"])
        assert doc == again

    def test_rational_grammar(self):
        ground = ["1"]
        def doc_with(value):
            return {"ground_set": ground, "values": {"": "0", "1": value}}
        assert parse_set_function_document(doc_with("3/4")).values[1] == Fraction(3, 4)
        assert parse_set_function_document(doc_with("-7")).values[1] == Fraction(-7)
        assert parse_set_function_document(doc_with("+2/6")).values[1] == Fraction(1, 3)
        for bad in ("1/0", "1.5", "3/-4", "", "x", "1 /2", "\u0661", "7" * 5000):
            with pytest.raises(DocumentError):
                parse_set_function_document(doc_with(bad))

    def test_missing_and_duplicate_subsets(self):
        with pytest.raises(DocumentError, match="missing subset"):
            parse_set_function_document(
                {"ground_set": ["1", "2"],
                 "values": {"": "0", "1": "1", "2": "1"}}
            )
        with pytest.raises(DocumentError, match="already given"):
            parse_set_function_document(
                {"ground_set": ["1", "2"],
                 "values": {"": "0", "1": "1", "2": "1", "1,2": "2", "2,1": "2"}}
            )

    def test_empty_subset_must_be_zero(self):
        with pytest.raises(DocumentError, match="empty subset"):
            parse_set_function_document(
                {"ground_set": ["1"], "values": {"": "1", "1": "2"}}
            )

    def test_key_order_tolerated_on_parse(self):
        doc = {"ground_set": ["1", "2"],
               "values": {"2,1": "2", "2": "1", "1": "1", "": "0"}}
        v = parse_set_function_document(doc)
        assert v.values[0b11] == 2

    def test_digest_stable_under_key_reordering(self):
        a = {"ground_set": ["1"], "values": {"": "0", "1": "1"}}
        b = {"values": {"1": "1", "": "0"}, "ground_set": ["1"]}
        assert document_digest(a) == document_digest(b)

    def test_weighted_space_document(self):
        doc = {"ground_set": ["a", "b"], "nu": ["1", "2"], "density": ["3/2", "0"]}
        w = parse_weighted_space_document(doc)
        assert w.nu.weights == (Fraction(1), Fraction(2))
        assert w.density == (Fraction(3, 2), Fraction(0))
        with pytest.raises(DocumentError):
            parse_weighted_space_document(
                {"ground_set": ["a"], "nu": ["-1"], "density": ["1"]}
            )
        with pytest.raises(DocumentError):
            parse_weighted_space_document(
                {"ground_set": ["a"], "nu": ["1"], "density": ["1", "2"]}
            )


class TestCheckCommand:
    def test_non_submodular_input_exits_one(self, tmp_path, capsys):
        code = main(["check", v0_doc(tmp_path), "--no-persist"])
        out = capsys.readouterr().out
        assert code == EXIT_NEGATIVE
        assert "submodular: no" in out
        assert "witness" in out

    def test_submodular_input_exits_zero(self, tmp_path, capsys):
        code = main(["check", v2_doc(tmp_path), "--no-persist"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "submodular: yes" in out

    def test_malformed_rational_exits_two(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "bad.json",
            {"ground_set": ["1"], "values": {"": "0", "1": "1/0"}},
        )
        code = main(["check", path, "--no-persist"])
        assert code == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        code = main(["check", v2_doc(tmp_path), "--no-persist", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["submodular"] is True
        assert payload["equivalence"] == {"a": True, "b": True, "c": True, "d": True}

    def test_wide_rational_document_answers_as_the_library(self, tmp_path, capsys):
        # Distinct denominators of a few hundred digits give a common
        # denominator of thousands; the parser builds that image directly.
        rng = random.Random(5)
        ground = GroundSet.of_size(5)
        vals = [Fraction(0)] * 32
        for s in range(1, 32):
            floor = max(vals[s & ~(1 << i)] for i in range(5) if s >> i & 1)
            d = rng.randrange(10**299, 10**300)
            vals[s] = Fraction(-(-floor.numerator * d // floor.denominator)
                               + rng.randint(0, 10**3), d)
        doc = {"ground_set": list(ground.elements),
               "values": {ground.subset_key(s): str(x) for s, x in enumerate(vals)}}
        code = main(["check", write_doc(tmp_path, "wide.json", doc), "--no-persist",
                     "--format", "json"])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        v = SetFunction(ground, vals)
        (sub, wit), report = is_submodular(v), verify_submodular_equivalence(v)
        assert is_monotone(v)[0] and code == (EXIT_OK if sub else EXIT_NEGATIVE)
        expected = {"monotone": True, "submodular": sub}
        if wit:
            expected["submodular_witness"] = [ground.subset_key(s) for s in wit.pair_masks()]
        expected["equivalence"] = dict(zip("abcd", report.booleans))
        assert json.loads(captured.out) == expected

    def test_monotone_test_runs_once(self, tmp_path, capsys, monkeypatch):
        # check tests monotonicity itself, then runs the four routes
        # without the report's own monotone test.
        from chainrep import setfn
        calls = []

        def counted(v):
            calls.append(v)
            return is_monotone(v)
        monkeypatch.setattr(setfn, "is_monotone", counted)
        monkeypatch.setattr(cli, "is_monotone", counted)
        assert main(["check", v2_doc(tmp_path), "--no-persist"]) == EXIT_OK
        assert "four-way equivalence" in capsys.readouterr().out
        assert len(calls) == 1

    def test_wide_ground_set_skips_the_four_way_report(self, tmp_path, capsys):
        ground = GroundSet.of_size(10)
        v = SetFunction.from_callable(ground, lambda s: min(4, bin(s).count("1")))
        path = write_doc(tmp_path, "m10.json", serialize_set_function(v))
        code = main(["check", path, "--no-persist", "--format", "json"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "Traceback" not in captured.err
        payload = json.loads(captured.out)
        assert payload["monotone"] and payload["submodular"]
        assert "equivalence" not in payload
        assert main(["check", path, "--no-persist"]) == EXIT_OK
        assert "not evaluated" in capsys.readouterr().out


class TestSizeLimits:
    """Each kernel refuses only above its own limit, with exit 2 and no traceback."""

    def doc(self, tmp_path, m):
        v = support.wide_capped_sum(random.Random(m), GroundSet.of_size(m))
        return write_doc(tmp_path, f"m{m}.json", serialize_set_function(v))

    def test_chain_supremum_at_sixteen_elements(self, tmp_path, capsys):
        f = ",".join(str((3 * i) % 7 - 2) for i in range(16))
        code = main(["choquet", self.doc(tmp_path, 16), f"--f={f}", "--sup", "--witness",
                     "--no-persist", "--format", "json"])
        captured = capsys.readouterr()
        assert code == EXIT_OK and captured.err == ""
        payload = json.loads(captured.out)
        assert payload["chain_supremum"] == payload["choquet"]
        assert len(payload["witness_chain"]) == 16

    def test_iterate_refuses_above_the_table_limit(self, tmp_path, capsys):
        # A start that is not submodular needs a step, and a step needs the
        # table: v(A) = |A|^2 is monotone and strictly supermodular.
        v = SetFunction.from_callable(GroundSet.of_size(15), lambda s: bin(s).count("1") ** 2)
        path = write_doc(tmp_path, "square15.json", serialize_set_function(v))
        code = main(["iterate", path, "--no-persist"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert "Traceback" not in err and "table" in err

    def test_iterate_answers_a_submodular_start_at_sixteen_elements(self, tmp_path, capsys):
        code = main(["iterate", self.doc(tmp_path, 16), "--no-persist", "--format", "json"])
        captured = capsys.readouterr()
        assert code == EXIT_OK and captured.err == ""
        payload = json.loads(captured.out)
        assert payload["fixed_point_index"] == 0
        assert len(payload["iterates"]) == 1 and payload["submodular_flags"] == [True]

    def test_represent_refuses_above_the_sweep_limit(self, tmp_path, capsys):
        code = main(["represent", self.doc(tmp_path, 10), "--no-persist"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert "Traceback" not in err and "route (b)" in err


class TestIngestionErrors:
    """Malformed input exits 2 with a message, never with a traceback."""

    def run(self, capsys, argv):
        code = main(argv + ["--no-persist"])
        assert "Traceback" not in capsys.readouterr().err
        return code

    def test_iterate_non_monotone(self, tmp_path, capsys):
        path = write_doc(tmp_path, "down.json", {
            "ground_set": ["1", "2"],
            "values": {"": "0", "1": "2", "2": "1", "1,2": "1"}})
        assert self.run(capsys, ["iterate", path]) == EXIT_INPUT
        assert self.run(capsys, ["represent", path]) == EXIT_INPUT

    @pytest.mark.parametrize("raw", [
        b'{"ground_set": ["\xe9"], "values": {"": "0", "\xe9": "1"}}',
        b'{"ground_set": ["1"], "values": {"": "0", "1": %s}}' % (b"7" * 5000),
        b"[" * 100000 + b"]" * 100000,
    ], ids=["non-utf8", "huge-number-literal", "deep-nesting"])
    def test_unreadable_json(self, tmp_path, capsys, raw):
        path = tmp_path / "doc.json"
        path.write_bytes(raw)
        assert self.run(capsys, ["check", str(path)]) == EXIT_INPUT


FILE_COMMANDS = {
    "check": [], "iterate": [], "represent": [], "dual": [],
    "choquet": ["--f", "1"], "spectral": ["--f", "1"],
}


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
@pytest.mark.parametrize("bad", ["missing", "invalid-json", "wrong-kind"])
def test_unusable_document_exits_two(tmp_path, capsys, command, bad):
    path = tmp_path / "doc.json"
    if bad == "invalid-json":
        path.write_text('{"ground_set": ["1"], ')
    elif bad == "wrong-kind":
        # Each command gets the document kind it does not read.
        doc = ({"ground_set": ["1"], "values": {"": "0", "1": "1"}} if command == "spectral"
               else {"ground_set": ["1"], "nu": ["1"], "density": ["1"]})
        path.write_text(json.dumps(doc))
    code = main([command, str(path), *FILE_COMMANDS[command], "--no-persist"])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert err.startswith("input error: ") and "Traceback" not in err
    assert out == ""


class TestIterateCommand:
    def test_golden_trace_rows(self, tmp_path, capsys):
        code = main(["iterate", v0_doc(tmp_path), "--no-persist", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["fixed_point_index"] == 2
        assert payload["submodular_flags"] == [False, False, True]
        rows = payload["iterates"]
        assert rows[1]["1,2"] == "17" and rows[2]["1,2"] == "18"
        assert [rows[0][k] for k in ("", "1", "2", "3", "4")] == [
            "0", "7", "13", "20", "19",
        ]

    def test_submodular_input_single_row(self, tmp_path, capsys):
        code = main(["iterate", v2_doc(tmp_path), "--no-persist", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["fixed_point_index"] == 0
        assert len(payload["iterates"]) == 1

    def test_step_cap_exits_three_with_partial_trace(self, tmp_path, capsys):
        code = main([
            "iterate", v0_doc(tmp_path), "--no-persist", "--max-steps", "1",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_STEP_CAP
        assert "partial trace" in out
        assert "v_1" in out

    def test_zero_step_cap_allows_no_step(self, tmp_path, capsys):
        code = main(["iterate", v0_doc(tmp_path), "--no-persist", "--max-steps", "0",
                     "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_STEP_CAP
        assert len(payload["iterates"]) == 1 and payload["fixed_point_index"] is None

    def test_negative_step_cap_refused_at_parsing(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["iterate", v0_doc(tmp_path), "--no-persist", "--max-steps", "-1"])
        out, err = capsys.readouterr()
        assert exit_info.value.code == EXIT_INPUT
        assert "--max-steps: must be nonnegative" in err and out == ""


    def test_long_derived_values_print_exactly(self, tmp_path, capsys, monkeypatch):
        """Derived values past the interpreter's int-to-str limit print in full."""
        v1, v2, v12 = (Fraction(1, 10**4000 + 1), Fraction(1, 10**4000 + 3),
                       Fraction(1, 10**3999 + 7))
        path = write_doc(tmp_path, "long.json", {
            "ground_set": ["1", "2"],
            "values": {"": "0", "1": str(v1), "2": str(v2), "1,2": str(v12)}})
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            # One step reaches the modular fixed point v12 - v2, v12 - v1, v12.
            want = [str(v12 - v2), str(v12 - v1), str(v12)]
        finally:
            sys.set_int_max_str_digits(limit)
        assert max(map(len, want)) > limit
        store = tmp_path / "store"
        monkeypatch.setenv("CHAINREP_DATA_DIR", str(store))
        code = main(["iterate", path, "--format", "json"])
        out, err = capsys.readouterr()
        assert code == EXIT_OK and "Traceback" not in err
        rows = json.loads(out)["iterates"]
        assert [rows[1][k] for k in ("1", "2", "1,2")] == want
        record, = store.glob("*/run-*.json")
        assert json.loads(record.read_text())["outputs"]["iterates"] == rows
        code = main(["iterate", path, "--no-persist"])
        out, err = capsys.readouterr()
        assert code == EXIT_OK and "Traceback" not in err
        v_1 = next(line for line in out.splitlines() if line.startswith("v_1"))
        assert v_1.split() == ["v_1", "0"] + want + ["yes"]
        assert sys.get_int_max_str_digits() == limit


    def test_long_values_under_a_lowered_digit_limit(self, tmp_path, capsys):
        """The digit bound on input is the document grammar's, not the interpreter's."""
        big = "7" * 1000
        path = write_doc(tmp_path, "big.json", {
            "ground_set": ["1"], "values": {"": "0", "1": big}})
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            code = main(["dual", path, "--no-persist"])
        finally:
            sys.set_int_max_str_digits(limit)
        out, err = capsys.readouterr()
        assert code == EXIT_OK and "Traceback" not in err
        assert json.loads(out)["values"]["1"] == big


class TestReproTableCommand:
    def test_clean_run_matches(self, capsys):
        code = main(["repro-table", "--no-persist"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "exact match on all 48 cells" in out

    def test_self_test_reports_single_cell(self, capsys):
        code = main(["repro-table", "--no-persist", "--self-test", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_NEGATIVE
        assert len(payload["mismatches"]) == 1
        assert payload["mismatches"][0]["subset"] == "1,2"


class TestChoquetCommand:
    def test_table_integral(self, tmp_path, capsys):
        code = main([
            "choquet", v0_doc(tmp_path), "--f", "0,1,3,0", "--no-persist",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "choquet integral: 68" in out

    def test_sup_refused_on_non_submodular(self, tmp_path, capsys):
        code = main([
            "choquet", v0_doc(tmp_path), "--f", "0,1,3,0", "--sup", "--no-persist",
        ])
        err = capsys.readouterr().err
        assert code == EXIT_NEGATIVE
        assert "refused" in err

    def test_sup_refusal_names_the_witness_by_its_labels(self, tmp_path, capsys):
        ground = GroundSet(("x", "y", "z"))
        v = SetFunction.from_callable(ground, lambda s: bin(s).count("1") ** 2)
        path = write_doc(tmp_path, "square.json", serialize_set_function(v))
        code = main(["choquet", path, "--f", "1,1,1", "--sup", "--no-persist"])
        err = capsys.readouterr().err
        assert code == EXIT_NEGATIVE
        assert err == (
            "chain supremum refused: chain representation needs submodularity; "
            "exchange violation v({x}) + v({y}) < v({x,y}) + v({})\n"
        )

    def test_sup_with_witness_on_submodular(self, tmp_path, capsys):
        code = main([
            "choquet", v2_doc(tmp_path), "--f", "1,0,0,0", "--sup",
            "--witness", "--no-persist", "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["choquet"] == "11"
        assert payload["chain_supremum"] == "11"
        assert len(payload["witness_chain"]) == 4

    def test_constant_one_gives_total(self, tmp_path, capsys):
        code = main([
            "choquet", v2_doc(tmp_path), "--f", "1,1,1,1", "--no-persist",
        ])
        assert code == EXIT_OK
        assert "choquet integral: 44" in capsys.readouterr().out

    def test_risk_flag(self, tmp_path, capsys):
        code = main([
            "choquet", v2_doc(tmp_path), "--f", "1,1,1,1", "--risk",
            "--no-persist", "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["risk"] == "-1"

    def test_dimension_mismatch(self, tmp_path, capsys):
        code = main([
            "choquet", v0_doc(tmp_path), "--f", "1,2", "--no-persist",
        ])
        assert code == EXIT_INPUT


class TestSpectralCommand:
    def test_two_element_example(self, tmp_path, capsys):
        path = weighted_doc(tmp_path, ["1", "1"], ["2", "0"])
        code = main(["spectral", path, "--f", "1,0", "--no-persist", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["integral"] == "2"
        assert payload["integral_product_route"] == "2"
        assert payload["integral_spectral_route"] == "2"
        assert payload["atoms"] == [["1/2", "1"]]

    def test_constant_density_single_atom(self, tmp_path, capsys):
        path = weighted_doc(tmp_path, ["1", "1"], ["3", "3"])
        code = main(["spectral", path, "--f", "2,4", "--no-persist", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["atoms"] == [["1", "1"]]
        assert payload["integral"] == "18"  # 3 * (2 + 4)

    def test_anti_aligned_gap_reported(self, tmp_path, capsys):
        path = weighted_doc(tmp_path, ["1", "2"], ["2", "0"])
        code = main(["spectral", path, "--f", "0,1", "--no-persist"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "strict gap above the mu pairing: 2" in out

    def test_twelve_elements_uniform_distinct(self, tmp_path, capsys):
        """The supremum over the 12! rearrangements is the sorted pairing."""
        rng = random.Random(12)
        density = rng.sample(range(1, 100), 12)
        f = [rng.randint(0, 20) for _ in range(12)]
        path = weighted_doc(tmp_path, ["3/2"] * 12, [str(d) for d in density])
        code = main(["spectral", path, "--f", ",".join(map(str, f)),
                     "--no-persist", "--format", "json"])
        out, err = capsys.readouterr()
        assert code == EXIT_OK and "Traceback" not in err
        paired = Fraction(3, 2) * sum(a * b for a, b in zip(sorted(f), sorted(density)))
        assert json.loads(out)["rearrangement_supremum"] == str(paired)

    def test_negative_f_rejected(self, tmp_path, capsys):
        path = weighted_doc(tmp_path, ["1", "1"], ["2", "0"])
        code = main(["spectral", path, "--f=-1,0", "--no-persist"])
        assert code == EXIT_INPUT

    def test_rearrangement_search_past_its_bound_exits_two(self, tmp_path, capsys):
        nu, density, f = support.SEARCH_BOUND_SPACE
        path = weighted_doc(tmp_path, list(map(str, nu)), list(map(str, density)))
        code = main(["spectral", path, "--f", ",".join(map(str, f)), "--no-persist"])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: rearrangement_sup: more than 524288 ")
        assert "Traceback" not in err


class TestDualCommand:
    def test_emits_dual_document(self, tmp_path, capsys):
        code = main(["dual", v0_doc(tmp_path), "--no-persist"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["values"]["1"] == "1"  # 44 - v0({2,3,4}) = 1
        assert payload["values"]["1,2,3,4"] == "44"

    def test_output_file(self, tmp_path):
        target = tmp_path / "dual.json"
        code = main(["dual", v0_doc(tmp_path), "-o", str(target), "--no-persist"])
        assert code == EXIT_OK
        assert json.loads(target.read_text())["values"][""] == "0"

    def test_json_is_the_indented_dump_byte_for_byte(self, tmp_path, capsys, monkeypatch):
        # The output is encoded straight into its stream, yet reads as the
        # one-string dump, on stdout and in the -o file alike.
        store = tmp_path / "store"
        monkeypatch.setenv("CHAINREP_DATA_DIR", str(store))
        v = support.random_monotone(random.Random(12), GroundSet.of_size(12), rational=True)
        doc = serialize_set_function(v)
        path = write_doc(tmp_path, "v12.json", doc)
        want = json.dumps(serialize_set_function(dual_transform(v)), indent=2) + "\n"
        target = tmp_path / "dual.json"
        assert main(["dual", path, "-o", str(target)]) == EXIT_OK
        assert target.read_bytes() == want.encode()
        assert main(["dual", path, "--format", "json"]) == EXIT_OK
        assert capsys.readouterr().out == want
        # Both records land under the input's digest.
        assert [p.name for p in store.iterdir()] == [document_digest(doc)]
        assert len(list((store / document_digest(doc)).glob("run-*.json"))) == 2

    def test_dual_twice_returns_the_input_document(self, tmp_path):
        v = support.random_monotone(random.Random(7), GroundSet.of_size(12), rational=True)
        doc = serialize_set_function(v)
        once, twice = tmp_path / "once.json", tmp_path / "twice.json"
        path = write_doc(tmp_path, "v12.json", doc)
        assert main(["dual", path, "-o", str(once), "--no-persist"]) == EXIT_OK
        assert main(["dual", str(once), "-o", str(twice), "--no-persist"]) == EXIT_OK
        assert json.loads(twice.read_text()) == doc


class TestRepresentCommand:
    def test_reports(self, tmp_path, capsys):
        assert main(["represent", v2_doc(tmp_path), "--no-persist"]) == EXIT_OK
        capsys.readouterr()
        assert main(["represent", v0_doc(tmp_path), "--no-persist"]) == EXIT_NEGATIVE
        out = capsys.readouterr().out
        assert "consistent: yes" in out


# 2026-01-02T03:04:05Z in nanoseconds, the clock that the frozen-clock tests read.
FROZEN_NS = int(datetime.datetime(
    2026, 1, 2, 3, 4, 5, tzinfo=datetime.timezone.utc).timestamp()) * 10**9


class TestPersistence:
    def test_run_record_written_under_digest(self, tmp_path, capsys, monkeypatch):
        store = tmp_path / "store"
        monkeypatch.setenv("CHAINREP_DATA_DIR", str(store))
        path = v2_doc(tmp_path)
        assert main(["check", path]) == EXIT_OK
        capsys.readouterr()
        digest = document_digest(json.loads(Path(path).read_text()))
        records = list((store / digest).glob("run-*.json"))
        assert len(records) == 1
        payload = json.loads(records[0].read_text())
        assert payload["command"] == "check"
        assert payload["outputs"]["submodular"] is True

    def test_no_persist_writes_nothing(self, tmp_path, capsys, monkeypatch):
        store = tmp_path / "store2"
        monkeypatch.setenv("CHAINREP_DATA_DIR", str(store))
        assert main(["check", v2_doc(tmp_path), "--no-persist"]) == EXIT_OK
        capsys.readouterr()
        assert not store.exists()

    def test_records_append(self, tmp_path, capsys, monkeypatch):
        store = tmp_path / "store3"
        monkeypatch.setenv("CHAINREP_DATA_DIR", str(store))
        path = v2_doc(tmp_path)
        main(["check", path])
        main(["check", path])
        capsys.readouterr()
        digest = document_digest(json.loads(Path(path).read_text()))
        assert len(list((store / digest).glob("run-*.json"))) == 2

    def test_records_within_one_clock_tick_get_numbered_names(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "time_ns", lambda: FROZEN_NS + 6_000)
        store = tmp_path / "store4"
        monkeypatch.setenv("CHAINREP_DATA_DIR", str(store))
        path = v2_doc(tmp_path)
        for _ in range(3):
            assert main(["check", path]) == EXIT_OK
        capsys.readouterr()
        digest = document_digest(json.loads(Path(path).read_text()))
        base = "run-20260102T030405000006"
        records = sorted((store / digest).iterdir())
        assert [p.name for p in records] == [
            f"{base}-1.json", f"{base}-2.json", f"{base}.json"]
        assert {json.loads(p.read_text())["timestamp"] for p in records} == {
            "2026-01-02T03:04:05.000006+00:00"}

    def test_concurrent_records_within_one_clock_tick_all_survive(
            self, tmp_path, monkeypatch):
        # Each run claims its name by exclusive create; testing the name
        # before writing would let two runs share it and lose a record.
        monkeypatch.setattr(cli, "time_ns", lambda: FROZEN_NS)
        store = tmp_path / "store5"
        monkeypatch.setenv("CHAINREP_DATA_DIR", str(store))
        args = types.SimpleNamespace(command="check", no_persist=False)
        threads, runs = 8, 25
        start = threading.Barrier(threads)

        def persist(t):
            start.wait()
            for i in range(runs):
                cli._persist(args, document_digest({"doc": 1}), {"run": [t, i]})

        workers = [threading.Thread(target=persist, args=(t,)) for t in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        records = list((store / document_digest({"doc": 1})).iterdir())
        base = "run-20260102T030405000000"
        assert sorted(p.name for p in records) == sorted(
            [f"{base}.json"] + [f"{base}-{n}.json" for n in range(1, threads * runs)])
        payloads = [json.loads(p.read_text()) for p in records]
        assert sorted(r["outputs"]["run"] for r in payloads) == [
            [t, i] for t in range(threads) for i in range(runs)]
        # At microsecond 0 the timestamp drops its fraction, as isoformat() does.
        assert {r["timestamp"] for r in payloads} == {"2026-01-02T03:04:05+00:00"}

    def test_parsed_document_is_released_before_the_command_computes(
            self, tmp_path, capsys, monkeypatch):
        # Only the digest outlives the load: a command computes with one
        # copy of its input, the subject, in memory.
        released, seen = [], []

        class Tracked(dict):
            def __del__(self):
                released.append(True)

        load, check = cli._load_document, cli.cmd_check

        def computing(args, v):
            seen.append(list(released))
            return check(args, v)

        monkeypatch.setattr(cli, "_load_document", lambda path: Tracked(load(path)))
        monkeypatch.setattr(cli, "cmd_check", computing)
        monkeypatch.setenv("CHAINREP_DATA_DIR", str(tmp_path / "store"))
        assert main(["check", v2_doc(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        assert seen == [[True]]

    @pytest.mark.parametrize("argv", [["check", "V2"], ["repro-table"]])
    def test_no_persist_computes_no_digest(self, tmp_path, capsys, monkeypatch, argv):
        def refuse(doc):
            raise AssertionError("a run that is not persisted took a digest")

        monkeypatch.setattr(cli, "document_digest", refuse)
        paths = {"V2": v2_doc(tmp_path)}
        assert main([paths.get(a, a) for a in argv] + ["--no-persist"]) == EXIT_OK
        capsys.readouterr()

    def test_unwritable_output_file_exits_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "dual.json"
        code = main(["dual", v0_doc(tmp_path), "-o", str(target), "--no-persist"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith("cannot write: ") and str(target) in err
        assert "Traceback" not in err

    def test_unwritable_run_store_exits_two(self, tmp_path, capsys, monkeypatch):
        store = tmp_path / "store-file"
        store.write_text("not a directory")
        monkeypatch.setenv("CHAINREP_DATA_DIR", str(store))
        code = main(["check", v2_doc(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith("cannot write: ") and str(store) in err
        assert "Traceback" not in err

    def test_missing_home_directory_exits_two(self, capsys, monkeypatch):
        # Path.home() raises RuntimeError when HOME is unset and the uid
        # has no passwd entry.
        def no_home():
            raise RuntimeError("Could not determine home directory.")
        monkeypatch.delenv("CHAINREP_DATA_DIR")
        monkeypatch.setattr(Path, "home", no_home)
        code = main(["repro-table"])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT
        assert out.startswith(" n  {}")
        assert err.startswith("cannot write: ") and "no home directory" in err
        assert "Traceback" not in err

    def test_record_is_one_line_of_sorted_json(self, tmp_path, capsys, monkeypatch):
        store = tmp_path / "store"
        monkeypatch.setenv("CHAINREP_DATA_DIR", str(store))
        assert main(["check", v2_doc(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        record, = store.glob("*/run-*.json")
        text = record.read_text()
        assert "\n" not in text
        assert text == json.dumps(json.loads(text), sort_keys=True)

    @pytest.mark.parametrize("argv, parameters", [
        (["check", "V2"], {"file": "V2"}),
        (["represent", "V2"], {"file": "V2"}),
        (["iterate", "V0", "--max-steps", "1"], {"file": "V0", "max_steps": 1}),
        (["repro-table"], {"self_test": False}),
        (["dual", "V2"], {"file": "V2", "output": None}),
        (["spectral", "SPACE", "--f", "1,0"], {"file": "SPACE", "f": "1,0"}),
        (["choquet", "V2", "--f", "1,0,0,0", "--sup"],
         {"file": "V2", "f": "1,0,0,0", "risk": False, "sup": True, "witness": False}),
        (["choquet", "V2", "--f", "1,0,0,0", "--sup", "--witness"],
         {"file": "V2", "f": "1,0,0,0", "risk": False, "sup": True, "witness": True}),
    ], ids=lambda x: " ".join(x) if isinstance(x, list) else "")
    def test_record_parameters_are_the_command_arguments(
            self, tmp_path, capsys, monkeypatch, argv, parameters):
        store = tmp_path / "store"
        monkeypatch.setenv("CHAINREP_DATA_DIR", str(store))
        paths = {"V0": v0_doc(tmp_path), "V2": v2_doc(tmp_path),
                 "SPACE": weighted_doc(tmp_path, ["1", "1"], ["2", "0"])}
        main([paths.get(a, a) for a in argv + ["--format", "json"]])
        capsys.readouterr()
        record, = store.glob("*/run-*.json")
        want = {k: paths.get(v, v) for k, v in parameters.items()}
        assert json.loads(record.read_text())["parameters"] == want


def parse_outcome(parser, argv):
    """The namespace or exit status, stdout and stderr of parsing argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace, status = vars(parser.parse_args(argv)), None
        except SystemExit as exc:
            namespace, status = None, exc.code
    return namespace, status, out.getvalue(), err.getvalue()


class TestParser:
    COMMANDS = ["check", "iterate", "repro-table", "choquet", "spectral", "represent", "dual"]

    def built(self, monkeypatch, argv):
        """The subparsers that main builds for argv."""
        names, add = [], argparse._SubParsersAction.add_parser

        def recording(self, name, **kwargs):
            names.append(name)
            return add(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
        with contextlib.suppress(SystemExit):
            main(argv)
        return names

    def test_a_named_command_builds_only_its_subparser(self, tmp_path, capsys, monkeypatch):
        assert self.built(monkeypatch, ["check", v2_doc(tmp_path), "--no-persist"]) == ["check"]
        assert self.built(monkeypatch, ["--help"]) == self.COMMANDS
        assert self.built(monkeypatch, ["chec", "x"]) == self.COMMANDS
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["check", "-h"], ["check"], ["check", "x", "--bogus"], ["check", "x", "extra"],
        ["check", "x", "--format", "xml"], ["check", "--", "x"],
        ["iterate", "x", "--max-steps", "-1"], ["iterate", "x", "--max-steps", "a"],
        ["repro-table", "x"], ["repro-table", "--self-test", "--format", "json"],
        ["choquet", "x"], ["choquet", "x", "--f=1", "--sup", "--witness", "--risk"],
        ["spectral", "-h"], ["spectral", "x", "--f", "1"], ["represent", "x", "y"],
        ["dual", "x", "-o"], ["dual", "x", "--output=f", "--no-persist"],
    ], ids=" ".join)
    def test_one_subparser_parses_as_all_seven(self, argv):
        # Help, usage errors and namespaces are the same byte for byte.
        assert parse_outcome(cli.build_parser(argv[0]), argv) == parse_outcome(
            cli.build_parser(), argv)


def fresh_interpreter(code: str, *argv: str):
    """Run code with argv in a new interpreter; its last stdout line, as JSON."""
    src = str(Path(chainrep.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = ("import json, sys\n"
          "print(json.dumps(sorted(m for m in sys.modules if m.startswith('chainrep')\n"
          "                        or m in ('dataclasses', 'inspect'))))")
# What importing the package loads: every export is imported on first use.
ROOT_MODULES = {"chainrep"}


# Each command's arguments, and the modules it loads beyond cli, errors and setfn.
COMMAND_MODULES = [
    (["check", "V2"], {"chains", "represent"}),
    (["iterate", "V0"], {"chains", "recursion"}),
    (["repro-table"], {"chains", "recursion", "counterexample"}),
    (["choquet", "V2", "--f", "1,0,0,0", "--sup", "--risk", "--witness"], {"chains", "choquet"}),
    (["spectral", "SPACE", "--f", "1,0"], {"chains", "choquet", "lawinv"}),
    (["represent", "V2"], {"chains", "represent"}),
    (["dual", "V2"], set()),
]


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES,
                         ids=[argv[0] for argv, _ in COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, modules):
    # Neither dataclasses nor inspect: the records are built on setfn._Record.
    paths = {"V0": v0_doc(tmp_path), "V2": v2_doc(tmp_path),
             "SPACE": weighted_doc(tmp_path, ["1", "1"], ["2", "0"])}
    loaded = fresh_interpreter("import sys\nfrom chainrep.cli import main\n"
                               "main(sys.argv[1:])\n" + LOADED,
                               *[paths.get(a, a) for a in argv], "--no-persist")
    assert set(loaded) == ROOT_MODULES | {f"chainrep.{m}" for m in
                                          {"cli", "errors", "setfn"} | modules}


def test_package_import_loads_only_the_eager_modules():
    assert set(fresh_interpreter("import chainrep\n" + LOADED)) == ROOT_MODULES


def test_every_export_is_its_home_object_after_every_submodule_loads():
    # Importing a submodule binds it as a package attribute; for choquet,
    # the one export named like a submodule, that would shadow the function.
    report = fresh_interpreter(
        "import importlib, json, pkgutil, sys, types\n"
        "import chainrep\n"
        "for mod in pkgutil.iter_modules(chainrep.__path__):\n"
        "    importlib.import_module(f'chainrep.{mod.name}')\n"
        "home = chainrep._HOME\n"
        "print(json.dumps({\n"
        "    'choquet': isinstance(chainrep.choquet, types.FunctionType),\n"
        "    'unlisted': sorted(set(home) ^ set(chainrep.__all__)),\n"
        "    'elsewhere': [n for n in chainrep.__all__ if n in home and getattr(chainrep, n)\n"
        "                  is not getattr(sys.modules[f'chainrep.{home[n]}'], n)],\n"
        "}))")
    assert report == {"choquet": True, "unlisted": [], "elsewhere": []}


# Inputs for the exit-code contract: valid documents with m <= 5, each
# kind of malformation the parsers refuse, and every command and flag.
BAD_RATIONALS = ("1.5", "x", "1/0", "", "3/-4", "\u0661", 7, None)
COMMANDS = ("check", "iterate", "repro-table", "choquet", "spectral", "represent", "dual")


def rationals(lo, hi):
    return st.builds(lambda n, d: f"{n}/{d}" if d > 1 else str(n),
                     st.integers(lo, hi), st.integers(1, 3))


@st.composite
def set_function_documents(draw, m):
    labels = [str(i + 1) for i in range(m)]
    # Increments of -1, where allowed, make the document non-monotone.
    lo = draw(st.sampled_from((0, 0, -1)))
    incs = draw(st.lists(st.integers(lo, 3), min_size=1 << m, max_size=1 << m))
    den = draw(st.integers(1, 3))
    vals = [0] * (1 << m)
    for s in range(1, 1 << m):
        vals[s] = max(vals[s & ~(1 << i)] for i in range(m) if s >> i & 1) + incs[s]
    keys = [",".join(lab for i, lab in enumerate(labels) if s >> i & 1) for s in range(1 << m)]
    values = {k: f"{x}/{den}" for k, x in zip(keys, vals)}
    key = draw(st.sampled_from(keys))
    fault = draw(st.sampled_from(("none",) * 8 + ("bad-rational", "missing-subset",
                                                  "duplicate-subset", "nonzero-empty")))
    if fault == "bad-rational":
        values[key] = draw(st.sampled_from(BAD_RATIONALS))
    elif fault == "missing-subset":
        del values[key]
    elif fault == "duplicate-subset":
        labs = key.split(",") if key else labels[:1]
        # Reversed, a key names its subset again; a single label repeats.
        values[",".join(labs[::-1] if len(labs) > 1 else labs * 2)] = "1"
    elif fault == "nonzero-empty":
        values[""] = "1"
    return {"ground_set": labels, "values": values}


@st.composite
def weighted_space_documents(draw, m):
    # Zero and negative weights and densities, where allowed.
    lo_nu, lo_density = draw(st.sampled_from(((1, 0), (0, 0), (-1, -1))))
    doc = {"ground_set": [str(i + 1) for i in range(m)],
           "nu": draw(st.lists(rationals(lo_nu, 3), min_size=m, max_size=m)),
           "density": draw(st.lists(rationals(lo_density, 6), min_size=m, max_size=m))}
    name = draw(st.sampled_from(("nu", "density")))
    fault = draw(st.sampled_from(("none",) * 4 + ("bad-rational", "wrong-length")))
    if fault == "bad-rational":
        doc[name][draw(st.integers(0, m - 1))] = draw(st.sampled_from(BAD_RATIONALS))
    elif fault == "wrong-length":
        doc[name].append("1")
    return doc


@st.composite
def document_texts(draw, doc):
    fault = draw(st.sampled_from(("none",) * 10 + (
        "extra-key", "missing-key", "non-object", "bad-json", "bad-ground")))
    if fault == "extra-key":
        doc["extra"] = 1
    elif fault == "missing-key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault == "non-object":
        doc = draw(st.sampled_from(([], "doc", 3, None, [doc])))
    elif fault == "bad-json":
        return json.dumps(doc)[:-1]
    elif fault == "bad-ground":
        doc["ground_set"] = draw(st.sampled_from((["1", "1"], ["", "2"], ["1,2"], [1], "12")))
    return json.dumps(doc)


@st.composite
def f_args(draw, m):
    n = draw(st.sampled_from((m,) * 8 + (m - 1, m + 1)))
    parts = draw(st.lists(rationals(0, 5), min_size=n, max_size=n))
    if parts and draw(st.booleans()):
        parts[draw(st.integers(0, n - 1))] = draw(st.sampled_from(("-1", "-2/3", "x", "")))
    return ",".join(parts)


@st.composite
def cli_cases(draw):
    """(document text, argv with DOC and OUT standing for two paths)."""
    m = draw(st.integers(1, 5))
    command = draw(st.sampled_from(COMMANDS))
    # Mostly the document kind the command reads, sometimes the other one.
    weighted = (command == "spectral") != (draw(st.integers(0, 9)) == 0)
    doc = draw(weighted_space_documents(m) if weighted else set_function_documents(m))
    argv = [command] if command == "repro-table" else [command, "DOC"]
    argv += ["--format", draw(st.sampled_from(("table", "json")))]
    if draw(st.booleans()):
        argv.append("--no-persist")
    if command in ("choquet", "spectral") and draw(st.integers(0, 9)):
        argv.append(f"--f={draw(f_args(m))}")  # "--f -1,2" would read -1,2 as a flag
    if command == "choquet":
        argv += [flag for flag in ("--sup", "--risk", "--witness") if draw(st.booleans())]
    if command == "iterate" and draw(st.booleans()):
        argv += ["--max-steps", str(draw(st.integers(-1, 3)))]
    if command == "dual" and draw(st.booleans()):
        argv += ["-o", "OUT"]
    if command == "repro-table" and draw(st.booleans()):
        argv.append("--self-test")
    return draw(document_texts(doc)), argv


@settings(max_examples=200, deadline=None)
@given(case=cli_cases())
def test_every_input_exits_with_a_contract_code(case):
    text, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "doc.json"
        doc.write_text(text)
        argv = [{"DOC": str(doc), "OUT": str(Path(tmp) / "out.json")}.get(a, a)
                for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in {EXIT_OK, EXIT_NEGATIVE, EXIT_INPUT, EXIT_STEP_CAP, EXIT_INTERNAL}
    assert "Traceback" not in err.getvalue()
