"""Document round-trips, command behavior, exit codes, persistence."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from chainrep import GroundSet, SetFunction
from chainrep.cli import (
    EXIT_INPUT,
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

    def test_negative_f_rejected(self, tmp_path, capsys):
        path = weighted_doc(tmp_path, ["1", "1"], ["2", "0"])
        code = main(["spectral", path, "--f=-1,0", "--no-persist"])
        assert code == EXIT_INPUT


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


class TestRepresentCommand:
    def test_reports(self, tmp_path, capsys):
        assert main(["represent", v2_doc(tmp_path), "--no-persist"]) == EXIT_OK
        capsys.readouterr()
        assert main(["represent", v0_doc(tmp_path), "--no-persist"]) == EXIT_NEGATIVE
        out = capsys.readouterr().out
        assert "consistent: yes" in out


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
