import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import divalg as d
from divalg import cli, monads
from divalg.cli import RunReport, export_report, run

from util import WIDE_NIMREP, WRAPPING_RING, XorSlip, assert_parse_matches_the_whole_tree, nested, vec_direct_sum


def run_cli(capsys, *argv):
    # each command line run through here is also an oracle test of the verb parsers
    assert_parse_matches_the_whole_tree(argv)
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload_of(out: str) -> dict:
    return json.loads(out)["payload"]


# ------------------------------------------------------------- ring verbs

def test_classify_fib_tau(capsys):
    code, out, _ = run_cli(capsys, "ring", "classify", "--builtin", "fib", "--object", "tau")
    assert code == 0
    payload = payload_of(out)
    assert payload["algebra"] == [1, 1]
    assert payload["simplistic"] is True
    assert payload["essential"] is False


def test_classify_accepts_vector_objects(capsys):
    code, out, _ = run_cli(capsys, "ring", "classify", "--builtin", "fib", "--object", "0,1")
    assert code == 0
    assert payload_of(out)["object"] == [0, 1]


def test_classify_with_fpdim(capsys):
    code, out, _ = run_cli(
        capsys, "ring", "classify", "--builtin", "rep_s3", "--object", "V", "--fpdim"
    )
    assert code == 0
    assert abs(payload_of(out)["fp_dimension"] - 2.0) < 1e-9


def test_validate_builtin(capsys):
    code, out, _ = run_cli(capsys, "ring", "validate", "--builtin", "ising")
    assert code == 0
    assert payload_of(out)["passed"] is True


def test_validate_broken_file_exits_one(capsys, tmp_path):
    ring = d.builtin_ring("rep_s3")
    data = ring.to_payload()
    data["fusion"][2][2][1] = 0
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "ring", "validate", str(path))
    assert code == 1
    payload = payload_of(out)
    assert payload["passed"] is False
    assert any(v["axiom"] == "associativity" for v in payload["violations"])


def test_classify_on_broken_ring_exits_one(capsys, tmp_path):
    ring = d.builtin_ring("fib")
    data = ring.to_payload()
    data["fusion"][0][0][0] = 2
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "ring", "classify", "--ring", str(path), "--object", "tau")
    assert code == 1


@pytest.mark.parametrize("command", [
    ["ring", "classify", "--object", "tau"],
    ["nimrep", "validate", "--regular"],
    ["nimrep", "classify", "--regular", "--object", "tau"],
])
def test_invalid_ring_file_exits_one(capsys, tmp_path, command):
    data = d.builtin_ring("fib").to_payload()
    data["fusion"][0][0][0] = 2
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, *command, "--ring", str(path))
    assert code == 1
    assert payload_of(out)["passed"] is False


def test_builtin_ring_is_not_validated_again(capsys, monkeypatch):
    # the catalog validated fib once when it built it, so `ring validate` prints the passing, empty report
    fib = d.builtin_ring("fib")
    fresh = d.validate_ring(fib)
    calls = []

    def counting_validate(ring):
        calls.append(ring)
        return fresh

    monkeypatch.setattr(d.rings, "validate_ring", counting_validate)
    monkeypatch.setattr(d.catalog, "validate_ring", counting_validate)
    code, _, _ = run_cli(capsys, "ring", "classify", "--builtin", "fib", "--object", "tau")
    assert code == 0
    code, out, _ = run_cli(capsys, "ring", "validate", "--builtin", "fib")
    assert code == 0
    assert calls == []
    assert payload_of(out) == {**fresh.to_payload(), "labels": list(fib.labels), "rank": fib.rank}


@pytest.mark.parametrize("command", [
    ["ring", "validate", "--builtin", "fib"],
    ["ring", "classify", "--builtin", "fib", "--object", "tau"],
    ["nimrep", "validate", "--builtin", "fib", "--regular"],
    ["nimrep", "classify", "--builtin", "fib", "--regular", "--object", "tau"],
])
def test_builtin_rings_are_read_through_builtin_ring(capsys, monkeypatch, command):
    # the one way to a builtin ring, rebound as the benchmark tracer rebinds it; the digest is cached
    # first, so the count is the resolver's own
    cli._builtin_digest("fib")
    builtin_ring = d.catalog.builtin_ring
    calls = []

    def counting_builtin_ring(name):
        calls.append(name)
        return builtin_ring(name)

    monkeypatch.setattr(d.catalog, "builtin_ring", counting_builtin_ring)
    code, _, _ = run_cli(capsys, *command)
    assert code == 0
    assert calls and set(calls) == {"fib"}


def test_regular_nimrep_is_not_validated_again(capsys, monkeypatch, tmp_path):
    # the regular NIM-rep's laws are the ring's own; a NIM-rep file is validated on every call
    calls = []
    validate = d.nimreps.validate_nimrep

    def counting_validate(ring, nr, **kwargs):
        calls.append(nr)
        return validate(ring, nr, **kwargs)

    monkeypatch.setattr(d.nimreps, "validate_nimrep", counting_validate)
    for name in ("fib", "rep_s3", "ising"):
        code, _, _ = run_cli(capsys, "nimrep", "classify", "--builtin", name, "--regular", "--object", "1")
        assert code == 0
    assert calls == []
    path = tmp_path / "module.json"
    path.write_text(json.dumps(d.regular_nimrep(d.builtin_ring("fib")).to_payload()))
    code, _, _ = run_cli(capsys, "nimrep", "classify", "--builtin", "fib", "--nimrep", str(path), "--object", "tau")
    assert code == 0
    assert len(calls) == 1


def test_regular_route_runs_the_law_kernel_only_in_the_ring_check(capsys, monkeypatch, tmp_path):
    ring_path = tmp_path / "fib.json"
    ring_path.write_text(json.dumps(d.builtin_ring("fib").to_payload()))
    module_path = tmp_path / "module.json"
    module_path.write_text(json.dumps(d.regular_nimrep(d.builtin_ring("fib")).to_payload()))
    kernel = d.rings._row_products
    calls = []

    def counting_kernel(fusion, actions):
        calls.append(actions.shape)
        return kernel(fusion, actions)

    # nimreps imported the kernel by name, so both bindings are replaced
    monkeypatch.setattr(d.rings, "_row_products", counting_kernel)
    monkeypatch.setattr(d.nimreps, "_row_products", counting_kernel)
    code, _, _ = run_cli(capsys, "nimrep", "classify", "--ring", str(ring_path), "--regular", "--object", "tau")
    assert code == 0
    assert len(calls) == 1
    code, _, _ = run_cli(
        capsys, "nimrep", "classify", "--ring", str(ring_path), "--nimrep", str(module_path), "--object", "tau"
    )
    assert code == 0
    assert len(calls) == 3


@pytest.mark.parametrize("command", [
    ["ring", "validate", "--builtin", "fib", "{missing}"],
    ["ring", "classify", "--builtin", "fib", "--ring", "{missing}", "--object", "tau"],
    ["nimrep", "validate", "--builtin", "fib", "--ring", "{missing}", "--regular"],
    ["nimrep", "validate", "--builtin", "fib", "--regular", "--nimrep", "{missing}"],
    ["nimrep", "classify", "--builtin", "fib", "--ring", "{missing}", "--regular", "--object", "tau"],
    ["nimrep", "classify", "--builtin", "fib", "--regular", "--nimrep", "{missing}", "--object", "tau"],
])
def test_two_sources_for_one_input_exit_two(capsys, tmp_path, command):
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(capsys, *(arg.format(missing=missing) for arg in command))
    assert code == 2
    assert out == ""
    assert "not both" in err


@pytest.mark.parametrize("command", [
    # x (x) x* = 3037000500^2 . 1 is past 2^63 - 1; it used to print a negative algebra vector
    ["ring", "classify", "--builtin", "fib", "--object", "3037000500,0"],
    # the length 2 (2^63 - 1) + 3 used to wrap to 1, so the object was called simplistic
    ["ring", "classify", "--builtin", "ising", "--object", "9223372036854775807,9223372036854775807,3"],
    ["nimrep", "classify", "--builtin", "ising", "--regular", "--object", "9223372036854775807,9223372036854775807,3"],
])
def test_contraction_past_int64_gets_the_exact_verdict(capsys, command):
    code, out, _ = run_cli(capsys, *command)
    assert code == 0
    payload = payload_of(out)
    assert (payload["simplistic"], payload["essential"]) == (False, False)
    top = 2**63 - 1
    # ising: 1 (x) 1 = eps (x) eps = 1, sigma (x) sigma = 1 + eps, and eps, sigma as the other products
    expected = {
        "fib": [3037000500**2, 0],
        "ising": [2 * top**2 + 9, 2 * top**2 + 9, 12 * top],
    }[command[3]]
    if command[0] == "ring":
        assert payload["algebra"] == expected
    else:
        assert payload["unreachable"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_contraction_just_inside_int64_is_exact(capsys):
    code, out, _ = run_cli(capsys, "ring", "classify", "--builtin", "fib", "--object", "3037000499,0")
    assert code == 0
    assert payload_of(out)["algebra"] == [3037000499**2, 0]


def test_integer_past_int64_exits_two(capsys, tmp_path):
    data = d.builtin_ring("fib").to_payload()
    data["fusion"][1][1][1] = 2**64
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    for command in (
        ["ring", "classify", "--builtin", "fib", "--object", "18446744073709551616,0"],
        ["ring", "validate", str(path)],
    ):
        code, out, err = run_cli(capsys, *command)
        assert code == 2
        assert out == ""
        assert "int64" in err


@pytest.mark.parametrize("command", [
    ["ring", "validate", "{ring}"],
    ["ring", "classify", "--ring", "{ring}", "--object", "a"],
    ["nimrep", "classify", "--ring", "{ring}", "--regular", "--object", "a"],
])
def test_ring_associative_only_modulo_2_64_exits_one_with_exact_violations(capsys, tmp_path, command):
    # this ring passes associativity modulo 2^64 only
    path = tmp_path / "wrapping.json"
    path.write_text(json.dumps(WRAPPING_RING))
    code, out, _ = run_cli(capsys, *(arg.format(ring=path) for arg in command))
    assert code == 1
    wide = 2**64 + 1
    assert payload_of(out)["violations"] == [
        {"axiom": "associativity", "index": [1, 1, 2, 2], "lhs": 1, "rhs": wide},
        {"axiom": "associativity", "index": [1, 2, 2, 1], "lhs": wide, "rhs": 1},
        {"axiom": "associativity", "index": [2, 1, 1, 2], "lhs": wide, "rhs": 1},
        {"axiom": "associativity", "index": [2, 2, 1, 1], "lhs": 1, "rhs": wide},
    ]


@pytest.mark.parametrize("verb", [["validate"], ["classify", "--object", "a"]])
def test_nimrep_whose_products_pass_int64_exits_one_with_exact_violations(capsys, tmp_path, verb):
    # A_tau A_tau = 2^64 against tau (x) tau = 1 + tau, exactly
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(WIDE_NIMREP))
    code, out, _ = run_cli(capsys, "nimrep", verb[0], "--builtin", "fib", "--nimrep", str(path), *verb[1:])
    assert code == 1
    assert payload_of(out)["violations"] == [
        {"axiom": "multiplicativity", "index": [1, 1, a, a], "lhs": 2**64, "rhs": 2**32 + 1} for a in (0, 1)
    ]


@pytest.mark.parametrize("entry", [1.7, 1.0, True, "1"])
def test_non_integer_ring_entry_exits_two(capsys, tmp_path, entry):
    # a cast would truncate 1.7 to 1 and pass a verdict on a different ring
    data = d.builtin_ring("fib").to_payload()
    data["fusion"][1][1][1] = entry
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "ring", "validate", str(path))
    assert code == 2
    assert out == ""
    assert "not an integer" in err


@pytest.mark.parametrize("entry", [0.5, False, "0"])
def test_non_integer_nimrep_entry_exits_two(capsys, tmp_path, entry):
    ring = d.builtin_ring("fib")
    data = d.regular_nimrep(ring).to_payload()
    data["actions"][1][0][0] = entry
    path = tmp_path / "nimrep.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(
        capsys, "nimrep", "classify", "--builtin", "fib", "--nimrep", str(path), "--object", "0,1"
    )
    assert code == 2
    assert out == ""
    assert "not an integer" in err


@pytest.mark.parametrize("labels", [5, None, "ab", [1, 2], ["1", 2]])
def test_ring_labels_not_an_array_of_strings_exit_two(capsys, tmp_path, labels):
    # "ab" would split into two labels and [1, 2] would be cast to strings
    data = d.builtin_ring("fib").to_payload()
    data["labels"] = labels
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "ring", "validate", str(path))
    assert code == 2
    assert out == ""
    assert "array of strings" in err


@pytest.mark.parametrize("labels", [7, None, "ab", [1, 2], ["a", 2]])
def test_module_labels_not_an_array_of_strings_exit_two(capsys, tmp_path, labels):
    data = d.regular_nimrep(d.builtin_ring("fib")).to_payload()
    data["module_labels"] = labels
    path = tmp_path / "nimrep.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "nimrep", "validate", "--builtin", "fib", "--nimrep", str(path))
    assert code == 2
    assert out == ""
    assert "array of strings" in err


@pytest.mark.parametrize("command", [["ring", "validate"], ["nimrep", "validate", "--builtin", "fib", "--nimrep"]])
def test_json_nested_too_deeply_to_parse_exits_two(capsys, tmp_path, command):
    # json.loads raises RecursionError, not JSONDecodeError, on this file
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert "nested too deeply to parse" in err


# an array of depth 40 holds only integers but has the wrong shape; from depth 65 on, numpy keeps 64
# dimensions and leaves lists as entries; both are past the 32 dimensions numpy's arr.flat iterates
DEEP_ARRAYS = [(40, "shape"), (70, "not an integer"), (900, "not an integer")]


@pytest.mark.parametrize("depth,message", DEEP_ARRAYS)
def test_ring_fusion_nested_past_32_dimensions_exits_two(capsys, tmp_path, depth, message):
    data = d.builtin_ring("fib").to_payload()
    data["fusion"] = nested(1, depth)
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "ring", "validate", str(path))
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("depth,message", DEEP_ARRAYS)
def test_nimrep_actions_nested_past_32_dimensions_exit_two(capsys, tmp_path, depth, message):
    data = d.regular_nimrep(d.builtin_ring("fib")).to_payload()
    data["actions"] = nested(0, depth)
    path = tmp_path / "nimrep.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "nimrep", "validate", "--builtin", "fib", "--nimrep", str(path))
    assert code == 2
    assert out == ""
    assert message in err


def test_malformed_json_exits_two(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "ring", "validate", str(path))
    assert code == 2
    assert "divalg" in err


def test_unknown_builtin_exits_two(capsys):
    code, _, err = run_cli(capsys, "ring", "validate", "--builtin", "nope")
    assert code == 2


def test_zero_object_exits_two(capsys):
    code, _, err = run_cli(capsys, "ring", "classify", "--builtin", "fib", "--object", "0,0")
    assert code == 2


def test_missing_ring_file_exits_two(capsys, tmp_path):
    code, out, err = run_cli(capsys, "ring", "validate", str(tmp_path / "no-such.json"))
    assert (code, out) == (2, "")
    assert "cannot read" in err


@pytest.mark.parametrize("command", [
    ["ring", "validate"],
    ["ring", "classify", "--object", "tau"],
    ["nimrep", "validate", "--regular"],
    ["nimrep", "classify", "--regular", "--object", "tau"],
])
def test_ring_command_without_a_ring_exits_two(capsys, command):
    code, out, err = run_cli(capsys, *command)
    assert (code, out) == (2, "")
    assert "either --builtin or a ring file is required" in err


@pytest.mark.parametrize("command", [
    ["ring", "classify", "--builtin", "fib", "--object", "tau,x"],
    ["nimrep", "classify", "--builtin", "fib", "--regular", "--object", "sigma"],
])
def test_object_neither_label_nor_vector_exits_two(capsys, command):
    code, out, err = run_cli(capsys, *command)
    assert (code, out) == (2, "")
    assert "is neither a label nor a multiplicity vector" in err


@pytest.mark.parametrize("verb", ["validate", "classify"])
def test_nimrep_command_without_a_nimrep_exits_two(capsys, verb):
    extra = ["--object", "0,1"] if verb == "classify" else []
    code, out, err = run_cli(capsys, "nimrep", verb, "--builtin", "fib", *extra)
    assert (code, out) == (2, "")
    assert "either --nimrep FILE or --regular is required" in err


@pytest.mark.parametrize("data,message", [
    ([1, 2, 3], "ring data must be a JSON object"),
    ({"labels": ["1"], "unit": [1]}, "ring data missing fields: ['dual', 'fusion']"),
    ({"labels": [], "unit": [], "dual": [], "fusion": []}, "ring must have positive rank"),
], ids=["not-an-object", "missing-fields", "no-labels"])
def test_malformed_ring_file_exits_two(capsys, tmp_path, data, message):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "ring", "validate", str(path))
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("data,message", [
    ("module", "NIM-rep data must be a JSON object"),
    ({"module_labels": ["a", "b"]}, "NIM-rep data missing fields: ['actions']"),
    ({"module_labels": [], "actions": []}, "module must have positive rank"),
    ({"module_labels": ["a", "a"], "actions": [[[1, 0], [0, 1]]] * 2}, "module labels must be distinct"),
    ({"module_labels": ["a", "b"], "actions": [[1, 0], [0, 1]]}, "actions have shape (2, 2), expected (rank, 2, 2)"),
], ids=["not-an-object", "missing-fields", "no-labels", "repeated-labels", "action-shape"])
def test_malformed_nimrep_file_exits_two(capsys, tmp_path, data, message):
    path = tmp_path / "nimrep.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "nimrep", "validate", "--builtin", "fib", "--nimrep", str(path))
    assert (code, out) == (2, "")
    assert message in err


def test_all_ones_over_twenty_one_components_exits_zero(capsys, tmp_path):
    # the unit of 21 orthogonal idempotents is its own inverse; a search over its 2^21 candidates exited 3
    path = tmp_path / "sum21.json"
    path.write_text(json.dumps(vec_direct_sum(21).to_payload()))
    code, out, _ = run_cli(
        capsys, "ring", "classify", "--ring", str(path), "--object", ",".join(["1"] * 21)
    )
    assert code == 0
    payload = payload_of(out)
    assert payload["essential"] is True
    assert payload["witness"] == [1] * 21


def test_unknown_subcommand_exits_two(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2
    assert "usage" in err.lower()


def test_help_exits_zero(capsys):
    code, _, _ = run_cli(capsys, "--help")
    assert code == 0


# ----------------------------------------------------------- nimrep verbs

def test_nimrep_validate_regular(capsys):
    code, out, _ = run_cli(
        capsys, "nimrep", "validate", "--builtin", "fib", "--regular", "--check-dual"
    )
    assert code == 0
    assert payload_of(out)["passed"] is True


def test_nimrep_validate_files(capsys, tmp_path):
    ring = d.builtin_ring("fib")
    ring_path = tmp_path / "ring.json"
    ring_path.write_text(json.dumps(ring.to_payload()))
    nim_path = tmp_path / "nimrep.json"
    nim_path.write_text(json.dumps(d.regular_nimrep(ring).to_payload()))
    code, out, _ = run_cli(
        capsys, "nimrep", "validate", "--ring", str(ring_path), "--nimrep", str(nim_path)
    )
    assert code == 0
    assert payload_of(out)["passed"] is True


def test_nimrep_invalid_actions_exit_one(capsys, tmp_path):
    ring = d.builtin_ring("fib")
    ring_path = tmp_path / "ring.json"
    ring_path.write_text(json.dumps(ring.to_payload()))
    nim_path = tmp_path / "nimrep.json"
    nim_path.write_text(json.dumps({
        "module_labels": ["a", "b"],
        "actions": [[[1, 0], [0, 1]], [[1, 1], [1, 1]]],
    }))
    code, out, _ = run_cli(
        capsys, "nimrep", "validate", "--ring", str(ring_path), "--nimrep", str(nim_path)
    )
    assert code == 1


def test_nimrep_classify_regular(capsys):
    code, out, _ = run_cli(
        capsys, "nimrep", "classify", "--builtin", "fib", "--regular", "--object", "tau"
    )
    assert code == 0
    payload = payload_of(out)
    assert payload["simplistic"] is True
    assert payload["essential"] is False


def test_nimrep_classify_from_files(capsys, tmp_path):
    ring = d.builtin_ring("fib")
    ring_path = tmp_path / "ring.json"
    ring_path.write_text(json.dumps(ring.to_payload()))
    nim_path = tmp_path / "nimrep.json"
    nim_path.write_text(json.dumps(d.regular_nimrep(ring).to_payload()))
    code, out, _ = run_cli(
        capsys, "nimrep", "classify", "--ring", str(ring_path),
        "--nimrep", str(nim_path), "--object", "0,1",
    )
    assert code == 0
    payload = payload_of(out)
    assert payload["simplistic"] is True
    assert payload["essential"] is False
    assert payload["unreachable"] == [[1, 0]]


def test_nimrep_classify_decomposable_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "nimrep", "classify", "--builtin", "matrix_multifusion(2)",
        "--regular", "--object", "e11",
    )
    assert code == 1
    assert "blocks" in err


# ----------------------------------------------------------- catalog verbs

def test_catalog_list(capsys):
    code, out, _ = run_cli(capsys, "catalog", "list")
    assert code == 0
    entries = payload_of(out)["entries"]
    assert len(entries) == 18
    assert {"name": "fib", "rank": 2, "note": entries[0]["note"]} == entries[0]


def test_catalog_export_stdout(capsys):
    code, out, _ = run_cli(capsys, "catalog", "export", "--name", "fib")
    assert code == 0
    ring = d.FusionRing.from_payload(json.loads(out))
    assert ring.labels == ("1", "tau")


def test_catalog_export_file_round_trip(capsys, tmp_path):
    path = tmp_path / "vec3.json"
    code, out, _ = run_cli(capsys, "catalog", "export", "--name", "vec_cyclic(3)", "--out", str(path))
    assert code == 0
    ring = d.FusionRing.from_payload(json.loads(path.read_text()))
    assert d.validate_ring(ring).passed
    code2, out2, _ = run_cli(capsys, "ring", "classify", "--ring", str(path), "--object", "g1")
    assert code2 == 0
    assert payload_of(out2)["essential"] is True


def test_builtin_digest_is_the_digest_of_the_exported_ring(capsys, tmp_path):
    for entry in d.entries():
        path = tmp_path / "ring.json"
        code, out, _ = run_cli(capsys, "catalog", "export", "--name", entry.name, "--out", str(path))
        assert code == 0
        read_back = d.FusionRing.from_payload(json.loads(path.read_text()))
        assert payload_of(out)["ring"] == cli._builtin_digest(entry.name) == cli._ring_digest(read_back)
        code, out, _ = run_cli(capsys, "ring", "validate", "--builtin", entry.name)
        assert json.loads(out)["inputs"]["ring"] == cli._builtin_digest(entry.name)


def test_builtin_digest_is_computed_once_per_name(capsys, monkeypatch):
    digests = []
    monkeypatch.setattr(cli, "_ring_digest", lambda ring: digests.append(ring) or "sha256:stub")
    cli._builtin_digest.cache_clear()
    try:
        for _ in range(3):
            run_cli(capsys, "ring", "classify", "--builtin", "rep_s3", "--object", "V")
            run_cli(capsys, "nimrep", "classify", "--builtin", "rep_s3", "--regular", "--object", "sgn")
    finally:
        cli._builtin_digest.cache_clear()
    assert len(digests) == 1 and digests[0] is d.builtin_ring("rep_s3")


def test_catalog_export_unwritable_path_exits_two(capsys, tmp_path):
    path = tmp_path / "missing" / "fib.json"
    code, out, err = run_cli(capsys, "catalog", "export", "--name", "fib", "--out", str(path))
    assert code == 2
    assert out == ""
    assert f"cannot write {path}" in err


# ------------------------------------------------------------- monad verbs

def test_monad_check_maybe(capsys):
    code, out, _ = run_cli(capsys, "monad", "check", "maybe", "--max-size", "4")
    assert code == 0
    payload = payload_of(out)
    assert payload["trivial_up_to_bound"] is True
    assert payload["laws_passed"] is True


def test_lawless_monad_exits_one_with_its_violations(capsys, monkeypatch):
    # freevec2 with one bit of mu_2 flipped: its laws first fail at carrier 2, and no adjunction verdict follows
    monkeypatch.setattr(monads, "builtin_monad", lambda name, marks=None: XorSlip())
    code, out, _ = run_cli(capsys, "monad", "check", "freevec2", "--max-size", "1")
    assert code == 0 and payload_of(out)["laws_passed"] is True
    code, out, _ = run_cli(capsys, "monad", "check", "freevec2", "--max-size", "2")
    assert code == 1
    payload = payload_of(out)
    assert sorted(payload) == ["passed", "violations"]
    assert payload["passed"] is False and len(payload["violations"]) == 31744


def test_monad_check_exception_negative(capsys):
    code, out, _ = run_cli(
        capsys, "monad", "check", "exception", "--marks", "2", "--max-size", "3"
    )
    assert code == 0
    payload = payload_of(out)
    assert payload["trivial_up_to_bound"] is False
    assert payload["counterexample"]["carrier"] == 1


def test_monad_check_budget_exit(capsys):
    # the wall is carrier 9's fill: carrier 8's ends in 549 655 leaves, and carrier 9's runs past 600 000
    code, out, err = run_cli(capsys, "monad", "check", "freevec2", "--max-size", "9", "--budget", "600000")
    assert (code, out) == (3, "")
    assert "budget exceeded: structure-map enumeration at carrier 9 needs 600001 entries" in err


def test_monad_check_decides_freevec2_at_eight_from_the_fill_points(capsys):
    # carrier 8's 240 candidates are F2^3 and need no 2^256-entry T(T(8)): the support-2 points decide them
    code, out, _ = run_cli(capsys, "monad", "check", "freevec2", "--max-size", "8")
    assert code == 0
    payload = payload_of(out)
    assert (payload["isoclass_count"], payload["trivial_up_to_bound"], payload["laws_passed"]) == (4, True, True)
    assert [(w["algebra"]["carrier"], w["generator_size"]) for w in payload["free_witnesses"]] == [
        (1, 0), (2, 1), (4, 2), (8, 3)]
    assert payload["note"].startswith(monads.BOUNDED_NOTE + ". At carrier 8, whose T(T(Y)) is past the budget,")
    assert "points of support <= 2 (FreeVectorF2.em_law_support)" in payload["note"]
    assert "validate_monad checks monad associativity only at sizes n whose T(T(T(n))) fits" in payload["note"]


def test_small_budget_maybe_check_is_decided_from_the_structure_table(capsys):
    # |T(3)| = 4 fits the budget and |T(T(3))| = 5 does not: the unit law decides maybe's law at carrier 3
    code, out, _ = run_cli(capsys, "monad", "check", "maybe", "--max-size", "3", "--budget", "4")
    assert code == 0
    payload = payload_of(out)
    assert (payload["isoclass_count"], payload["trivial_up_to_bound"]) == (3, True)
    assert payload["note"].startswith(monads.BOUNDED_NOTE + ". At carrier 3, whose T(T(Y)) is past the budget,")
    # the EM fill holds carrier 4's 5-entry structure table to the budget before it fills anything
    code, _, err = run_cli(capsys, "monad", "check", "maybe", "--max-size", "4", "--budget", "4")
    assert code == 3
    assert "structure-map enumeration at carrier 4 needs 5 entries, budget is 4" in err


def test_monad_check_decides_freevec2_up_to_seven(capsys):
    # only a candidate that passes the law points pays for the axiom tables, and carriers 5 to 7 have none
    code, out, _ = run_cli(capsys, "monad", "check", "freevec2", "--max-size", "7")
    assert code == 0
    payload = payload_of(out)
    assert (payload["isoclass_count"], payload["trivial_up_to_bound"]) == (3, True)
    assert [w["generator_size"] for w in payload["free_witnesses"]] == [0, 1, 2]


def test_monad_check_builds_mu_four_once_per_run(capsys, monkeypatch):
    # the laws and the EM enumeration share the free algebras' law verdicts within a run, never across runs
    built = []
    mu = d.FreeVectorF2.mu
    monkeypatch.setattr(d.FreeVectorF2, "mu", lambda self, n: built.append(n) or mu(self, n))
    for _ in range(2):
        built.clear()
        code, _, _ = run_cli(capsys, "monad", "check", "freevec2", "--max-size", "4")
        assert code == 0
        assert built.count(4) == 1


def test_monad_check_far_past_the_budget_sizes_no_huge_table(capsys):
    # freevec2 at bound 29 used to size T(T(29)) as the number 2^(2^29) just to compare it; at budget 20 000
    # bounds 8 and 60 both stop at carrier 8's 32 640 law points, so neither sizes anything past carrier 8
    peaks, errors = [], []
    for bound in ("8", "60"):
        tracemalloc.start()
        code, out, err = run_cli(capsys, "monad", "check", "freevec2", "--max-size", bound, "--budget", "20000")
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert (code, out) == (3, "")
        errors.append(err)
    assert errors[0] == errors[1]
    assert "EM law points at carrier 8 needs 32640 entries, budget is 20000" in errors[0]
    assert peaks[1] < peaks[0] + 2**20


@pytest.mark.parametrize("argv,line", [
    # theta(1, 7) has 2^7 entries; mu(5) has 2^32, past the default budget; strength_iii at (2, 3) has 2 * 2^8 points
    (["--max-size", "16", "--budget", "100"], "strength tables at sizes (7) needs 128 entries, budget is 100"),
    (["--max-size", "5"], "strength tables at sizes (0, 5) needs 4294967296 entries, budget is 2000000"),
    (["--max-size", "3", "--budget", "511"], "strength tables at sizes (2, 3) needs 512 entries, budget is 511"),
])
def test_monad_strength_guards_every_table(capsys, argv, line):
    code, out, err = run_cli(capsys, "monad", "strength", "freevec2", *argv)
    assert (code, out) == (3, "")
    assert f"divalg: budget exceeded: {line}" in err.splitlines()


def without_and_with_the_env_var(capsys, monkeypatch, value, *argv):
    """(exit code, stdout) of argv with DIVALG_BUDGET unset, then set to value."""
    monkeypatch.delenv("DIVALG_BUDGET", raising=False)
    unset = run_cli(capsys, *argv)[:2]
    monkeypatch.setenv("DIVALG_BUDGET", value)
    return unset, run_cli(capsys, *argv)[:2]


def test_budget_env_var(capsys, monkeypatch):
    # nothing reads the variable: at budget 10 the report would say that carrier 2's law, whose T(T(2)) has 16
    # entries, was decided by the support-2 points, and at the default budget it does not
    argv = ("monad", "check", "freevec2", "--max-size", "2")
    unset, given = without_and_with_the_env_var(capsys, monkeypatch, "10", *argv)
    assert unset[0] == 0
    assert given == unset


def test_budget_option_overrides_the_env_var(capsys, monkeypatch):
    argv = ("monad", "check", "maybe", "--max-size", "4", "--budget", "100000")
    unset, given = without_and_with_the_env_var(capsys, monkeypatch, "3", *argv)
    assert unset[0] == 0
    assert given == unset


def test_zero_budget_env_var_leaves_the_report_unchanged(capsys, monkeypatch):
    # "--budget 0" makes this report "applicable": false; a variable the command field does not show must not
    argv = ("monad", "check", "identity", "--max-size", "0")
    unset, given = without_and_with_the_env_var(capsys, monkeypatch, "0", *argv)
    assert unset[0] == 0
    assert payload_of(unset[1])["applicable"] is True
    assert given == unset


@pytest.mark.parametrize("verb", ["check", "strength"])
def test_budget_help_names_every_count(capsys, verb):
    code, out, _ = run_cli(capsys, "monad", verb, "--help")
    assert code == 0
    assert "table entries, points evaluated, orbit members, search leaves" in " ".join(out.split())


def test_zero_budget_exits_three(capsys):
    code, out, err = run_cli(capsys, "monad", "check", "maybe", "--max-size", "2", "--budget", "0")
    assert code == 3
    assert "budget is 0" in err


def test_zero_budget_decides_at_carrier_zero(capsys):
    # the one structure table of the identity monad at carrier 0 is empty: no value is placed, so none is charged
    code, out, _ = run_cli(capsys, "monad", "check", "identity", "--max-size", "0", "--budget", "0")
    assert code == 0
    assert payload_of(out)["isoclass_count"] == 1


def test_structure_map_fill_frontier(capsys):
    # exception(3) at carrier 6: six unit-fixed entries and 6^3 free fillings, each charged once
    argv = ("monad", "check", "exception", "--marks", "3", "--max-size", "6", "--budget")
    code, out, _ = run_cli(capsys, *argv, "216")
    assert code == 0
    assert payload_of(out)["applicable"] is True
    code, out, err = run_cli(capsys, *argv, "215")
    assert (code, out) == (3, "")
    assert "structure-map enumeration at carrier 6 needs 216 entries, budget is 215" in err


@pytest.mark.parametrize("verb", ["check", "strength"])
def test_negative_budget_option_exits_two(capsys, verb):
    code, out, err = run_cli(capsys, "monad", verb, "maybe", "--max-size", "2", "--budget", "-1")
    assert code == 2
    assert out == ""
    assert "--budget" in err


@pytest.mark.parametrize("value", ["abc", "-5", "1.5", ""])
def test_bad_budget_env_var_is_ignored(capsys, monkeypatch, value):
    argv = ("monad", "check", "maybe", "--max-size", "2")
    unset, given = without_and_with_the_env_var(capsys, monkeypatch, value, *argv)
    assert unset[0] == 0
    assert given == unset


@pytest.mark.parametrize("command", [
    ["monad", "check", "maybe", "--max-size", "-1"],
    ["monad", "strength", "maybe", "--max-size", "-2"],
])
def test_negative_max_size_exits_two(capsys, command):
    code, out, err = run_cli(capsys, *command)
    assert code == 2
    assert out == ""
    assert "--max-size" in err


@pytest.mark.parametrize("verb", ["check", "strength"])
@pytest.mark.parametrize("name", ["maybe", "identity", "freevec2"])
def test_marks_on_a_monad_without_marks_exits_two(capsys, verb, name):
    code, out, err = run_cli(capsys, "monad", verb, name, "--marks", "5", "--max-size", "2")
    assert code == 2
    assert out == ""
    assert "marks" in err


@pytest.mark.parametrize("verb", ["check", "strength"])
def test_monad_verbs_list_the_builtin_table(verb):
    # both verbs take their names from the one table builtin_monad reads, in its order
    monad = next(a for a in cli._build_parser()._actions if a.dest == "command").choices["monad"]
    parser = next(a for a in monad._actions if a.dest == "subcommand").choices[verb]
    assert next(a for a in parser._actions if a.dest == "name").choices == list(monads.BUILTIN_MONADS)
    assert list(monads.BUILTIN_MONADS) == ["maybe", "identity", "exception", "freevec2"]


@pytest.mark.parametrize("verb,key,default", [("check", "bound", 4), ("strength", "max_size", 3)])
def test_each_monad_verb_keeps_its_own_default_bound(capsys, verb, key, default):
    # the two defaults differ, so a --max-size shared between the verbs would give both the same one
    code, out, _ = run_cli(capsys, "monad", verb, "maybe")
    assert code == 0
    assert payload_of(out)[key] == default


def test_monad_strength_maybe(capsys):
    code, out, _ = run_cli(capsys, "monad", "strength", "maybe", "--max-size", "3")
    assert code == 0
    payload = payload_of(out)
    assert payload["strength"]["passed"] is True
    assert payload["very_strong"]["very_strong"] is True
    assert payload["unit_algebra"]["carrier"] == 1


def test_monad_strength_freevec(capsys):
    code, out, _ = run_cli(capsys, "monad", "strength", "freevec2", "--max-size", "2")
    assert code == 0
    payload = payload_of(out)
    assert payload["strength"]["passed"] is True
    assert payload["very_strong"]["very_strong"] is False
    assert payload["unit_algebra"]["mult"] == [0, 0, 0, 1]


# ------------------------------------------------------------ determinism

def test_reports_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "ring", "classify", "--builtin", "fib", "--object", "tau")
    _, second, _ = run_cli(capsys, "ring", "classify", "--builtin", "fib", "--object", "tau")
    assert first == second


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def fresh_process_stdout(argv):
    src = str(Path(d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "divalg", *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    return done.stdout


FIB_TAU = ["ring", "classify", "--builtin", "fib", "--object", "tau"]


@pytest.mark.parametrize("first, first_code", [
    (["--format", "markdown", *FIB_TAU], 0),
    ([*FIB_TAU, "--fpdim"], 0),
    (["ring", "classify", "--builtin", "fib"], 2),
    (["--help"], 0),
])
def test_no_option_leaks_into_the_next_run(capsys, first, first_code):
    assert run_cli(capsys, *first)[0] == first_code
    code, out, _ = run_cli(capsys, *FIB_TAU)
    assert code == 0
    assert out == fresh_process_stdout(FIB_TAU)


@pytest.mark.parametrize("argv", [
    # abbreviations, resolved by the verb's parser alone
    "ring classify --builtin fib --obj tau",
    "monad check maybe --max 3",
    "monad strength maybe --max 2 --bud 100",
    # -- ends the options, and -h after the verb prints the verb's help
    "ring classify -- --builtin fib",
    "ring validate -- fib.json",
    "ring classify --builtin fib --object tau -h",
    "monad check --help",
    # root options after the verb: --f is --fpdim's abbreviation, --format is no option of the verb
    "ring classify --builtin fib --object tau --f",
    "ring classify --builtin fib --object tau --format markdown",
    "monad check maybe --format=markdown",
    "monad check maybe --f markdown",
    # a missing required option or positional
    "ring classify --builtin fib",
    "catalog export",
    "monad check",
    # negative values, bad types and bad choices
    "monad check maybe --max-size -1",
    "monad strength freevec2 --budget -5",
    "monad strength exception --marks -2",
    "ring classify --builtin fib --object -1,2",
    "ring classify --builtin fib --object=-1,2",
    "monad check maybe --max-size x",
    "ring classify --builtin fib --object tau --side up",
    "monad check nosuch",
    # an extra positional, and an option given twice
    "ring classify --builtin fib --object tau extra",
    "ring validate a.json b.json",
    "catalog list extra",
    "nimrep classify --builtin fib --builtin ising --regular --object 0,1",
])
def test_the_verb_parser_matches_the_whole_tree(argv):
    argv = argv.split()
    assert tuple(argv[:2]) in cli._verb_parsers()
    assert_parse_matches_the_whole_tree(argv)


def test_a_noun_verb_command_line_never_enters_the_root_parse(capsys, monkeypatch):
    root = cli._build_parser()
    entered = []
    parse_known_args = root.parse_known_args

    def spy(*args, **kwargs):
        entered.append(args)
        return parse_known_args(*args, **kwargs)

    monkeypatch.setattr(root, "parse_known_args", spy)
    assert run(FIB_TAU) == 0
    assert entered == []
    # a leading --format reaches the verb only through the whole tree
    assert run(["--format", "markdown", *FIB_TAU]) == 0
    assert len(entered) == 1
    capsys.readouterr()


def test_timing_goes_to_stderr_only(capsys):
    _, out, err = run_cli(capsys, "catalog", "list")
    assert "elapsed" not in out
    assert "elapsed_seconds=" in err


def test_json_report_round_trips():
    report = RunReport(
        command=("ring", "validate", "--builtin", "fib"),
        inputs={"builtin": "fib"},
        payload={"passed": True, "violations": []},
        version=d.__version__,
    )
    text = export_report(report, format="json")
    assert json.loads(text) == report.body()
    assert export_report(report, format="json") == text
    with pytest.raises(d.StructuralError, match="unknown report format 'yaml'"):
        export_report(report, format="yaml")


def test_markdown_report_names_the_algebra(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "markdown", "ring", "classify", "--builtin", "fib", "--object", "tau"
    )
    assert code == 0
    assert "| algebra_label | 1 ⊔ tau |" in out
    assert out == run_cli(
        capsys, "--format", "markdown", "ring", "classify", "--builtin", "fib", "--object", "tau"
    )[1]


def test_markdown_catalog_is_a_table(capsys):
    code, out, _ = run_cli(capsys, "--format", "markdown", "catalog", "list")
    assert code == 0
    assert "| name | note | rank |" in out
    assert "| fib |" in out


def test_markdown_monad_verdict(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "markdown", "monad", "check", "exception",
        "--marks", "2", "--max-size", "3",
    )
    assert code == 0
    assert "trivial_up_to_bound" in out
    assert "counterexample" in out
