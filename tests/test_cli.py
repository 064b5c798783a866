"""End-to-end command tests: dispatch, exit codes, determinism, round-trips.

Every command is executed in-process through ``run(argv)``; stdout must be
canonical JSON (or DOT) with a trailing newline, errors must be one-line JSON
objects on stderr with the documented exit codes.
"""
import contextlib
import errno
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biheyt import (DEFAULT_LIMITS, BiheytError, ContextPoset, Limits,
                    SizeGuard, biheyting, canonical_json, cli,
                    enumerate_contexts, enumerate_subobjects, from_greechie,
                    generate, global_sections, presheaf)
from biheyt.cli import run

from support import (DAS_P, O6, PENTAGON, THREE_CHAIN, _dump_explicit,
                     chain_pasting, tree_pasting)

DAS_Q = {"p+q|r": "p+q", "p+r|q": "q", "p|q+r": "q+r", "p|q|r": "q"}
NOT_DAS_P = {"p+q|r": "r", "p+r|q": "q", "p|q+r": "q+r", "p|q|r": "0"}
CONOT_DAS_P = {"p+q|r": "1", "p+r|q": "1", "p|q+r": "q+r", "p|q|r": "q+r"}
MEET_P_Q = {"p+q|r": "p+q", "p+r|q": "0", "p|q+r": "0", "p|q|r": "0"}
SECTION_P = {"p+q|r": "p+q", "p+r|q": "p+r", "p|q+r": "p", "p|q|r": "p"}

VALIDATE_B3 = ('{"atoms":3,"blocks":1,"contexts":4,"elements":8,'
               '"kind":"lattice","valid":true}')
LAWS_MO2_ORACLE = ('{"adjunctions":{"counterexample":null,"passed":true,'
                   '"subobjects":16,"triples":4096},'
                   '"oracle":{"first_mismatch":null,"mismatches":0,'
                   '"negation_checks":32,"pair_checks":512,"passed":true}}')


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _jfile(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_validate_builtin(capsys):
    code, out, err = _run(capsys, "validate", "--builtin", "boolean:3")
    assert code == 0 and err == ""
    assert out == VALIDATE_B3 + "\n"


def test_validate_rejects_non_orthomodular(capsys, tmp_path):
    path = _jfile(tmp_path, "hexagon.json", O6)
    code, out, err = _run(capsys, "validate", "--input", path)
    assert code == 1 and out == ""
    blob = json.loads(err)
    assert blob["error"] == "OrthomodularityViolated"
    assert "message" in blob


def test_greechie_input_matches_builtin(capsys, tmp_path):
    path = _jfile(tmp_path, "triple.json", {"format": "greechie",
                                            "blocks": [["p", "q", "r"]]})
    code, out, _ = _run(capsys, "validate", "--input", path)
    assert code == 0 and out == VALIDATE_B3 + "\n"
    _, from_file, _ = _run(capsys, "das", "--input", path, "--element", "p")
    _, from_builtin, _ = _run(capsys, "das", "--builtin", "boolean:3",
                              "--element", "p")
    assert from_file == from_builtin == canonical_json(DAS_P) + "\n"


def test_contexts_and_spectrum(capsys):
    code, out, _ = _run(capsys, "contexts", "--builtin", "boolean:3")
    assert code == 0
    blob = json.loads(out)
    assert blob["count"] == 4
    assert blob["contexts"][0] == {"atoms": ["p+q", "r"], "id": "p+q|r"}
    code, out, _ = _run(capsys, "spectrum", "--builtin", "boolean:3")
    assert code == 0
    assert json.loads(out) == {"p+q|r": ["p+q", "r"], "p+r|q": ["p+r", "q"],
                               "p|q+r": ["p", "q+r"], "p|q|r": ["p", "q", "r"]}


def test_negation_pipeline(capsys, tmp_path):
    structure_file = _jfile(tmp_path, "boolean3.json",
                            _dump_explicit(generate("boolean", 3)))
    das_file = str(tmp_path / "das_p.json")
    code, out, _ = _run(capsys, "das", "--input", structure_file,
                        "--element", "p", "--output", das_file)
    assert code == 0 and out == ""
    assert json.loads((tmp_path / "das_p.json").read_text()) == DAS_P
    code, out, _ = _run(capsys, "op", "not", "--heyting",
                        "--input", structure_file, "--subobject", das_file)
    assert code == 0
    assert out == canonical_json(NOT_DAS_P) + "\n"


def test_binary_operations(capsys, tmp_path):
    sp = _jfile(tmp_path, "sp.json", DAS_P)
    sq = _jfile(tmp_path, "sq.json", DAS_Q)
    code, out, _ = _run(capsys, "op", "meet", "--builtin", "boolean:3",
                        "--subobject", sp, "--subobject2", sq)
    assert code == 0 and json.loads(out) == MEET_P_Q
    code, out, _ = _run(capsys, "op", "subtract", "--builtin", "boolean:3",
                        "--subobject", sp, "--subobject2", sq)
    assert code == 0 and json.loads(out) == DAS_P
    for verb in ("implies", "subtract"):
        _, plain, _ = _run(capsys, "op", verb, "--builtin", "boolean:3",
                           "--subobject", sp, "--subobject2", sq)
        _, brute, _ = _run(capsys, "op", verb, "--builtin", "boolean:3",
                           "--subobject", sp, "--subobject2", sq, "--oracle")
        assert plain == brute


def test_binary_needs_second_operand(capsys, tmp_path):
    sp = _jfile(tmp_path, "sp.json", DAS_P)
    code, out, err = _run(capsys, "op", "meet", "--builtin", "boolean:3",
                          "--subobject", sp)
    assert code == 3 and out == ""
    assert "--subobject2" in json.loads(err)["message"]


def test_unary_operations(capsys, tmp_path):
    sp = _jfile(tmp_path, "sp.json", DAS_P)
    code, out, _ = _run(capsys, "op", "conot", "--builtin", "boolean:3",
                        "--subobject", sp)
    assert code == 0 and json.loads(out) == CONOT_DAS_P
    _, coh, _ = _run(capsys, "op", "not", "--coheyting",
                     "--builtin", "boolean:3", "--subobject", sp)
    assert json.loads(coh) == CONOT_DAS_P
    _, brute, _ = _run(capsys, "op", "not", "--builtin", "boolean:3",
                       "--subobject", sp, "--oracle")
    assert json.loads(brute) == NOT_DAS_P
    code, _, _ = _run(capsys, "op", "not", "--heyting", "--coheyting",
                      "--builtin", "boolean:3", "--subobject", sp)
    assert code == 3


def test_check_predicates(capsys, tmp_path):
    sp = _jfile(tmp_path, "sp.json", DAS_P)
    np_ = _jfile(tmp_path, "np.json", NOT_DAS_P)
    code, out, _ = _run(capsys, "check", "tight", "--builtin", "boolean:3",
                        "--subobject", sp)
    assert code == 0 and out == '{"check":"tight","result":true}\n'
    code, out, _ = _run(capsys, "check", "coregular", "--builtin", "boolean:3",
                        "--subobject", np_)
    assert code == 0 and out == '{"check":"coregular","result":false}\n'
    code, out, _ = _run(capsys, "check", "regular", "--builtin", "boolean:3",
                        "--subobject", np_)
    assert code == 0 and out == '{"check":"regular","result":true}\n'


def test_check_laws_with_oracle(capsys):
    code, out, _ = _run(capsys, "check", "laws", "--builtin", "mo:2",
                        "--oracle")
    assert code == 0
    assert out == LAWS_MO2_ORACLE + "\n"


def test_sections(capsys):
    code, out, _ = _run(capsys, "sections", "--builtin", "cabello18")
    assert code == 0 and out == '{"count":0}\n'
    code, out, _ = _run(capsys, "sections", "--builtin", "boolean:3", "--list")
    blob = json.loads(out)
    assert blob["count"] == 3 and SECTION_P in blob["sections"]
    _, out, _ = _run(capsys, "sections", "--builtin", "mo:2")
    assert out == '{"count":4}\n'


def test_enumerate_and_round_trip(capsys, tmp_path):
    code, out, _ = _run(capsys, "enumerate", "--builtin", "boolean:3")
    assert code == 0 and out == '{"count":95}\n'
    code, out, _ = _run(capsys, "enumerate", "--builtin", "mo:2", "--list")
    blob = json.loads(out)
    assert blob["count"] == 16 and len(blob["subobjects"]) == 16
    # every emitted subobject re-ingests: meet with itself is the identity
    sub = _jfile(tmp_path, "sub.json", blob["subobjects"][7])
    code, out, _ = _run(capsys, "op", "meet", "--builtin", "mo:2",
                        "--subobject", sub, "--subobject2", sub)
    assert code == 0 and json.loads(out) == blob["subobjects"][7]


def test_size_guard_exit_code(capsys):
    code, out, err = _run(capsys, "enumerate", "--builtin", "boolean:3",
                          "--max-subobjects", "10")
    assert code == 2 and out == ""
    blob = json.loads(err)
    assert blob["error"] == "SizeGuard"
    # the eleventh subobject comes in the first batch past the limit
    assert blob["details"] == {"limit": "max_subobjects", "value": 10,
                               "reached": 11}


def test_law_check_on_the_loop_pasting_trips_the_search_budget(capsys,
                                                                tmp_path):
    """459,103 subobjects: about 9.7e16 triples, refused before any check."""
    loop = _jfile(tmp_path, "loop.json", {
        "format": "greechie",
        "blocks": [["a", "b", "c"], ["c", "d", "e"], ["e", "f", "g"],
                   ["g", "h", "a"]]})
    code, out, err = _run(capsys, "check", "laws", "--input", loop)
    assert code == 2 and out == ""
    blob = json.loads(err)
    assert blob["error"] == "SizeGuard"
    assert blob["details"] == {"limit": "search_budget", "value": 10_000_000,
                               "needed": 459_103 ** 3}
    code, _, err = _run(capsys, "check", "laws", "--builtin", "mo:4")
    assert code == 2 and json.loads(err)["details"]["needed"] == 256 ** 3


def test_structure_and_search_guards_report_details(capsys):
    for argv, details in (
            (("sections", "--builtin", "cabello18", "--search-budget", "5"),
             {"limit": "search_budget", "value": 5, "nodes": 6}),
            (("validate", "--builtin", "boolean:9"),
             {"limit": "max_contexts", "value": 10_000, "needed": 21_146}),
            (("validate", "--builtin", "mo:27"),
             {"limit": "mo_blocks", "value": 26, "blocks": 27})):
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == ""
        blob = json.loads(err)
        assert blob["error"] == "SizeGuard" and blob["details"] == details


def test_boolean_blocks_up_to_the_context_limit_are_builtins(capsys):
    for spec, want in (
            ("boolean:7", '{"atoms":7,"blocks":1,"contexts":876,'
                          '"elements":128,"kind":"lattice","valid":true}\n'),
            ("boolean:8", '{"atoms":8,"blocks":1,"contexts":4139,'
                          '"elements":256,"kind":"lattice","valid":true}\n')):
        assert _run(capsys, "validate", "--builtin", spec) == (0, want, "")
    code, out, err = _run(capsys, "validate", "--builtin", "boolean:9")
    assert code == 2 and out == ""
    assert json.loads(err)["details"]["needed"] == 21_146
    start = time.perf_counter()
    code, out, err = _run(capsys, "validate", "--builtin", "boolean:100000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert json.loads(err)["details"] == {"limit": "max_contexts",
                                          "value": 10_000, "atoms": 100_000}


def test_a_block_past_the_context_limit_is_refused_before_it_is_built(
        capsys, tmp_path):
    """Bell(12) - 1 contexts: refused from the atom count alone."""
    block = _jfile(tmp_path, "block.json", {
        "format": "greechie", "blocks": [[f"x{i}" for i in range(12)]]})
    start = time.perf_counter()
    code, out, err = _run(capsys, "validate", "--input", block)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "SizeGuard",
        "message": "block with 12 atoms has 4213596 contexts, over limit 10000",
        "details": {"limit": "max_contexts", "value": 10_000,
                    "needed": 4_213_596}}


def test_env_var_mirrors_flag(capsys, monkeypatch):
    monkeypatch.setenv("BIHEYT_MAX_SUBOBJECTS", "10")
    code, _, err = _run(capsys, "enumerate", "--builtin", "boolean:3")
    assert code == 2 and json.loads(err)["error"] == "SizeGuard"
    assert json.loads(err)["details"]["value"] == 10
    code, out, _ = _run(capsys, "enumerate", "--builtin", "boolean:3",
                        "--max-subobjects", "1000")
    assert code == 0 and out == '{"count":95}\n'
    monkeypatch.setenv("BIHEYT_MAX_SUBOBJECTS", "ten")
    code, _, err = _run(capsys, "enumerate", "--builtin", "boolean:3")
    assert code == 3 and json.loads(err)["error"] == "UsageError"


def test_export_dot(capsys, tmp_path):
    code, out, _ = _run(capsys, "export-dot", "contexts",
                        "--builtin", "boolean:3")
    assert code == 0
    assert out.startswith("digraph")
    assert '"p+q|r" -> "p|q|r";' in out
    _, dot_fmt, _ = _run(capsys, "contexts", "--builtin", "boolean:3",
                         "--format", "dot")
    assert dot_fmt == out
    sp = _jfile(tmp_path, "sp.json", DAS_P)
    code, out, _ = _run(capsys, "export-dot", "subobject",
                        "--builtin", "boolean:3", "--subobject", sp)
    assert code == 0
    assert 'label="p|q|r\\np = {p}"' in out


def test_byte_determinism(capsys):
    commands = [
        ("validate", "--builtin", "boolean:3"),
        ("contexts", "--builtin", "boolean:3"),
        ("spectrum", "--builtin", "mo:2"),
        ("das", "--builtin", "boolean:3", "--element", "q"),
        ("sections", "--builtin", "boolean:3", "--list"),
        ("enumerate", "--builtin", "mo:2", "--list"),
        ("export-dot", "contexts", "--builtin", "boolean:3"),
    ]
    for argv in commands:
        code1, first, _ = _run(capsys, *argv)
        code2, second, _ = _run(capsys, *argv)
        assert code1 == code2 == 0
        assert first == second


# sha256 of stdout on the 400-block chain pasting, recorded with the
# all-pairs lattice and inclusion tests these commands once ran.
CHAIN400_SHA256 = {
    ("validate",):
        "c8184ee8c7e1595557a3c8d7d0c28ba745cdef9f649588205fceee2df68551c8",
    ("contexts",):
        "93f056fc16ca1187e855f50c116bf0e8431e51796c9537a42f7caec2ab48ba31",
    ("contexts", "--format", "dot"):
        "214c8ceb82bcf6d87d363bebcc02ff459a1acf8a3b122dc6b39195ed165ec9db",
    ("spectrum",):
        "6852dd65076c80a07b66d3b0dbc633587064877101046acdd0577fcec8a64e8e",
}


def test_chain_pasting_output_is_byte_identical(capsys, tmp_path):
    path = _jfile(tmp_path, "chain400.json",
                  {"format": "greechie", "blocks": chain_pasting(400)})
    for argv, digest in CHAIN400_SHA256.items():
        code, out, err = _run(capsys, *argv, "--input", path)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_one_parser_serves_every_call(capsys, tmp_path, monkeypatch):
    """Interleaved failures and successes through the one cached parser
    give what a freshly built parser gives for each call."""
    hexagon = _jfile(tmp_path, "hexagon.json", O6)
    das = tmp_path / "das.json"
    assert run(["das", "--builtin", "boolean:3", "--element", "p",
                "--output", str(das)]) == 0
    calls = [
        ("validate", "--builtin", "boolean:3"),
        ("validate", "--input", hexagon, "--builtin", "boolean:2"),
        ("op", "not", "--coheyting", "--builtin", "boolean:3",
         "--subobject", str(das)),
        ("validate", "--builtin", "boolean:9"),
        ("op", "not", "--builtin", "boolean:3", "--subobject", str(das)),
        ("validate", "--input", hexagon),
        ("sections", "--builtin", "boolean:3", "--list"),
        ("sections", "--builtin", "boolean:3"),
        ("enumerate", "--builtin", "mo:2", "--max-subobjects", "3"),
        ("enumerate", "--builtin", "mo:2"),
        ("validate", "--builtin", "boolean:3"),
    ]
    cached = [_run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in cached] == [0, 3, 0, 2, 0, 1, 0, 0, 2, 0, 0]
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert cli._build_parser() is not cli._build_parser()
    assert [_run(capsys, *argv) for argv in calls] == cached


def test_usage_errors(capsys, tmp_path):
    cases = [
        ("validate", "--builtin", "boolean:zero"),
        ("validate", "--builtin", "dilbert"),
        ("validate", "--input", str(tmp_path / "missing.json")),
        ("validate",),
        ("validate", "--builtin", "boolean:3", "--max-subobjects", "-4"),
        ("op", "frobnicate", "--builtin", "boolean:3"),
    ]
    for argv in cases:
        code, out, err = _run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert json.loads(err)["error"] == "UsageError"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = _run(capsys, "validate", "--input", str(bad))
    assert code == 3 and "invalid JSON" in json.loads(err)["message"]
    code, _, err = _run(capsys)
    assert code == 3
    limits = [(("--max-subobjects", "-4"), "max_subobjects", -4),
              (("--search-budget", "0"), "search_budget", 0),
              (("--max-subobjects", "0", "--search-budget", "0"),
               "max_subobjects", 0)]
    for flags, limit, value in limits:
        code, _, err = _run(capsys, "validate", "--builtin", "boolean:3",
                            *flags)
        assert code == 3 and json.loads(err) == {
            "error": "UsageError", "message": "size limits must be positive",
            "details": {"limit": limit, "value": value}}


def test_flags_a_command_would_ignore_are_usage_errors(capsys, tmp_path):
    """--oracle only changes op implies/subtract/not/conot and check laws,
    and check laws reads no --subobject; elsewhere they are refused."""
    sp = _jfile(tmp_path, "sp.json", DAS_P)
    cases = [("check", predicate, "--subobject", sp, "--oracle")
             for predicate in ("regular", "coregular", "tight")]
    cases += [("check", "laws", "--subobject", sp),
              ("check", "laws", "--subobject", sp, "--oracle")]
    cases += [("op", verb, "--subobject", sp, "--subobject2", sp, "--oracle")
              for verb in ("meet", "join")]
    for argv in cases:
        code, out, err = _run(capsys, *argv[:2], "--builtin", "boolean:3",
                              *argv[2:])
        assert (code, out) == (3, ""), argv
        blob = json.loads(err)
        assert blob["error"] == "UsageError" and "details" not in blob
        flag = "--subobject" if argv[1] == "laws" else "--oracle"
        assert blob["message"] == f"{argv[0]} {argv[1]} takes no {flag}"


_ARGV_USAGE_ERRORS = [
    (("op", "conot", "--heyting"), "op conot takes no --heyting"),
    (("op", "conot", "--coheyting"), "op conot takes no --coheyting"),
    *[(("op", verb, "--subobject2", "S", flag), f"op {verb} takes no {flag}")
      for verb in ("meet", "join", "implies", "subtract")
      for flag in ("--heyting", "--coheyting")],
    (("export-dot", "contexts", "--subobject", "S"),
     "export-dot contexts takes no --subobject"),
    *[(("check", predicate), "--subobject is required for this command")
      for predicate in ("regular", "coregular", "tight")],
    *[(("op", verb, "--subobject2", "S"), f"op {verb} takes a single --subobject")
      for verb in ("not", "conot")],
    *[(("op", verb), "--subobject2 is required for this command")
      for verb in ("meet", "join", "implies", "subtract")],
    (("export-dot", "subobject"), "--subobject is required for this command")]


@pytest.mark.parametrize("argv, message", _ARGV_USAGE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in _ARGV_USAGE_ERRORS])
def test_argv_usage_errors_come_before_any_structure(capsys, tmp_path,
                                                     monkeypatch, argv, message):
    """Each usage error that argv alone decides exits 3 with its message,
    though the input is not orthomodular (exit 1 once validated), no poset
    can be built and the operand files do not exist."""
    def refuse(self, *args, **kwargs):
        raise BiheytError("ContextPoset built")
    monkeypatch.setattr(ContextPoset, "__init__", refuse)
    missing = str(tmp_path / "missing.json")
    argv = [missing if a == "S" else a for a in argv]
    if argv[0] == "op":
        argv += ["--subobject", missing]
    code, out, err = _run(capsys, *argv, "--input",
                          _jfile(tmp_path, "o6.json", O6))
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "UsageError", "message": message}


UNKNOWN_ZZ = ('{"details":{"label":"zz"},"error":"UsageError",'
              '"message":"unknown element label \'zz\'"}\n')


def test_an_unknown_label_comes_before_any_poset(capsys, monkeypatch):
    """``das`` tests its label against the structure, so with
    ``ContextPoset`` refusing to be built the error is unchanged."""
    argv = ("das", "--element", "zz", "--builtin", "boolean:8")
    assert _run(capsys, *argv) == (3, "", UNKNOWN_ZZ)

    def refuse(self, *args, **kwargs):
        raise BiheytError("ContextPoset built")
    monkeypatch.setattr(ContextPoset, "__init__", refuse)
    assert _run(capsys, *argv) == (3, "", UNKNOWN_ZZ)


def test_an_unknown_label_comes_before_the_context_walk(capsys, tmp_path):
    """Three chained eight-atom blocks validate, but their contexts pass
    ``max_contexts``: a known label exits 2 in the walk, an unknown one
    exits 3 before it."""
    path = _jfile(tmp_path, "three8.json", {"format": "greechie", "blocks": [
        [f"a{i}" for i in range(8)], ["a7", *(f"b{i}" for i in range(7))],
        ["b6", *(f"c{i}" for i in range(7))]]})
    code, out, err = _run(capsys, "das", "--element", "a0", "--input", path)
    assert (code, out) == (2, "")
    assert json.loads(err)["details"] == {"limit": "max_contexts",
                                          "value": 10_000, "reached": 10_001}
    assert _run(capsys, "das", "--element", "zz", "--input", path) \
        == (3, "", UNKNOWN_ZZ)


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    path = str(tmp_path / "missing" / "x.json")
    code, out, err = _run(capsys, "validate", "--builtin", "boolean:3",
                          "--output", path)
    assert code == 3 and out == "" and err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "UsageError"
    assert payload["details"] == {"path": path}
    assert payload["message"].startswith(f"cannot write {path}: ")


class _FailingStream(io.StringIO):
    """A stdout or stderr whose every write raises ``error``."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize("argv", [
    ("validate", "--builtin", "boolean:3"),
    ("enumerate", "--list", "--builtin", "mo:2")], ids=["text", "listing"])
@pytest.mark.parametrize("stdout", [
    _FailingStream(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))),
    _FailingStream(BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))),
    None], ids=["full-disk", "closed-pipe", "closed"])
def test_unwritable_stdout_is_a_usage_error(argv, stdout):
    """A failed write to stdout takes the path of a failed ``--output``:
    exit 3 and one JSON line on stderr that names stdout."""
    err = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = run(list(argv))
    assert code == 3 and err.getvalue().count("\n") == 1
    payload = json.loads(err.getvalue())
    assert payload["error"] == "UsageError"
    assert payload["details"] == {"path": "<stdout>"}
    assert payload["message"].startswith("cannot write <stdout>: ")


@pytest.mark.parametrize("argv, code", [
    (("das", "--element", "zz", "--builtin", "boolean:3"), 3),
    (("validate", "--builtin", "boolean:1"), 1),
    (("validate", "--builtin", "boolean:9"), 2)], ids=["usage", "validation", "guard"])
@pytest.mark.parametrize("stderr", [
    _FailingStream(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))),
    None], ids=["full-disk", "closed"])
def test_unwritable_stderr_keeps_the_exit_code(argv, code, stderr):
    """The exit code names the error's class even where its one line
    cannot be written; nothing goes to stdout instead."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stderr):
        assert run(list(argv)) == code
    assert out.getvalue() == ""


def test_unwritable_stdout_and_stderr_exit_3():
    """A failed write to stdout is a usage error, whose line then fails
    on stderr too: still exit 3."""
    failing = _FailingStream(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
    with contextlib.redirect_stdout(failing), contextlib.redirect_stderr(failing):
        assert run(["validate", "--builtin", "boolean:3"]) == 3


def _fresh_env():
    """The environment of a fresh interpreter that imports this tree's
    package, with the standard streams buffered as they are by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        str(pathlib.Path(cli.__file__).parents[1]), env.get("PYTHONPATH"))))
    return env


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("stdout", ["full-disk", "closed-pipe", "closed"])
def test_unwritable_stdout_exits_3_in_a_fresh_process(stdout):
    """In a process of its own, with stdout block-buffered as it is by
    default, a full disk, a pipe with no reader and a closed stdout each
    exit 3 with one stderr line: no traceback, and nothing more when the
    interpreter flushes stdout at exit."""
    env = _fresh_env()
    argv = [sys.executable, "-m", "biheyt.cli", "validate", "--builtin",
            "boolean:3"]
    if stdout == "full-disk":
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE,
                                  env=env)
    elif stdout == "closed-pipe":
        reader, writer = os.pipe()
        os.close(reader)
        try:
            proc = subprocess.run(argv, stdout=writer, stderr=subprocess.PIPE,
                                  env=env)
        finally:
            os.close(writer)
    else:
        proc = subprocess.run(["sh", "-c", '"$@" >&-', "sh", *argv],
                              stderr=subprocess.PIPE, env=env)
    err = proc.stderr.decode()
    assert proc.returncode == 3 and err.count("\n") == 1, err
    assert json.loads(err)["details"] == {"path": "<stdout>"}


@pytest.mark.parametrize("stderr", [
    pytest.param("full-disk", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="no /dev/full")),
    "closed"])
def test_unwritable_stderr_exits_3_in_a_fresh_process(stderr):
    """In a process of its own, a usage error exits 3 with stderr on a full
    disk or closed: the failed line changes neither the code nor, when the
    interpreter flushes stderr at exit, the exit status."""
    argv = [sys.executable, "-m", "biheyt.cli", "das", "--element", "zz",
            "--builtin", "boolean:3"]
    if stderr == "full-disk":
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=full,
                                  env=_fresh_env())
    else:
        proc = subprocess.run(["sh", "-c", '"$@" 2>&-', "sh", *argv],
                              stdout=subprocess.PIPE, env=_fresh_env())
    assert (proc.returncode, proc.stdout) == (3, b"")


@pytest.mark.parametrize("command", [
    ("enumerate", "--list", "--builtin", "boolean:3"),
    ("sections", "--list", "--builtin", "mo:2")])
def test_a_listing_reports_its_guard_before_its_output(tmp_path, command):
    """The guard trips before ``--output`` is opened, so a refused listing
    exits 2 and leaves no file, writable or not; a listing within its
    guard exits 3 on an unwritable path and otherwise writes stdout's
    bytes."""
    guard = ("--max-subobjects" if command[0] == "enumerate"
             else "--search-budget", "1")
    refused = _quiet([*command, *guard])
    assert refused[:2] == (2, "")
    missing = tmp_path / "missing" / "x.json"
    fresh = tmp_path / "x.json"
    for path in (missing, fresh):
        assert _quiet([*command, *guard, "--output", str(path)]) == refused
        assert not path.exists()
    code, out, err = _quiet([*command, "--output", str(missing)])
    assert (code, out) == (3, "")
    assert json.loads(err)["details"] == {"path": str(missing)}
    code, out, err = _quiet(list(command))
    assert (code, err) == (0, "")
    assert _quiet([*command, "--output", str(fresh)]) == (0, "", "")
    assert fresh.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("flag", ["--input", "--subobject"])
@pytest.mark.parametrize("content", [
    b"\xff{}",                       # not UTF-8
    b"1" * 4301,                      # past the integer digit limit
    b"[" * 100_000 + b"]" * 100_000,  # past the recursion limit
], ids=["not-utf8", "long-integer", "deep-nesting"])
def test_an_undecodable_file_is_a_usage_error(tmp_path, flag, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    argv = (["validate", "--input", str(path)] if flag == "--input" else
            ["op", "not", "--builtin", "mo:2", "--subobject", str(path)])
    code, out, err = _quiet(argv)
    assert (code, out) == (3, "") and err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "UsageError"
    assert payload["details"] == {"path": str(path)}
    assert payload["message"].startswith(f"invalid JSON in {path}: ")


def test_missing_subcommand_mentions_help(capsys):
    code, _, err = _run(capsys)
    assert code == 3
    assert "subcommand" in json.loads(err)["message"]


def test_input_and_builtin_conflict(capsys, tmp_path):
    path = _jfile(tmp_path, "x.json", {"format": "greechie",
                                       "blocks": [["p", "q"]]})
    code, _, err = _run(capsys, "validate", "--input", path,
                        "--builtin", "boolean:2")
    assert code == 3 and json.loads(err)["error"] == "UsageError"


def _one_usage_error(code, out, err):
    assert (code, out) == (3, "") and err.count("\n") == 1
    blob = json.loads(err)
    assert blob["error"] == "UsageError"
    return blob


def test_a_subobject_file_must_hold_an_object(capsys, tmp_path):
    sp = _jfile(tmp_path, "sp.json", [])
    blob = _one_usage_error(*_run(capsys, "op", "not", "--builtin",
                                  "boolean:3", "--subobject", sp))
    assert blob == {"error": "UsageError",
                    "message": "a subobject file must be an object mapping "
                               "context id to element label"}


@pytest.mark.parametrize("value", [[], None, {}, 0.5, True, 3, 1.0, ["p"]])
def test_subobject_values_must_be_labels(capsys, tmp_path, value):
    """Subobject files map context ids to element labels: any other JSON
    value, an integer included, is refused with the context named."""
    sp = _jfile(tmp_path, "sp.json", {**DAS_P, "p+r|q": value})
    blob = _one_usage_error(*_run(capsys, "op", "not", "--builtin",
                                  "boolean:3", "--subobject", sp))
    assert blob["details"] == {"context": "p+r|q"}


@pytest.mark.parametrize("slot", ["leq", "ortho"])
@pytest.mark.parametrize("value", [["a"], {"a": "b"}, None, 2])
def test_explicit_input_takes_labels_only(capsys, tmp_path, slot, value):
    raw = _dump_explicit(generate("mo", 2))
    if slot == "leq":
        raw["leq"][3] = [raw["leq"][3][0], value]
    else:
        raw["ortho"]["a"] = value
    blob = _one_usage_error(*_run(capsys, "validate", "--input",
                                  _jfile(tmp_path, "x.json", raw)))
    assert f"'{slot}'" in blob["message"]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner,
                                     max_size=3)),
    max_leaves=6)


@given(slot=st.sampled_from(["subobject", "leq", "ortho"]), value=_JSON,
       where=st.integers(min_value=0))
@settings(max_examples=60, deadline=None)
def test_random_json_values_never_escape_run(slot, value, where):
    """A random JSON value in a label slot gives an exit code, never an
    exception; one that is not a string is a usage error."""
    mo2 = generate("mo", 2)
    if slot == "subobject":
        raw = {"a|a'": "a", "b|b'": "b'"}
        raw[sorted(raw)[where % 2]] = value
        argv = ["op", "not", "--builtin", "mo:2", "--subobject"]
    else:
        raw = _dump_explicit(mo2)
        if slot == "leq":
            pair = raw["leq"][where % len(raw["leq"])]
            pair[where % 2] = value
        else:
            raw["ortho"][mo2.label(where % mo2.n)] = value
        argv = ["validate", "--input"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv + [path])
    assert code in (0, 1, 3)
    if not isinstance(value, str):
        _one_usage_error(code, out.getvalue(), err.getvalue())


def _quiet(argv):
    """``run`` with stdout and stderr captured: (exit code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _listed(argv):
    """``run`` of a listing, which must succeed with the same bytes on
    stdout and through ``--output``; returns them."""
    code, out, err = _quiet(argv)
    assert (code, err) == (0, "")
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "out.json")
        assert _quiet([*argv, "--output", str(path)]) == (0, "", "")
        assert path.read_bytes() == out.encode("utf-8")
    return out


def _count_matches_the_search(poset, argv):
    """``sections`` counts without decoding; ``--list`` writes the rows.
    Both agree with ``global_sections``: the listing byte for byte with the
    canonical JSON of its mappings."""
    sections = global_sections(poset)
    want = len(sections)
    code, out, err = _quiet(["sections", *argv])
    assert (code, out, err) == (0, canonical_json({"count": want}) + "\n", "")
    rows = [g.to_mapping() for g in sections]
    assert _listed(["sections", "--list", *argv]) \
        == canonical_json({"count": want, "sections": rows}) + "\n"


@pytest.mark.parametrize("spec", ["boolean:2", "boolean:3", "boolean:4",
                                  "boolean:5", "boolean:6", "mo:1", "mo:2",
                                  "mo:5", "mo:12", "cabello18"])
def test_section_count_matches_the_listing_on_builtins(spec):
    name, _, n = spec.partition(":")
    poset = enumerate_contexts(generate(name, int(n) if n else None))
    _count_matches_the_search(poset, ["--builtin", spec])


@given(tree_pasting())
@settings(max_examples=20, deadline=None)
def test_section_count_matches_the_listing_on_pastings(blocks):
    poset = enumerate_contexts(from_greechie(blocks))
    with tempfile.TemporaryDirectory() as tmp:
        path = _jfile(pathlib.Path(tmp), "tree.json",
                      {"format": "greechie", "blocks": blocks})
        _count_matches_the_search(poset, ["--input", path])


@pytest.mark.parametrize("chunk", [1, 3, 8, 4096])
def test_section_listing_bytes_do_not_depend_on_the_chunk(monkeypatch, chunk):
    # mo:3 has 8 sections: chunks of one row, a ragged last chunk, exactly
    # one full chunk, and one chunk larger than the listing
    monkeypatch.setattr(cli, "_SECTION_CHUNK", chunk)
    _count_matches_the_search(enumerate_contexts(generate("mo", 3)),
                              ["--builtin", "mo:3"])


@pytest.mark.parametrize("spec", ["boolean:3", "mo:12", "cabello18"])
def test_context_listings_build_no_poset(monkeypatch, spec):
    """``validate``, ``contexts`` (JSON) and ``spectrum`` read only the
    partition walk: with ``ContextPoset`` refusing to be built they write
    the same bytes, while ``contexts --format dot`` needs the poset."""
    listings = [("validate",), ("contexts",), ("contexts", "--format", "json"),
                ("spectrum",)]
    want = {argv: _quiet([*argv, "--builtin", spec]) for argv in listings}
    dot = ["contexts", "--format", "dot", "--builtin", spec]
    assert _quiet(dot)[0] == 0

    def refuse(self, *args, **kwargs):
        raise BiheytError("ContextPoset built")
    monkeypatch.setattr(ContextPoset, "__init__", refuse)
    for argv, before in want.items():
        assert before[0] == 0 and _quiet([*argv, "--builtin", spec]) == before
    # a BiheytError of no subclass exits 1, as a validation error does
    assert _quiet(dot) == (
        1, "", '{"error":"BiheytError","message":"ContextPoset built"}\n')


@pytest.mark.parametrize("argv", [
    ("--builtin", "cabello18"), ("--builtin", "mo:12"),
    ("--input", "pentagon")])
def test_both_section_paths_trip_the_same_guard(tmp_path, argv):
    """At a small budget the count and the listing stop at the same node,
    with the same bytes on stderr and nothing on stdout; on mo:12, whose
    search takes 24 nodes, that holds at budgets 1 and 17."""
    if argv[1] == "pentagon":
        argv = ("--input", _jfile(tmp_path, "pentagon.json",
                                  {"format": "greechie", "blocks": PENTAGON}))
    for budget in ("1", "17", "89"):
        flags = [*argv, "--search-budget", budget]
        count = _quiet(["sections", *flags])
        listing = _quiet(["sections", "--list", *flags])
        if argv[1] == "mo:12" and budget == "89":
            # twelve runs of one two-atom context: the count takes 24
            # nodes, and the listing would hold 4,096 sections
            assert count == (0, '{"count":4096}\n', "")
            assert listing[:2] == (2, "")
            assert json.loads(listing[2])["details"] == {
                "limit": "search_budget", "value": 89, "needed": 4096}
            continue
        assert count == listing
        assert count[:2] == (2, "")
        assert json.loads(count[2])["details"]["nodes"] == int(budget) + 1


def test_section_count_is_a_product_of_runs():
    """mo:26 is 26 runs of one two-atom context: the count multiplies
    their counts after 52 nodes."""
    assert _quiet(["sections", "--builtin", "mo:26"]) \
        == (0, '{"count":67108864}\n', "")


def test_section_listing_past_the_budget_writes_nothing(tmp_path):
    """mo:24 has 2**24 sections, past the default search budget: the
    listing exits 2 before it writes a byte, to stdout or to a file."""
    code, out, err = _quiet(["sections", "--list", "--builtin", "mo:24"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "SizeGuard",
        "message": "section listing needs 16777216 sections, over search "
                   "budget 10000000",
        "details": {"limit": "search_budget", "value": 10000000,
                    "needed": 16777216}}
    path = tmp_path / "out.json"
    assert _quiet(["sections", "--list", "--builtin", "mo:24",
                   "--output", str(path)]) == (2, "", err)
    assert not path.exists()


def test_a_state_with_two_points_at_a_context_is_a_bug(monkeypatch):
    """The column decode refuses a state that is not one point per context."""
    real = presheaf._section_states

    def doubled(poset, limits, runs):   # every point of the first context
        for k, state in real(poset, limits, runs):
            yield k, state | poset._full[0] << poset._offsets[0]

    monkeypatch.setattr(presheaf, "_section_states", doubled)
    with pytest.raises(AssertionError, match="one point per context"):
        global_sections(enumerate_contexts(generate("boolean", 3)))


def test_a_state_with_no_point_at_a_context_is_a_bug(monkeypatch):
    """A state with one point per context on average is still refused when
    one context has none: here the first context's point moves to the
    second, a two-atom context, which then holds both of its points."""
    real = presheaf._section_states

    def moved(poset, limits, runs):
        first = poset._full[0] << poset._offsets[0]
        second = poset._full[1] << poset._offsets[1]
        for k, state in real(poset, limits, runs):
            yield k, state & ~first | second

    monkeypatch.setattr(presheaf, "_section_states", moved)
    with pytest.raises(AssertionError, match="one point per context"):
        global_sections(enumerate_contexts(generate("boolean", 3)))


def _subobject_count_matches_the_listing(poset, argv, budget):
    """``enumerate`` sums the memo batches; ``--list`` then writes their
    rows.  Both agree with ``enumerate_subobjects``: the listing byte for
    byte with the canonical JSON of its mappings.  Or both exit 2 with its
    guard's bytes."""
    argv = [*argv, "--max-subobjects", str(budget)]
    try:
        subs = enumerate_subobjects(poset, limits=Limits(max_subobjects=budget))
    except SizeGuard as exc:
        want = (2, "", canonical_json(exc.to_json()) + "\n")
        assert _quiet(["enumerate", *argv]) == want
        assert _quiet(["enumerate", "--list", *argv]) == want
        return
    assert _quiet(["enumerate", *argv]) \
        == (0, canonical_json({"count": len(subs)}) + "\n", "")
    rows = [s.to_mapping() for s in subs]
    assert _listed(["enumerate", "--list", *argv]) \
        == canonical_json({"count": len(subs), "subobjects": rows}) + "\n"


# every builtin within the default max_subobjects: mo:10 and boolean:4 pass it
@pytest.mark.parametrize("spec", ["boolean:2", "boolean:3",
                                  *[f"mo:{n}" for n in range(1, 10)]])
def test_subobject_count_matches_the_listing_on_builtins(spec):
    name, _, n = spec.partition(":")
    poset = enumerate_contexts(generate(name, int(n)))
    _subobject_count_matches_the_listing(poset, ["--builtin", spec],
                                         DEFAULT_LIMITS.max_subobjects)


@given(tree_pasting())
@settings(max_examples=20, deadline=None)
def test_subobject_count_matches_the_listing_on_pastings(blocks):
    """A budget above the three-block chain's 63,286 subobjects and below
    a four-atom block's 1,294,249."""
    poset = enumerate_contexts(from_greechie(blocks))
    with tempfile.TemporaryDirectory() as tmp:
        path = _jfile(pathlib.Path(tmp), "tree.json",
                      {"format": "greechie", "blocks": blocks})
        _subobject_count_matches_the_listing(poset, ["--input", path], 70_000)


def test_listings_escape_awkward_labels(tmp_path):
    """Labels that need JSON escaping, outside ASCII too, are written as
    the canonical JSON of the mappings writes them."""
    blocks = [['a"', "b\\", "c\t"], ["c\t", "é", "☃"]]
    poset = enumerate_contexts(from_greechie(blocks))
    argv = ["--input", _jfile(tmp_path, "awkward.json",
                              {"format": "greechie", "blocks": blocks})]
    _count_matches_the_search(poset, argv)
    _subobject_count_matches_the_listing(poset, argv,
                                         DEFAULT_LIMITS.max_subobjects)


def test_the_count_of_boolean4_fits_its_budget():
    assert _quiet(["enumerate", "--builtin", "boolean:4",
                   "--max-subobjects", "1294249"]) \
        == (0, '{"count":1294249}\n', "")


# boolean:3 memoises from its first context, so every budget stops it in
# the one memo batch it walks; the three-block chain stops inside a memo
# batch it is walking for the first time at 100 and in one met before at
# 570.
@pytest.mark.parametrize("argv, budgets", [
    (("--builtin", "boolean:3"), ("1", "40", "94")),
    (("--input", "chain"), ("1", "100", "570")),
    (("--builtin", "cabello18"), ("1", "1000"))])
def test_both_subobject_paths_trip_the_same_guard(tmp_path, argv, budgets):
    """The count and the listing stop at the same subobject, with the same
    bytes on stderr and nothing on stdout."""
    if argv[1] == "chain":
        argv = ("--input", _jfile(tmp_path, "chain.json",
                                  {"format": "greechie", "blocks": THREE_CHAIN}))
    for budget in budgets:
        flags = [*argv, "--max-subobjects", budget]
        count = _quiet(["enumerate", *flags])
        listing = _quiet(["enumerate", "--list", *flags])
        assert count == listing
        assert count[:2] == (2, "")
        assert json.loads(count[2])["details"]["value"] == int(budget)


def _refuse_subobjects(monkeypatch):
    """Make every way of building a subobject raise: the constructor's slot
    setter and the bare ``_Slots`` that the in-place builders fill."""
    def refuse(*_):
        raise AssertionError("a subobject was built")

    for module, name in ((presheaf, "_set_bits"), (presheaf, "_Slots"),
                         (biheyting, "_Slots")):
        monkeypatch.setattr(module, name, refuse)


def test_the_subobject_count_builds_no_subobject(monkeypatch):
    """Neither the count nor the listing builds a subobject; the listing
    writes the bytes of the built subobjects' mappings all the same."""
    want = {}
    for spec in ("boolean:3", "mo:5"):
        name, _, n = spec.partition(":")
        subs = enumerate_subobjects(enumerate_contexts(generate(name, int(n))))
        want[spec] = canonical_json({"count": len(subs), "subobjects":
                                     [s.to_mapping() for s in subs]}) + "\n"

    _refuse_subobjects(monkeypatch)
    assert _quiet(["enumerate", "--builtin", "boolean:3"]) \
        == (0, '{"count":95}\n', "")
    for spec, out in want.items():
        assert _quiet(["enumerate", "--builtin", spec, "--list"]) \
            == (0, out, "")


@pytest.mark.parametrize("argv", [
    ["enumerate", "--list", "--builtin", "cabello18",
     "--max-subobjects", "1000"],
    ["check", "laws", "--builtin", "cabello18", "--max-subobjects", "1000"],
    ["check", "laws", "--builtin", "mo:4"]])
def test_a_refused_listing_or_law_check_builds_no_subobject(monkeypatch,
                                                           argv):
    """Both count first, so each guard trips before a subobject is built,
    with the bytes the count alone writes."""
    _refuse_subobjects(monkeypatch)
    code, out, err = _quiet(argv)
    assert (code, out) == (2, "")
    if "--max-subobjects" in argv:
        assert err == _quiet(["enumerate", *argv[2:]])[2]
    else:
        assert json.loads(err)["details"] == {
            "limit": "search_budget", "value": 10_000_000, "needed": 256 ** 3}


def test_enumerate_on_a_long_chain_stops_at_its_guard(tmp_path):
    """The 400-block chain pasting has 1,201 contexts, more than the
    default recursion limit has frames for; the walk uses none."""
    path = _jfile(tmp_path, "chain400.json",
                  {"format": "greechie", "blocks": chain_pasting(400)})
    assert _quiet(["enumerate", "--input", path, "--max-subobjects", "1000"]) \
        == (2, "", '{"details":{"limit":"max_subobjects","reached":1002,'
                   '"value":1000},"error":"SizeGuard",'
                   '"message":"subobject count exceeds limit 1000"}\n')
