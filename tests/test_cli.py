"""End-to-end runs of the command line front end."""

import io

import pytest

from orda import cli
from orda.core import format_automaton, parse_automaton
from orda.fixtures import contains_a, even_a, finite_two_words
from orda.languages import parse_regex, regex_matches
from orda.minimize import isomorphic, minimize_ordered

from oracles import words_up_to

MINIMAL_CONTAINS_A = """\
# states: 2
# order pairs: 1
alphabet: a b
states: 2
initial: 0
finals: 1
order: 0 <= 1
trans: 0 a 1
trans: 0 b 0
trans: 1 a 1
trans: 1 b 1
"""


def write_fixture(tmp_path, oa, name="input.txt"):
    path = tmp_path / name
    path.write_text(format_automaton(oa))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_minimize_file(tmp_path, capsys):
    bloated = tmp_path / "bloated.txt"
    bloated.write_text(
        "alphabet: a b\n"
        "states: 3\n"
        "initial: 0\n"
        "finals: 1 2\n"
        "trans: 0 a 1\n"
        "trans: 0 b 0\n"
        "trans: 1 a 2\n"
        "trans: 1 b 1\n"
        "trans: 2 a 2\n"
        "trans: 2 b 2\n"
    )
    code, out, err = run(capsys, ["minimize", str(bloated)])
    assert code == 0 and err == ""
    assert out == MINIMAL_CONTAINS_A


def test_minimize_regex_matches_file_route(capsys):
    code, out, err = run(capsys, ["minimize", "--regex", "(a|b)*a(a|b)*"])
    assert code == 0
    assert out == MINIMAL_CONTAINS_A


def test_minimize_output_reparses_to_a_fixed_point(tmp_path, capsys):
    path = write_fixture(tmp_path, finite_two_words())
    code, out, _ = run(capsys, ["minimize", path])
    assert code == 0
    again = minimize_ordered(parse_automaton(out))
    assert isomorphic(again, minimize_ordered(finite_two_words()))
    assert format_automaton(again) in out


def test_minimize_reads_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(format_automaton(contains_a())))
    code, out, _ = run(capsys, ["minimize", "-"])
    assert code == 0 and out == MINIMAL_CONTAINS_A


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"alphabet: a b\nstates: 1\ninitial: 0 \xff\n")
    code, out, err = run(capsys, ["minimize", str(bad)])
    assert code == 2 and out == ""
    assert err == "error: input is not UTF-8: byte 0xff (line 3)\n"

    class BinaryStdin:  # stands in for a real stdin, which exposes its bytes
        buffer = io.BytesIO(b"alphabet: a\xc3(\n")

    monkeypatch.setattr("sys.stdin", BinaryStdin())
    code, out, err = run(capsys, ["classify", "-"])
    assert code == 2 and out == ""
    assert err == "error: input is not UTF-8: byte 0xc3 (line 1)\n"

    BinaryStdin.buffer = io.BytesIO(format_automaton(contains_a()).encode())
    code, out, _ = run(capsys, ["minimize", "-"])
    assert code == 0 and out == MINIMAL_CONTAINS_A


def test_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("alphabet: a b\nstates: x\n")
    code, out, err = run(capsys, ["minimize", str(bad)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "line 2" in err

    code, _, err = run(capsys, ["minimize"])
    assert code == 2 and "no input" in err
    code, _, err = run(capsys, ["minimize", str(bad), "--regex", "a"])
    assert code == 2 and "not both" in err
    code, _, err = run(capsys, ["minimize", str(tmp_path / "missing.txt")])
    assert code == 2 and err.startswith("error:")
    with pytest.raises(SystemExit) as info:  # no product construction reads a cap here
        cli.main(["minimize", "--regex", "a", "--cap-product", "5"])
    assert info.value.code == 2


def test_classify_text_output(tmp_path, capsys):
    path = write_fixture(tmp_path, finite_two_words())
    code, out, _ = run(capsys, ["classify", path])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# judged on the minimal automaton (5 states)"
    assert any(l.startswith("finite ✓") and "witness=" in l for l in lines)
    assert any(l.startswith("cofinite ✗") for l in lines)
    assert any(l.startswith("prefix_testable ✓") for l in lines)

    path = write_fixture(tmp_path, even_a(), "even.txt")
    code, out, _ = run(capsys, ["classify", path])
    assert code == 0
    assert "star_free ✗  witness=(0, 'a')" in out.splitlines()


def test_classify_full_language_regex(capsys):
    code, out, _ = run(capsys, ["classify", "--regex", "(a|b)*"])
    assert code == 0
    lines = out.splitlines()
    assert "finite ✗  witness=('follower final', 0)" in lines
    for name in ("cofinite", "piecewise_testable", "star_free", "synchronizing"):
        assert any(l.startswith(f"{name} ✓") for l in lines), name


def test_classify_kv_mode(tmp_path, capsys):
    path = write_fixture(tmp_path, contains_a())
    code, out, _ = run(capsys, ["classify", path, "--format", "kv", "--n", "1,2"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12
    seen = {}
    for line in lines:
        name, _, value = line.partition("=")
        assert value in ("true", "false"), line
        seen[name] = value
    assert seen["positive_piecewise_testable"] == "true"
    assert seen["autonomous"] == "false"
    assert seen["n_insertion_closed_1"] == "true"
    assert seen["n_insertion_closed_2"] == "true"

    code, _, err = run(capsys, ["classify", path, "--n", "1,x"])
    assert code == 2 and "bad --n" in err
    code, _, err = run(capsys, ["classify", path, "--n", "0"])
    assert code == 2 and "positive" in err


def test_check_holds_and_fails(tmp_path, capsys):
    code, out, _ = run(capsys, ["check", "--regex", "(a|b)*a(a|b)*", "1 <= x @all"])
    assert code == 0 and out == "holds\n"

    path = write_fixture(tmp_path, even_a())
    code, out, _ = run(capsys, ["check", path, "x^w x == x^w @all"])
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "fails at state 0"
    assert lines[1] == "substitution: x='a'"
    assert lines[2] == "left word: 'aaa'"
    assert lines[3] == "right word: 'aa'"


def test_check_category_handling(tmp_path, capsys):
    path = write_fixture(tmp_path, contains_a())
    code, out, _ = run(capsys, ["check", path, "1 <= x", "--category", "all"])
    assert code == 0 and out == "holds\n"
    code, out, _ = run(capsys, ["check", path, "x == 1 @surj"])
    assert code == 0 and out == "holds (vacuously: no admissible substitutions)\n"
    code, _, err = run(capsys, ["check", path, "x == x"])
    assert code == 2 and "category" in err


def test_convert_automaton_is_identity(tmp_path, capsys):
    source = format_automaton(finite_two_words())
    path = tmp_path / "fin.txt"
    path.write_text(source)
    code, out, _ = run(capsys, ["convert", str(path), "--to", "automaton"])
    assert code == 0 and out == source


def test_convert_regex_keeps_raw_shape(capsys):
    # conversion must not minimize: the derivative automaton of 'a' has
    # a dead state and no order pairs
    code, out, _ = run(capsys, ["convert", "--regex", "a", "--to", "automaton"])
    assert code == 0
    oa = parse_automaton(out)
    assert oa.state_count == 3
    assert list(oa.order.pairs()) == []


def test_convert_to_regex_round_trips(tmp_path, capsys):
    path = write_fixture(tmp_path, contains_a())
    code, out, _ = run(capsys, ["convert", str(path), "--to", "regex"])
    assert code == 0
    r = parse_regex(out.strip(), contains_a().alphabet)
    for w in words_up_to(contains_a().alphabet, 5):
        assert regex_matches(r, w) == ("a" in w)


def test_convert_to_dot(tmp_path, capsys):
    path = write_fixture(tmp_path, contains_a())
    code, out, _ = run(capsys, ["convert", str(path), "--to", "dot"])
    assert code == 0
    assert out.startswith("digraph automaton {")
    assert '  q1 [shape=doublecircle, label="1"];' in out
    assert '  q1 -> q1 [label="a,b"];' in out
    assert '  q0 -> q1 [style=dashed, arrowhead=empty, label="<="];' in out
    assert "  __init -> q0;" in out


def test_oracle_sweep(capsys):
    code, out, _ = run(capsys, ["oracle", "--seed", "42", "--count", "25"])
    assert code == 0
    assert out == "checked 25 instances, 0 mismatches\n"
    code, out, _ = run(capsys, ["oracle", "--count", "0"])
    assert code == 0 and out == "checked 0 instances, 0 mismatches\n"


def test_oracle_detects_disagreement():
    flip = lambda name, value: (not value) if name == "acyclic" else value
    mismatches, summary = cli.run_oracle(7, 10, corrupt=flip)
    assert len(mismatches) == 10
    assert all("acyclic" in line for line in mismatches)
    assert summary == "checked 10 instances, 10 mismatches"


def test_outputs_are_deterministic(tmp_path, capsys):
    path = write_fixture(tmp_path, finite_two_words())
    outs = set()
    for _ in range(2):
        for argv in (
            ["classify", path, "--n", "1"],
            ["minimize", path],
            ["oracle", "--seed", "5", "--count", "10"],
        ):
            code, out, _ = run(capsys, argv)
            assert code == 0
            outs.add((tuple(argv), out))
    assert len(outs) == 3
