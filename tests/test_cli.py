"""End-to-end runs of the command line front end."""

import ast
import io
import random
import time
import tracemalloc

import pytest

from orda import cli
from orda.classify import N_EXTENSIVE_LIMIT, Verdict
from orda.core import Alphabet, format_automaton, parse_automaton, step
from orda.generate import random_minimal_automaton
from orda.languages import REGEX_DEPTH_LIMIT, parse_regex, regex_matches
from orda.minimize import isomorphic, minimize_ordered
from orda.omega import QUERY_DEPTH_LIMIT, SUBSTITUTION_CAP

from fixtures import contains_a, even_a, finite_two_words
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


def test_byte_order_mark_is_skipped(tmp_path, capsys, monkeypatch):
    plain = write_fixture(tmp_path, finite_two_words())
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "input.txt").read_bytes())
    expected = run(capsys, ["minimize", plain])
    assert expected[0] == 0
    assert run(capsys, ["minimize", str(marked)]) == expected

    class BinaryStdin:
        buffer = io.BytesIO(marked.read_bytes())

    monkeypatch.setattr("sys.stdin", BinaryStdin())
    assert run(capsys, ["minimize", "-"]) == expected

    # a bad byte after the mark is reported where it is
    marked.write_bytes(b"\xef\xbb\xbfalphabet: a b\nstates: 1\ninitial: 0 \xff\n")
    code, out, err = run(capsys, ["minimize", str(marked)])
    assert (code, out, err) == (2, "", "error: input is not UTF-8: byte 0xff (line 3)\n")


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


def test_subcommand_arguments_go_to_its_parser(capsys):
    # argv naming a subcommand is parsed by that subcommand's parser alone, so
    # an unrecognized argument is reported with its usage line; an empty argv,
    # -h or an unknown word still reach the top-level parser
    with pytest.raises(SystemExit) as info:
        cli.main(["check", "--regex", "a", "--bogus", "x == x @all"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: orda check [-h]")
    assert err.endswith("\norda check: error: unrecognized arguments: --bogus\n")
    for argv, code, message in (
        ([], 2, "orda: error: the following arguments are required: command"),
        (["bogus"], 2, "orda: error: argument command: invalid choice: 'bogus'"),
        (["-h"], 0, ""),
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == code
        captured = capsys.readouterr()
        assert message in captured.err
        assert (captured.out or captured.err).startswith("usage: orda [-h] {minimize,classify,check,convert,oracle}")


def _nested(k, core):
    """core inside k - 1 pairs of parentheses: k levels deep."""
    return "(" * (k - 1) + core + ")" * (k - 1)


def test_regex_depth_limit(capsys):
    limit = REGEX_DEPTH_LIMIT
    chain = lambda k: ("ab" * k)[:k]  # k letters, k levels deep
    for argv in (
        ["minimize", "--regex", chain(limit)],
        ["classify", "--regex", chain(limit)],
        ["check", "--regex", chain(limit), "x^w x == x^w @all"],
        ["minimize", "--regex", _nested(limit, "a")],
        ["classify", "--regex", _nested(limit, "a")],
        ["classify", "--regex", "!" * (limit - 1) + "a"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 0 and out and err == ""
    too_deep = (chain(limit + 1), _nested(limit + 1, "a"), "a" + "*" * limit, chain(3000), _nested(3000, "a"))
    for regex in too_deep:
        for command in ("minimize", "classify"):
            code, out, err = run(capsys, [command, "--regex", regex])
            assert code == 2 and out == ""
            assert err.startswith(f"error: regex nested deeper than the limit of {limit} levels")
            assert err.count("\n") == 1


def test_query_depth_limit(capsys):
    limit = QUERY_DEPTH_LIMIT
    for query in (_nested(limit, "x"), "x" + "^w" * (limit - 1), _nested(limit // 2, "x y") + "^w"):
        code, out, err = run(capsys, ["check", "--regex", "a*", query + " == x @all"])
        assert code == 0 and out == "holds\n" and err == ""
    for query in (_nested(limit + 1, "x"), "x" + "^w" * limit, _nested(3000, "x")):
        code, out, err = run(capsys, ["check", "--regex", "a*", query + " == x @all"])
        assert code == 2 and out == ""
        assert err.startswith(f"error: query nested deeper than the limit of {limit} levels")
        assert err.count("\n") == 1


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


def test_classify_cyclic_regex_over_eleven_letters(capsys):
    # confluence is capped at 10 letters, but no verdict reads it on a cyclic automaton
    code, out, err = run(capsys, ["classify", "--regex", "(abcdefghijk)*"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "piecewise_testable ✗  witness=(0, 'abcdefghijk', 'a')" in lines
    assert any(l.startswith("star_free ✓") for l in lines)


def test_classify_acyclic_regex_over_eleven_letters(capsys):
    # confluence of an acyclic automaton is decided letter pair by letter pair, with no letter cap
    code, out, err = run(capsys, ["classify", "--regex", "abcdefghijk*"])
    assert code == 0 and err == ""
    assert "piecewise_testable ✓" in out.splitlines()


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


def test_classify_n_over_the_limit_fails_before_the_walk(capsys):
    # the walk keeps n + 1 layers per state (58 MB at n = 10^5), so 10^7 would exhaust memory
    code, out, _ = run(capsys, ["classify", "--regex", "a*b", "--n", str(N_EXTENSIVE_LIMIT)])
    assert code == 0 and f"n_insertion_closed_{N_EXTENSIVE_LIMIT} " in out
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["classify", "--regex", "a*b", "--n", "10000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"N_EXTENSIVE_LIMIT = {N_EXTENSIVE_LIMIT}" in err
    assert peak < 2**20


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


def test_check_refuses_a_substitution_space_past_its_cap(tmp_path, capsys):
    # 5 states, a 246-element monoid: three variables over @all give 246**3 tuples
    oa = random_minimal_automaton(random.Random(17), 6, Alphabet(("a", "b")))
    path = write_fixture(tmp_path, oa)
    code, out, err = run(capsys, ["check", path, "x y z <= z y x @all"])
    assert code == 2 and out == ""
    assert err == f"error: substitution space of 14886936 tuples exceeds cap {SUBSTITUTION_CAP}\n"
    assert SUBSTITUTION_CAP == 10_000_000


def test_letter_checks_build_no_monoid(tmp_path, capsys):
    # a 17-state minimal automaton whose monoid passes the default cap of 10**6
    # elements: lp and pinned surj answer on the letters' actions, even when
    # the cap admits no monoid at all, while @all still stops at the cap
    oa = random_minimal_automaton(random.Random(24), 24, Alphabet(("a", "b")))
    assert oa.state_count == 17
    path = write_fixture(tmp_path, oa)
    for query in ("x^w x == x^w @lp", "x y == y x @lp", "x^w <= x^w x @lp"):
        code, out, err = run(capsys, ["check", path, query, "--cap-monoid", "1"])
        assert code == 1 and err == "", query
        failing, _, left, right = out.splitlines()
        p = int(failing.removeprefix("fails at state "))
        left, right = (ast.literal_eval(line.partition(": ")[2]) for line in (left, right))
        ends = [step(oa.sa, p, word) for word in (left, right)]
        assert (oa.order.leq(*ends) if "<=" in query else ends[0] == ends[1]) is False, query
    code, out, err = run(capsys, ["check", path, "x == 1 @surj", "--cap-monoid", "1"])
    assert (code, out, err) == (0, "holds (vacuously: no admissible substitutions)\n", "")
    code, out, err = run(capsys, ["check", path, "x^w x == x^w @all", "--cap-monoid", "1"])
    assert (code, out, err) == (2, "", "error: transition monoid exceeded 1 elements\n")


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


def chain_text(n: int) -> str:
    """n states in a row: a moves one state on, b stays; the last state is final."""
    moves = "".join(f"trans: {q} a {min(q + 1, n - 1)}\ntrans: {q} b {q}\n" for q in range(n))
    return f"alphabet: a b\nstates: {n}\ninitial: 0\nfinals: {n - 1}\n" + moves


def test_an_order_with_many_violations_fails_fast_with_a_short_error(tmp_path, capsys):
    # blocks A, B, C of 80 states: every pair from A to B and from B to C is
    # declared, none from A to C, so the order breaks transitivity 80**3 times
    k = 80
    order = "".join(f"order: {p} <= {q}\n" for lo in (0, k) for p in range(lo, lo + k) for q in range(lo + k, lo + 2 * k))
    moves = "".join(f"trans: {q} a {q}\n" for q in range(3 * k))
    path = tmp_path / "blocks.txt"
    path.write_text(f"alphabet: a\nstates: {3 * k}\ninitial: 0\nfinals:\n" + order + moves)
    start = time.perf_counter()
    code, out, err = run(capsys, ["minimize", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: invalid automaton: transitivity: 0,80,160;") and len(err) < 10_000
    # the violations are never listed in full (that list alone took 66 MB)
    tracemalloc.start()
    try:
        run(capsys, ["minimize", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_finals_reads_decimal_indices_only(tmp_path, capsys):
    # int() would read 1_0 as state 10 and +1 as state 1; states: refuses both
    path = tmp_path / "chain.txt"
    for token in ("1_0", "+1"):
        path.write_text(chain_text(11).replace("finals: 10", f"finals: {token}"))
        code, out, err = run(capsys, ["minimize", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error: finals wants state indices") and err.count("\n") == 1


def test_convert_to_regex_refuses_what_parse_regex_cannot_read(tmp_path, capsys):
    path = tmp_path / "chain.txt"
    path.write_text(chain_text(20))
    code, out, err = run(capsys, ["convert", str(path), "--to", "regex"])
    assert code == 0 and err == ""
    code, out, err = run(capsys, ["minimize", "--regex", out.strip()])
    assert code == 0 and out.startswith("# states: 20\n")
    path.write_text(chain_text(60))
    code, out, err = run(capsys, ["convert", str(path), "--to", "regex"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"REGEX_DEPTH_LIMIT = {REGEX_DEPTH_LIMIT}" in err
    assert err.count("\n") == 1
    # a reserved character as a symbol: '**a(*|a)*' would read back as an error
    path.write_text("alphabet: a *\nstates: 2\ninitial: 0\nfinals: 1\n"
                    "trans: 0 a 1\ntrans: 0 * 0\ntrans: 1 a 1\ntrans: 1 * 1\n")
    code, out, err = run(capsys, ["convert", str(path), "--to", "regex"])
    assert code == 2 and out == ""
    assert err.startswith("error: symbol '*' ") and err.count("\n") == 1


def test_convert_to_regex_of_a_1200_state_chain_fails_fast(tmp_path, capsys):
    # per-state edge maps: 0.2 s; rescanning every edge for each cost took 7 s
    path = tmp_path / "chain.txt"
    path.write_text(chain_text(1200))
    start = time.perf_counter()
    code, out, err = run(capsys, ["convert", str(path), "--to", "regex"])
    assert code == 2 and f"REGEX_DEPTH_LIMIT = {REGEX_DEPTH_LIMIT}" in err
    assert time.perf_counter() - start < 2


def test_convert_to_dot(tmp_path, capsys):
    path = write_fixture(tmp_path, contains_a())
    code, out, _ = run(capsys, ["convert", str(path), "--to", "dot"])
    assert code == 0
    assert out.startswith("digraph automaton {")
    assert '  q1 [shape=doublecircle, label="1"];' in out
    assert '  q1 -> q1 [label="a,b"];' in out
    assert '  q0 -> q1 [style=dashed, arrowhead=empty, label="<="];' in out
    assert "  __init -> q0;" in out


def test_convert_regex_to_dot_is_pinned(capsys):
    code, out, err = run(capsys, ["convert", "--regex", "!(a*b)&(ab|ba)*", "--to", "dot"])
    assert (code, err) == (0, "")
    assert out == """\
digraph automaton {
  rankdir=LR;
  __init [shape=point, label=""];
  q0 [shape=doublecircle, label="!(a*b)&(ab|ba)*"];
  q1 [shape=circle, label="!(a*b)&b(ab|ba)*"];
  q2 [shape=circle, label="!_&a(ab|ba)*"];
  q3 [shape=circle, label="#"];
  q4 [shape=circle, label="!_&(ab|ba)*"];
  q5 [shape=doublecircle, label="(ab|ba)*"];
  q6 [shape=circle, label="b(ab|ba)*"];
  q7 [shape=circle, label="a(ab|ba)*"];
  __init -> q0;
  q0 -> q1 [label="a"];
  q0 -> q2 [label="b"];
  q1 -> q3 [label="a"];
  q1 -> q4 [label="b"];
  q2 -> q3 [label="b"];
  q2 -> q5 [label="a"];
  q3 -> q3 [label="a,b"];
  q4 -> q6 [label="a"];
  q4 -> q7 [label="b"];
  q5 -> q6 [label="a"];
  q5 -> q7 [label="b"];
  q6 -> q3 [label="a"];
  q6 -> q5 [label="b"];
  q7 -> q3 [label="b"];
  q7 -> q5 [label="a"];
}
"""


def test_convert_to_dot_escapes_quotes_and_backslashes(capsys):
    # '"' and '\\' are symbols; inside a DOT string they read as \" and \\
    code, out, _ = run(capsys, ["convert", "--regex", 'a"b', "--to", "dot"])
    assert code == 0
    assert '  q0 [shape=circle, label="a\\"b"];' in out
    assert '  q0 -> q1 [label="\\",b"];' in out
    assert '  q2 -> q3 [label="\\""];' in out
    code, out, _ = run(capsys, ["convert", "--regex", 'a\\b|"', "--to", "dot"])
    assert code == 0
    assert '  q0 [shape=circle, label="a\\\\b|\\""];' in out
    assert '  q0 -> q2 [label="\\\\,b"];' in out
    # every label is one DOT string: its quotes are the two that delimit it
    for line in out.splitlines():
        for label in line.split("label=")[1:]:
            body = label[1:label.rindex('"')]
            assert '"' not in body.replace('\\\\', "").replace('\\"', "")


def test_oracle_sweep(capsys):
    code, out, _ = run(capsys, ["oracle", "--seed", "42", "--count", "25"])
    assert code == 0
    assert out == "checked 25 instances, 0 mismatches\n"
    code, out, _ = run(capsys, ["oracle", "--count", "0"])
    assert code == 0 and out == "checked 0 instances, 0 mismatches\n"


def test_oracle_rejects_a_negative_count(capsys):
    code, out, err = run(capsys, ["oracle", "--count", "-3"])
    assert code == 2 and out == ""
    assert err == "error: --count must not be negative\n"


@pytest.mark.parametrize("cap", ["-5", "0"])
def test_check_rejects_a_cap_below_one(capsys, cap):
    code, out, err = run(capsys, ["check", "--regex", "a*b", "x y == y x @all", "--cap-monoid", cap])
    assert code == 2 and out == ""
    assert err == "error: --cap-monoid must be positive\n"


def test_oracle_detects_disagreement(monkeypatch):
    real = cli.is_acyclic
    monkeypatch.setattr(cli, "is_acyclic", lambda sa: Verdict(not real(sa).holds))
    mismatches, summary = cli.run_oracle(7, 10)
    assert len(mismatches) == 10
    assert all("acyclic" in line for line in mismatches)
    assert summary == "checked 10 instances, 10 mismatches"


def test_oracle_counts_an_instance_stopped_at_a_cap(capsys, monkeypatch):
    # instance 1's DFA has a 3320-element monoid, so the identity catalog's
    # two-variable query exceeds the substitution cap
    assert cli.run_oracle(1, 2, 6) == ([], "checked 2 instances, 0 mismatches, 1 stopped at a cap")
    code, out, err = run(capsys, ["oracle", "--seed", "1", "--count", "2", "--max-states", "6"])
    assert (code, out, err) == (0, "checked 2 instances, 0 mismatches, 1 stopped at a cap\n", "")

    # the comparisons made before the cap stay in the report
    real = cli.is_acyclic
    monkeypatch.setattr(cli, "is_acyclic", lambda sa: Verdict(not real(sa).holds))
    mismatches, summary = cli.run_oracle(1, 2, 6)
    assert [line.split(":")[0] for line in mismatches] == ["instance 0", "instance 1"]
    assert all("acyclic" in line for line in mismatches)
    assert summary == "checked 2 instances, 2 mismatches, 1 stopped at a cap"
    code, _, _ = run(capsys, ["oracle", "--seed", "1", "--count", "2", "--max-states", "6"])
    assert code == 1


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
