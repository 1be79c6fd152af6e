"""The command line contract on random and adversarial input.

Whatever the input, `orda` exits 0, 1 or 2; 1 only from `check` or
`oracle`; and never with a traceback.  Run in-process, an uncaught
exception is what would print the traceback, so the property fails on
any exception but the SystemExit of argparse.
"""

import contextlib
import io
import random
import sys

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from orda import cli
from orda.core import Alphabet, format_automaton
from orda.generate import random_automaton
from orda.languages import REGEX_DEPTH_LIMIT
from orda.omega import QUERY_DEPTH_LIMIT

AB = Alphabet(("a", "b"))

regexes = st.text(alphabet="ab()|&*!#_ c", max_size=12)

query_pieces = ["x", "y", "1", "(", ")", "^w", "^", " ", "<=", "==", "<", "=",
                "@all", "@ne", "@lp", "@surj", "@lm", "@", "@z"]
queries = st.one_of(
    st.sampled_from(["x^w x == x^w", "(x y)^w x == (x y)^w", "x y == y x @lp", "1 <= x @ne",
                     "x^w <= x^w x @lm", "x y == y x @surj"]),
    st.lists(st.sampled_from(query_pieces), max_size=12).map("".join),
)

lines = st.one_of(
    st.sampled_from(["alphabet: a b", "alphabet: a", "alphabet: a a", "states: 1", "states: 2",
                     "states: 0", "states: x", "states: ²", "initial: 0", "initial: 1",
                     "finals:", "finals: 0", "finals: 1 -1", "order: 0 <= 1", "order: 1 <= 0",
                     "order: 0 < 1", "# comment", "", "trans: 0 a", "key: value", "no colon",
                     # faults that a run of canonical lines reads in bulk
                     "order: 0 <= 9", "trans: 9 a 0", "trans: 0 a 0\ntrans: 0 a 0"]),
    st.builds("trans: {} {} {}".format, st.integers(0, 2), st.sampled_from("abc"), st.integers(-1, 2)),
    st.text(max_size=15),
)


@st.composite
def automaton_texts(draw) -> bytes:
    """A valid automaton with some lines dropped, added or replaced, and the
    lines ended by \\n, \\r\\n or \\r; or plain bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    oa = random_automaton(random.Random(draw(st.integers(0, 10**6))), 4, AB, ordered=draw(st.booleans()))
    text = format_automaton(oa).splitlines()
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        text[i:i + draw(st.integers(0, 1))] = [draw(lines)]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(text).encode() + draw(st.sampled_from([b"", end.encode(), b"\xff", b"\xc3("]))


def commands(source):
    """argv for every subcommand that reads an input, after the input arguments."""
    return st.one_of(
        st.builds(lambda s: ["minimize", *s], source),
        st.builds(lambda s, kv, n: ["classify", *s, "--format", kv, *(["--n", n] if n else [])],
                  source, st.sampled_from(["text", "kv"]), st.sampled_from(["", "1,2", "0", "x"])),
        st.builds(lambda s, q, c: ["check", *s, q, *(["--category", c] if c else [])],
                  source, queries, st.sampled_from(["", "all", "ne", "lp", "surj", "lm"])),
        st.builds(lambda s, to: ["convert", *s, "--to", to], source, st.sampled_from(["automaton", "regex", "dot"])),
    )


regex_source = st.builds(lambda r, a: ["--regex", r, *(["--alphabet", a] if a else [])],
                         regexes, st.sampled_from(["", "ab", "abc", "a"]))
oracle_runs = st.builds(lambda seed, count, states: ["oracle", "--seed", str(seed), "--count", str(count),
                                                      "--max-states", str(states)],
                        st.integers(-5, 10**6), st.integers(-1, 2), st.integers(-1, 3))

DEEP = [
    ["minimize", "--regex", "ab" * 1500],
    ["classify", "--regex", "(" * 3000 + "a" + ")" * 3000],
    ["check", "--regex", "a*", "(" * 3000 + "x" + ")" * 3000 + " == x @all"],
    ["minimize", "--regex", "!" * 3000 + "a"],
    ["classify", "--regex", "a" + "*" * 3000],
    ["check", "--regex", "a*", "x" + "^w" * 3000 + " == x @all"],
    ["minimize", "--regex", "a" * REGEX_DEPTH_LIMIT],
    ["check", "--regex", "a*", "(" * (QUERY_DEPTH_LIMIT - 1) + "x" + ")" * (QUERY_DEPTH_LIMIT - 1) + " == x"],
]


# a 60-state chain whose regex nests too deep for --regex to read back
CHAIN_60 = ("alphabet: a b\nstates: 60\ninitial: 0\nfinals: 59\n"
            + "".join(f"trans: {q} a {min(q + 1, 59)}\ntrans: {q} b {q}\n" for q in range(60))).encode()


class _Stdin:
    """Stands in for a real stdin, which exposes its bytes."""

    def __init__(self, data: bytes):
        self.buffer = io.BytesIO(data)


def _exit_code(argv, stdin: bytes = b"") -> int:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = _Stdin(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    finally:
        sys.stdin = saved
    assert "Traceback" not in err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert code != 1 or argv[0] in ("check", "oracle"), (argv, code)
    return code


FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(st.one_of(commands(regex_source), oracle_runs))
@example(["oracle", "--max-states", "0", "--count", "1"])
def test_cli_contract_on_arguments(argv):
    _exit_code(argv)


@FUZZ
@given(commands(st.just(["-"])), automaton_texts())
@example(["minimize", "-"], b"alphabet: a\nstates: \xc2\xb2\n")
@example(["minimize", "-"], b"alphabet: a\nstates: 1\ninitial: " + b"1" * 5000 + b"\n")
def test_cli_contract_on_input_files(argv, data):
    _exit_code(argv, data)


def test_cli_contract_on_deep_and_long_input():
    for argv in DEEP:
        _exit_code(argv)
    assert _exit_code(["convert", "-", "--to", "regex"], CHAIN_60) == 2
