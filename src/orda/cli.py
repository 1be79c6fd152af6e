"""Command line front end.

    orda minimize  <file|- | --regex R>        minimal automaton + stats
    orda classify  <file|- | --regex R>        language classes, text or kv
    orda check     <file|- | --regex R> QUERY  decide an omega-inequality
    orda convert   <file|- | --regex R> --to automaton|regex|dot
    orda oracle    [--seed N --count N --max-states N]

Exit codes: 0 success / property holds, 1 property fails or oracle
mismatch, 2 usage, parse or validation error.  Output depends only on
the inputs and the seed, never on timing.
"""

from __future__ import annotations

import argparse
import random
import sys

from .classify import (
    classify_language,
    has_extensive_actions,
    is_acyclic,
    is_counter_free,
    is_pt_semiautomaton,
)
from .core import (
    Alphabet,
    OrderedAutomaton,
    format_automaton,
    parse_automaton,
)
from .errors import OrdaError, ParseError
from .generate import random_automaton, random_minimal_automaton
from .languages import (
    RESERVED,
    brzozowski_minimize,
    canonical_ordered_automaton,
    derivative_automaton,
    format_regex,
    parse_regex,
    to_regex,
)
from .minimize import isomorphic, minimize_ordered, preorder, preorder_naive
from .monoid import build, is_aperiodic, is_j_trivial, is_r_trivial, satisfies_one_leq_x
from .omega import check, check_identity_catalog, counterexample_words, parse_query


def _infer_alphabet(regex_text: str, override: str | None) -> Alphabet:
    if override:
        return Alphabet(tuple(override))
    symbols = sorted({ch for ch in regex_text if ch not in RESERVED and not ch.isspace()})
    if not symbols:
        symbols = ["a", "b"]
    return Alphabet(tuple(symbols))


def _load(args, canonical: bool = False) -> OrderedAutomaton:
    """Input automaton: a file path ('-' for stdin) or a --regex string.

    canonical=True replaces regex input by its minimal ordered automaton;
    file input is always taken as given.
    """
    if args.regex is not None:
        if args.input is not None:
            raise OrdaError("give a file or --regex, not both")
        alphabet = _infer_alphabet(args.regex, getattr(args, "alphabet", None))
        r = parse_regex(args.regex, alphabet)
        if canonical:
            return canonical_ordered_automaton(r, alphabet)
        return derivative_automaton(r, alphabet)
    if args.input is None:
        raise OrdaError("no input: give a file path or --regex")
    return parse_automaton(_read_text(args.input))


def _read_text(path: str) -> str:
    """File or stdin ('-') contents, decoded as UTF-8; a bad byte is a ParseError."""
    if path != "-":
        with open(path, "rb") as f:
            data = f.read()
    elif hasattr(sys.stdin, "buffer"):
        data = sys.stdin.buffer.read()
    else:
        return sys.stdin.read()  # a text stand-in such as io.StringIO
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"input is not UTF-8: byte 0x{data[exc.start]:02x}", line=line) from None


def cmd_minimize(args) -> int:
    minimal = minimize_ordered(_load(args))
    print(f"# states: {minimal.state_count}")
    print(f"# order pairs: {sum(1 for _ in minimal.order.pairs())}")
    print(format_automaton(minimal), end="")
    return 0


def _parse_ns(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        ns = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise OrdaError(f"bad --n list {text!r}, expected e.g. 1,2,3") from None
    if any(n < 1 for n in ns):
        raise OrdaError("--n entries must be positive")
    return ns


def cmd_classify(args) -> int:
    report = classify_language(_load(args), _parse_ns(args.n))
    if args.format == "kv":
        for name, verdict in report.items():
            print(f"{name}={'true' if verdict.holds else 'false'}")
        return 0
    print(f"# judged on the minimal automaton ({report.minimal.state_count} states)")
    for name, verdict in report.items():
        mark = "✓" if verdict.holds else "✗"
        line = f"{name} {mark}"
        if verdict.witness is not None:
            line += f"  witness={verdict.witness!r}"
        print(line)
    return 0


def cmd_check(args) -> int:
    oa = _load(args, canonical=True)
    text = args.query
    if args.category and "@" not in text:
        text = f"{text} @{args.category}"
    query = parse_query(text)
    verdict = check(oa.osa, query, monoid_cap=args.cap_monoid)
    if verdict.holds:
        print("holds (vacuously: no admissible substitutions)" if verdict.vacuous else "holds")
        return 0
    s, p = verdict.witness
    left, right = counterexample_words(build(oa.osa, args.cap_monoid), query, s)
    print(f"fails at state {p}")
    print(f"substitution: {s}")
    print(f"left word: {left!r}")
    print(f"right word: {right!r}")
    return 1


def _dot(oa: OrderedAutomaton) -> str:
    sa = oa.sa
    lines = ["digraph automaton {", "  rankdir=LR;", '  __init [shape=point, label=""];']
    for q in range(sa.state_count):
        shape = "doublecircle" if q in oa.finals else "circle"
        lines.append(f'  q{q} [shape={shape}, label="{sa.state_name(q)}"];')
    lines.append(f"  __init -> q{oa.initial};")
    for q in range(sa.state_count):
        targets: dict[int, list[str]] = {}
        for k, a in enumerate(sa.alphabet):
            targets.setdefault(sa.delta[q][k], []).append(a)
        for dst in sorted(targets):
            label = ",".join(targets[dst])
            lines.append(f'  q{q} -> q{dst} [label="{label}"];')
    for p, q in sorted(oa.order.pairs()):
        lines.append(f'  q{p} -> q{q} [style=dashed, arrowhead=empty, label="<="];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_convert(args) -> int:
    oa = _load(args)
    if args.to == "automaton":
        print(format_automaton(oa), end="")
    elif args.to == "regex":
        print(format_regex(to_regex(oa)))
    else:
        print(_dot(oa), end="")
    return 0


_AB = Alphabet(("a", "b"))


def run_oracle(seed: int, count: int, max_states: int = 4, corrupt=None) -> tuple[list[str], str]:
    """Differential sweep: every classifier against its independent oracle.

    corrupt, when given, rewrites each classifier verdict (name, value) ->
    value before comparison; the test suite uses it to prove the harness
    actually detects disagreement.  Returns (mismatch lines, summary line).
    """
    rng = random.Random(seed)
    flip = corrupt if corrupt is not None else (lambda name, value: value)
    mismatches: list[str] = []

    def compare(i: int, name: str, claimed: bool, oracle: bool) -> None:
        claimed = flip(name, claimed)
        if claimed != oracle:
            mismatches.append(f"instance {i}: {name}: claimed={claimed} oracle={oracle}")

    for i in range(count):
        oa = random_automaton(rng, max_states, _AB, ordered=True)
        minimal = minimize_ordered(oa)
        compare(i, "minimize_vs_double_reversal", True, isomorphic(minimal, brzozowski_minimize(oa)))
        compare(i, "minimize_vs_derivatives", True,
                isomorphic(minimal, canonical_ordered_automaton(to_regex(oa), oa.alphabet)))
        compare(i, "refinement_vs_fixpoint", True, preorder(oa) == preorder_naive(oa))

        dfa = random_minimal_automaton(rng, max_states, _AB)
        tm = build(dfa.osa)
        compare(i, "counter_free", is_counter_free(dfa.sa).holds, is_aperiodic(tm)[0])
        compare(i, "acyclic", is_acyclic(dfa.sa).holds, is_r_trivial(tm)[0])
        compare(i, "piecewise", is_pt_semiautomaton(dfa.sa).holds, is_j_trivial(tm)[0])
        compare(i, "extensive", has_extensive_actions(dfa.osa).holds, satisfies_one_leq_x(tm)[0])
        catalog = check_identity_catalog(dfa.sa)
        compare(i, "catalog_aperiodic", catalog.aperiodic.holds, is_aperiodic(tm)[0])
        compare(i, "catalog_r_trivial", catalog.r_trivial.holds, is_r_trivial(tm)[0])
        compare(i, "catalog_j_trivial", catalog.j_trivial.holds, is_j_trivial(tm)[0])

    summary = f"checked {count} instances, {len(mismatches)} mismatches"
    return mismatches, summary


def cmd_oracle(args) -> int:
    mismatches, summary = run_oracle(args.seed, args.count, args.max_states)
    for line in mismatches:
        print(line)
    print(summary)
    return 1 if mismatches else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orda", description="ordered automata toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", nargs="?", help="automaton file, or - for stdin")
        p.add_argument("--regex", help="regex input instead of a file")
        p.add_argument("--alphabet", help="alphabet for --regex, e.g. 'ab' (default: inferred)")

    p = sub.add_parser("minimize", help="compute the minimal ordered automaton")
    add_input(p)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("classify", help="decide the language classes")
    add_input(p)
    p.add_argument("--n", help="comma list for n-insertion checks, e.g. 1,2,3")
    p.add_argument("--format", choices=("text", "kv"), default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("check", help="decide an omega-inequality query")
    add_input(p)
    p.add_argument("query", help="e.g. 'x^w x == x^w @all'")
    p.add_argument("--category", choices=("all", "ne", "lp", "surj", "lm"),
                   help="default category when the query has no @ suffix")
    p.add_argument("--cap-monoid", type=int, default=1_000_000)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("convert", help="rewrite the input without minimizing")
    add_input(p)
    p.add_argument("--to", choices=("automaton", "regex", "dot"), required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("oracle", help="differential test sweep from a seed")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-states", type=int, default=4)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OrdaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
