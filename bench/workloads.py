"""Seeded inputs for the three workloads.

Every operation is one ``orda`` command line plus the text it reads on
stdin.  The same seed gives the same operations; ``digest`` fingerprints
them so that two runs can show they used the same data.  Chain-ordered
automata and Catalan semiautomata are built here rather than with
``orda.generate.random_compatible_order``, which closes a random relation
for each of 50 tries and falls back to the discrete order at these sizes.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from orda.core import Alphabet
from orda.generate import random_automaton, random_minimal_automaton, random_regex
from orda.languages import format_regex

from verify import Dfa, automaton_text, canonical_minimal, monoid_size, parse_regex_text, regex_dfa

# Sizes keep a pass between half a second and a second, so a run times
# every operation dozens of times and its fastest time is one the
# machine's neighbours did not slow; with few, long passes the same
# inputs vary by a third from run to run on a shared 2-CPU machine.

# minimize: random DFAs with the discrete order, and chain-ordered automata
MINIMIZE_RANDOM = 60
MINIMIZE_RANDOM_MAX_STATES = 80
MINIMIZE_CHAIN = 40
CHAIN_STATES = (10, 60)  # spaced quadratically: validate is cubic on a dense order

# classify: random regexes, random DFAs spread over monoid-size bins, subword languages
CLASSIFY_REGEX = 60
CLASSIFY_REGEX_DEPTH = 5
CLASSIFY_DFA_MAX_STATES = 16
CLASSIFY_DFA_MAX_MINIMAL = 10  # larger minimal automata mostly overflow the top bin: costly to reject
# (smallest, largest + 1, count): the count is about the chance of a draw landing in
# the bin, so the draws stop soon after the last bin fills
CLASSIFY_DFA_BINS = ((1, 100, 12), (100, 500, 10), (500, 2_000, 10), (2_000, 4_000, 8))
CLASSIFY_SUBWORD_ALPHABETS = (5,) * 10 + (6,) * 8 + (7,) * 2
SUBWORD_LENGTH = 4

# check: every affordable (Catalan size, query) pair once, then small random minimal
# DFAs and regexes taking the affordable queries in turn
CATALAN_POINTS = (4, 5, 6)
CHECK_DFA = 80
CHECK_DFA_MONOID = 400  # small monoids: here the monoid serves as a lookup table
CHECK_REGEX = 30
QUERIES = (
    "x^w x == x^w @all",
    "(x y)^w x == (x y)^w @all",
    "y (x y)^w == (x y)^w @all",
    "1 <= x @all",
    "x^w x^w == x^w @ne",
    "x^w <= x^w x @ne",
    "x y == y x @lp",
    "x^w y x^w <= x^w @lp",
    "x y == y x @surj",
    "(x y)^w x == (x y)^w @surj",
    "x^w x == x^w @lm",
    "(x y)^w <= (x y)^w x @lm",
)
SPACE_LIMIT = 2_000
LM_LIMIT = {1: 50, 2: 20}


@dataclass(frozen=True)
class Op:
    """One command line; ``regex``, ``alphabet`` and ``query`` repeat what argv holds."""

    argv: tuple[str, ...]
    stdin: str = ""
    regex: str | None = None
    alphabet: str = ""
    query: str | None = None


def build(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}/{seed}")
    ops = {"minimize": _minimize_ops, "classify": _classify_ops, "check": _check_ops}[workload](rng)
    rng.shuffle(ops)
    return ops


def digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(repr((op.argv, op.stdin)).encode())
    return h.hexdigest()[:16]


def _file_op(command: str, dfa: Dfa, *extra: str, order_pairs=()) -> Op:
    text = automaton_text(dfa.alphabet, dfa.delta, dfa.initial, dfa.finals, order_pairs)
    return Op((command, "-") + extra, text, query=extra[0] if extra else None)


def _regex_op(command: str, regex: str, letters: str, *extra: str) -> Op:
    argv = (command, "--regex", regex, "--alphabet", letters) + extra
    return Op(argv, regex=regex, alphabet=letters, query=extra[0] if extra else None)


def _from_orda(oa) -> Dfa:
    return Dfa(oa.alphabet.symbols, oa.sa.delta, oa.initial, oa.finals)


def random_dfa(rng: random.Random, letters: str, n: int) -> Dfa:
    """``generate.random_automaton``'s draw with exactly n states: uniform
    transitions, each state final with chance 1/2, a uniform initial state."""
    delta = [[rng.randrange(n) for _ in letters] for _ in range(n)]
    finals = {q for q in range(n) if rng.random() < 0.5}
    return Dfa(letters, delta, rng.randrange(n), finals)


def chain_automaton(rng: random.Random, n: int, letters: str) -> tuple[Dfa, list]:
    """n states on the chain 0 < 1 < ... < n-1.

    Letter a is the saturating successor, so every state is reachable;
    the other letters are random non-decreasing maps; finals form an up-set.
    """
    maps = [[min(q + 1, n - 1) for q in range(n)]]
    maps += [sorted(rng.randrange(n) for _ in range(n)) for _ in letters[1:]]
    delta = [[m[q] for m in maps] for q in range(n)]
    dfa = Dfa(letters, delta, 0, range(rng.randrange(1, n), n))
    return dfa, [(p, q) for p in range(n) for q in range(p + 1, n)]


def catalan_semiautomaton(rng: random.Random, n: int, extra: bool) -> tuple[Dfa, list]:
    """Extensive order-preserving maps on the chain 0 < ... < n-1.

    The letters are the n-1 maps q -> q+1 at one point (which generate the
    whole Catalan monoid), with ``extra`` also the saturating successor,
    in a random letter order.  The only final state is n-1, so the
    states stay apart and the syntactic monoid is the whole Catalan monoid.
    """
    maps = [[q + (q == i) for q in range(n)] for i in range(n - 1)]
    if extra:
        maps.append([min(q + 1, n - 1) for q in range(n)])
    rng.shuffle(maps)
    letters = "abcdefgh"[: len(maps)]
    delta = [[m[q] for m in maps] for q in range(n)]
    dfa = Dfa(letters, delta, 0, {n - 1})
    return dfa, [(p, q) for p in range(n) for q in range(p + 1, n)]


def _minimize_ops(rng: random.Random) -> list[Op]:
    """Fixed schedules of sizes and alphabets, so every seed draws the same mix of
    cheap and expensive inputs; the seed picks the transitions and finals."""
    ops = []
    # half over 2 letters, half over 3; of each, sizes evenly spread over
    # random_automaton's uniform range 1..MINIMIZE_RANDOM_MAX_STATES
    count = MINIMIZE_RANDOM // 2
    for letters in ("ab", "abc"):
        for i in range(count):
            n = round((i + 0.5) * MINIMIZE_RANDOM_MAX_STATES / count)
            ops.append(_file_op("minimize", random_dfa(rng, letters, n)))
    lo, hi = CHAIN_STATES
    for i in range(MINIMIZE_CHAIN):
        n = lo + (hi - lo) * i * i // (MINIMIZE_CHAIN - 1) ** 2
        dfa, pairs = chain_automaton(rng, n, "abc"[: 2 + i % 2])
        ops.append(_file_op("minimize", dfa, order_pairs=pairs))
    return ops


def _classify_ops(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(CLASSIFY_REGEX):
        letters = "abcd"[: rng.randint(2, 4)]
        r = format_regex(random_regex(rng, Alphabet(tuple(letters)), CLASSIFY_REGEX_DEPTH))
        ops.append(_regex_op("classify", r, letters))
    ops += [_file_op("classify", dfa) for dfa in _binned_dfas(rng)]
    for width in CLASSIFY_SUBWORD_ALPHABETS:
        letters = "abcdefgh"[:width]
        pattern = rng.sample(letters, SUBWORD_LENGTH)
        delta = [[i + (i < len(pattern) and a == pattern[i]) for a in letters] for i in range(len(pattern) + 1)]
        ops.append(_file_op("classify", Dfa(letters, delta, 0, {len(pattern)})))
    return ops


def _binned_dfas(rng: random.Random) -> list[Dfa]:
    """Random DFAs over {a,b}, kept until every monoid-size bin holds its quota.

    Binning keeps the share of large monoids, which sets the tail latency
    and the memory, the same from seed to seed; no monoid reaches the cap.
    """
    ab = Alphabet(("a", "b"))
    top = CLASSIFY_DFA_BINS[-1][1]
    wanted = [quota for _, _, quota in CLASSIFY_DFA_BINS]
    out = []
    while any(wanted):
        dfa = _from_orda(random_automaton(rng, CLASSIFY_DFA_MAX_STATES, ab))
        minimal = canonical_minimal(dfa)
        if minimal.state_count > CLASSIFY_DFA_MAX_MINIMAL:
            continue
        size = monoid_size(minimal, top)
        for i, (lo, hi, _) in enumerate(CLASSIFY_DFA_BINS):
            if size is not None and lo <= size < hi and wanted[i]:
                wanted[i] -= 1
                out.append(dfa)
    return out


def _check_ops(rng: random.Random) -> list[Op]:
    """Fixed schedules of sizes and queries, so every seed draws the same mix of
    cheap and expensive substitution spaces; the seed picks the automata."""
    ab = Alphabet(("a", "b"))
    ops = []
    for n in CATALAN_POINTS:
        for j, query in enumerate(QUERIES):
            dfa, pairs = catalan_semiautomaton(rng, n, extra=j % 2 == 1)
            if query in _affordable_queries(dfa):
                ops.append(_file_op("check", dfa, query, order_pairs=pairs))
    # every fourth of four times as many draws, by monoid size, so the sizes
    # follow their distribution closely
    pool = []
    while len(pool) < 4 * CHECK_DFA:
        oa = random_minimal_automaton(rng, 6, ab)
        size = monoid_size(_from_orda(oa), CHECK_DFA_MONOID)
        if oa.state_count >= 4 and size is not None:
            pool.append((size, _from_orda(oa), sorted(oa.order.pairs())))
    pool.sort(key=lambda item: item[0])
    subjects = [(dfa, pairs, None) for _, dfa, pairs in pool[2::4]]
    for _ in range(CHECK_REGEX):
        r = format_regex(random_regex(rng, ab, 3))
        subjects.append((regex_dfa(parse_regex_text(r), "ab"), None, r))
    turn = 0
    for dfa, pairs, r in subjects:
        affordable = _affordable_queries(dfa)
        while QUERIES[turn % len(QUERIES)] not in affordable:
            turn += 1
        query = QUERIES[turn % len(QUERIES)]
        turn += 1
        if r is None:
            ops.append(_file_op("check", dfa, query, order_pairs=pairs))
        else:
            ops.append(_regex_op("check", r, "ab", query))
    return ops


def _affordable_queries(dfa: Dfa) -> list[str]:
    """Catalog queries whose substitution space holds at most SPACE_LIMIT tuples."""
    size = monoid_size(dfa, SPACE_LIMIT) or SPACE_LIMIT + 1
    width = len(dfa.alphabet)
    out = []
    for query in QUERIES:
        k = 2 if "y" in query else 1
        category = query.rsplit("@", 1)[1]
        # surj pins every letter to a variable: at most two tuples with two variables
        space = {"lp": width**k, "surj": 2}.get(category, size**k)
        if space <= SPACE_LIMIT and (category != "lm" or size <= LM_LIMIT[k]):
            out.append(query)
    return out
