"""Base types: alphabets, transition tables, state orders, text format."""

import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orda import core
from orda.core import (
    Alphabet,
    OrderedAutomaton,
    OrderedSemiautomaton,
    Semiautomaton,
    StateOrder,
    accepts,
    dual,
    explore,
    format_automaton,
    future_accepts,
    parse_automaton,
    path_word,
    quotient_left,
    quotient_right,
    reachable_states,
    step,
    unions,
    validate,
)
from orda.core import VIOLATION_LIMIT, tree
from orda.errors import AlphabetError, OrdaError, ParseError, ResourceError

from fixtures import (
    contains_a,
    discrete,
    even_a,
    finite_two_words,
    order_from_leq,
    order_from_pairs,
    semiautomaton_from_map,
)
from oracles import language, order_violations, words_up_to
from orda.generate import random_automaton
from orda.minimize import preorder


def test_alphabet_basics():
    ab = Alphabet(("a", "b"))
    assert ab.index("b") == 1
    assert "a" in ab and "c" not in ab
    assert list(ab) == ["a", "b"]
    assert len(ab) == 2
    assert Alphabet(tuple("xyz")).symbols == ("x", "y", "z")


def test_alphabet_rejects_bad_symbols():
    with pytest.raises(AlphabetError):
        Alphabet(())
    with pytest.raises(AlphabetError):
        Alphabet(("a", "a"))
    with pytest.raises(AlphabetError):
        Alphabet(("ab",))
    with pytest.raises(AlphabetError):
        Alphabet((" ",))
    with pytest.raises(AlphabetError):
        Alphabet(("a",)).index("q")


def test_semiautomaton_constructors():
    ab = Alphabet(("a", "b"))
    sa = semiautomaton_from_map(ab, 2, {(0, "a"): 1, (0, "b"): 0, (1, "a"): 1, (1, "b"): 1})
    assert sa.delta == ((1, 0), (1, 1))
    assert sa.state_count == 2
    assert sa.state_name(0) == "0"
    named = Semiautomaton(ab, ((0, 0),), names=("start",))
    assert named.state_name(0) == "start"


def test_semiautomaton_validation():
    ab = Alphabet(("a",))
    with pytest.raises(OrdaError):
        Semiautomaton(ab, ())
    with pytest.raises(OrdaError):
        Semiautomaton(ab, ((2,),))
    with pytest.raises(OrdaError):
        Semiautomaton(ab, ((0, 0),))
    with pytest.raises(OrdaError):
        Semiautomaton(ab, ((0,),), names=("a", "b"))
    with pytest.raises(OrdaError):
        semiautomaton_from_map(ab, 1, {})


def test_step_composes():
    rng = random.Random(11)
    sa = finite_two_words().sa
    for _ in range(100):
        q = rng.randrange(sa.state_count)
        u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        v = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        assert step(sa, q, u + v) == step(sa, step(sa, q, u), v)
    assert step(sa, 0, "") == 0
    with pytest.raises(OrdaError):
        step(sa, 9, "a")


def test_state_order_operations():
    o = order_from_pairs(3, [(0, 1), (0, 2)])
    assert o.leq(0, 1) and o.leq(0, 0) and not o.leq(1, 0)
    assert sorted(o.pairs()) == [(0, 1), (0, 2)]
    rev = o.reversed()
    assert rev.leq(1, 0) and not rev.leq(0, 1)
    assert rev.reversed() == o
    assert list(StateOrder.discrete(2).pairs()) == []
    via_leq = order_from_leq(3, lambda p, q: p == q or (p == 0 and q > 0))
    assert via_leq == o
    with pytest.raises(OrdaError):
        order_from_pairs(2, [(0, 5)])


def test_state_order_rows_are_bitmasks():
    o = StateOrder((0b011, 0b010, 0b110))  # bit q of row p: p <= q
    assert o.leq(0, 1) and o.leq(2, 1) and not o.leq(1, 0)
    assert list(o.pairs()) == [(0, 1), (2, 1)]
    assert o == order_from_pairs(3, [(0, 1), (2, 1)])
    for bad in ((0b100, 0b10), (0b1, -1)):
        with pytest.raises(OrdaError, match="at or above"):
            StateOrder(bad)
    # restrict renumbers by list position and drops states not listed
    assert o.restrict([2, 1]) == StateOrder((0b11, 0b10))
    assert o.restrict([1, 0]) == order_from_pairs(2, [(1, 0)])
    # representatives: the smallest state related both ways
    quasi = order_from_leq(4, lambda p, q: p % 2 == q % 2 or q == 3)
    assert quasi.representatives() == (0, 1, 0, 1)
    assert StateOrder.discrete(3).representatives() == (0, 1, 2)


def test_validate_accepts_fixtures():
    assert validate(contains_a()) == []
    assert validate(even_a()) == []
    assert validate(finite_two_words()) == []


def test_validate_reports_each_axiom():
    ab = Alphabet(("a",))
    sa = Semiautomaton(ab, ((1,), (1,)))

    broken_refl = StateOrder((0b00, 0b10))  # bit q of row p: p <= q
    msgs = validate(OrderedAutomaton(OrderedSemiautomaton(sa, broken_refl), 0, frozenset({1})))
    assert any(m.startswith("reflexivity: 0") for m in msgs)

    sym = StateOrder((0b11, 0b11))
    msgs = validate(OrderedAutomaton(OrderedSemiautomaton(sa, sym), 0, frozenset({0, 1})))
    assert any(m.startswith("antisymmetry:") for m in msgs)

    loose = StateOrder((0b011, 0b110, 0b100))
    sa3 = Semiautomaton(ab, ((0,), (1,), (2,)))
    msgs = validate(OrderedAutomaton(OrderedSemiautomaton(sa3, loose), 0, frozenset({0, 1, 2})))
    assert any(m.startswith("transitivity: 0,1,2") for m in msgs)

    # 0 <= 1 but 0.a = 1 and 1.a = 0 are incomparable under the same order
    sa_swap = Semiautomaton(ab, ((1,), (0,)))
    chain = order_from_pairs(2, [(0, 1)])
    msgs = validate(OrderedAutomaton(OrderedSemiautomaton(sa_swap, chain), 0, frozenset({1})))
    assert any(m.startswith("compatibility: 0<=1") for m in msgs)

    sa_id = Semiautomaton(ab, ((0,), (1,)))
    msgs = validate(OrderedAutomaton(OrderedSemiautomaton(sa_id, chain), 0, frozenset({0})))
    assert any(m.startswith("finals not upward closed: 0<=1") for m in msgs)


def test_accepts_and_futures():
    oa = contains_a()
    assert accepts(oa, "ba") and accepts(oa, "a") and not accepts(oa, "bb") and not accepts(oa, "")
    assert future_accepts(oa, 1, "") and future_accepts(oa, 1, "bbb")
    assert not future_accepts(oa, 0, "b")


def test_quotients_shift_the_language():
    oa = finite_two_words()
    left = quotient_left(oa, "a")
    for w in words_up_to(oa.alphabet, 4):
        assert accepts(left, w) == accepts(oa, "a" + w)
    right = quotient_right(oa, "b")
    for w in words_up_to(oa.alphabet, 4):
        assert accepts(right, w) == accepts(oa, w + "b")


def test_dual_reverses_the_order():
    osa = contains_a().osa
    d = dual(osa)
    assert d.order.leq(1, 0) and not d.order.leq(0, 1)
    assert dual(d) == osa


def test_reachable_states_is_breadth_first():
    assert reachable_states(contains_a().sa, 0) == (0, 1)
    assert reachable_states(contains_a().sa, 1) == (1,)
    # from the start of the two-word automaton: 1 and 2 first, then their
    # alphabet-order successors 4 (via 1.a) and 3 (via 1.b)
    assert reachable_states(finite_two_words().sa, 0) == (0, 1, 2, 4, 3)


def test_explore_numbers_rows_and_rebuilds_words():
    sa = finite_two_words().sa
    nodes, rows = explore(0, sa.delta.__getitem__)
    assert tuple(nodes) == reachable_states(sa, 0)
    for i, row in enumerate(rows):
        assert [nodes[j] for j in row] == list(sa.delta[nodes[i]])
    letters = sa.alphabet.symbols
    for j, q in enumerate(nodes):
        w = path_word(rows, letters, j)
        assert step(sa, 0, w) == q
        shorter = [u for u in words_up_to(sa.alphabet, len(w)) if step(sa, 0, u) == q]
        assert w == min(shorter, key=lambda u: (len(u), u))
    assert path_word(rows, letters, 0) == ""
    with pytest.raises(ResourceError, match="^walk exceeded 2 states$"):
        explore(0, sa.delta.__getitem__, 2, "walk exceeded 2 states")



def test_explore_stops_at_the_first_node_stop_holds_for():
    # a walk that stops on discovering node j has discovered nodes 0 .. j
    # only, its rows end with the row that discovered j, cut after it, and
    # they spell the same word to node j as the whole walk's
    rng = random.Random(37)
    for _ in range(300):
        sa = random_automaton(rng, 9, Alphabet(tuple("abc"[: rng.randint(1, 3)]))).sa
        nodes, rows = explore(0, sa.delta.__getitem__)
        for j, q in enumerate(nodes):
            cut, cut_rows = explore(0, sa.delta.__getitem__, stop=q.__eq__)
            assert cut == nodes[: j + 1] and len(cut_rows) < len(cut)
            assert all(row == rows[p][: len(row)] for p, row in enumerate(cut_rows))
            assert path_word(cut_rows, sa.alphabet.symbols, j) == path_word(rows, sa.alphabet.symbols, j)
        assert explore(0, sa.delta.__getitem__, stop=lambda q: False) == (nodes, rows)


def test_tree_follows_first_occurrences_in_row_order():
    # on explore's rows, numbered breadth-first, the tree lists nodes 1, 2, ...
    # in order, each reached from its first occurrence in row-major order;
    # with the columns reversed it visits the states in the order of an
    # explore whose successors come reversed
    rng = random.Random(29)
    for _ in range(300):
        sa = random_automaton(rng, 9, Alphabet(tuple("abc"[: rng.randint(1, 3)]))).sa
        width = len(sa.alphabet)
        nodes, rows = explore(0, sa.delta.__getitem__)
        edges = tree(rows, range(width))
        assert [j for j, _, _ in edges] == list(range(1, len(nodes)))
        first = {}
        for p, row in enumerate(rows):
            for k, j in enumerate(row):
                first.setdefault(j, (p, k))
        assert all(first[j] == (p, k) and rows[p][k] == j for j, p, k in edges)
        backwards, _ = explore(0, lambda q: reversed(sa.delta[q]))
        edges = tree(rows, range(width - 1, -1, -1))
        assert [nodes[j] for j, _, _ in edges] == backwards[1:]
        assert all(rows[p][k] == j for j, p, k in edges)

def test_format_parse_round_trip():
    for oa in (contains_a(), even_a(), finite_two_words()):
        back = parse_automaton(format_automaton(oa))
        assert back.sa.delta == oa.sa.delta
        assert back.order == oa.order
        assert back.initial == oa.initial
        assert back.finals == oa.finals
        assert back.alphabet.symbols == oa.alphabet.symbols
        assert language(back, 4) == language(oa, 4)


def test_format_prints_the_order_pairs_in_pairs_order():
    # the order is printed a row at a time; the lines are those of pairs(),
    # on sparse rows, dense rows and rows whose bits lie bytes apart
    rng = random.Random(7)
    for n in (1, 2, 9, 17, 70, 300):
        sa = Semiautomaton(Alphabet(("a",)), tuple((q,) for q in range(n)))  # every order is compatible
        for density in (0.0, 0.02, 0.5, 1.0):
            up = tuple(1 << p | sum(1 << q for q in range(n) if q != p and rng.random() < density) for p in range(n))
            oa = OrderedAutomaton(OrderedSemiautomaton(sa, StateOrder(up)), 0, frozenset())
            lines = [line for line in format_automaton(oa).splitlines() if line.startswith("order:")]
            assert lines == [f"order: {p} <= {q}" for p, q in oa.order.pairs()]


def test_parse_tolerates_comments_and_defaults_to_discrete():
    text = """
    # two states over one letter
    alphabet: a
    states: 2   # a comment after the value
    initial: 0
    finals: 0
    trans: 0 a 1
    trans: 1 a 0
    """
    oa = parse_automaton(text)
    assert oa.order == StateOrder.discrete(2)
    assert accepts(oa, "aa") and not accepts(oa, "a")


def test_parse_searches_no_discrete_order(monkeypatch):
    # an 80-state file without order lines has the discrete order, which
    # breaks no axiom: validation returns before building any union memo
    rng = random.Random(80)
    abc = Alphabet(("a", "b", "c"))
    text = "alphabet: a b c\nstates: 80\ninitial: 0\nfinals: 0 79\n" + "".join(
        f"trans: {q} {a} {rng.randrange(80)}\n" for q in range(80) for a in abc.symbols
    )
    calls = []
    unions = core.unions
    monkeypatch.setattr(core, "unions", lambda table: calls.append(table) or unions(table))
    oa = parse_automaton(text)
    assert oa.order == StateOrder.discrete(80) and validate(oa) == []
    assert calls == []
    # one order pair brings the searches back
    up = list(oa.order.up)
    up[0] |= 1 << 79
    validate(OrderedAutomaton(OrderedSemiautomaton(oa.sa, StateOrder(tuple(up))), 0, oa.finals))
    assert calls


def random_relation(rng, n):
    """A bool matrix that may break every order axiom; its diagonal is mostly set."""
    density = rng.random()
    return [[rng.random() < (0.85 if p == q else density) for q in range(n)] for p in range(n)]


def test_validate_matches_brute_force_on_random_relations():
    rng = random.Random(61)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 6)
        delta = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(n))
        sa = Semiautomaton(Alphabet(("a", "b")), delta)
        rel = random_relation(rng, n)
        finals = frozenset(q for q in range(n) if rng.random() < 0.5)
        order = order_from_leq(n, lambda p, q: rel[p][q])
        want = order_violations(sa, rel, finals)
        assert validate(OrderedAutomaton(OrderedSemiautomaton(sa, order), 0, finals)) == want
        seen.update(m.split(":")[0] for m in want)
        seen.add("valid" if not want else "invalid")
    assert seen == {"reflexivity", "antisymmetry", "transitivity", "compatibility",
                    "finals not upward closed", "valid", "invalid"}


def chain_automaton(rng, n, alphabet):
    """A valid ordered automaton: a chain along a random permutation of the
    states, acted on by isotone maps, with an upward-closed final set."""
    perm = list(range(n))
    rng.shuffle(perm)
    rank = {q: i for i, q in enumerate(perm)}
    maps = [sorted(rng.randrange(n) for _ in range(n)) for _ in alphabet]
    delta = tuple(tuple(perm[m[rank[q]]] for m in maps) for q in range(n))
    order = order_from_leq(n, lambda p, q: rank[p] <= rank[q])
    finals = frozenset(perm[rng.randrange(n + 1):])
    return OrderedAutomaton(OrderedSemiautomaton(Semiautomaton(alphabet, delta), order), 0, finals)


def test_validate_matches_brute_force_on_flipped_orders():
    # valid orders on up to 24 states over 3 letters with one pair flipped, so
    # that each axiom can fail on its own and the per-letter masks shift by k*n
    rng = random.Random(62)
    abc = Alphabet(("a", "b", "c"))
    seen = set()
    for i in range(160):
        n = rng.randint(1, 24)
        oa = chain_automaton(rng, n, abc) if i % 2 else random_automaton(rng, n, abc, ordered=True)
        n = oa.state_count
        assert validate(oa) == []
        p, q = rng.randrange(n), rng.randrange(n)
        up = list(oa.order.up)
        up[p] ^= 1 << q
        order = StateOrder(tuple(up))
        rel = [[order.leq(x, y) for y in range(n)] for x in range(n)]
        want = order_violations(oa.sa, rel, oa.finals)
        assert validate(OrderedAutomaton(OrderedSemiautomaton(oa.sa, order), 0, oa.finals)) == want
        seen.update(m.split(":")[0] for m in want)
    assert seen == {"reflexivity", "antisymmetry", "transitivity", "compatibility", "finals not upward closed"}


def test_representatives_name_rho_classes_of_quasiorders():
    rng = random.Random(63)
    for _ in range(200):
        n = rng.randint(1, 12)
        density = rng.random() * 0.4
        rel = [[p == q or rng.random() < density for q in range(n)] for p in range(n)]
        for r in range(n):  # Warshall: the reflexive transitive closure
            for p in range(n):
                if rel[p][r]:
                    rel[p] = [x or y for x, y in zip(rel[p], rel[r])]
        order = order_from_leq(n, lambda p, q: rel[p][q])
        want = tuple(min(q for q in range(n) if rel[p][q] and rel[q][p]) for p in range(n))
        assert order.representatives() == want


def plain_or(table, mask):
    out = 0
    for q, row in enumerate(table):
        if mask >> q & 1:
            out |= row
    return out


@given(st.data())
def test_unions_is_the_plain_or(data):
    n = data.draw(st.integers(0, 40))
    # rows as wide as packed preimages over three letters, zero rows included
    table = data.draw(st.lists(st.just(0) | st.integers(0, (1 << 3 * n) - 1), min_size=n, max_size=n))
    union = unions(table)
    # repeated masks read the memo filled by the first
    for mask in data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8)) * 2:
        assert union(mask) == plain_or(table, mask)


@pytest.mark.parametrize("n", [1, 8, 9, 17])
def test_unions_edge_masks(n):
    # 8 states fill one byte, 9 leave the top byte partial
    rng = random.Random(n)
    table = [rng.getrandbits(2 * n) if q % 3 else 0 for q in range(n)]
    union = unions(table)
    few = core._FEW_BITS
    masks = [0, 1, 1 << n - 1, (1 << n) - 1, (1 << min(n, few)) - 1, (1 << min(n, few + 1)) - 1]
    masks += [sum(1 << q for q in rng.sample(range(n), min(n, k))) for k in (few - 1, few, few + 1, few + 2)]
    for mask in masks * 2:
        assert union(mask) == plain_or(table, mask)


def test_no_memo_budget_changes_no_result(monkeypatch):
    # 60 states: dense chain rows take the byte path, whose memo the budget stops
    rng = random.Random(64)
    abc = Alphabet(("a", "b", "c"))
    chain = chain_automaton(rng, 60, abc)
    up = list(chain.order.up)
    up[0] ^= 1 << 1 if up[0] >> 1 & 1 else 1 << 2  # transitivity and compatibility fail
    flipped = OrderedAutomaton(OrderedSemiautomaton(chain.sa, StateOrder(tuple(up))), 0, chain.finals)
    random_dfa = OrderedAutomaton(discrete(Semiautomaton(abc, tuple(
        tuple(rng.randrange(60) for _ in abc) for _ in range(60)))), 0, frozenset(rng.sample(range(60), 30)))
    inputs = [chain, flipped, random_dfa]
    keep = rng.sample(range(60), 40)

    def results():
        return [(preorder(oa), oa.order.restrict(keep), validate(oa)) for oa in inputs]

    memoized = results()
    assert any(v for _, _, v in memoized)
    monkeypatch.setattr(core, "UNION_MEMO_BYTES", 0)
    assert results() == memoized


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match=r"line 3"):
        parse_automaton("alphabet: a\nstates: 1\nstates: 2\ninitial: 0\nfinals:\ntrans: 0 a 0")
    with pytest.raises(ParseError, match=r"missing transition"):
        parse_automaton("alphabet: a b\nstates: 1\ninitial: 0\nfinals:\ntrans: 0 a 0")
    with pytest.raises(ParseError, match=r"out of range \(line 5\)"):
        parse_automaton("alphabet: a\nstates: 1\ninitial: 0\nfinals:\ntrans: 0 a 4")
    with pytest.raises(ParseError, match=r"expected 'key: value'"):
        parse_automaton("alphabet: a\nstates 1\n")
    with pytest.raises(ParseError, match=r"^initial state 3 out of range \(line 3\)$"):
        parse_automaton("alphabet: a\nstates: 1\ninitial: 3\nfinals:\ntrans: 0 a 0")
    with pytest.raises(ParseError, match=r"^final state 2 out of range \(line 5\)$"):
        parse_automaton("alphabet: a\nstates: 1\ninitial: 0\n\nfinals: 0 2\ntrans: 0 a 0")


def test_parse_rejects_invalid_automata():
    # finals {0} with 0 <= 1 is not upward closed
    text = (
        "alphabet: a\nstates: 2\ninitial: 0\nfinals: 0\n"
        "order: 0 <= 1\ntrans: 0 a 0\ntrans: 1 a 1\n"
    )
    with pytest.raises(OrdaError, match="invalid automaton"):
        parse_automaton(text)


def test_finals_coerced_to_frozenset():
    oa = OrderedAutomaton(contains_a().osa, 0, {1})
    assert isinstance(oa.finals, frozenset)
    with pytest.raises(OrdaError):
        OrderedAutomaton(contains_a().osa, 5, frozenset())


CHAIN3 = (
    "alphabet: a b\nstates: 3\ninitial: 0\nfinals: 2\n"
    "order: 0 <= 1\norder: 1 <= 2\norder: 0 <= 2\n"
    "trans: 0 a 1\ntrans: 0 b 0\ntrans: 1 a 2\ntrans: 1 b 1\ntrans: 2 a 2\ntrans: 2 b 2\n"
)


@pytest.mark.parametrize("line, spelling", [
    ("order: 1 <= 2", " \torder\t :\t1   <=\t2 "),
    ("order: 1 <= 2", "order:1 <= 2"),
    ("order: 1 <= 2", "order: 1 <= 2  # above the middle"),
    ("order: 1 <= 2", "order: 001 <= 02"),
    ("order: 1 <= 2", "order: \u0661 <= \u0662"),  # Arabic-Indic digits
    ("trans: 1 a 2", "\ttrans :  01\ta  \uff12#"),  # a fullwidth 2
    ("states: 3", "states : 03 # three"),
    ("finals: 2", "finals:\t\u0662"),
])
def test_parse_accepts_spellings(line, spelling):
    assert parse_automaton(CHAIN3.replace(line, spelling)) == parse_automaton(CHAIN3)


def test_parse_refuses_spellings_with_the_line():
    huge = "1" * 5000
    # int() refuses more digits than sys.get_int_max_str_digits(), 4300 by default
    limited = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(huge)
    cases = [
        ("order: 1 <= 2", f"order: {huge} <= 2", 6,
         "order wants 'p <= q', got '1111" if limited else "order pair (1111"),
        ("trans: 2 b 2", f"trans: 2 b 2\ntrans: {huge} a 2", 14,
         "trans wants 'state symbol state', got '1111" if limited else "transition from unknown state"),
        ("order: 1 <= 2", "order: 1 <=2 3", 6, "order wants 'p <= q', got '1 <=2 3'"),
        ("order: 1 <= 2", "order 1 <= 2", 6, "expected 'key: value', got 'order 1 <= 2'"),
        ("order: 1 <= 2", "order: 1 <= -2", 6, "order wants 'p <= q', got '1 <= -2'"),
        ("order: 1 <= 2", "order: 1 <= 3", 6, "order pair (1, 3) out of range"),
        ("trans: 1 a 2", "trans: 1 a", 10, "trans wants 'state symbol state', got '1 a'"),
        ("trans: 1 a 2", "trans: 1 a 2 2", 10, "trans wants 'state symbol state', got '1 a 2 2'"),
    ]
    for line, spelling, lineno, message in cases:
        with pytest.raises(ParseError) as info:
            parse_automaton(CHAIN3.replace(line, spelling))
        assert str(info.value).startswith(message)
        assert str(info.value).endswith(f"(line {lineno})")


def three_blocks(k: int) -> str:
    """Blocks A, B, C of k states each, every pair from A to B and from B to C
    declared but none from A to C: k**3 transitivity violations."""
    order = "".join(f"order: {p} <= {q}\n" for lo in (0, k) for p in range(lo, lo + k) for q in range(lo + k, lo + 2 * k))
    moves = "".join(f"trans: {q} a {q}\n" for q in range(3 * k))
    return f"alphabet: a\nstates: {3 * k}\ninitial: 0\nfinals:\n" + order + moves


def test_parse_error_shows_a_bounded_number_of_violations():
    with pytest.raises(OrdaError) as info:
        parse_automaton(three_blocks(4))
    message = str(info.value)
    assert message.startswith("invalid automaton: transitivity: 0,4,8; transitivity: 0,4,9;")
    assert message.count("transitivity:") == VIOLATION_LIMIT
    assert message.endswith(f"; ... (more violations cut: only the first {VIOLATION_LIMIT} are shown)")
    # up to the limit, every violation is shown and nothing is appended
    message = str(pytest.raises(OrdaError, parse_automaton, three_blocks(2)).value)
    assert message.count(";") == 2 ** 3 - 1 and "cut" not in message


ABC = Alphabet(("a", "b", "c"))

# spellings of a line that mean the same; all but the leading zeros end a run
RESPELLINGS = (
    lambda line: line.replace(" ", "\t", 1),
    lambda line: line + "  # a note",
    lambda line: re.sub(r"\b(?=\d)", "00", line),
    lambda line: line.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")),
)


def sample_texts(rng):
    """Chain-ordered and random automata with their text lines; a chain on
    long_n states has an order run longer than the bound on one match."""
    long_n = next(n for n in range(2, 200) if n * (n - 1) // 2 > 2 * core._RUN_LINES)
    for i in range(36):
        n = (1, 2, 5, 11, 23, long_n)[i % 6]
        if i % 2:
            oa = chain_automaton(rng, n, ABC)
        else:
            oa = random_automaton(rng, n, ABC, ordered=i % 4 == 0)
        yield oa, format_automaton(oa).splitlines()


def orders_first(lines):
    """The order lines moved before the states line."""
    return sorted(lines, key=lambda line: not line.startswith("order:"))


def test_parse_reads_respelled_and_reordered_runs_alike():
    rng = random.Random(24)
    for oa, lines in sample_texts(rng):
        assert parse_automaton("\n".join(lines) + "\n") == oa
        # respelled lines and a lone \r break the runs; \r\n ends a run line as \n does
        respelled = lines[:]
        ends = ["\n"] * len(lines)
        for j in rng.sample(range(len(lines)), min(len(lines), 12)):
            respelled[j] = rng.choice(RESPELLINGS)(lines[j])
        for j in rng.sample(range(len(lines)), min(len(lines), 6)):
            ends[j] = rng.choice(["\r\n", "\r"])
        assert parse_automaton("".join(map(str.__add__, respelled, ends))) == oa
        assert parse_automaton("\n".join(orders_first(lines))) == oa
        # a commented-out copy of a line is no line, inside a run or not
        commented = lines[:]
        for j in sorted(rng.sample(range(len(lines)), min(len(lines), 3)), reverse=True):
            commented.insert(j, rng.choice(["# ", "#"]) + lines[j])
        assert parse_automaton("\n".join(commented) + "\n") == oa


def test_parse_locates_a_fault_inside_a_run():
    huge = "1" * 5000
    limited = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(huge)
    rng = random.Random(25)
    seen = set()
    for oa, lines in sample_texts(rng):
        n = oa.state_count
        if rng.random() < 0.5:
            lines = orders_first(lines)
        orders = [j for j, line in enumerate(lines) if line.startswith("order:")]
        moves = [j for j, line in enumerate(lines) if line.startswith("trans:")]
        for _ in range(4):
            kinds = ("order", "respelled", "trans", "malformed", "huge")
            kind = rng.choice(kinds if orders else ("trans", "malformed"))
            faulty = lines[:]
            if kind in ("order", "respelled"):  # an index one past the last state
                j, p = rng.choice(orders), rng.randrange(n)
                faulty[j], message = f"order: {p} <= {n}", f"order pair ({p}, {n}) out of range"
                if kind == "respelled":
                    faulty[j] = faulty[j].replace(" ", "\t", 1)
            elif kind == "trans":  # an earlier transition again
                j = rng.choice(moves[1:])
                faulty[j] = lines[rng.choice([k for k in moves if k < j])]
                message = "duplicate transition for ({}, {})".format(*faulty[j].split()[1:3])
            elif kind == "malformed":  # one index too many
                j = rng.choice(orders + moves)
                key = lines[j].split(":")[0]
                faulty[j] = f"{key}: 1 <= 2 3"
                message = {"order": "order wants 'p <= q'", "trans": "trans wants 'state symbol state'"}[key]
            else:
                j = rng.choice(orders)
                faulty[j] = f"order: {huge} <= 0"
                message = "order wants 'p <= q', got '1111" if limited else "order pair (1111"
            seen.add(kind)
            with pytest.raises(ParseError) as info:
                parse_automaton("\n".join(faulty) + "\n")
            assert str(info.value).startswith(message)
            assert str(info.value).endswith(f"(line {j + 1})")
    assert seen == {"order", "respelled", "trans", "malformed", "huge"}


def test_parse_reads_no_further_than_the_first_missing_transition():
    # the state count bounds no allocation before the transitions are checked
    with pytest.raises(ParseError, match=r"^missing transition for \(1, a\)$"):
        parse_automaton("alphabet: a\nstates: 1000000000000\ninitial: 0\nfinals:\ntrans: 0 a 0\n")


def test_parse_memory_stays_flat_on_a_dense_order():
    # 79 800 order lines; read a run at a time, none of them is kept as a tuple
    text = format_automaton(chain_automaton(random.Random(1), 400, ABC))
    assert len(text.splitlines()) == 81_004
    tracemalloc.start()
    try:
        parse_automaton(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_parse_peak_is_bounded_by_the_run_length():
    # while a run matches, the regex engine keeps backtracking state for each
    # of its lines, so _RUN_LINES bounds the peak on a dense order
    text = format_automaton(chain_automaton(random.Random(1), 60, ABC))
    assert len(text.splitlines()) == 1954
    tracemalloc.start()
    try:
        parse_automaton(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 250_000, peak
