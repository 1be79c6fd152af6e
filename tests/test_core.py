"""Base types: alphabets, transition tables, state orders, text format."""

import random

import pytest

from orda.core import (
    Alphabet,
    OrderedAutomaton,
    OrderedSemiautomaton,
    Semiautomaton,
    StateOrder,
    accepts,
    dual,
    format_automaton,
    future_accepts,
    parse_automaton,
    quotient_left,
    quotient_right,
    reachable_states,
    step,
    validate,
)
from orda.errors import AlphabetError, OrdaError, ParseError
from orda.fixtures import contains_a, even_a, finite_two_words

from oracles import language, order_violations, words_up_to


def test_alphabet_basics():
    ab = Alphabet(("a", "b"))
    assert ab.index("b") == 1
    assert "a" in ab and "c" not in ab
    assert list(ab) == ["a", "b"]
    assert len(ab) == 2
    assert Alphabet.from_string("xyz").symbols == ("x", "y", "z")


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
    sa = Semiautomaton.from_map(ab, 2, {(0, "a"): 1, (0, "b"): 0, (1, "a"): 1, (1, "b"): 1})
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
        Semiautomaton.from_map(ab, 1, {})


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
    o = StateOrder.from_pairs(3, [(0, 1), (0, 2)])
    assert o.leq(0, 1) and o.leq(0, 0) and not o.leq(1, 0)
    assert sorted(o.pairs()) == [(0, 1), (0, 2)]
    rev = o.reversed()
    assert rev.leq(1, 0) and not rev.leq(0, 1)
    assert rev.reversed() == o
    assert list(StateOrder.discrete(2).pairs()) == []
    via_leq = StateOrder.from_leq(3, lambda p, q: p == q or (p == 0 and q > 0))
    assert via_leq == o
    with pytest.raises(OrdaError):
        StateOrder.from_pairs(2, [(0, 5)])


def test_state_order_rows_are_bitmasks():
    o = StateOrder((0b011, 0b010, 0b110))  # bit q of row p: p <= q
    assert o.leq(0, 1) and o.leq(2, 1) and not o.leq(1, 0)
    assert list(o.pairs()) == [(0, 1), (2, 1)]
    assert o == StateOrder.from_pairs(3, [(0, 1), (2, 1)])
    for bad in ((0b100, 0b10), (0b1, -1)):
        with pytest.raises(OrdaError, match="at or above"):
            StateOrder(bad)
    # restrict renumbers by list position and drops states not listed
    assert o.restrict([2, 1]) == StateOrder((0b11, 0b10))
    assert o.restrict([1, 0]) == StateOrder.from_pairs(2, [(1, 0)])
    # representatives: the smallest state related both ways
    quasi = StateOrder.from_leq(4, lambda p, q: p % 2 == q % 2 or q == 3)
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
    chain = StateOrder.from_pairs(2, [(0, 1)])
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


def test_format_parse_round_trip():
    for oa in (contains_a(), even_a(), finite_two_words()):
        back = parse_automaton(format_automaton(oa))
        assert back.sa.delta == oa.sa.delta
        assert back.order == oa.order
        assert back.initial == oa.initial
        assert back.finals == oa.finals
        assert back.alphabet.symbols == oa.alphabet.symbols
        assert language(back, 4) == language(oa, 4)


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
        order = StateOrder.from_leq(n, lambda p, q: rel[p][q])
        want = order_violations(sa, rel, finals)
        assert validate(OrderedAutomaton(OrderedSemiautomaton(sa, order), 0, finals)) == want
        seen.update(m.split(":")[0] for m in want)
        seen.add("valid" if not want else "invalid")
    assert seen == {"reflexivity", "antisymmetry", "transitivity", "compatibility",
                    "finals not upward closed", "valid", "invalid"}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match=r"line 3"):
        parse_automaton("alphabet: a\nstates: 1\nstates: 2\ninitial: 0\nfinals:\ntrans: 0 a 0")
    with pytest.raises(ParseError, match=r"missing transition"):
        parse_automaton("alphabet: a b\nstates: 1\ninitial: 0\nfinals:\ntrans: 0 a 0")
    with pytest.raises(ParseError, match=r"out of range \(line 5\)"):
        parse_automaton("alphabet: a\nstates: 1\ninitial: 0\nfinals:\ntrans: 0 a 4")
    with pytest.raises(ParseError, match=r"expected 'key: value'"):
        parse_automaton("alphabet: a\nstates 1\n")


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
