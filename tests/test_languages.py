"""Regex layer: normal forms, derivatives, automaton constructions, inclusion."""

import copy
import gc
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orda import languages
from orda.core import Alphabet, OrderedAutomaton, StateOrder, accepts
from orda.errors import AlphabetError, ParseError, ResourceError
from orda.generate import random_automaton, random_regex
from orda.languages import (
    EMPTY,
    EPS,
    Cat,
    Compl,
    Inter,
    Star,
    Sym,
    Union,
    brzozowski_minimize,
    canonical_ordered_automaton,
    cat,
    compl,
    derivative,
    derivative_automaton,
    enumerate_words,
    finite_language_regex,
    format_regex,
    inter,
    language_inclusion,
    parse_regex,
    regex_matches,
    reverse_subsets,
    star,
    sym,
    to_regex,
    union,
    word_regex,
)
from orda.minimize import isomorphic, minimize_ordered

from fixtures import ab_star, contains_a, even_a, finite_two_words
from oracles import language, regex_languages, words_up_to

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


def test_smart_constructors_normalize():
    a, b = sym("a"), sym("b")
    assert cat(EMPTY, a) is EMPTY and cat(a, EMPTY) is EMPTY
    assert cat(EPS, a) is a and cat(a, EPS) is a
    assert star(EMPTY) is EPS and star(EPS) is EPS
    assert union([a, EMPTY, a, b]) == union([b, a])
    assert union([a]) is a
    assert union([]) is EMPTY
    assert inter(a, EMPTY) is EMPTY
    # associativity of union is flattened away
    assert union([union([a, b]), a]) == union([a, b])
    # nested stars are kept as written; only 0 and 1 collapse
    ss = star(star(a))
    assert isinstance(ss, Star) and ss.inner == star(a)


def rebuild(r):
    """r rebuilt bottom-up through the smart constructors."""
    if isinstance(r, Cat):
        return cat(rebuild(r.left), rebuild(r.right))
    if isinstance(r, Star):
        return star(rebuild(r.inner))
    if isinstance(r, Union):
        return union(rebuild(p) for p in r.parts)
    if isinstance(r, Inter):
        return inter(rebuild(r.left), rebuild(r.right))
    if isinstance(r, Compl):
        return compl(rebuild(r.inner))
    return r


def test_constructed_and_parsed_regexes_are_already_normal():
    # derivative_automaton explores from its input as given, which relies on
    # this; and equal regexes, however built or copied, are one node
    rng = random.Random(11)
    for seed in range(300):
        alphabet = Alphabet(tuple("abcd"[: 1 + seed % 4]))
        r = random_regex(rng, alphabet, 1 + seed % 6)
        assert parse_regex(format_regex(r), alphabet) is r and rebuild(r) is r
        assert copy.copy(r) is r and copy.deepcopy(r) is r and pickle.loads(pickle.dumps(r)) is r


def test_equal_regexes_are_one_node():
    assert cat(sym("a"), star(sym("b"))) is parse_regex("ab*", AB) is Cat(Sym("a"), Star(Sym("b")))
    assert union([sym("b"), sym("a")]) is Union((sym("a"), sym("b")))


def test_nodes_live_only_as_long_as_their_users():
    gc.collect()
    before = len(languages._NODES)
    r = parse_regex("!(a*b)&(ab|ba)*|(a|b)*abba", AB)
    d = derivative_automaton(r, AB)  # its states' names are nodes built here
    assert len(languages._NODES) >= before + d.state_count
    del r, d
    gc.collect()
    assert len(languages._NODES) == before


def test_keys_order_union_parts_by_tag_then_children():
    a, b = sym("a"), sym("b")
    parts = [star(b), cat(b, a), sym("b"), cat(a, b), union([a, b]), a, compl(a)]
    assert union(parts).parts == (cat(a, b), cat(b, a), compl(a), star(b), a, b)
    assert cat(a, b) < cat(b, a) < compl(a) < star(b) < sym("a") < sym("b")
    assert not cat(a, b) < cat(a, b)
    assert cat(a, b) == cat(sym("a"), sym("b")) and hash(cat(a, b)) == hash(cat(sym("a"), sym("b")))
    assert cat(a, b) != cat(b, a) and star(a) != compl(a)


def test_nullable():
    a = sym("a")
    assert EPS.nullable and star(a).nullable and not a.nullable and not EMPTY.nullable
    assert cat(star(a), star(a)).nullable
    assert not cat(a, star(a)).nullable
    assert compl(a).nullable and not compl(EPS).nullable
    assert inter(EPS, star(a)).nullable


def test_derivative_against_membership():
    r = parse_regex("(ab)*", AB)
    assert regex_matches(r, "abab")
    assert not regex_matches(r, "aba")
    d = derivative(r, "a")
    assert regex_matches(d, "b") and regex_matches(d, "bab") and not regex_matches(d, "")


def test_regex_matches_on_random_instances():
    rng = random.Random(99)
    for _ in range(60):
        r = random_regex(rng, AB, depth=3)
        oa = derivative_automaton(r, AB)
        for w in words_up_to(AB, 4):
            assert regex_matches(r, w) == accepts(oa, w)


@pytest.mark.parametrize(
    "text, names",
    [
        (
            "(a|b)*a(a|b)|b*",
            ["(a|b)*a(a|b)|b*", "((a|b)*a|_)(a|b)", "((a|b)*a|_)(a|b)|_", "(a|b)*a(a|b)|_", "(a|b)*a(a|b)"],
        ),
        (
            "!(a*b)&(ab|ba)*",
            [
                "!(a*b)&(ab|ba)*", "!(a*b)&b(ab|ba)*", "!_&a(ab|ba)*", "#",
                "!_&(ab|ba)*", "(ab|ba)*", "b(ab|ba)*", "a(ab|ba)*",
            ],
        ),
        (
            "(!a|b)*&a*b",
            ["(!a|b)*&a*b", "!_(!a|b)*&a*b", "_", "a*b", "#"],
        ),
    ],
)
def test_derivative_automaton_names_are_the_printed_states(text, names):
    # the states, their numbering and their printed regexes, as pinned
    oa = derivative_automaton(parse_regex(text, AB), AB)
    assert [oa.sa.state_name(q) for q in range(oa.state_count)] == names
    assert all(parse_regex(name, AB) == oa.sa.names[q] for q, name in enumerate(names))


def agrees_with_the_word_set_oracle(r, alphabet):
    """The canonical automaton accepts exactly the oracle's words up to length
    5, and each derivative state's name exactly that state's future words up
    to length 4."""
    assert set(enumerate_words(canonical_ordered_automaton(r, alphabet), 5)) == regex_languages([r], alphabet, 5)[0]
    d = derivative_automaton(r, alphabet)
    names = regex_languages(d.sa.names, alphabet, 4)
    for q in range(d.state_count):
        assert set(enumerate_words(OrderedAutomaton(d.osa, q, d.finals), 4)) == names[q], (r, d.sa.names[q])


def test_regex_layer_agrees_with_the_word_set_oracle():
    rng = random.Random(31)
    seen = set()
    for _ in range(2000):
        alphabet = Alphabet(tuple("abcd"[: rng.randint(1, 4)]))
        r = random_regex(rng, alphabet, rng.randint(1, 6))
        seen.update(format_regex(r))
        agrees_with_the_word_set_oracle(r, alphabet)
    assert set("!&#_") <= seen


@pytest.mark.parametrize("text", ["!(a*b)&(ab|ba)*", "(!a|b)*&a*b"])
def test_repinned_derivative_names_agree_with_the_word_set_oracle(text):
    agrees_with_the_word_set_oracle(parse_regex(text, AB), AB)


def test_parse_precedence():
    a, b, c = sym("a"), sym("b"), sym("c")
    assert parse_regex("ab|c", ABC) == union([cat(a, b), c])
    # intersection binds tighter than union, looser than concatenation
    assert parse_regex("a|b&c", ABC) == union([a, inter(b, c)])
    assert parse_regex("ab&c", ABC) == inter(cat(a, b), c)
    # complement binds tightest, so the star applies to the complemented atom
    assert parse_regex("!a*", ABC) == star(compl(a))
    assert parse_regex("!(a*)", ABC) == compl(star(a))
    assert parse_regex("a**", ABC) == star(star(a))
    assert parse_regex("#", ABC) is EMPTY
    assert parse_regex("_", ABC) is EPS
    assert parse_regex("_b", ABC) == b


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_regex("(a", AB)
    with pytest.raises(ParseError):
        parse_regex("a)", AB)
    with pytest.raises(ParseError):
        parse_regex("", AB)
    with pytest.raises(ParseError):
        parse_regex("|a", AB)
    with pytest.raises(AlphabetError):
        parse_regex("axb", AB)


DEEP = "regex nested deeper than the limit of 100 levels"
# each malformed regex, over the alphabet "ab", with its exception type and
# exact message: whitespace before the fault, unprintable and unknown
# symbols, and a depth fault at each construct
MALFORMED_REGEXES = [
    ("", ParseError, "unexpected end of expression (column 0)"),
    ("   ", ParseError, "unexpected end of expression (column 3)"),
    ("( a", ParseError, "missing ')' (column 3)"),
    ("((a)", ParseError, "missing ')' (column 4)"),
    ("a)", ParseError, "unexpected ')' (column 1)"),
    (" \t a )", ParseError, "unexpected ')' (column 5)"),
    ("a b\t)", ParseError, "unexpected ')' (column 4)"),
    ("a\x1cb)", ParseError, "unexpected ')' (column 3)"),
    ("|a", ParseError, "unexpected '|' (column 0)"),
    ("&a", ParseError, "unexpected '&' (column 0)"),
    ("*a", ParseError, "unexpected '*' (column 0)"),
    ("a|*", ParseError, "unexpected '*' (column 2)"),
    ("()", ParseError, "unexpected ')' (column 1)"),
    ("!)", ParseError, "unexpected ')' (column 1)"),
    ("a|", ParseError, "unexpected end of expression (column 2)"),
    ("a&", ParseError, "unexpected end of expression (column 2)"),
    ("!", ParseError, "unexpected end of expression (column 1)"),
    ("ab|(a&", ParseError, "unexpected end of expression (column 6)"),
    ("a\x00b", ParseError, "unprintable character at 1 (column 1)"),
    ("  \x00", ParseError, "unprintable character at 2 (column 2)"),
    ("axb", AlphabetError, "symbol 'x' at column 1 not in alphabet 'ab'"),
    (" a  c", AlphabetError, "symbol 'c' at column 4 not in alphabet 'ab'"),
    ("é", AlphabetError, "symbol 'é' at column 0 not in alphabet 'ab'"),
    ("²", AlphabetError, "symbol '²' at column 0 not in alphabet 'ab'"),
    ("a" * 100 + " | b", ParseError, f"{DEEP} (column 104)"),
    ("a" * 100 + " & b", ParseError, f"{DEEP} (column 104)"),
    ("a" * 101, ParseError, f"{DEEP} (column 101)"),
    ("a" + " *" * 101, ParseError, f"{DEEP} (column 201)"),
    ("a" + "\t*" * 100, ParseError, f"{DEEP} (column 201)"),
    ("a" + "*" * 100, ParseError, f"{DEEP} (column 101)"),
    ("!" * 101 + " a", ParseError, f"{DEEP} (column 101)"),
    ("!" * 100 + "a", ParseError, f"{DEEP} (column 101)"),
    ("!" + "a" * 100 + " ", ParseError, f"{DEEP} (column 102)"),
    (" (" * 101 + "a", ParseError, f"{DEEP} (column 202)"),
    ("(" + "a" * 100 + " )", ParseError, f"{DEEP} (column 103)"),
    ("(" * 100 + "a" + ")" * 100, ParseError, f"{DEEP} (column 201)"),
]


@pytest.mark.parametrize("text, error, message", MALFORMED_REGEXES, ids=map(str, range(len(MALFORMED_REGEXES))))
def test_parse_errors_name_the_fault_and_its_column(text, error, message):
    with pytest.raises(error) as caught:
        parse_regex(text, AB)
    assert type(caught.value) is error and str(caught.value) == message


def test_format_parse_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        r = random_regex(rng, AB, depth=4)
        assert parse_regex(format_regex(r), AB) == r


def test_word_and_finite_language_regexes():
    assert word_regex("") is EPS
    r = finite_language_regex(["ab", "ba"])
    for w in words_up_to(AB, 3):
        assert regex_matches(r, w) == (w in ("ab", "ba"))
    assert finite_language_regex([]) is EMPTY


@given(
    st.lists(st.text(alphabet="ab", max_size=5), max_size=6),
    st.text(alphabet="ab", max_size=5),
)
def test_finite_language_regex_membership(words, probe):
    assert regex_matches(finite_language_regex(words), probe) == (probe in words)


def test_derivative_automaton_shape():
    r = parse_regex("(a|b)*a(a|b)*", AB)
    oa = derivative_automaton(r, AB)
    assert oa.order == StateOrder.discrete(oa.state_count)
    assert language(oa, 4) == language(contains_a(), 4)
    with pytest.raises(ResourceError):
        derivative_automaton(parse_regex("(a|b)*a(a|b)(a|b)", AB), AB, cap=2)


def test_canonical_of_fixture_regexes():
    pairs = [
        ("(a|b)*a(a|b)*", contains_a()),
        ("(ab)*", ab_star()),
        ("ab|ba", finite_two_words()),
    ]
    for text, fx in pairs:
        c = canonical_ordered_automaton(parse_regex(text, AB), AB)
        assert isomorphic(c, fx)
    c = canonical_ordered_automaton(parse_regex("(aa)*", Alphabet(("a",))), Alphabet(("a",)))
    assert isomorphic(c, even_a())


def test_canonical_agrees_with_double_reversal():
    rng = random.Random(17)
    for _ in range(500):
        r = random_regex(rng, ABC, depth=4)
        oa = derivative_automaton(r, ABC)
        assert isomorphic(canonical_ordered_automaton(r, ABC), brzozowski_minimize(oa))


def test_double_reversal_on_random_automata():
    rng = random.Random(19)
    for _ in range(150):
        oa = random_automaton(rng, 5, AB, ordered=rng.random() < 0.5)
        b = brzozowski_minimize(oa)
        m = minimize_ordered(oa)
        assert isomorphic(b, m)


def test_subset_construction_orders_by_inclusion():
    rng = random.Random(23)
    for _ in range(200):
        det = reverse_subsets(random_automaton(rng, 6, AB))

        def subset_of(i):
            body = det.sa.state_name(i).strip("{}")
            return frozenset(int(x) for x in body.split(",")) if body else frozenset()

        for p in range(det.state_count):
            for q in range(det.state_count):
                assert det.order.leq(p, q) == (subset_of(p) <= subset_of(q))


def test_subset_construction_cap():
    oa = contains_a()  # subsets {1} and {0,1}
    assert reverse_subsets(oa, cap=2).state_count == 2
    with pytest.raises(ResourceError, match="subset construction exceeded 1 states"):
        reverse_subsets(oa, cap=1)
    with pytest.raises(ResourceError, match="subset construction exceeded 1 states"):
        brzozowski_minimize(contains_a(), cap=1)


def test_language_inclusion():
    holds, cex = language_inclusion(contains_a(), parse_and_build("(a|b)*"))
    assert holds and cex is None
    holds, cex = language_inclusion(ab_star(), contains_a())
    assert not holds
    assert cex == ""  # the empty word separates them, and shortest wins
    holds, cex = language_inclusion(finite_two_words(), ab_star())
    assert not holds and cex == "ba"
    with pytest.raises(AlphabetError):
        language_inclusion(contains_a(), even_a())


def parse_and_build(text):
    return derivative_automaton(parse_regex(text, AB), AB)


def test_enumerate_words_is_length_lex():
    words = enumerate_words(contains_a(), 2)
    assert words == ["a", "aa", "ab", "ba"]
    assert enumerate_words(finite_two_words(), 4) == ["ab", "ba"]


def test_to_regex_round_trips_the_language():
    rng = random.Random(71)
    for fx in (contains_a(), ab_star(), even_a(), finite_two_words()):
        r = to_regex(fx)
        back = canonical_ordered_automaton(r, fx.alphabet)
        assert isomorphic(back, minimize_ordered(fx))
        # the printed form parses back to the same language
        reparsed = parse_regex(format_regex(r), fx.alphabet)
        assert isomorphic(canonical_ordered_automaton(reparsed, fx.alphabet), minimize_ordered(fx))
    for _ in range(100):
        oa = random_automaton(rng, 5, AB)
        back = canonical_ordered_automaton(to_regex(oa), AB)
        assert isomorphic(back, minimize_ordered(oa))


def test_alphabet_arguments_coerce():
    # the language-layer entry points take an Alphabet, a string, or a tuple
    for letters in (AB, "ab", ("a", "b")):
        r = parse_regex("(ab)*", letters)
        oa = canonical_ordered_automaton(r, letters)
        assert oa.alphabet == AB
        assert isomorphic(oa, minimize_ordered(ab_star()))
    with pytest.raises(AlphabetError):
        parse_regex("a", "aa")  # duplicate symbols stay rejected
