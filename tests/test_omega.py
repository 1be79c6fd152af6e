"""Omega-term queries: parsing, substitution categories, the decision procedure."""

import itertools
import random
import time

import pytest

from orda import monoid, omega
from orda.core import Alphabet, OrderedSemiautomaton, Semiautomaton, StateOrder, layer_word, step
from orda.errors import ParseError, ResourceError
from orda.generate import random_automaton, random_compatible_order, random_minimal_automaton, random_semiautomaton
from orda.monoid import LetterActions, build as build_monoid, omega_power
from orda.omega import (
    CATEGORIES,
    Concat,
    OmegaPower,
    OmegaQuery,
    Substitution,
    UNIT,
    Var,
    check,
    check_identity_catalog,
    counterexample_words,
    format_query,
    format_term,
    length_set,
    letter_actions,
    nonempty_realizable,
    parse_query,
    term_variables,
    valid_substitutions,
)

from fixtures import AB, ab_star, contains_a, element_of_word, even_a
from oracles import (
    _action,
    _read_query,
    aperiodic_brute,
    check_brute,
    j_trivial_brute,
    lm_substitutions_brute,
    r_trivial_brute,
    transformations,
    words_up_to,
)


def all_names(q: OmegaQuery) -> tuple:
    return tuple(sorted(term_variables(q.left) | term_variables(q.right)))


def row_tuples(outer: tuple, last) -> list[tuple]:
    """The element tuples of a row (outer, last, spell) of valid_substitutions."""
    return [outer] if last is None else [(*outer, e) for e in last]


def substitutions(tm, names, category, alphabet) -> list[Substitution]:
    """Every substitution of valid_substitutions, row by row and tuple by tuple."""
    return [
        Substitution(names, elements, spell(elements))
        for outer, last, spell in valid_substitutions(tm, names, category, alphabet)
        for elements in row_tuples(outer, last)
    ]


def test_parse_query_shapes():
    q = parse_query("x^w x == x^w @all")
    assert q.relation == "==" and q.category == "all"
    assert q.left == Concat((OmegaPower(Var("x")), Var("x")))
    assert q.right == OmegaPower(Var("x"))

    q = parse_query("(x y)^w x <= x y @ne")
    assert q.left == Concat((OmegaPower(Concat((Var("x"), Var("y")))), Var("x")))
    assert q.category == "ne"

    # maximal munch: xy is one variable, x y is two
    q = parse_query("x y == xy @all")
    assert q.left == Concat((Var("x"), Var("y")))
    assert q.right == Var("xy")
    assert all_names(q) == ("x", "xy", "y")

    q = parse_query("1 <= x @lp")
    assert q.left is UNIT
    assert parse_query("x^w^w == x^w @all").left == OmegaPower(OmegaPower(Var("x")))


def test_parse_query_errors():
    for text in (
        "x <= @all",
        "(x y == x @all",
        "x ^v == x @all",
        "x = x @all",
        "x == x",
        "x == x @nope",
        "x == x @all junk",
        "x << x @all",
    ):
        with pytest.raises(ParseError):
            parse_query(text)
    with pytest.raises(ParseError) as err:
        parse_query("x == x @nope")
    assert "column" in str(err.value)


DEEP = "query nested deeper than the limit of 100 levels"
# each malformed query with its exact message: whitespace before the fault,
# the faults of the tokens of more than one character (`^w`, `<=`, `==`,
# `@` and its category), and a depth fault at each construct
MALFORMED_QUERIES = [
    ("", "unexpected end of query (column 0)"),
    ("   ", "unexpected end of query (column 3)"),
    ("x ==", "unexpected end of query (column 4)"),
    ("1 1 <=", "unexpected end of query (column 6)"),
    ("x", "expected '<=' or '==' (column 1)"),
    ("x != x @all", "expected '<=' or '==' (column 2)"),
    ("x) == x @all", "expected '<=' or '==' (column 1)"),
    ("x\x00 == x @all", "expected '<=' or '==' (column 1)"),
    ("x < = x @all", "expected '<=' (column 2)"),
    ("x < x @all", "expected '<=' (column 2)"),
    ("x = x @all", "expected '==' (column 2)"),
    ("x ^ w == x @all", "expected 'w' after '^' (column 3)"),
    ("x^ == x @all", "expected 'w' after '^' (column 2)"),
    ("x^v == x @all", "expected 'w' after '^' (column 2)"),
    ("x^", "expected 'w' after '^' (column 2)"),
    ("x == x", "expected '@' category suffix (column 6)"),
    ("x == x @", "unknown category '' (column 8)"),
    ("x == x @ all", "unknown category '' (column 8)"),
    ("x == x @@all", "unknown category '' (column 8)"),
    ("x == x @nope", "unknown category 'nope' (column 8)"),
    ("x == x @ALL", "unknown category 'ALL' (column 8)"),
    ("x == x @all y", "unexpected 'y' (column 12)"),
    ("x <= y\t@lm z", "unexpected 'z' (column 11)"),
    ("x == x @all\x00", "unexpected '\\x00' (column 11)"),
    ("( x == x @all", "missing ')' (column 4)"),
    ("2 == x @all", "unexpected '2' (column 0)"),
    ("== x @all", "unexpected '=' (column 0)"),
    ("x == _ @all", "unexpected '_' (column 5)"),
    ("é == ² @all", "unexpected '²' (column 5)"),
    ("(" * 99 + "x" + ")" * 99 + " y == x @all", f"{DEEP} (column 202)"),
    ("x == " + "(" * 99 + "y" + ")" * 99 + " 1 @all", f"{DEEP} (column 207)"),
    ("(" * 99 + "x" + ")" * 99 + " ^w == x @all", f"{DEEP} (column 202)"),
    ("(" * 99 + "x" + ")" * 99 + "^w == x @all", f"{DEEP} (column 201)"),
    ("x" + " ^w" * 100 + " <= x @all", f"{DEEP} (column 301)"),
    ("(" * 100 + "x" + ")" * 100 + " == x @all", f"{DEEP} (column 201)"),
    (" (" * 101 + "x", f"{DEEP} (column 202)"),
]


@pytest.mark.parametrize("text, message", MALFORMED_QUERIES, ids=map(str, range(len(MALFORMED_QUERIES))))
def test_parse_query_errors_name_the_fault_and_its_column(text, message):
    with pytest.raises(ParseError) as caught:
        parse_query(text)
    assert type(caught.value) is ParseError and str(caught.value) == message


def test_format_round_trip():
    for text in (
        "x^w x == x^w @all",
        "(x y)^w x <= (x y)^w @ne",
        "1 <= x @surj",
        "y (x y)^w == (x y)^w @lm",
        "x (y z)^w y <= 1 @lp",
    ):
        q = parse_query(text)
        assert parse_query(format_query(q)) == q
    assert format_term(OmegaPower(UNIT)) == "1^w"
    assert format_query(parse_query("  x^w   x ==x^w@all")) == "x^w x == x^w @all"


def test_counterexample_words_act_as_the_terms():
    rng = random.Random(61)
    queries = [
        parse_query(t)
        for t in (
            "x^w x == x^w @all",
            "(x y)^w x == (x y)^w @all",
            "y (x y)^w == (x y)^w @all",
            "x y x^w <= y^w @all",
            "1^w <= 1 (x 1)^w (y x)^w y @all",
        )
    ]
    for _ in range(25):
        sa = random_semiautomaton(rng, 4, AB)
        osa = OrderedSemiautomaton(sa, StateOrder.discrete(sa.state_count))
        tm = build_monoid(osa)
        states = range(sa.state_count)
        for q in queries:
            left, _, right, _ = _read_query(format_query(q))
            names = all_names(q)
            for s in substitutions(tm, names, "all", AB):
                values = {x: tuple(step(sa, p, w) for p in states) for x, w in zip(names, s.witnesses)}
                for word, term in zip(counterexample_words(tm, q, s), (left, right)):
                    assert tuple(step(sa, p, word) for p in states) == _action(term, values, tuple(states))


def test_substitution_category_sizes():
    tm = build_monoid(contains_a().osa)
    assert len(tm) == 2
    names = ("x", "y")
    assert len(substitutions(tm, names, "all", AB)) == 4
    assert len(substitutions(tm, names, "ne", AB)) == 4
    assert len(substitutions(tm, names, "lp", AB)) == 4
    surj = substitutions(tm, names, "surj", AB)
    assert len(surj) == 2
    assert {s.witnesses for s in surj} == {("a", "b"), ("b", "a")}
    # b acts as the identity, so every element tuple has a common word length
    assert len(substitutions(tm, names, "lm", AB)) == 4
    # fewer variables than letters: no surjection can exist
    assert list(valid_substitutions(tm, ("x",), "surj", AB)) == []


def test_valid_substitutions_come_in_rows():
    # one row per choice of the outer variables, over the last variable's
    # domain; one variable in rows of 1, 2, 4, ...; no variable, one empty tuple
    tm = build_monoid(contains_a().osa)
    rows = [(outer, last) for outer, last, _ in valid_substitutions(tm, ("x", "y"), "all", AB)]
    assert rows == [((0,), range(2)), ((1,), range(2))]
    assert rows[0][1] is rows[1][1]  # one domain object, so a caller can keep what it derives from it
    assert [(outer, last) for outer, last, _ in valid_substitutions(tm, (), "all", AB)] == [((), None)]
    assert row_tuples((), None) == [()] and row_tuples((1,), [0, 1]) == [(1, 0), (1, 1)]
    osa = _catalan_on_four_points()
    rows = [(outer, last) for outer, last, _ in valid_substitutions(build_monoid(osa), ("x",), "all", osa.alphabet)]
    assert rows == [((), range(0, 1)), ((), range(1, 3)), ((), range(3, 7)), ((), range(7, 14))]
    # lm leaves out the outer choices whose row would be empty: on even_a the
    # swap needs an odd length and the identity an even one
    swap_tm = build_monoid(even_a().osa)
    swap, one = swap_tm.generators["a"], swap_tm.identity
    rows = [(outer, last) for outer, last, _ in valid_substitutions(swap_tm, ("x", "y"), "lm", Alphabet(("a",)))]
    assert rows == [((one,), [one]), ((swap,), [swap])]


def test_lp_runs_over_distinct_letter_actions():
    # a and b both swap two states: lp has one element tuple, spelled by the
    # first letter in alphabet order, while surj still pins each letter
    for letters in (("a", "b"), ("b", "a")):
        alphabet = Alphabet(letters)
        osa = OrderedSemiautomaton(Semiautomaton(alphabet, ((1, 1), (0, 0))), StateOrder.discrete(2))
        tm = build_monoid(osa)
        swap = tm.generators["a"]
        assert tm.generators["b"] == swap
        names = ("x", "y")
        subs = substitutions(tm, names, "lp", alphabet)
        assert [s.elements for s in subs] == [(swap, swap)]
        first = letters[0]
        assert subs[0].witnesses == (first, first)
        for text, words in (("x y == x @lp", (first, first)), ("x y == x @surj", letters)):
            s, p = check(osa, parse_query(text)).witness
            assert (s.witnesses, p) == (words, 0)
            assert check_brute(osa, text).witness == (names, (swap, swap), words, 0)


def test_nonempty_realizable():
    tm = build_monoid(even_a().osa)
    semi = nonempty_realizable(tm)
    swap = tm.generators["a"]
    assert semi[swap] == "a"
    assert semi[tm.identity] == "aa"  # identity needs a nonempty realization here
    tm2 = build_monoid(contains_a().osa)
    assert nonempty_realizable(tm2)[tm2.identity] == "b"



def test_nonempty_realizable_matches_the_least_nonempty_words():
    # each element a non-empty word acts as gets its least such word, letters
    # sorted, found by trying the words in length-lex order; the identity is
    # among them only when some non-empty word acts as it
    rng = random.Random(71)
    with_identity = 0
    for i in range(150):
        alphabet = (AB, Alphabet(("b", "a")), Alphabet(("c", "a", "b")))[i % 3]
        tm = build_monoid(random_minimal_automaton(rng, 3, alphabet).osa)
        if len(tm) > 6:
            continue
        least: dict[int, str] = {}
        for w in words_up_to(Alphabet(tuple(sorted(alphabet.symbols))), len(tm))[1:]:
            least.setdefault(element_of_word(tm, w), w)
        assert nonempty_realizable(tm) == least
        with_identity += tm.identity in least
    assert with_identity >= 10

def test_lm_substitutions_share_a_length():
    tm = build_monoid(even_a().osa)
    one = Alphabet(("a",))
    names = ("x", "y")
    subs = substitutions(tm, names, "lm", one)
    for s in subs:
        lengths = {len(w) for w in s.witnesses}
        assert len(lengths) == 1 and lengths.pop() >= 1
        for w, e in zip(s.witnesses, s.elements):
            assert element_of_word(tm, w) == e
    # swap and identity need an odd and an even length: never simultaneous
    swap = tm.generators["a"]
    assert all({s.elements[0], s.elements[1]} != {swap, tm.identity} for s in subs)
    assert len(subs) == 2


def _length_cases(seed: int):
    rng = random.Random(seed)
    cases = [even_a().osa, contains_a().osa, ab_star().osa]
    cases += [
        OrderedSemiautomaton(sa, StateOrder.discrete(sa.state_count))
        for sa in (random_semiautomaton(rng, 3, AB) for _ in range(20))
    ]
    return cases


def test_length_set_matches_enumeration():
    for osa in _length_cases(67):
        tm = build_monoid(osa)
        by_length = [{tm.identity}]
        for _ in range(20):
            by_length.append(
                {tm.compose(e, g) for e in by_length[-1] for g in tm.generators.values()}
            )
        layers = length_set(tm)
        last = len(layers) - 1
        sets = [frozenset(layer) for layer in layers]
        # a lasso: the last layer repeats exactly one earlier layer, at mu
        assert len(set(sets[:last])) == last and sets[last] in sets[:last]
        mu = sets.index(sets[last])
        for k in range(21):
            layer = k if k <= last else mu + (k - mu) % (last - mu)
            for m in range(len(tm)):
                assert (m in layers[layer]) == (m in by_length[k]), (m, k)


def test_length_set_refuses_a_lasso_past_its_cap(monkeypatch):
    tm = build_monoid(contains_a().osa)  # layers {1}, {1, a}, {1, a}
    assert len(length_set(tm)) == 3
    monkeypatch.setattr(omega, "LENGTH_SET_CAP", 1)
    with pytest.raises(ResourceError, match="length-set lasso exceeded 1 subsets"):
        length_set(tm)


def test_word_of_length():
    tm = build_monoid(contains_a().osa)
    layers = length_set(tm)
    allword = tm.generators["a"]
    assert len(layers) == 3  # {1}, then {1, a} twice: the window is lengths 0..2
    assert layer_word(layers, allword, 2) == "aa"
    assert layer_word(layers, tm.identity, 2) == "bb"
    swap_tm = build_monoid(even_a().osa)
    assert swap_tm.generators["a"] not in length_set(swap_tm)[2]  # the swap needs an odd length
    # every length in the window: the least word of that length, by brute force
    for osa in _length_cases(71):
        tm = build_monoid(osa)
        layers = length_set(tm)
        for k in range(len(layers)):
            least: dict[int, str] = {}
            for letters in itertools.product(sorted(osa.alphabet.symbols), repeat=k):
                least.setdefault(element_of_word(tm, "".join(letters)), "".join(letters))
            assert set(layers[k]) == set(least)
            for m, w in least.items():
                assert layer_word(layers, m, k) == w, (m, k)


def test_lm_substitutions_match_word_enumeration():
    rng = random.Random(83)
    abc = Alphabet(("a", "b", "c"))
    ba = Alphabet(("b", "a"))
    monoids = 0
    while monoids < 300:
        alphabet = (AB, abc, ba)[monoids % 3]
        sa = random_semiautomaton(rng, 2 if alphabet is abc else 3, alphabet)
        tm = build_monoid(OrderedSemiautomaton(sa, StateOrder.discrete(sa.state_count)))
        if len(tm) == 1:
            continue
        monoids += 1
        for names in (("x",), ("x", "y")):
            got = [(s.elements, s.witnesses) for s in substitutions(tm, names, "lm", alphabet)]
            assert got == lm_substitutions_brute(sa, len(names))


def test_check_matches_brute_force_witnesses():
    # verdict, vacuity and the whole witness (names, elements, words, state)
    # against plain enumeration, for every category and a template catalog
    rng = random.Random(89)
    abc = Alphabet(("a", "b", "c"))
    ba = Alphabet(("b", "a"))
    templates = (
        "x^w x == x^w",
        "(x y)^w x == (x y)^w",
        "y (x y)^w == (x y)^w",
        "x^w <= x^w x",
        "1 <= x",
        "x y <= y x",
        "x^w y^w == y^w x^w",
        "x y x <= x",
        "x == y",
        "1 == (x 1)^w",
        "x y z <= z y x",
        # first failures mid-row, after entries that differ but are below
        "x y == x",
        "x <= y",
        "y <= x y",
    )
    queries = [(t, len(all_names(parse_query(f"{t} @all")))) for t in templates]
    failures = mid_row = 0
    for i in range(100):
        alphabet = (AB, abc, ba)[i % 3]
        osa = random_automaton(rng, {AB: 3, abc: 2, ba: 4}[alphabet], alphabet, ordered=True).osa
        size = len(transformations(osa.sa))
        for t, arity in queries:
            if size**arity > 400:
                continue
            for cat in CATEGORIES:
                text = f"{t} @{cat}"
                got, want = check(osa, parse_query(text)), check_brute(osa, text)
                assert (got.holds, got.vacuous) == (want.holds, want.vacuous), text
                if not got.holds:
                    failures += 1
                    s, p = got.witness
                    assert (s.names, s.elements, s.witnesses, p) == want.witness, text
                    mid_row += cat == "all" and arity > 1 and s.elements[-1] > 0
    assert failures > 1000 and mid_row > 200


def test_lm_check_on_a_180_element_monoid_is_fast():
    rng = random.Random(5)
    abc = Alphabet(("a", "b", "c"))
    while True:
        osa = random_minimal_automaton(rng, 5, abc).osa
        if 150 <= len(build_monoid(osa)) <= 195:
            break
    assert len(build_monoid(osa)) == 180
    start = time.perf_counter()
    assert check(osa, parse_query("x y == x y @lm")).holds
    assert time.perf_counter() - start < 2.0


def test_check_finds_replayable_counterexamples():
    osa = even_a().osa
    v = check(osa, parse_query("x^w x == x^w @all"))
    assert not v.holds
    s, p = v.witness
    assert s.witnesses == ("a",) and p == 0
    tm = build_monoid(osa)
    lw, rw = counterexample_words(tm, parse_query("x^w x == x^w @all"), s)
    assert step(osa.sa, p, lw) != step(osa.sa, p, rw)

    v = check(contains_a().osa, parse_query("1 <= x @all"))
    assert v.holds and not v.vacuous

    v = check(ab_star().osa, parse_query("1 <= x @all"))
    assert not v.holds
    s, p = v.witness
    tm = build_monoid(ab_star().osa)
    lw, rw = counterexample_words(tm, parse_query("1 <= x @all"), s)
    assert not ab_star().order.leq(step(ab_star().sa, p, lw), step(ab_star().sa, p, rw))


def _counting_steps(monkeypatch):
    # a check runs its program once per row, and each product or omega power
    # it takes there is one call of omega's then (a value times a value),
    # _then (a value times a row: one map of its _then), products (a row times
    # a value or a row) or idempotents (the omega powers of a row); the
    # returned dict holds the running counts of those calls and of the rows
    counts = {"steps": 0, "rows": 0}

    def counting(f):
        def step(*args):
            counts["steps"] += 1
            return f(*args)

        return step

    for name in ("then", "_then", "products", "idempotents"):
        monkeypatch.setattr(omega, name, counting(getattr(omega, name)))
    rows = omega.valid_substitutions

    def counting_rows(*args):
        for row in rows(*args):
            counts["rows"] += 1
            yield row

    monkeypatch.setattr(omega, "valid_substitutions", counting_rows)
    return counts


def _catalan_on_four_points():
    maps = [[q + (q == i) for q in range(4)] for i in range(3)]
    sa = Semiautomaton(Alphabet(("a", "b", "c")), tuple(tuple(m[q] for m in maps) for q in range(4)))
    return OrderedSemiautomaton(sa, StateOrder.discrete(4))


def test_check_computes_a_shared_subterm_once(monkeypatch):
    # the 14-element Catalan monoid on 4 points is J-trivial, so all 14 rows
    # run, x fixed and y over the row; each takes the products x y and
    # (x y)^w x and the omega powers of x y once: (x y)^w is taken once per
    # row, not once per side
    osa = _catalan_on_four_points()
    counts = _counting_steps(monkeypatch)
    assert check(osa, parse_query("(x y)^w x == (x y)^w @all")).holds
    assert counts == {"steps": 3 * 14, "rows": 14}


def test_letter_check_computes_a_shared_subterm_once(monkeypatch):
    # the letter twin of the test above, on the same semiautomaton: the three
    # letters are distinct idempotents, so lp runs all 3 rows of 3 letters,
    # each with the products x y and (x y)^w x and the omega powers of x y
    # once; (x y)^w is taken once per row
    osa = _catalan_on_four_points()
    counts = _counting_steps(monkeypatch)
    monkeypatch.setattr(omega, "build", None)  # a letter check builds no monoid
    assert check(osa, parse_query("(x y)^w x == (x y)^w @lp")).holds
    assert counts == {"steps": 3 * 3, "rows": 3}


def _letter_catalog_cases(rng, count):
    """count ordered semiautomata of 1-6 states over 1-3 letters, where a letter
    may act as the identity or as an earlier letter does."""
    for _ in range(count):
        n, width = rng.randint(1, 6), rng.randint(1, 3)
        columns = []
        for _ in range(width):
            roll = rng.random()
            if roll < 0.2:
                columns.append(tuple(range(n)))
            elif roll < 0.4 and columns:
                columns.append(rng.choice(columns))
            else:
                columns.append(tuple(rng.randrange(n) for _ in range(n)))
        sa = Semiautomaton(Alphabet(tuple("abc"[:width])), tuple(zip(*columns)))
        yield OrderedSemiautomaton(sa, random_compatible_order(rng, sa))


def test_letter_checks_match_the_monoid(monkeypatch):
    # lp, and surj with no more variables than letters, run on LetterActions:
    # the verdict, the substitution and the counterexample words must be those
    # of the built monoid; surj with more variables than letters builds it
    templates = (
        "x^w x == x^w",
        "x^w <= x^w x",
        "1 <= x",
        "x y == y x",
        "x^w y x^w <= x^w",
        "(x y)^w x == (x y)^w",
        "x y z <= z y x",
        "(x y z)^w x == (x y z)^w",
    )
    catalog = [parse_query(f"{t} @{cat}") for t in templates for cat in ("lp", "surj")]
    builds = []
    monkeypatch.setattr(omega, "build", lambda osa, *cap: builds.append(osa) or build_monoid(osa, *cap))
    rng = random.Random(97)
    seen = {"identity letter": 0, "alike letters": 0, "fewer": 0, "equal": 0, "more": 0, "fails": 0}
    for osa in _letter_catalog_cases(rng, 500):
        tm = build_monoid(osa)
        seen["identity letter"] += tm.identity in tm.generators.values()
        seen["alike letters"] += len(set(tm.generators.values())) < len(osa.alphabet)
        for q in catalog:
            k, width = len(all_names(q)), len(osa.alphabet)
            letters = letter_actions(osa, q)
            assert (letters is None) == (q.category == "surj" and k > width), format_query(q)
            if letters is None and len(tm) ** (k - width) > 2000:
                continue
            seen["fewer" if k < width else "equal" if k == width else "more"] += q.category == "surj"
            builds.clear()
            got, want = check(osa, q), omega._check(osa, tm, q)
            assert len(builds) == (letters is None)
            assert (got.holds, got.vacuous, got.witness) == (want.holds, want.vacuous, want.witness), format_query(q)
            if not got.holds:
                seen["fails"] += 1
                s, _ = got.witness
                words = counterexample_words(tm, q, s)
                assert counterexample_words(letters or tm, q, s) == words
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("n", [256, 257])
def test_letter_checks_on_tuples_above_256_states(n):
    # above 256 states a transformation is a tuple, and a letter product an
    # itemgetter call: a shifts q to q + 1 mod n, b resets every state to 0
    sa = Semiautomaton(AB, tuple(((q + 1) % n, 0) for q in range(n)))
    osa = OrderedSemiautomaton(sa, StateOrder.discrete(n))
    letters, tm = LetterActions(sa), build_monoid(osa)
    assert [type(t) for t in letters.elements] == [bytes if n <= 256 else tuple] * 3
    assert letters.omega[letters.elements[1]] == (letters.elements[0], n)
    for text in ("x^w x == x^w @lp", "x y == y x @lp", "y x^w == y @surj", "x^w <= x^w y @surj"):
        q = parse_query(text)
        got, want = check(osa, q), omega._check(osa, tm, q)
        assert (got.holds, got.witness) == (want.holds, want.witness), text
        if not got.holds:
            s = got.witness[0]
            assert counterexample_words(letters, q, s) == counterexample_words(tm, q, s), text
    # a resets every state and b acts as 1: the letters' elements, 1 then 0,
    # are all of the monoid's, but not in index order
    sa = Semiautomaton(AB, tuple((0, q) for q in range(n)))
    osa = OrderedSemiautomaton(sa, StateOrder.discrete(n))
    tm = build_monoid(osa)
    assert [tm.generators[a] for a in "ab"] == [1, 0]
    for text in ("x y == x @lp", "y x <= y @lp"):
        got, want = check_brute(osa, text), omega._check(osa, tm, parse_query(text))
        s, p = want.witness
        assert (s.names, s.elements, s.witnesses, p) == got.witness, text


@pytest.mark.parametrize("n", [255, 257])
def test_checks_with_long_witnesses_on_a_cyclic_shift(n):
    # the cyclic group Z_n: element i is a^i, so witnesses run up to n - 1
    # letters; elements are bytes at 255 states and tuples at 257
    sa = Semiautomaton(Alphabet(("a",)), tuple(((q + 1) % n,) for q in range(n)))
    osa = OrderedSemiautomaton(sa, StateOrder.discrete(n))
    tm = build_monoid(osa)
    assert len(tm) == n and type(tm.elements[1]) is (bytes if n <= 256 else tuple)
    assert check(osa, parse_query("x y == y x @all")).holds
    for text in ("x^w x^w == x^w x @all", "1 <= x @all", "x y == x @all", "x y == y y @all", "y x y <= x y @all"):
        q = parse_query(text)
        got, want = check(osa, q), check_brute(osa, text)
        assert not got.holds and not want.holds, text
        s, p = got.witness
        assert (s.names, s.elements, s.witnesses, p) == want.witness, text
        lw, rw = counterexample_words(tm, q, s)
        # the order is discrete, so <= fails exactly where == does
        assert step(sa, p, lw) != step(sa, p, rw), text



def _replays(sa: Semiautomaton, tm, q: OmegaQuery, s: Substitution) -> bool:
    """Whether both words of counterexample_words act on sa as the query's
    sides do when each variable acts as its witness."""
    states = range(sa.state_count)
    left, _, right, _ = _read_query(format_query(q))
    values = {x: tuple(step(sa, p, w) for p in states) for x, w in zip(s.names, s.witnesses)}
    words = counterexample_words(tm, q, s)
    return all(tuple(step(sa, p, w) for p in states) == _action(t, values, tuple(states)) for w, t in zip(words, (left, right)))


REPLAYED = ("x^w x == x^w", "(x y)^w x == (x y)^w", "y (x y)^w == (x y)^w", "x y x^w <= y^w", "x^w y^w x^w == x")


def test_letter_counterexample_words_replay():
    # lp runs on the letters' transformations alone: the words spelled there
    # act as the terms, for every substitution, over alphabets in any order
    rng = random.Random(17)
    powers = 0
    for i in range(40):
        alphabet = (AB, Alphabet(("b", "a")), Alphabet(("c", "a", "b")))[i % 3]
        sa = random_semiautomaton(rng, 4, alphabet)
        letters = LetterActions(sa)
        for text in REPLAYED:
            q = parse_query(f"{text} @lp")
            for s in substitutions(letters, all_names(q), "lp", alphabet):
                assert _replays(sa, letters, q, s), (text, s)
                powers += any(letters.omega[letters.elements[e]][1] > 1 for e in s.elements)
    assert powers >= 100


def test_counterexample_words_replay_above_256_states():
    # 257 states that every letter fixes make every element a tuple; the
    # words still act as the terms, for every substitution of @all
    rng = random.Random(19)
    powers = 0
    for _ in range(6):
        sa = random_semiautomaton(rng, 3, AB)
        n = sa.state_count
        padded = Semiautomaton(AB, sa.delta + tuple((q, q) for q in range(n, n + 257)))
        tm = build_monoid(OrderedSemiautomaton(padded, StateOrder.discrete(n + 257)))
        assert type(tm.elements[0]) is tuple
        for text in REPLAYED:
            q = parse_query(f"{text} @all")
            if len(tm) ** len(all_names(q)) > 100:
                continue
            for s in substitutions(tm, all_names(q), "all", AB):
                assert _replays(padded, tm, q, s), (text, s)
                powers += any(tm.omega[tm.elements[e]][1] > 1 for e in s.elements)
    assert powers >= 20

def _cyclic_shift(n):
    sa = Semiautomaton(Alphabet(("a",)), tuple(((q + 1) % n,) for q in range(n)))
    return OrderedSemiautomaton(sa, StateOrder.discrete(n))


def test_failing_one_variable_query_reads_a_bounded_prefix(monkeypatch):
    # x^w x == x^w first fails at x = a, the second element: the rows of 1
    # and 2 elements hold it, and no later row is produced
    osa = _cyclic_shift(255)
    read = []
    rows = omega.valid_substitutions

    def recording(*args):
        for row in rows(*args):
            read.append(len(row[1]))
            yield row

    monkeypatch.setattr(omega, "valid_substitutions", recording)
    s, p = check(osa, parse_query("x^w x == x^w @all")).witness
    assert (s.elements, s.witnesses, p) == ((1,), ("a",), 0)
    assert read == [1, 2]


def test_tuple_products_build_a_getter_per_element_not_per_product(monkeypatch):
    # above 256 states a product is a gather of |Q| entries, and one getter
    # of it is built per left factor at most, not per product of the 257 * 257
    # tuples: on rows over every element the products of x with the list are
    # read off the Cayley graphs and build none, and x x builds one per row
    osa = _cyclic_shift(257)
    tm = build_monoid(osa)
    getters = [0]
    then_of = monoid._then

    def counting(t):
        getters[0] += 1
        return then_of(t)

    monkeypatch.setattr(monoid, "_then", counting)
    monkeypatch.setattr(omega, "_then", counting)
    for text in ("x y == y x @all", "x y x == x x y @all"):
        getters[0] = 0
        assert omega._check(osa, tm, parse_query(text)).holds
        assert getters[0] <= 2 * len(tm) + 2, text


def test_checks_above_256_states_match_the_packed_checks():
    # padding an ordered semiautomaton with 257 states that every letter fixes
    # keeps its monoid, numbering and witnesses, but makes every element a
    # tuple: verdicts and witnesses must be those of the packed check
    rng = random.Random(101)
    templates = (
        "x^w x == x^w", "(x y)^w x == (x y)^w", "y (x y)^w == (x y)^w", "x^w <= x^w x", "1 <= x",
        "x y <= y x", "x^w y^w == y^w x^w", "x y x <= x", "x y == x", "x <= y", "y <= x y", "x^w y x == x y x^w",
    )
    failures = 0
    for i in range(30):
        alphabet = (AB, Alphabet(("b", "a")))[i % 2]
        osa = random_automaton(rng, 3, alphabet, ordered=True).osa
        n = osa.state_count
        padded = OrderedSemiautomaton(
            Semiautomaton(alphabet, osa.sa.delta + tuple((q,) * len(alphabet) for q in range(n, n + 257))),
            StateOrder(osa.order.up + tuple(1 << q for q in range(n, n + 257))),
        )
        size = len(build_monoid(osa))
        for t in templates:
            if size ** len(all_names(parse_query(f"{t} @all"))) > 400:
                continue
            for cat in CATEGORIES:
                q = parse_query(f"{t} @{cat}")
                got, want = check(padded, q), check(osa, q)
                assert (got.holds, got.vacuous, got.witness) == (want.holds, want.vacuous, want.witness), format_query(q)
                failures += not got.holds
    assert failures > 200


def test_check_tells_equality_from_order():
    # on contains_a the identity lies strictly below a (0 <= 1), so == fails
    # where <= holds, at the first such substitution and its lowest state
    osa = contains_a().osa
    s, p = check(osa, parse_query("x == y @all")).witness
    assert s.witnesses == ("", "a") and p == 0
    s, p = check(osa, parse_query("x <= y @all")).witness
    assert s.witnesses == ("a", "") and p == 0
    assert check(osa, parse_query("x <= x y @all")).holds


def test_check_vacuous_category():
    v = check(contains_a().osa, parse_query("x == 1 @surj"))
    assert v.holds and v.vacuous
    # two variables suffice for two letters: no longer vacuous, and false
    v = check(contains_a().osa, parse_query("x == y @surj"))
    assert not v.holds and not v.vacuous


def test_categories_weaken_all():
    rng = random.Random(71)
    templates = (
        "x^w x == x^w",
        "(x y)^w x == (x y)^w",
        "1 <= x",
        "x y <= y x",
        "x^w <= x",
    )
    for _ in range(30):
        oa = random_automaton(rng, 4, AB, ordered=True)
        t = templates[rng.randrange(len(templates))]
        results = {
            cat: check(oa.osa, parse_query(f"{t} @{cat}")).holds for cat in CATEGORIES
        }
        if results["all"]:
            assert all(results.values())


def test_lm_against_bounded_enumeration():
    rng = random.Random(73)
    templates = ("x^w x == x^w", "x y == y x", "1 <= x", "x <= x y", "x^w == y^w")
    for _ in range(40):
        sa = random_semiautomaton(rng, 3, AB)
        oa = random_automaton(rng, 3, AB, ordered=True)
        osa = oa.osa
        tm = build_monoid(osa)
        q = parse_query(f"{templates[rng.randrange(len(templates))]} @lm")
        got = check(osa, q)

        by_length = [{tm.identity}]
        for _ in range(64):
            by_length.append(
                {tm.compose(e, g) for e in by_length[-1] for g in tm.generators.values()}
            )
        names = all_names(q)
        left, _, right, _ = _read_query(format_query(q))
        identity = tuple(range(osa.state_count))
        want = True
        none_admissible = True
        for combo in itertools.product(range(len(tm)), repeat=len(names)):
            if not any(all(e in by_length[k] for e in combo) for k in range(1, 65)):
                continue
            none_admissible = False
            values = {x: tm.elements[e] for x, e in zip(names, combo)}
            tl = _action(left, values, identity)
            tr = _action(right, values, identity)
            for p in range(osa.state_count):
                ok = osa.order.leq(tl[p], tr[p]) if q.relation == "<=" else tl[p] == tr[p]
                if not ok:
                    want = False
        assert got.holds == want
        if got.holds:
            assert got.vacuous == none_admissible


def test_identity_catalog_matches_monoid_oracles():
    rng = random.Random(79)
    for _ in range(60):
        sa = random_semiautomaton(rng, 4, AB)
        summary = check_identity_catalog(sa)
        elems = transformations(sa)
        assert summary.aperiodic.holds == aperiodic_brute(elems)
        assert summary.r_trivial.holds == r_trivial_brute(elems)
        assert summary.j_trivial.holds == j_trivial_brute(elems)
        if not summary.r_trivial.holds:
            assert summary.j_trivial == summary.r_trivial


def test_identity_catalog_builds_the_monoid_once(monkeypatch):
    builds = []
    monkeypatch.setattr(omega, "build", lambda osa, *cap: builds.append(osa) or build_monoid(osa, *cap))
    rng = random.Random(1)
    ran_j = 0
    for _ in range(40):
        summary = check_identity_catalog(random_minimal_automaton(rng, 6, AB).sa)
        ran_j += summary.r_trivial.holds  # the J-triviality query runs only then
        assert len(builds) == 1
        builds.clear()
    assert ran_j > 0


def test_identity_catalog_fixture_values():
    good = check_identity_catalog(contains_a().sa)
    assert good.aperiodic.holds and good.r_trivial.holds and good.j_trivial.holds
    bad = check_identity_catalog(even_a().sa)
    assert not bad.aperiodic.holds
    s, p = bad.aperiodic.witness
    assert s.witnesses == ("a",)
    assert not bad.r_trivial.holds and not bad.j_trivial.holds


def test_substitution_str_and_errors():
    s = Substitution(("x", "y"), (0, 1), ("", "ab"))
    assert str(s) == "x='', y='ab'"
