"""Omega-term queries: parsing, substitution categories, the decision procedure."""

import itertools
import random
import time

import pytest

from orda.core import Alphabet, OrderedSemiautomaton, Semiautomaton, StateOrder, layer_word, step
from orda.errors import ParseError
from orda.fixtures import AB, ab_star, contains_a, even_a
from orda.generate import random_automaton, random_minimal_automaton, random_semiautomaton
from orda.monoid import TransitionMonoid, build as build_monoid, element_of_word, omega_power
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
    nonempty_realizable,
    parse_query,
    spell_substitution,
    term_variables,
    valid_substitutions,
)

from oracles import (
    _action,
    _read_query,
    aperiodic_brute,
    check_brute,
    j_trivial_brute,
    lm_substitutions_brute,
    r_trivial_brute,
    transformations,
)


def all_names(q: OmegaQuery) -> tuple:
    return tuple(sorted(term_variables(q.left) | term_variables(q.right)))


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
            for elements, spell in valid_substitutions(tm, names, "all", AB):
                s = spell_substitution(names, elements, spell)
                values = {x: tuple(step(sa, p, w) for p in states) for x, w in zip(names, s.witnesses)}
                for word, term in zip(counterexample_words(tm, q, s), (left, right)):
                    assert tuple(step(sa, p, word) for p in states) == _action(term, values, tuple(states))


def test_substitution_category_sizes():
    tm = build_monoid(contains_a().osa)
    assert len(tm) == 2
    names = ("x", "y")
    assert sum(1 for _ in valid_substitutions(tm, names, "all", AB)) == 4
    assert sum(1 for _ in valid_substitutions(tm, names, "ne", AB)) == 4
    assert sum(1 for _ in valid_substitutions(tm, names, "lp", AB)) == 4
    surj = [spell_substitution(names, *pair) for pair in valid_substitutions(tm, names, "surj", AB)]
    assert len(surj) == 2
    assert {s.witnesses for s in surj} == {("a", "b"), ("b", "a")}
    # b acts as the identity, so every element tuple has a common word length
    assert sum(1 for _ in valid_substitutions(tm, names, "lm", AB)) == 4
    # fewer variables than letters: no surjection can exist
    assert list(valid_substitutions(tm, ("x",), "surj", AB)) == []


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
        pairs = list(valid_substitutions(tm, names, "lp", alphabet))
        assert [elements for elements, _ in pairs] == [(swap, swap)]
        first = letters[0]
        assert spell_substitution(names, *pairs[0]).witnesses == (first, first)
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


def test_lm_substitutions_share_a_length():
    tm = build_monoid(even_a().osa)
    one = Alphabet(("a",))
    names = ("x", "y")
    subs = [spell_substitution(names, *pair) for pair in valid_substitutions(tm, names, "lm", one)]
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
            got = []
            for elements, spell in valid_substitutions(tm, names, "lm", alphabet):
                s = spell_substitution(names, elements, spell)
                got.append((s.elements, s.witnesses))
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
    )
    queries = [(t, len(all_names(parse_query(f"{t} @all")))) for t in templates]
    failures = 0
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
    assert failures > 1000


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


def test_check_computes_a_shared_subterm_once(monkeypatch):
    # the 14-element Catalan monoid on 4 points is J-trivial, so all 196 tuples
    # run: one product x y and one product (x y)^w x each, plus the 7 products
    # that raise the distinct x y to their idempotent powers (an idempotent
    # x y takes none); (x y)^w is taken once
    maps = [[q + (q == i) for q in range(4)] for i in range(3)]
    sa = Semiautomaton(Alphabet(("a", "b", "c")), tuple(tuple(m[q] for m in maps) for q in range(4)))
    osa = OrderedSemiautomaton(sa, StateOrder.discrete(4))
    calls = 0
    compose = TransitionMonoid.compose

    def counting(tm, i, j):
        nonlocal calls
        calls += 1
        return compose(tm, i, j)

    monkeypatch.setattr(TransitionMonoid, "compose", counting)
    assert check(osa, parse_query("(x y)^w x == (x y)^w @all")).holds
    assert calls == 399


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
