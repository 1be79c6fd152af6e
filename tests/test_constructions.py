"""Algebra of ordered semiautomata: products, unions, renamings, quotients."""

import itertools
import random
import time

import pytest

from orda.constructions import (
    LetterSubstitution,
    SemiautomatonHom,
    _upward_closed_sets,
    check_homomorphism,
    disjoint_union,
    f_rename,
    format_substitution,
    generated,
    parse_substitution,
    product,
    product_intersection,
    product_union,
    quotient_by_precongruence,
    recognized_languages,
    reconstruction_product_embedding,
    reconstruction_union_cover,
    subsemiautomaton,
    trivial,
    union_via_product_embedding,
)
from orda.core import (
    Alphabet,
    OrderedAutomaton,
    OrderedSemiautomaton,
    Semiautomaton,
    StateOrder,
    accepts,
    reachable_states,
    step,
    validate,
)
from orda.errors import AlphabetError, CompatibilityError, OrdaError, ParseError, ResourceError
from orda.generate import random_automaton
from orda.minimize import isomorphic, minimize_ordered, minimize_with_map, preorder, reachable_part
from orda.languages import derivative_automaton, enumerate_words, parse_regex

from fixtures import (
    ab_star,
    apply_substitution,
    contains_a,
    even_a,
    finite_two_words,
    order_from_leq,
    substitution_from_map,
)
from oracles import language, precongruence_errors, words_up_to

AB = Alphabet(("a", "b"))
XY = Alphabet(("x", "y"))


def test_letter_substitution_basics():
    f = substitution_from_map(XY, AB, {"x": "ab", "y": ""})
    assert f.word("x") == "ab" and f.word("y") == ""
    assert apply_substitution(f, "xyx") == "abab"
    with pytest.raises(AlphabetError):
        substitution_from_map(XY, AB, {"x": "ab"})
    with pytest.raises(AlphabetError):
        LetterSubstitution(XY, AB, ("az", ""))


def test_parse_substitution():
    f = parse_substitution("# renaming\nx -> aab\ny -> _\n")
    assert f.source.symbols == ("x", "y")
    assert f.images == ("aab", "")
    assert f.target.symbols == ("a", "b")
    g = parse_substitution("x -> a", target=AB)
    assert g.target is AB
    assert parse_substitution(format_substitution(f)).images == f.images
    with pytest.raises(ParseError, match="line 2"):
        parse_substitution("x -> a\nx -> b")
    with pytest.raises(ParseError):
        parse_substitution("x = a")
    with pytest.raises(ParseError):
        parse_substitution("   \n# nothing\n")
    with pytest.raises(ParseError):
        parse_substitution("x -> _")


def test_f_rename_recognizes_preimages():
    f = parse_substitution("x -> ab\ny -> b\nz -> _", target=AB)
    for fx in (contains_a(), ab_star(), finite_two_words()):
        renamed = OrderedAutomaton(f_rename(fx.osa, f), fx.initial, fx.finals)
        assert validate(renamed) == []
        for w in words_up_to(f.source, 5):
            assert accepts(renamed, w) == accepts(fx, apply_substitution(f, w))
    with pytest.raises(AlphabetError):
        f_rename(even_a().osa, f)


def test_quotient_map_is_a_surjective_hom():
    rng = random.Random(83)
    for _ in range(200):
        oa = random_automaton(rng, 5, AB, ordered=rng.random() < 0.5)
        part, minimal, mapping = minimize_with_map(oa)
        hom = SemiautomatonHom(part.osa, minimal.osa, mapping)
        ok, why = check_homomorphism(hom)
        assert ok, why
        assert set(mapping) == set(range(minimal.state_count))


def test_check_homomorphism_reports_first_violation():
    osa = contains_a().osa
    flat = OrderedSemiautomaton(osa.sa, StateOrder.discrete(2))
    ok, why = check_homomorphism(SemiautomatonHom(osa, flat, (0, 1)))
    assert not ok and why.startswith("isotonicity")

    swapped = SemiautomatonHom(flat, flat, (1, 0))
    ok, why = check_homomorphism(swapped)
    assert not ok and why.startswith("action")

    other = trivial(2, XY)
    ok, why = check_homomorphism(SemiautomatonHom(flat, other, (0, 1)))
    assert not ok and why == "alphabet mismatch"


def test_product_is_componentwise():
    a, b = contains_a().osa, ab_star().osa
    prod = product([a, b])
    assert prod.state_count == 6
    # decode row-major: state = q_a * 3 + q_b
    for qa in range(2):
        for qb in range(3):
            s = qa * 3 + qb
            for w in ("", "a", "ab", "ba", "bab"):
                target = step(prod.sa, s, w)
                assert target == step(a.sa, qa, w) * 3 + step(b.sa, qb, w)
    for s in range(6):
        for t in range(6):
            expect = a.order.leq(s // 3, t // 3) and b.order.leq(s % 3, t % 3)
            assert prod.order.leq(s, t) == expect
    assert prod.sa.state_name(4) == "(1,1)"


def test_product_order_matches_componentwise_reference():
    rng = random.Random(71)
    for _ in range(300):
        osas = [random_automaton(rng, 4, AB, ordered=True).osa for _ in range(rng.randint(2, 3))]
        prod = product(osas)
        states = list(itertools.product(*(range(o.state_count) for o in osas)))
        expect = order_from_leq(
            len(states),
            lambda i, j: all(o.order.leq(p, q) for o, p, q in zip(osas, states[i], states[j])),
        )
        assert prod.order == expect


def test_product_of_two_40_state_chains_takes_under_a_second():
    n = 40
    chain = OrderedSemiautomaton(
        Semiautomaton(AB, tuple((min(q + 1, n - 1), q) for q in range(n))),
        order_from_leq(n, lambda p, q: p <= q),
    )
    start = time.perf_counter()
    prod = product([chain, chain])
    assert time.perf_counter() - start < 1.0
    assert prod.order.leq(0, n * n - 1) and not prod.order.leq(1, n)


def test_product_guards():
    with pytest.raises(OrdaError):
        product([])
    with pytest.raises(AlphabetError):
        product([contains_a().osa, even_a().osa])
    with pytest.raises(ResourceError):
        product([contains_a().osa, ab_star().osa], cap=5)


def test_disjoint_union_blocks():
    u = disjoint_union([contains_a().osa, ab_star().osa])
    assert u.state_count == 5
    assert u.sa.state_name(0) == "0:0" and u.sa.state_name(2) == "1:0"
    # transitions stay inside blocks
    for q in range(2):
        assert step(u.sa, q, "ab") < 2
    for q in range(2, 5):
        assert 2 <= step(u.sa, q, "ab") < 5
    # order: within-block pairs only
    assert u.order.leq(0, 1)  # contains_a: 0 <= 1
    assert u.order.leq(4, 2) and u.order.leq(4, 3)  # ab_star sink below both
    assert not u.order.leq(0, 2) and not u.order.leq(4, 0)


def test_trivial_semiautomaton():
    t = trivial(3, AB)
    for q in range(3):
        assert step(t.sa, q, "abba") == q
    assert list(t.order.pairs()) == []
    with pytest.raises(OrdaError):
        trivial(0, AB)


def test_subsemiautomaton_and_generated():
    osa = finite_two_words().osa
    # {3, 4} is action-closed (3 -> 4 -> 4)
    sub = subsemiautomaton(osa, [4, 3])
    assert sub.state_count == 2
    assert step(sub.sa, 0, "a") == 1  # old 3 -> old 4
    assert sub.order.leq(1, 0)  # old 4 below old 3
    with pytest.raises(CompatibilityError) as err:
        subsemiautomaton(osa, [0, 1])
    assert err.value.witness == (0, "b")
    gen = generated(osa, 3)
    assert gen.state_count == 2
    with pytest.raises(OrdaError):
        subsemiautomaton(osa, [])


def test_quotient_by_preorder_reproduces_minimization():
    rng = random.Random(89)
    for _ in range(100):
        oa = random_automaton(rng, 5, AB, ordered=rng.random() < 0.5)
        part, minimal, mapping = minimize_with_map(oa)
        quotient, hom = quotient_by_precongruence(part.osa, preorder(part))
        ok, why = check_homomorphism(hom)
        assert ok, why
        rebuilt = OrderedAutomaton(
            quotient,
            hom.map[part.initial],
            frozenset(hom.map[q] for q in part.finals),
        )
        assert isomorphic(rebuilt, minimal)


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
                "!(a*b)&(ab|ba)*", "!(a*b)&b(ab|ba)*", "!_&a(ab|ba)*+a(ab|ba)*", "#",
                "!_&(ab|ba)*", "(ab|ba)*", "b(ab|ba)*",
            ],
        ),
        (
            "(a|b)*b(a|b)*|a*",
            ["(a|b)*b(a|b)*|a*+((a|b)*b|_)(a|b)*+(a|b)*b(a|b)*|(a|b)*+((a|b)*b|_)(a|b)*|(a|b)*"],
        ),
    ],
)
def test_quotient_of_a_derivative_automaton_joins_printed_regexes(text, names):
    # a class's name is its members' printed regexes, joined by "+"
    part = reachable_part(derivative_automaton(parse_regex(text, AB), AB))
    quotient, _ = quotient_by_precongruence(part.osa, preorder(part))
    assert [quotient.sa.state_name(q) for q in range(quotient.state_count)] == names


def test_quotient_rejects_bad_relations():
    osa = contains_a().osa
    n = 2
    def rel_from(pairs):
        return order_from_leq(n, lambda p, q: (p, q) in pairs or p == q)

    # misses the state order 0 <= 1
    with pytest.raises(CompatibilityError, match="state order not contained"):
        quotient_by_precongruence(osa, rel_from(set()))
    # not reflexive
    broken = order_from_leq(2, lambda p, q: q == 1)
    with pytest.raises(CompatibilityError, match="not reflexive"):
        quotient_by_precongruence(osa, broken)
    # relates 1 to 0, but actions break it: 1.b = 1 while 0.b = 0 needs (1, 0) again -- fine;
    # use the swap automaton where (0, 1) forces (1, 0) under a
    swap = OrderedSemiautomaton(even_a().sa, StateOrder.discrete(2))
    with pytest.raises(CompatibilityError, match="not action-compatible"):
        quotient_by_precongruence(swap, rel_from({(0, 1)}))
    with pytest.raises(CompatibilityError, match="size differs"):
        quotient_by_precongruence(osa, StateOrder.discrete(1))


def test_quotient_transitivity_guard():
    osa = trivial(3, AB)
    rows = (
        (True, True, False),
        (False, True, True),
        (False, False, True),
    )
    with pytest.raises(CompatibilityError, match="not transitive"):
        quotient_by_precongruence(osa, order_from_leq(3, lambda p, q: rows[p][q]))


def test_quotient_raises_the_reference_first_error():
    rng = random.Random(67)
    seen = set()
    for _ in range(400):
        oa = random_automaton(rng, 6, AB, ordered=True)
        n = oa.state_count
        if rng.random() < 0.25:  # a genuine precongruence, or one pair short of it
            rel = [[preorder(oa).leq(p, q) for q in range(n)] for p in range(n)]
            p, q = rng.randrange(n), rng.randrange(n)
            rel[p][q] = rel[p][q] if rng.random() < 0.5 else not rel[p][q]
        else:
            density = rng.random()
            rel = [[p == q or rng.random() < density for q in range(n)] for p in range(n)]
            if rng.random() < 0.2:
                p = rng.randrange(n)
                rel[p][p] = False
        order = [[oa.order.leq(p, q) for q in range(n)] for p in range(n)]
        want = precongruence_errors(oa.sa, order, rel)
        relation = order_from_leq(n, lambda p, q: rel[p][q])
        if want:
            with pytest.raises(CompatibilityError) as info:
                quotient_by_precongruence(oa.osa, relation)
            assert str(info.value) == want[0]
            seen.add(want[0].split(" at ")[0].split(":")[0])
        else:
            quotient, hom = quotient_by_precongruence(oa.osa, relation)
            ok, why = check_homomorphism(hom)
            assert ok, why
            seen.add("quotient")
    assert seen == {"not reflexive", "not transitive", "state order not contained",
                    "not action-compatible", "quotient"}


def test_union_via_product_embedding():
    factors = [contains_a().osa, ab_star().osa]
    big, hom = union_via_product_embedding(factors)
    uni = disjoint_union(factors)
    assert big.state_count == 2 * 3 * 2
    assert hom.target.sa.delta == uni.sa.delta
    ok, why = check_homomorphism(hom)
    assert ok, why
    assert set(hom.map) == set(range(uni.state_count))  # surjective
    # the map picks component j and projects coordinate j
    sizes = [2, 3, 2]
    offsets = [0, 2]
    for i, t in enumerate(itertools.product(*(range(s) for s in sizes))):
        j = t[-1]
        assert hom.map[i] == offsets[j] + t[j]


def test_upward_closed_sets_match_enumeration():
    rng = random.Random(97)
    for osa in (contains_a().osa, ab_star().osa, finite_two_words().osa):
        ours = set(_upward_closed_sets(osa.order))
        n = osa.state_count
        brute = set()
        for bits in itertools.product((False, True), repeat=n):
            s = frozenset(q for q in range(n) if bits[q])
            if all(osa.order.leq(p, q) <= (q in s) for p in s for q in range(n)):
                brute.add(s)
        assert ours == brute
        assert len(ours) == len(list(_upward_closed_sets(osa.order)))  # no duplicates
    for _ in range(40):
        oa = random_automaton(rng, 5, AB, ordered=True)
        ours = list(_upward_closed_sets(oa.order))
        assert len(set(ours)) == len(ours)
        n = oa.state_count
        brute = {
            frozenset(q for q in range(n) if bits[q])
            for bits in itertools.product((False, True), repeat=n)
            if all(
                (q in {i for i in range(n) if bits[i]})
                for p in range(n)
                if bits[p]
                for q in range(n)
                if oa.order.leq(p, q)
            )
        }
        assert set(ours) == brute


def test_upward_closed_sets_are_streamed():
    def brute_count(order):
        n = order.size
        return sum(
            all(order.leq(p, q) <= (q in s) for p in s for q in range(n))
            for s in (
                {q for q in range(n) if picked[q]} for picked in itertools.product((False, True), repeat=n)
            )
        )

    rng = random.Random(101)
    orders = [StateOrder.discrete(n) for n in range(5)]
    orders += [order_from_leq(n, lambda p, q: p <= q) for n in range(1, 6)]  # chains: n + 1 up-sets
    orders += [random_automaton(rng, 6, AB, ordered=True).order for _ in range(20)]
    for order in orders:
        assert sum(1 for _ in _upward_closed_sets(order)) == brute_count(order)
    # the discrete order on 40 states has 2^40 up-sets; the first ones come at once
    first = list(itertools.islice(_upward_closed_sets(StateOrder.discrete(40)), 3))
    assert first == [frozenset(), frozenset({0}), frozenset({0, 1})]


def test_recognized_languages_of_contains_a():
    autos, truncated = recognized_languages(contains_a().osa)
    assert not truncated
    # empty, everything, and the words containing a: three distinct languages
    assert len(autos) == 3
    langs = {language(m, 3) for m in autos}
    full = frozenset(words_up_to(AB, 3))
    with_a = frozenset(w for w in full if "a" in w)
    assert langs == {frozenset(), full, with_a}

    autos, truncated = recognized_languages(contains_a().osa, cap=1)
    assert truncated and len(autos) == 1


def test_up_set_enumeration_is_capped(monkeypatch):
    # 22 states each fixed by the one letter, ordered discretely: 2^22 up-sets
    # and two languages, so the cap on kept automata never trips; the up-set
    # cap stops the enumeration before any minimization
    sa = Semiautomaton(Alphabet(("a",)), tuple((q,) for q in range(22)))
    osa = OrderedSemiautomaton(sa, StateOrder.discrete(22))
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="UPSET_CAP"):
        recognized_languages(osa, cap=5)
    assert time.perf_counter() - start < 1.0
    # the embedding takes the 22 principal up-sets only, so the 22-state
    # one-letter path that state 0 generates embeds, one component per state
    path = OrderedSemiautomaton(
        Semiautomaton(Alphabet(("a",)), tuple((min(q + 1, 21),) for q in range(22))), StateOrder.discrete(22)
    )
    start = time.perf_counter()
    components, target, hom = reconstruction_product_embedding(path, 0)
    assert time.perf_counter() - start < 0.1
    assert len(components) == 22
    assert_embeds(path, target, hom)
    # an order with exactly UPSET_CAP up-sets is enumerated in full
    monkeypatch.setattr("orda.constructions.UPSET_CAP", 8)
    assert len(list(_upward_closed_sets(StateOrder.discrete(3)))) == 8
    with pytest.raises(ResourceError, match="UPSET_CAP = 8"):
        list(_upward_closed_sets(StateOrder.discrete(4)))


def test_product_final_recipes():
    pairs = [
        (contains_a(), ab_star()),
        (finite_two_words(), contains_a()),
        (ab_star(), finite_two_words()),
    ]
    for x, y in pairs:
        both = product_intersection([x, y])
        either = product_union([x, y])
        for w in words_up_to(AB, 6):
            assert accepts(both, w) == (accepts(x, w) and accepts(y, w))
            assert accepts(either, w) == (accepts(x, w) or accepts(y, w))


def assert_embeds(osa, target, hom):
    """hom is a homomorphism, injective and order-reflecting: an isomorphism
    onto its image."""
    ok, why = check_homomorphism(hom)
    assert ok, why
    n = osa.state_count
    assert len(set(hom.map)) == n
    for p in range(n):
        for q in range(n):
            assert osa.order.leq(p, q) == target.order.leq(hom.map[p], hom.map[q])


def test_reconstruction_product_embedding():
    for fx in (contains_a(), ab_star(), finite_two_words()):
        osa = fx.osa
        components, target, hom = reconstruction_product_embedding(osa, fx.initial)
        assert_embeds(osa, target, hom)
        for c in components:
            assert c.state_count <= osa.state_count + 1


def test_principal_up_sets_embed_every_one_generated_automaton():
    rng = random.Random(97)
    embedded = 0
    while embedded < 2000:
        alphabet = Alphabet(tuple("abc"[: rng.randint(1, 3)]))
        osa = random_automaton(rng, 8, alphabet, ordered=True).osa
        n = osa.state_count
        generators = [q for q in range(n) if len(reachable_states(osa.sa, q)) == n]
        if generators:
            components, target, hom = reconstruction_product_embedding(osa, rng.choice(generators))
            assert len(components) <= n
            assert_embeds(osa, target, hom)
            embedded += 1


def test_reconstruction_embedding_requires_a_generator():
    with pytest.raises(CompatibilityError):
        reconstruction_product_embedding(trivial(2, AB), 0)


def test_reconstruction_union_cover():
    for fx in (contains_a(), ab_star(), finite_two_words()):
        osa = fx.osa
        uni, hom = reconstruction_union_cover(osa)
        ok, why = check_homomorphism(hom)
        assert ok, why
        assert set(hom.map) == set(range(osa.state_count))  # onto
        # one component per state, each generated by it
        assert uni.state_count == sum(
            len(set(stepped))
            for stepped in ([step(osa.sa, q, w) for w in words_up_to(osa.alphabet, osa.state_count)] for q in range(osa.state_count))
        )
