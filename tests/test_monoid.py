"""Transition monoids: construction, omega powers, triviality oracles."""

import random

import pytest

import orda.monoid as monoid_mod
from orda.core import Alphabet, Semiautomaton, discrete
from orda.fixtures import ab_star, cerny, contains_a, even_a
from orda.errors import AlphabetError, ResourceError
from orda.generate import random_minimal_automaton
from orda.minimize import minimize_ordered
from orda.monoid import (
    build,
    element_of_word,
    is_aperiodic,
    is_j_trivial,
    is_r_trivial,
    leq,
    omega_exponent,
    omega_power,
    satisfies_one_leq_x,
)

from oracles import (
    aperiodic_brute,
    compose as compose_brute,
    green_triviality_brute,
    j_trivial_brute,
    r_trivial_brute,
    transformations,
)

AB = Alphabet(("a", "b"))


def test_build_on_fixtures():
    tm = build(even_a().osa)
    assert len(tm) == 2
    assert tm.elements[tm.identity] == (0, 1)
    assert (1, 0) in tm.elements
    assert tm.witnesses[tm.generators["a"]] == "a"

    tm = build(contains_a().osa)
    # b acts as the identity, a as the constant map onto the absorbing state
    assert len(tm) == 2
    assert tm.generators["b"] == tm.identity
    assert tm.elements[tm.generators["a"]] == (1, 1)
    assert tm.witnesses == ("", "a")


def test_elements_match_brute_enumeration():
    rng = random.Random(13)
    for _ in range(80):
        oa = random_minimal_automaton(rng, 4, AB)
        tm = build(oa.osa)
        assert set(tm.elements) == set(transformations(oa.sa))


def test_witnesses_reproduce_their_elements():
    rng = random.Random(37)
    for osa in (even_a().osa, contains_a().osa, ab_star().osa, discrete(cerny(4))):
        tm = build(osa)
        for i, w in enumerate(tm.witnesses):
            assert element_of_word(tm, w) == i
    for _ in range(40):
        tm = build(random_minimal_automaton(rng, 4, AB).osa)
        for i, w in enumerate(tm.witnesses):
            assert element_of_word(tm, w) == i


def test_witnesses_are_length_lex_minimal():
    tm = build(discrete(cerny(3)))
    seen = transformations(cerny(3))
    for i, w in enumerate(tm.witnesses):
        assert seen[tm.elements[i]] == w


def test_compose_matches_transformation_composition():
    tm = build(discrete(cerny(4)))
    rng = random.Random(5)
    for _ in range(200):
        i = rng.randrange(len(tm))
        j = rng.randrange(len(tm))
        expect = compose_brute(tm.elements[i], tm.elements[j])
        assert tm.elements[tm.compose(i, j)] == expect


def test_compose_without_memo(monkeypatch):
    monkeypatch.setattr(monoid_mod, "_MEMO_LIMIT", 0)
    tm = build(discrete(cerny(4)))
    assert tm._memo is None
    k = element_of_word(tm, "abba")
    expect = tm.elements[k]
    got = tm.elements[tm.compose(element_of_word(tm, "ab"), element_of_word(tm, "ba"))]
    assert got == expect


def test_element_of_word_rejects_foreign_symbols():
    tm = build(contains_a().osa)
    with pytest.raises(AlphabetError):
        element_of_word(tm, "ax")


def test_build_cap():
    with pytest.raises(ResourceError):
        build(discrete(cerny(5)), cap=10)


def test_omega_power_properties():
    tm = build(even_a().osa)
    swap = tm.generators["a"]
    assert omega_power(tm, swap) == tm.identity
    assert omega_exponent(tm, swap) == 2
    assert omega_power(tm, tm.identity) == tm.identity
    assert omega_exponent(tm, tm.identity) == 1

    rng = random.Random(41)
    for _ in range(60):
        tm = build(random_minimal_automaton(rng, 5, AB).osa)
        for m in range(len(tm)):
            e = omega_power(tm, m)
            n = omega_exponent(tm, m)
            assert tm.compose(e, e) == e  # idempotent
            assert n >= 1
            # m^n computed by hand equals the reported idempotent
            acc = tm.identity
            for _ in range(n):
                acc = tm.compose(acc, m)
            assert acc == e


def test_aperiodicity_fixture_values():
    assert is_aperiodic(build(even_a().osa)) == (False, build(even_a().osa).generators["a"])
    assert is_aperiodic(build(contains_a().osa)) == (True, None)
    ok, _ = is_aperiodic(build(discrete(cerny(4))))
    assert not ok  # the cyclic shift generates a 4-cycle


def test_triviality_oracles_match_brute_force():
    rng = random.Random(59)
    for _ in range(120):
        oa = random_minimal_automaton(rng, 4, AB)
        tm = build(oa.osa)
        elems = list(tm.elements)
        assert is_aperiodic(tm)[0] == aperiodic_brute(elems)
        assert is_r_trivial(tm)[0] == r_trivial_brute(elems)
        assert is_j_trivial(tm)[0] == j_trivial_brute(elems)


def _green_regimes(rng, count):
    """count semiautomata from each of three regimes: random minimal DFAs (mostly
    not aperiodic), acyclic semiautomata (R-trivial, often not J-trivial) and
    aperiodic semiautomata that are not R-trivial."""
    for _ in range(count):
        yield random_minimal_automaton(rng, 5, AB).sa
        n = rng.randint(2, 6)
        yield Semiautomaton(AB, tuple(tuple(rng.randrange(q, n) for _ in AB) for q in range(n)))
        while True:
            n = rng.randint(2, 4)
            sa = Semiautomaton(AB, tuple(tuple(rng.randrange(n) for _ in AB) for _ in range(n)))
            elems = list(transformations(sa))
            if aperiodic_brute(elems) and not r_trivial_brute(elems):
                yield sa
                break


def test_green_witnesses_match_ideal_closures():
    rng = random.Random(73)
    failing = 0
    for sa in _green_regimes(rng, 350):
        tm = build(discrete(sa))
        r, j = green_triviality_brute(sa)
        assert is_r_trivial(tm) == r
        assert is_j_trivial(tm) == j
        failing += is_aperiodic(tm)[0] and not j[0]
    assert failing >= 350  # the class scan, not only the aperiodicity prefilter, names pairs


def test_triviality_implications():
    rng = random.Random(67)
    for _ in range(120):
        tm = build(random_minimal_automaton(rng, 5, AB).osa)
        j = is_j_trivial(tm)[0]
        r = is_r_trivial(tm)[0]
        ap = is_aperiodic(tm)[0]
        if j:
            assert r
        if r:
            assert ap


def test_r_trivial_witness_is_a_real_counterexample():
    tm = build(even_a().osa)
    ok, pair = is_r_trivial(tm)
    assert not ok
    x, y = pair
    assert x != y
    elems = list(tm.elements)
    ideal = lambda m: frozenset(compose_brute(tm.elements[m], e) for e in elems)
    assert ideal(x) == ideal(y)


def test_pointwise_order_and_one_leq_x():
    tm = build(contains_a().osa)
    const1 = tm.generators["a"]
    assert leq(tm, tm.identity, const1)
    assert not leq(tm, const1, tm.identity)
    assert satisfies_one_leq_x(tm)[0]

    tm = build(ab_star().osa)
    ok, witness = satisfies_one_leq_x(tm)
    assert not ok
    # the witness element really moves some state off its upward cone
    t = tm.elements[witness]
    assert any(not tm.order.leq(q, t[q]) for q in range(len(t)))
