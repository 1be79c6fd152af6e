"""Minimization, the acceptance preorder, and ordered isomorphism."""

import random
import tracemalloc

import pytest

from orda.core import (
    Alphabet,
    OrderedAutomaton,
    OrderedSemiautomaton,
    Semiautomaton,
    StateOrder,
    future_accepts,
    validate,
)
from orda.generate import random_automaton
from orda.minimize import (
    isomorphic,
    isomorphism,
    minimize_ordered,
    minimize_with_map,
    preorder,
    preorder_naive,
    reachable_part,
)

from fixtures import ab_star, chain_automaton, contains_a, even_a, finite_two_words, order_from_leq, order_from_pairs
from oracles import bounded_preorder, language, residual_included, words_up_to

A = Alphabet(("a",))
AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


def test_preorder_on_contains_a():
    oa = contains_a()
    r = preorder(oa)
    assert r.leq(0, 1) and r.leq(0, 0) and r.leq(1, 1)
    assert not r.leq(1, 0)
    assert r.size == 2


def test_preorder_matches_word_quantification():
    # short-word enumeration on tiny instances, where it is affordable
    rng = random.Random(23)
    for _ in range(60):
        oa = random_automaton(rng, 3, AB, ordered=rng.random() < 0.5)
        r = preorder(oa)
        brute = bounded_preorder(oa, oa.state_count * oa.state_count)
        for p in range(oa.state_count):
            for q in range(oa.state_count):
                assert r.leq(p, q) == brute[p][q]


def test_preorder_matches_pair_automaton():
    # all word lengths at once, read off the product reachability
    rng = random.Random(29)
    for _ in range(150):
        oa = random_automaton(rng, 5, AB, ordered=rng.random() < 0.5)
        r = preorder(oa)
        for p in range(oa.state_count):
            for q in range(oa.state_count):
                assert r.leq(p, q) == residual_included(oa, p, q)


def test_worklist_and_fixpoint_agree():
    rng = random.Random(5)
    for _ in range(200):
        oa = random_automaton(rng, 6, AB)
        assert preorder(oa) == preorder_naive(oa)
    # larger inputs, three letters and declared orders: the row batching
    # must still reach the same greatest fixpoint
    for i in range(400):
        alphabet = (A, AB, ABC)[i % 3]
        oa = random_automaton(rng, rng.randint(1, 60), alphabet, ordered=i % 2 == 1)
        assert preorder(oa) == preorder_naive(oa)


def test_worklist_and_fixpoint_agree_on_chain_orders():
    # the minimize benchmark's chain family: the declared chain is compatible
    # and the finals an up-set, so the preorder holds at least the chain's
    # n(n+1)/2 pairs; rows share values, and gathers read their masks by bytes
    rng = random.Random(37)
    for i in range(60):
        n = rng.randint(10, 60)
        oa = chain_automaton(rng, n, (AB, ABC)[i % 2])
        r = preorder(oa)
        assert r == preorder_naive(oa)
        assert sum(row.bit_count() for row in r.up) >= n * (n + 1) // 2


def test_preorder_memory_stays_near_the_relation():
    # one bit row per state, and one memoized gather per distinct row value
    # instead of one queued tuple per removed pair
    part = reachable_part(random_automaton(random.Random(3), 1500, ABC))
    assert part.state_count == 457
    tracemalloc.start()
    try:
        preorder(part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_readme_minimization_example():
    m = minimize_ordered(random_automaton(random.Random(10), 1500, ABC))
    assert m.state_count == 1112
    assert m.order == StateOrder.discrete(1112)


def test_declared_order_is_contained_in_the_preorder():
    # p <= q forces L_p inside L_q on any valid instance
    rng = random.Random(31)
    for _ in range(150):
        oa = random_automaton(rng, 5, AB, ordered=True)
        assert validate(oa) == []
        r = preorder(oa)
        for p, q in oa.order.pairs():
            assert r.leq(p, q)


def test_minimize_fixture_shapes():
    m = minimize_ordered(contains_a())
    assert m.state_count == 2
    assert sorted(m.order.pairs()) == [(0, 1)]
    assert m.finals == frozenset({1})

    m = minimize_ordered(ab_star())
    assert m.state_count == 3
    assert sorted(m.order.pairs()) == [(2, 0), (2, 1)]

    m = minimize_ordered(even_a())
    assert m.state_count == 2
    assert list(m.order.pairs()) == []

    m = minimize_ordered(finite_two_words())
    assert m.state_count == 5
    # the empty-future state is renumbered 3 by breadth-first discovery
    assert sorted(m.order.pairs()) == [(3, 0), (3, 1), (3, 2), (3, 4)]


def test_minimize_merges_duplicate_states():
    # state 2 duplicates state 0 of the contains-a automaton
    sa = Semiautomaton(AB, ((1, 2), (1, 1), (1, 0)))
    oa = OrderedAutomaton(
        OrderedSemiautomaton(sa, StateOrder.discrete(3)), 0, frozenset({1})
    )
    part, minimal, mapping = minimize_with_map(oa)
    assert minimal.state_count == 2
    assert isomorphic(minimal, contains_a())
    # 0 and 2 collapse to the same class
    assert mapping[0] == mapping[part.sa.delta[0][1]]


def test_minimize_drops_unreachable_states():
    sa = Semiautomaton(AB, ((1, 0), (1, 1), (0, 1)))
    oa = OrderedAutomaton(
        OrderedSemiautomaton(sa, StateOrder.discrete(3)), 0, frozenset({1})
    )
    assert reachable_part(oa).state_count == 2
    assert minimize_ordered(oa).state_count == 2


def test_minimize_is_idempotent_and_valid():
    rng = random.Random(47)
    for _ in range(100):
        oa = random_automaton(rng, 6, AB, ordered=rng.random() < 0.5)
        m = minimize_ordered(oa)
        assert validate(m) == []
        again = minimize_ordered(m)
        assert again.state_count == m.state_count
        assert isomorphic(again, m)
        assert language(m, 5) == language(oa, 5)


def test_minimal_order_is_residual_inclusion():
    rng = random.Random(53)
    for _ in range(100):
        m = minimize_ordered(random_automaton(rng, 5, AB))
        for p in range(m.state_count):
            for q in range(m.state_count):
                assert m.order.leq(p, q) == residual_included(m, p, q)


def test_quotient_map_preserves_futures():
    rng = random.Random(61)
    for _ in range(60):
        oa = random_automaton(rng, 5, AB)
        part, minimal, mapping = minimize_with_map(oa)
        for q in range(part.state_count):
            for w in words_up_to(AB, 4):
                assert future_accepts(part, q, w) == future_accepts(minimal, mapping[q], w)


def test_isomorphism_finds_the_relabeling():
    oa = finite_two_words()
    perm = [2, 0, 4, 1, 3]  # old -> new
    inv = {v: k for k, v in enumerate(perm)}
    sa = oa.sa
    delta = tuple(
        tuple(perm[sa.delta[inv[p]][k]] for k in range(2)) for p in range(5)
    )
    order = order_from_leq(5, lambda p, q: oa.order.leq(inv[p], inv[q]))
    shuffled = OrderedAutomaton(
        OrderedSemiautomaton(Semiautomaton(AB, delta), order),
        perm[oa.initial],
        frozenset(perm[q] for q in oa.finals),
    )
    found = isomorphism(oa, shuffled)
    assert found == {k: perm[k] for k in range(5)}
    assert isomorphic(shuffled, oa)


def test_isomorphism_rejects_mismatches():
    oa = contains_a()
    # same shape, different finals
    other = OrderedAutomaton(oa.osa, 0, frozenset({0, 1}))
    assert isomorphism(oa, other) is None
    # same language, discrete order: not isomorphic as ordered automata
    flat = OrderedAutomaton(
        OrderedSemiautomaton(oa.sa, StateOrder.discrete(2)), 0, frozenset({1})
    )
    assert not isomorphic(oa, flat)
    # different alphabet
    other_ab = OrderedAutomaton(
        OrderedSemiautomaton(Semiautomaton(Alphabet(("x", "y")), oa.sa.delta), oa.order),
        0,
        frozenset({1}),
    )
    assert not isomorphic(oa, other_ab)


def test_isomorphism_ignores_unreachable_states():
    oa = contains_a()
    # add an unreachable copy of state 0
    sa = Semiautomaton(AB, ((1, 0), (1, 1), (1, 2)))
    padded = OrderedAutomaton(
        OrderedSemiautomaton(sa, order_from_pairs(3, [(0, 1)])), 0, frozenset({1})
    )
    assert isomorphic(padded, oa)
    assert isomorphic(oa, padded)
