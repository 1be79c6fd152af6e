"""Transition monoids: construction, omega powers, triviality oracles."""

import random
import tracemalloc

import pytest

from orda.classify import is_counter_free
from orda.core import Alphabet, OrderedSemiautomaton, Semiautomaton, StateOrder, tree
from orda.errors import AlphabetError, ResourceError
from orda.generate import random_minimal_automaton
from orda.minimize import minimize_ordered
from orda.monoid import (
    build,
    is_aperiodic,
    is_j_trivial,
    is_r_trivial,
    leq,
    omega_power,
    satisfies_one_leq_x,
)

from fixtures import ab_star, cerny, contains_a, discrete, element_of_word, even_a
from oracles import (
    aperiodic_brute,
    compose as compose_brute,
    green_triviality_brute,
    j_trivial_brute,
    r_trivial_brute,
    transformations,
)

AB = Alphabet(("a", "b"))


def _words(tm) -> list[str]:
    """The least word of every element, in index order."""
    return [tm.word(i) for i in range(len(tm))]


def test_build_on_fixtures():
    tm = build(even_a().osa)
    assert len(tm) == 2
    assert tuple(tm.elements[tm.identity]) == (0, 1)
    assert (1, 0) in map(tuple, tm.elements)
    assert tm.word(tm.generators["a"]) == "a"

    tm = build(contains_a().osa)
    # b acts as the identity, a as the constant map onto the absorbing state
    assert len(tm) == 2
    assert tm.generators["b"] == tm.identity
    assert tuple(tm.elements[tm.generators["a"]]) == (1, 1)
    assert _words(tm) == ["", "a"]


def test_elements_match_brute_enumeration():
    rng = random.Random(13)
    for _ in range(80):
        oa = random_minimal_automaton(rng, 4, AB)
        tm = build(oa.osa)
        assert set(map(tuple, tm.elements)) == set(transformations(oa.sa))


def test_witnesses_reproduce_their_elements():
    rng = random.Random(37)
    for osa in (even_a().osa, contains_a().osa, ab_star().osa, discrete(cerny(4))):
        tm = build(osa)
        for i, w in enumerate(_words(tm)):
            assert element_of_word(tm, w) == i
    for _ in range(40):
        tm = build(random_minimal_automaton(rng, 4, AB).osa)
        for i, w in enumerate(_words(tm)):
            assert element_of_word(tm, w) == i


def test_witnesses_are_length_lex_minimal():
    tm = build(discrete(cerny(3)))
    seen = transformations(cerny(3))
    for i, w in enumerate(_words(tm)):
        assert seen[tuple(tm.elements[i])] == w


def _reference_closure(sa: Semiautomaton):
    """(elements, witnesses, right, generators) by the breadth-first closure
    with each product formed by a list comprehension."""
    columns = [tuple(row[k] for row in sa.delta) for k in range(len(sa.alphabet))]
    elements = [tuple(range(sa.state_count))]
    witnesses = [""]
    index = {elements[0]: 0}
    right = []
    for base, word in zip(elements, witnesses):  # elements grows while this runs
        row = []
        for column, a in zip(columns, sa.alphabet.symbols):
            t = tuple([column[q] for q in base])
            if t not in index:
                index[t] = len(elements)
                elements.append(t)
                witnesses.append(word + a)
            row.append(index[t])
        right.append(tuple(row))
    return elements, witnesses, right, dict(zip(sa.alphabet, right[0]))


def test_build_matches_the_reference_closure():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(1, 8)
        letters = Alphabet(tuple("abc"[: rng.randint(1, 3)]))
        sa = Semiautomaton(letters, tuple(tuple(rng.randrange(n) for _ in letters) for _ in range(n)))
        tm = build(discrete(sa))
        elements, witnesses, right, generators = _reference_closure(sa)
        assert [tuple(t) for t in tm.elements] == elements
        assert _words(tm) == witnesses
        assert list(tm.right) == right
        assert tm.generators == generators
        for t in tm.elements:
            assert type(t) is bytes and len(t) == n
            assert all(type(q) is int for q in t)


def _shift_and_reset(n: int) -> Semiautomaton:
    """q a q+1 mod n and q b 0: the n rotations and the n constant maps."""
    return Semiautomaton(AB, tuple(((q + 1) % n, 0) for q in range(n)))


@pytest.mark.parametrize("n", [255, 256, 257, 300])
def test_elements_are_bytes_up_to_256_states_and_tuples_above(n):
    sa = _shift_and_reset(n)
    tm = build(discrete(sa))
    packed = bytes if n <= 256 else tuple
    assert all(type(t) is packed and len(t) == n for t in tm.elements)
    elements, witnesses, right, generators = _reference_closure(sa)
    assert len(tm) == 2 * n
    assert [tuple(t) for t in tm.elements] == elements
    assert _words(tm) == witnesses
    assert list(tm.right) == right
    assert tm.generators == generators
    rng = random.Random(n)
    for _ in range(200):
        i = rng.randrange(len(tm))
        j = rng.randrange(len(tm))
        assert tuple(tm.elements[tm.compose(i, j)]) == compose_brute(elements[i], elements[j])
    shift = tm.generators["a"]
    assert (omega_power(tm, shift), tm.omega[tm.elements[shift]][1]) == (tm.identity, n)
    assert is_aperiodic(tm) == (False, shift) == (False, 1)


def test_closure_memory_per_element():
    osa = random_minimal_automaton(random.Random(24), 24, AB).osa
    assert osa.state_count == 17
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="transition monoid exceeded 20000 elements"):
            build(osa, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 260 * 20_000


def test_closure_at_200_000_elements_keeps_no_word_per_element():
    # the walk keeps the elements, their index and the rows of the right
    # Cayley graph, and no word: a string per element took the peak to 50 MB
    osa = random_minimal_automaton(random.Random(24), 24, AB).osa
    assert osa.state_count == 17
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="^transition monoid exceeded 200000 elements$"):
            build(osa, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 44 * 10**6, peak


def test_one_state_monoid():
    sa = Semiautomaton(Alphabet(("a", "b")), ((0, 0),))
    tm = build(discrete(sa))
    assert tuple(map(tuple, tm.elements)) == ((0,),)
    assert _words(tm) == [""]
    assert tm.right == ((0, 0),)
    assert omega_power(tm, 0) == 0 and tm.omega[tm.elements[0]][1] == 1
    assert is_counter_free(sa).holds


def test_omega_power_of_a_cyclic_shift():
    shift = Semiautomaton(Alphabet(("a",)), tuple(((q + 1) % 7,) for q in range(7)))
    tm = build(discrete(shift))
    assert len(tm) == 7
    a = tm.generators["a"]
    assert tm.omega[tm.elements[a]][1] == 7
    assert omega_power(tm, a) == tm.identity
    for m in range(1, 7):  # every non-identity power of a 7-cycle generates the group
        assert tm.omega[tm.elements[m]][1] == 7 and omega_power(tm, m) == tm.identity


def _catalan(n: int) -> Semiautomaton:
    """Extensive order-preserving maps on 0 < ... < n-1, generated by the
    maps moving one point i to i+1; the monoid has Catalan(n) elements."""
    letters = "abcdefghij"[: n - 1]
    return Semiautomaton(Alphabet(tuple(letters)), tuple(tuple(q + (q == i) for i in range(n - 1)) for q in range(n)))


def test_compose_matches_transformation_composition():
    rng = random.Random(5)
    for osa in (discrete(cerny(4)), discrete(cerny(6))):  # 128 and 2742 elements
        tm = build(osa)
        for _ in range(200):
            i = rng.randrange(len(tm))
            j = rng.randrange(len(tm))
            expect = compose_brute(tm.elements[i], tm.elements[j])
            assert tuple(tm.elements[tm.compose(i, j)]) == expect


def test_compose_without_memo():
    for osa in (discrete(cerny(4)), discrete(cerny(6))):
        tm = build(osa)
        assert not hasattr(tm, "_memo")
        got = tm.compose(element_of_word(tm, "ab"), element_of_word(tm, "ba"))
        assert got == element_of_word(tm, "abba")


def test_composing_every_pair_keeps_no_table():
    tm = build(discrete(_catalan(7)))
    assert len(tm) == 429
    tracemalloc.start()
    try:
        for i in range(len(tm)):
            for j in range(len(tm)):
                tm.compose(i, j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20



def test_right_tree_lists_the_elements_in_index_order():
    # closure numbers breadth-first, letters in alphabet order, so the tree of
    # the right Cayley graph reaches 1, 2, ... in turn, each from the element
    # whose least word, then its letter, is its own least word
    rng = random.Random(91)
    for _ in range(120):
        alphabet = (AB, Alphabet(("b", "a")), Alphabet(tuple("abc")))[rng.randrange(3)]
        tm = build(random_minimal_automaton(rng, 5, alphabet).osa)
        edges = tree(tm.right, range(len(alphabet)))
        assert [j for j, _, _ in edges] == list(range(1, len(tm)))
        assert all(tm.word(j) == tm.word(p) + alphabet.symbols[k] for j, p, k in edges)


def _padded(osa: OrderedSemiautomaton, extra: int) -> OrderedSemiautomaton:
    """osa with extra more states that every letter fixes: the same monoid,
    numbering and witnesses, on transformations of more states."""
    n, width = osa.state_count, len(osa.alphabet)
    delta = osa.sa.delta + tuple((q,) * width for q in range(n, n + extra))
    return OrderedSemiautomaton(Semiautomaton(osa.alphabet, delta), StateOrder(osa.order.up + tuple(1 << q for q in range(n, n + extra))))


def test_left_and_right_multiples_are_products():
    # left_multiples(i)[j] is i.j and right_multiples(i)[j] is j.i, on packed
    # elements and, with 257 fixed states added, on tuples; the Cerny monoid
    # on 3 points is not commutative, so a swap of the two shows
    rng = random.Random(47)
    cases = [discrete(cerny(3)), _padded(discrete(cerny(3)), 257)]
    cases += [random_minimal_automaton(rng, 4, AB).osa for _ in range(40)]
    noncommutative = 0
    for osa in cases:
        tm = build(osa)
        assert type(tm.elements[0]) is (bytes if osa.state_count <= 256 else tuple)
        everything = range(len(tm))
        for i in everything:
            assert tm.left_multiples(i) == [tm.compose(i, j) for j in everything]
            assert tm.right_multiples(i) == [tm.compose(j, i) for j in everything]
            noncommutative += tm.left_multiples(i) != tm.right_multiples(i)
    assert noncommutative >= 20

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
    assert tm.omega[tm.elements[swap]][1] == 2
    assert omega_power(tm, tm.identity) == tm.identity
    assert tm.omega[tm.elements[tm.identity]][1] == 1

    rng = random.Random(41)
    for _ in range(60):
        tm = build(random_minimal_automaton(rng, 5, AB).osa)
        for m in range(len(tm)):
            e = omega_power(tm, m)
            n = tm.omega[tm.elements[m]][1]
            assert tm.compose(e, e) == e  # idempotent
            assert n >= 1
            # m^n computed by hand equals the reported idempotent, and n is the
            # least exponent giving one: counterexample word lengths rely on it
            acc = tm.identity
            for i in range(1, n + 1):
                acc = tm.compose(acc, m)
                t = tuple(tm.elements[acc])
                assert (compose_brute(t, t) == t) == (i == n), (m, i, n)
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
        elems = [tuple(t) for t in tm.elements]  # the oracles work on tuples
        assert is_aperiodic(tm)[0] == aperiodic_brute(elems)
        assert is_r_trivial(tm)[0] == r_trivial_brute(elems)
        assert is_j_trivial(tm)[0] == j_trivial_brute(elems)


def test_j_trivial_oracle_matches_the_cubic_definition():
    # j_trivial_brute unions right ideals; here each MxM is composed directly,
    # on monoids of at most 3**3 elements
    rng = random.Random(61)
    answers = []
    for _ in range(200):
        elems = list(transformations(random_minimal_automaton(rng, 3, AB).sa))
        ideals = {frozenset(compose_brute(compose_brute(u, x), v) for u in elems for v in elems) for x in elems}
        answers.append(len(ideals) == len(elems))
        assert j_trivial_brute(elems) == answers[-1]
    assert 0 < sum(answers) < len(answers)


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


def test_j_trivial_by_the_prefix_rule_matches_ideal_closures():
    catalan = _catalan(7)
    tm = build(discrete(catalan))
    assert len(tm) == 429
    assert is_j_trivial(tm) == green_triviality_brute(catalan)[1] == (True, None)
    rng = random.Random(83)
    left_graph_decides = 0  # R-trivial, so the left Cayley graph is built
    for _ in range(150):
        # random minimal 5-state DFAs, and 5-state DFAs whose letters never
        # move a state down, which are R-trivial and often not J-trivial
        for sa in (
            random_minimal_automaton(rng, 5, AB).sa,
            Semiautomaton(AB, tuple(tuple(rng.randrange(q, 5) for _ in AB) for q in range(5))),
        ):
            r, j = green_triviality_brute(sa)
            assert is_j_trivial(build(discrete(sa))) == j
            left_graph_decides += r[0] and not j[0]
    assert left_graph_decides >= 20



def test_is_j_trivial_builds_only_the_right_tree(monkeypatch):
    # the left graph follows from the tree of the right one; the tree of the
    # left graph is read only by right_multiples, so it waits for that call
    calls = []
    monkeypatch.setattr("orda.monoid.tree", lambda *args: calls.append(args) or tree(*args))
    tm = build(discrete(_catalan(6)))
    assert is_j_trivial(tm) == (True, None)
    assert len(calls) == 1
    column = tm.right_multiples(3)
    assert len(calls) == 2
    assert column == [tm.compose(j, 3) for j in range(len(tm))]

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
