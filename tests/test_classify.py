"""Class membership checks and the combined language report."""

import random
import time

import pytest

from orda.classify import (
    Verdict,
    classify_language,
    has_extensive_actions,
    has_n_extensive_actions,
    is_acyclic,
    is_autonomous,
    is_confluent,
    is_counter_free,
    is_cycle_union_dividing,
    is_pt_semiautomaton,
    is_strongly_acyclic,
    is_synchronizing,
    is_weakly_confluent,
    main_follower,
)
from orda.core import Alphabet, OrderedAutomaton, OrderedSemiautomaton, Semiautomaton, StateOrder, sccs, step
from orda.errors import OrdaError, ResourceError
from orda.generate import random_automaton, random_minimal_automaton, random_semiautomaton
from orda.languages import canonical_ordered_automaton, parse_regex
from orda.minimize import minimize_with_map
from orda.monoid import build as build_monoid, is_aperiodic, nontrivial_cycle

from fixtures import AB, ab_star, cerny, contains_a, even_a, finite_two_words
from oracles import (
    aperiodic_brute,
    cyclic_confluent_reference,
    extensive_brute,
    j_trivial_brute,
    joinable,
    lemma8_check,
    merge_word_brute,
    n_extensive_brute,
    r_trivial_brute,
    synchronizing_brute,
    synchronizing_reference,
    transformations,
    weakly_confluent_brute,
    weakly_confluent_reference,
    words_up_to,
)


def branching_sinks() -> Semiautomaton:
    """One choice state feeding two absorbing sinks; minimal non-confluent case."""
    return Semiautomaton(AB, ((1, 2), (1, 1), (2, 2)))


def joinable_over(sa: Semiautomaton, p: int, q: int, letters: str) -> bool:
    ks = [k for k, a in enumerate(sa.alphabet) if a in set(letters)]
    seen = {(p, q)}
    stack = [(p, q)]
    while stack:
        x, y = stack.pop()
        if x == y:
            return True
        for k in ks:
            nxt = (sa.delta[x][k], sa.delta[y][k])
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def test_counter_free_fixture_values():
    assert is_counter_free(contains_a().sa).holds
    assert is_counter_free(ab_star().sa).holds
    v = is_counter_free(even_a().sa)
    assert not v.holds and v.witness == (0, "a")


def test_counter_free_witness_replays():
    rng = random.Random(19)
    found = 0
    while found < 25:
        sa = random_semiautomaton(rng, 5, AB)
        v = is_counter_free(sa)
        if v.holds:
            assert aperiodic_brute(transformations(sa))
            continue
        found += 1
        q, u = v.witness
        assert step(sa, q, u) != q
        cur = step(sa, q, u)
        for _ in range(sa.state_count):
            if cur == q:
                break
            cur = step(sa, cur, u)
        assert cur == q  # q really sits on a nontrivial u-cycle


def test_counter_free_stops_at_the_first_counter():
    # the transition monoid exceeds the default cap of a million elements,
    # but the letter a already acts with a nontrivial cycle
    sa = random_minimal_automaton(random.Random(24), 24, AB).sa
    assert sa.state_count == 17
    v = is_counter_free(sa)
    assert not v.holds and v.witness == (3, "a")
    q, u = v.witness
    cur = step(sa, q, u)
    assert cur != q
    for _ in range(sa.state_count):
        cur = step(sa, cur, u)
        if cur == q:
            break
    assert cur == q


def test_counter_free_under_a_small_cap():
    # cerny(4) has 128 elements and a counter at its first letter
    assert not is_counter_free(cerny(4), cap=2).holds
    assert is_counter_free(cerny(4), cap=2).witness == is_counter_free(cerny(4)).witness == (0, "a")
    with pytest.raises(ResourceError):
        build_monoid(OrderedSemiautomaton(cerny(4), StateOrder.discrete(4)), cap=2)
    # an aperiodic monoid has no counter to stop at
    assert is_counter_free(ab_star().sa).holds
    with pytest.raises(ResourceError):
        is_counter_free(ab_star().sa, cap=2)


def test_counter_free_matches_the_full_monoid():
    # the walk that stops at its first counter names the element that
    # is_aperiodic finds first on the whole monoid, spelled by its least word;
    # about half the alphabets are unsorted, such as ba.  The few monoids of
    # more than 5000 elements are not built: a counter found among their
    # first 5000 elements must still replay
    rng = random.Random(107)
    counters = capped = 0
    for _ in range(1000):
        n = rng.randint(1, 9)
        letters = rng.sample("abc", rng.randint(1, 3))
        sa = Semiautomaton(Alphabet(tuple(letters)), tuple(tuple(rng.randrange(n) for _ in letters) for _ in range(n)))
        try:
            tm = build_monoid(OrderedSemiautomaton(sa, StateOrder.discrete(n)), cap=5000)
        except ResourceError:
            capped += 1
            try:
                v = is_counter_free(sa, cap=5000)
            except ResourceError:
                continue
            q, u = v.witness
            assert not v.holds and step(sa, q, u) != q
            assert any(step(sa, q, u * i) == q for i in range(2, n + 1))
            continue
        ok, m = is_aperiodic(tm)
        v = is_counter_free(sa, cap=5000)
        assert v.holds == ok
        if not ok:
            counters += 1
            assert v.witness == (nontrivial_cycle(tm.elements[m]), tm.word(m))
    assert counters >= 400 and 1000 - capped - counters >= 200 and capped < 100


def test_acyclic_fixture_values():
    v = is_acyclic(ab_star().sa)
    assert not v.holds and v.witness == (0, "ab", "a")
    ok = is_acyclic(contains_a().sa)
    assert ok.holds and ok.witness == (0, 1)
    assert ok.witness == tuple(sorted(ok.witness, key=list(ok.witness).index))


def test_acyclic_certificate_is_topological():
    rng = random.Random(23)
    for _ in range(80):
        sa = random_semiautomaton(rng, 5, AB)
        v = is_acyclic(sa)
        if not v.holds:
            q, u, a = v.witness
            assert step(sa, q, u) == q and a == u[0] and step(sa, q, a) != q
            continue
        pos = {q: i for i, q in enumerate(v.witness)}
        assert sorted(pos) == list(range(sa.state_count))
        for p in range(sa.state_count):
            for r in sa.delta[p]:
                if r != p:
                    assert pos[p] < pos[r]


def test_confluent_fixture_values():
    assert is_confluent(contains_a().sa).holds
    v = is_confluent(branching_sinks())
    assert not v.holds and v.witness == (0, "a", "b")
    with pytest.raises(ResourceError):
        is_confluent(ab_star().sa, alphabet_cap=1)  # cyclic: the exhaustive search, capped


def test_confluent_witness_replays():
    rng = random.Random(29)
    found = 0
    while found < 25:
        sa = random_semiautomaton(rng, 4, AB)
        v = is_confluent(sa)
        if v.holds:
            continue
        found += 1
        q, u, w = v.witness
        p1, p2 = step(sa, q, u), step(sa, q, w)
        assert p1 != p2
        assert not joinable_over(sa, p1, p2, u + w)


def test_lemma8_agrees_with_confluence_on_acyclic_inputs():
    v = lemma8_check(branching_sinks())
    assert not v.holds and v.witness == (0, "a", "b")
    with pytest.raises(OrdaError):
        lemma8_check(even_a().sa)
    for alphabet, max_len in ((AB, 4), (Alphabet(("a", "b", "c")), 3)):
        rng = random.Random(31)
        checked = failing = 0
        while checked < 40:
            sa = random_semiautomaton(rng, 4, alphabet)
            if not is_acyclic(sa).holds:
                continue
            checked += 1
            assert is_confluent(sa).holds == lemma8_check(sa, max_len=max_len).holds
        # transitions that never lead to a smaller state are acyclic by
        # construction, and branch into distinct sinks more often
        for _ in range(40):
            sa = Semiautomaton(alphabet, tuple(tuple(rng.randrange(q, 5) for _ in alphabet) for q in range(5)))
            v = is_confluent(sa)
            failing += not v.holds
            assert v.holds == lemma8_check(sa, max_len=max_len).holds
        assert failing >= 3


def test_confluence_on_a_wide_acyclic_chain():
    # a moves one state up and every other letter loops: confluent, and no
    # letter cap applies to acyclic input
    alphabet = Alphabet(tuple("abcdefghij"))
    chain = tuple(tuple(min(q + 1, 7) if k == 0 else q for k in range(10)) for q in range(8))
    assert is_confluent(Semiautomaton(alphabet, chain), alphabet_cap=1).holds
    assert is_confluent(Semiautomaton(alphabet, chain)).holds
    # j sends state 0 to a ninth, absorbing state, which never meets the chain's top
    forked = ((1,) + (0,) * 8 + (8,),) + chain[1:] + ((8,) * 10,)
    v = is_confluent(Semiautomaton(alphabet, forked))
    assert not v.holds and v.witness == (0, "a", "j")


def restricted_to(sa: Semiautomaton, i: int, j: int) -> Semiautomaton:
    """The two-letter semiautomaton of the letters at positions i and j."""
    symbols = sa.alphabet.symbols
    return Semiautomaton(Alphabet((symbols[i], symbols[j])), tuple((row[i], row[j]) for row in sa.delta))


def local_confluence_reference(sa: Semiautomaton) -> tuple[bool, object]:
    """(False, first (q, a, b) whose branches no word over {a, b} merges), or (True, None)."""
    symbols = sa.alphabet.symbols
    for q, row in enumerate(sa.delta):
        for i in range(len(row)):
            for j in range(i + 1, len(row)):
                if merge_word_brute(restricted_to(sa, i, j), row[i], row[j]) is None:
                    return False, (q, symbols[i], symbols[j])
    return True, None


def acyclic_semiautomata(rng: random.Random):
    """Seeded acyclic semiautomata of three shapes, 360 of each."""
    kept = 0
    while kept < 360:  # rejection-sampled
        sa = random_semiautomaton(rng, 6, Alphabet(tuple("abc"[: rng.randint(1, 3)])))
        if is_acyclic(sa).holds:
            kept += 1
            yield sa
    for _ in range(360):  # upper-triangular, then relabelled
        n, width = rng.randint(1, 9), rng.randint(1, 5)
        label = rng.sample(range(n), n)
        rows = [None] * n
        for q in range(n):
            rows[label[q]] = tuple(label[rng.randrange(q, n)] for _ in range(width))
        yield Semiautomaton(Alphabet(tuple("abcde"[:width])), tuple(rows))
    for _ in range(360):  # chains: each letter stays or moves a step or two up
        n, width = rng.randint(2, 60), rng.randint(2, 4)
        rows = tuple(tuple(min(q + rng.choice((0, 0, 1, 1, 2)), n - 1) for _ in range(width)) for q in range(n))
        yield Semiautomaton(Alphabet(tuple("abcd"[:width])), rows)


def test_local_confluence_matches_the_two_letter_reference():
    checked = confluent = 0
    for sa in acyclic_semiautomata(random.Random(37)):
        v = is_confluent(sa)
        assert (v.holds, v.witness) == local_confluence_reference(sa)
        checked += 1
        confluent += v.holds
    assert checked >= 1000
    assert 100 < confluent < checked - 100


def test_local_confluence_on_a_long_chain_is_fast():
    # the minimal automaton of {a^1000} over {a, b}: a climbs, b falls into the sink 1001
    n = 1000
    sa = Semiautomaton(AB, tuple((min(q + 1, n + 1), n + 1) for q in range(n + 2)))
    start = time.perf_counter()
    v = is_confluent(sa)
    assert time.perf_counter() - start < 0.5
    assert v.holds


def test_pt_semiautomaton_combines_both():
    assert is_pt_semiautomaton(contains_a().sa).holds
    assert not is_pt_semiautomaton(branching_sinks()).holds
    assert not is_pt_semiautomaton(even_a().sa).holds


def test_classifiers_match_monoid_oracles():
    rng = random.Random(37)
    for _ in range(120):
        oa = random_minimal_automaton(rng, 5, AB)
        sa = oa.sa
        elems = transformations(sa)
        assert is_counter_free(sa).holds == aperiodic_brute(elems)
        acyclic = is_acyclic(sa).holds
        assert acyclic == r_trivial_brute(elems)
        if acyclic:
            assert is_confluent(sa).holds == j_trivial_brute(elems)
        assert has_extensive_actions(oa.osa).holds == extensive_brute(oa.osa)


def test_extensive_actions():
    assert has_extensive_actions(contains_a().osa).holds
    v = has_extensive_actions(even_a().osa)
    assert not v.holds and v.witness == (0, "a")
    q, a = v.witness
    osa = even_a().osa
    assert not osa.order.leq(q, step(osa.sa, q, a))


def test_autonomous():
    assert is_autonomous(even_a().sa).holds
    v = is_autonomous(cerny(4))
    assert not v.holds and v.witness == (1, "a", "b")
    q, a, b = v.witness
    assert step(cerny(4), q, a) != step(cerny(4), q, b)


def test_cycle_union_dividing():
    sa = even_a().sa
    assert is_cycle_union_dividing(sa, 2).witness == (2,)
    assert is_cycle_union_dividing(sa, 4).holds
    v = is_cycle_union_dividing(sa, 3)
    assert not v.holds and v.witness == ("cycle_length", 2, 3)

    one = Alphabet(("a",))
    rho = Semiautomaton(one, ((0,), (0,)))
    v = is_cycle_union_dividing(rho, 6)
    assert not v.holds and v.witness == ("rho_shape", (0, 1), (0,))

    v = is_cycle_union_dividing(cerny(4), 2)
    assert not v.holds and v.witness == ("not autonomous", 1, "a", "b")

    from orda.constructions import trivial

    assert is_cycle_union_dividing(trivial(2, AB).sa, 1).witness == (1, 1)
    with pytest.raises(OrdaError):
        is_cycle_union_dividing(sa, 0)


def test_synchronizing_cerny_family():
    for n in (3, 4, 5):
        sa = cerny(n)
        v = is_synchronizing(sa)
        assert v.holds
        assert len({step(sa, q, v.witness) for q in range(n)}) == 1
    v = is_synchronizing(even_a().sa)
    assert not v.holds and v.witness == (0, 1)
    assert not joinable(even_a().sa, 0, 1)


def test_synchronizing_matches_pairwise_merge_words():
    rng = random.Random(47)
    cases = [cerny(n) for n in range(3, 12)]
    while len(cases) < 1000:
        alphabet = Alphabet(tuple("abc"[: rng.randint(1, 3)]))
        if len(cases) % 2:
            cases.append(random_semiautomaton(rng, 9, alphabet))
        else:
            cases.append(random_minimal_automaton(rng, 12, alphabet).sa)
    synchronizing = 0
    for sa in cases:
        v = is_synchronizing(sa)
        assert (v.holds, v.witness) == synchronizing_brute(sa)
        synchronizing += v.holds
    assert 100 < synchronizing < 900  # both outcomes well represented


def test_weakly_confluent_matches_brute_force():
    rng = random.Random(41)
    for _ in range(100):
        sa = random_semiautomaton(rng, 4, AB)
        v = is_weakly_confluent(sa)
        assert v.holds == weakly_confluent_brute(sa)
        if v.holds:
            assert sorted(q for c in v.witness for q in c) == list(range(sa.state_count))
        else:
            comp, (p, q) = v.witness
            assert p in comp and q in comp and not joinable(sa, p, q)


def weak_components_reference(sa: Semiautomaton) -> list[list[int]]:
    """Components of the undirected transition graph by depth-first search,
    each sorted, in order of their smallest member."""
    neighbours = [set() for _ in range(sa.state_count)]
    for q, row in enumerate(sa.delta):
        for r in row:
            neighbours[q].add(r)
            neighbours[r].add(q)
    seen: set[int] = set()
    comps = []
    for q in range(sa.state_count):
        if q in seen:
            continue
        seen.add(q)
        stack, comp = [q], []
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in neighbours[x] - seen:
                seen.add(y)
                stack.append(y)
        comps.append(sorted(comp))
    return comps


def test_weakly_confluent_witnesses_match_restricted_synchronization():
    # reference: restrict each component, renumbered in ascending order, and map
    # back the first unmergeable pair that synchronizing_brute reports
    rng = random.Random(53)
    several = 0
    for _ in range(1000):
        alphabet = Alphabet(tuple("abc"[: rng.randint(1, 3)]))
        sa = random_semiautomaton(rng, 9, alphabet)
        comps = weak_components_reference(sa)
        several += len(comps) > 1
        expected = (True, tuple(map(tuple, comps)))
        for members in comps:
            index = {s: i for i, s in enumerate(members)}
            part = Semiautomaton(alphabet, tuple(tuple(index[r] for r in sa.delta[s]) for s in members))
            holds, pair = synchronizing_brute(part)
            if not holds:
                expected = (False, (tuple(members), (members[pair[0]], members[pair[1]])))
                break
        v = is_weakly_confluent(sa)
        assert (v.holds, v.witness) == expected
    assert 100 < several < 300  # about one input in six has several components


def test_weakly_confluent_builds_one_full_alphabet_merge_table(monkeypatch):
    import orda.classify

    full = []
    real = orda.classify._merge_rows

    def counting(sa, letters):
        if letters == (1 << len(sa.alphabet)) - 1:
            full.append(sa)
        return real(sa, letters)

    monkeypatch.setattr(orda.classify, "_merge_rows", counting)
    # components {0}, {1, 2} (b fixes 1, a resets to 2) and {3, 4} (both letters swap)
    sa = Semiautomaton(AB, ((0, 0), (2, 1), (2, 2), (4, 4), (3, 3)))
    v = is_weakly_confluent(sa)
    assert not v.holds and v.witness == ((3, 4), (3, 4))
    assert len(full) == 1


def test_weakly_confluent_fixture_values():
    assert is_weakly_confluent(contains_a().sa).witness == ((0, 1),)
    v = is_weakly_confluent(even_a().sa)
    assert not v.holds and v.witness == ((0, 1), (0, 1))


def test_strongly_acyclic():
    v = is_strongly_acyclic(contains_a().sa)
    assert not v.holds and v.witness == (0, "b", "a")
    q, u, a = v.witness
    assert step(contains_a().sa, q, u) == q and step(contains_a().sa, q, a) != q
    assert is_strongly_acyclic(branching_sinks()).holds
    assert is_strongly_acyclic(finite_two_words().sa).holds
    v = is_strongly_acyclic(even_a().sa)
    assert not v.holds and step(even_a().sa, v.witness[0], v.witness[1]) == v.witness[0]


def test_strongly_acyclic_implies_acyclic():
    rng = random.Random(43)
    for _ in range(100):
        sa = random_semiautomaton(rng, 5, AB)
        if is_strongly_acyclic(sa).holds:
            assert is_acyclic(sa).holds


def test_main_follower():
    sa = finite_two_words().sa
    assert main_follower(sa, 0) == 4
    assert main_follower(sa, 3) == 4
    assert main_follower(sa, 4) == 4
    with pytest.raises(OrdaError, match="strongly acyclic"):
        main_follower(even_a().sa, 0)
    with pytest.raises(OrdaError, match="confluent"):
        main_follower(branching_sinks(), 0)


def test_classify_language_decides_confluence_once(monkeypatch):
    import orda.classify

    calls = []
    real = orda.classify._locally_confluent
    # the language is finite, so the minimal automaton is acyclic and its
    # confluence is the local condition
    monkeypatch.setattr(orda.classify, "_locally_confluent", lambda sa: calls.append(sa) or real(sa))
    oa = canonical_ordered_automaton(parse_regex("ab" * 20, "ab"), "ab")
    report = classify_language(oa)
    assert len(calls) == 1
    assert report.piecewise_testable == is_confluent(report.minimal.sa)
    assert report.finite.holds
    assert report.finite.witness == (main_follower(report.minimal.sa, 0), True)


def test_classify_language_finds_strong_components_once_on_acyclic_input(monkeypatch):
    import orda.classify

    calls = []
    real = orda.classify.sccs
    monkeypatch.setattr(orda.classify, "sccs", lambda adj: calls.append(adj) or real(adj))
    oa = canonical_ordered_automaton(parse_regex("ab" * 20, "ab"), "ab")
    report = classify_language(oa)
    assert report.r_trivial_language.holds and report.piecewise_testable.holds
    assert len(calls) == 1  # is_acyclic's; confluence does not search again


def test_classify_language_reads_acyclic_verdicts_off_acyclicity(monkeypatch):
    import orda.classify

    real_strongly = orda.classify.is_strongly_acyclic

    def refuse(*args):
        raise AssertionError("called on acyclic input")

    monkeypatch.setattr(orda.classify, "is_counter_free", refuse)
    monkeypatch.setattr(orda.classify, "is_strongly_acyclic", refuse)
    rng = random.Random(59)
    acyclic = 0
    for oa in [contains_a(), finite_two_words()] + [random_automaton(rng, 6, AB) for _ in range(150)]:
        sa = minimize_with_map(oa)[1].sa
        if not is_acyclic(sa).holds:
            continue
        acyclic += 1
        report = classify_language(oa)
        assert report.star_free == Verdict(True)
        assert aperiodic_brute(transformations(report.minimal.sa))
        assert report.prefix_testable == real_strongly(report.minimal.sa)
    assert acyclic > 30


def test_classify_language_judges_cyclic_input_in_full(monkeypatch):
    import orda.classify

    calls = []
    for name in ("is_counter_free", "is_strongly_acyclic"):
        real = getattr(orda.classify, name)
        monkeypatch.setattr(orda.classify, name, lambda sa, real=real, name=name: calls.append(name) or real(sa))
    rng = random.Random(61)
    cyclic = 0
    for oa in [even_a(), ab_star()] + [random_automaton(rng, 6, AB) for _ in range(100)]:
        calls.clear()
        report = classify_language(oa)
        if is_acyclic(report.minimal.sa).holds:
            continue
        cyclic += 1
        assert calls == ["is_counter_free", "is_strongly_acyclic"]
        assert report.star_free == is_counter_free(report.minimal.sa)
        assert report.prefix_testable == is_strongly_acyclic(report.minimal.sa)
    assert classify_language(even_a()).star_free.witness == (0, "a")
    assert cyclic > 30


def test_classify_language_on_a_catalan_semiautomaton_needs_no_monoid():
    # letter i moves point i to i + 1: the monoid is Catalan(14) = 2 674 440
    # elements, over the monoid cap, but the automaton is acyclic
    n = 14
    alphabet = Alphabet(tuple("abcdefghijklm"))
    sa = Semiautomaton(alphabet, tuple(tuple(q + (q == i) for i in range(n - 1)) for q in range(n)))
    oa = OrderedAutomaton(OrderedSemiautomaton(sa, StateOrder.discrete(n)), 0, frozenset({n - 1}))
    report = classify_language(oa)
    assert report.minimal.state_count == n
    assert report.star_free.holds and report.r_trivial_language.holds
    assert report.piecewise_testable.holds


def test_classify_language_builds_one_full_alphabet_merge_table(monkeypatch):
    import orda.classify

    full = []
    real = orda.classify._merge_rows

    def counting(sa, letters):
        if letters == (1 << len(sa.alphabet)) - 1:
            full.append(sa)
        return real(sa, letters)

    monkeypatch.setattr(orda.classify, "_merge_rows", counting)
    oa = canonical_ordered_automaton(parse_regex("(a|b|c)*ab", "abc"), "abc")
    report = classify_language(oa)
    assert not report.r_trivial_language.holds
    assert len(full) == 1
    assert report.synchronizing.holds and report.weakly_confluent.holds
    assert report.synchronizing.witness == is_synchronizing(report.minimal.sa).witness


def test_merge_rows_match_the_merge_table_reference():
    # the merge rows, and the reset word searched pair by pair, give the
    # verdicts and witnesses of the n^2 merge table with its distances: on
    # upper-triangular semiautomata, acyclic, and on uniform ones with a cycle
    # through two states or more, where is_confluent runs its search
    rng = random.Random(113)
    alphabets = (Alphabet(("a",)), Alphabet(("b", "a")), Alphabet(("a", "c", "b")))
    acyclic = cyclic = unsynchronized = unweak = unconfluent = 0
    while acyclic < 1000 or cyclic < 1000:
        alphabet = alphabets[(acyclic + cyclic) % 3]
        n = rng.randint(1, 10)
        if acyclic < 1000:
            sa = Semiautomaton(alphabet, tuple(tuple(rng.randint(q, n - 1) for _ in alphabet) for q in range(n)))
            acyclic += 1
        else:
            sa = Semiautomaton(alphabet, tuple(tuple(rng.randrange(n) for _ in alphabet) for _ in range(n)))
            if all(len(comp) == 1 for comp in sccs([set(row) for row in sa.delta])):
                continue
            cyclic += 1
            v, reference = is_confluent(sa), cyclic_confluent_reference(sa)
            assert (v.holds, v.witness) == (reference.holds, reference.witness)
            unconfluent += not v.holds
        v, reference = is_synchronizing(sa), synchronizing_reference(sa)
        assert (v.holds, v.witness) == (reference.holds, reference.witness)
        unsynchronized += not v.holds
        v, reference = is_weakly_confluent(sa), weakly_confluent_reference(sa)
        assert (v.holds, v.witness) == (reference.holds, reference.witness)
        unweak += not v.holds
    # 773 of the 2000 do not synchronize, 475 are not weakly confluent, and
    # 933 of the 1000 cyclic ones are not confluent
    assert 500 < unsynchronized < 1500 and 250 < unweak < 1000 and 30 < 1000 - unconfluent < 200


def test_n_extensive_actions():
    osa = even_a().osa
    v = has_n_extensive_actions(osa, 1)
    assert not v.holds and v.witness == (0, "a")
    assert has_n_extensive_actions(osa, 2).holds
    assert has_n_extensive_actions(osa, 0).holds
    assert has_n_extensive_actions(contains_a().osa, 1).holds
    with pytest.raises(OrdaError):
        has_n_extensive_actions(osa, -1)


def test_n_extensive_matches_enumeration():
    rng = random.Random(47)
    for _ in range(80):
        oa = random_automaton(rng, 4, AB, ordered=True)
        for n in (1, 2, 3):
            v = has_n_extensive_actions(oa.osa, n)
            assert v.holds == n_extensive_brute(oa.osa, n)
            if not v.holds:
                q, w = v.witness
                assert len(w) == n
                assert not oa.order.leq(q, step(oa.sa, q, w))


def plain_layered_walk(osa, n):
    """(holds, witness) of has_n_extensive_actions by all n + 1 layers from each state."""
    sa = osa.sa
    for q in range(sa.state_count):
        layers = [{q: None}]
        for _ in range(n):
            nxt = {}
            for p in sorted(layers[-1]):
                for k, r in enumerate(sa.delta[p]):
                    nxt.setdefault(r, (p, sa.alphabet.symbols[k]))
            layers.append(nxt)
        bad = [p for p in sorted(layers[n]) if not osa.order.leq(q, p)]
        if bad:
            word, p = [], bad[0]
            for L in range(n, 0, -1):
                p, a = layers[L][p]
                word.append(a)
            return False, (q, "".join(reversed(word)))
    return True, None


def test_n_extensive_lasso_matches_the_plain_walk():
    rng = random.Random(48)
    abc = Alphabet(("a", "b", "c"))
    for i in range(60):
        oa = random_automaton(rng, 7, abc if i % 2 else AB, ordered=True)
        n = oa.state_count
        # the declared order, and one relating every pair, so that some checks hold
        for osa in (oa.osa, OrderedSemiautomaton(oa.sa, StateOrder(((1 << n) - 1,) * n))):
            for k in range(13):
                v = has_n_extensive_actions(osa, k)
                assert (v.holds, v.witness) == plain_layered_walk(osa, k)


def test_n_extensive_at_the_limit_is_fast():
    oa = random_minimal_automaton(random.Random(3), 200, AB)
    n = oa.state_count
    assert n == 47
    full = OrderedSemiautomaton(oa.sa, StateOrder(((1 << n) - 1,) * n))
    start = time.perf_counter()
    assert has_n_extensive_actions(full, 10_000).holds
    v = has_n_extensive_actions(oa.osa, 10_000)
    assert time.perf_counter() - start < 1.0
    q, w = v.witness
    assert not v.holds and len(w) == 10_000
    assert not oa.order.leq(q, step(oa.sa, q, w))


def test_classify_finite_language():
    report = classify_language(finite_two_words())
    assert report.finite.holds
    f, order_ok = report.finite.witness
    assert order_ok and f not in report.minimal.finals
    assert not report.cofinite.holds and report.cofinite.witness == ("follower not final", f)
    assert report.prefix_testable.holds
    assert report.piecewise_testable.holds
    assert report.star_free.holds


def test_classify_contains_a():
    report = classify_language(contains_a(), ns=(1, 2))
    assert not report.finite.holds and report.finite.witness == (0, "b", "a")
    assert not report.cofinite.holds
    assert not report.prefix_testable.holds
    assert report.piecewise_testable.holds
    assert report.positive_piecewise_testable.holds
    assert report.star_free.holds
    assert report.r_trivial_language.holds
    assert report.weakly_confluent.holds
    assert report.synchronizing.witness == "a"
    assert not report.autonomous.holds
    assert dict(report.n_insertion_closed)[1].holds
    names = [name for name, _ in report.items()]
    assert names[-2:] == ["n_insertion_closed_1", "n_insertion_closed_2"]


def test_classify_even_a():
    report = classify_language(even_a(), ns=(1, 2))
    assert not report.star_free.holds and report.star_free.witness == (0, "a")
    assert not report.piecewise_testable.holds
    assert not report.finite.holds
    assert not report.positive_piecewise_testable.holds
    assert not report.synchronizing.holds
    assert report.autonomous.holds
    closed = dict(report.n_insertion_closed)
    assert not closed[1].holds and closed[1].witness == (0, "a")
    assert closed[2].holds


def test_classify_full_language():
    oa = canonical_ordered_automaton(parse_regex("(a|b)*", AB), AB)
    report = classify_language(oa)
    assert report.minimal.state_count == 1
    assert report.cofinite.holds
    assert not report.finite.holds and report.finite.witness == ("follower final", 0)
    for name, v in report.items():
        if name != "finite":
            assert v.holds, name
    assert report.synchronizing.witness == ""


def test_classify_judges_the_minimal_automaton():
    # bloated presentation of {w : w contains a}; classification must not change
    bloated = canonical_ordered_automaton(parse_regex("(a|b)*a(a|b)*|aa(a|b)*", AB), AB)
    direct = classify_language(contains_a())
    via = classify_language(bloated)
    assert [(n, v.holds) for n, v in via.items()] == [
        (n, v.holds) for n, v in direct.items()
    ]


def test_report_implications():
    rng = random.Random(53)
    for _ in range(120):
        oa = random_automaton(rng, 5, AB, ordered=rng.random() < 0.5)
        report = classify_language(oa, ns=(1,))
        if report.positive_piecewise_testable.holds:
            assert report.piecewise_testable.holds
        if report.finite.holds:
            assert report.piecewise_testable.holds
            assert report.prefix_testable.holds
        if report.piecewise_testable.holds:
            assert report.star_free.holds
        assert report.finite.holds <= report.prefix_testable.holds
