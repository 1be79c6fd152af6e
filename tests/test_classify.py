"""Class membership checks and the combined language report."""

import random

import pytest

from orda.classify import (
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
from orda.core import Alphabet, OrderedSemiautomaton, Semiautomaton, StateOrder, step
from orda.errors import OrdaError, ResourceError
from orda.fixtures import AB, ab_star, cerny, contains_a, even_a, finite_two_words
from orda.generate import random_automaton, random_minimal_automaton, random_semiautomaton
from orda.languages import canonical_ordered_automaton, parse_regex
from orda.monoid import build as build_monoid

from oracles import (
    aperiodic_brute,
    extensive_brute,
    j_trivial_brute,
    joinable,
    lemma8_check,
    n_extensive_brute,
    r_trivial_brute,
    transformations,
    weakly_confluent_brute,
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
        is_confluent(contains_a().sa, alphabet_cap=1)


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
    rng = random.Random(31)
    checked = 0
    while checked < 40:
        sa = random_semiautomaton(rng, 4, AB)
        if not is_acyclic(sa).holds:
            continue
        checked += 1
        assert is_confluent(sa).holds == lemma8_check(sa, max_len=4).holds


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
