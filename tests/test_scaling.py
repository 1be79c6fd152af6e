"""Growth exponents: each layer timed on one family at two sizes.

Wall-clock bounds do not carry over between machines, and identical runs on
one machine drift by 10-25%, but the ratio of two sizes timed in turn in one
process does.  Each row times both sizes a few times, interleaved, keeps each
size's fastest run, and bounds the fitted exponent by its target plus 0.5.
"""

import math
import random
import time
import tracemalloc

from orda.classify import is_synchronizing
from orda.core import Alphabet, OrderedAutomaton, OrderedSemiautomaton, Semiautomaton, StateOrder, format_automaton, parse_automaton
from orda.languages import parse_regex
from orda.minimize import preorder, reachable_part
from orda.monoid import TransitionMonoid, build
from orda.omega import _check, parse_query

from fixtures import chain_automaton


def _seconds_per_call(run, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        run()
    return (time.perf_counter() - start) / calls


def _catalan(n: int) -> OrderedSemiautomaton:
    """The Catalan monoid on n points: letter i moves point i to i + 1."""
    maps = [[q + (q == i) for q in range(n)] for i in range(n - 1)]
    sa = Semiautomaton(Alphabet(tuple("abcdefghij"[: n - 1])), tuple(tuple(m[q] for m in maps) for q in range(n)))
    return OrderedSemiautomaton(sa, StateOrder.discrete(n))


def test_check_is_linear_in_tuples():
    # Catalan monoids are J-trivial, so the R-triviality query holds and every
    # one of the |M|^2 tuples is decided: 132^2 = 17 424 on 6 points, 429^2 =
    # 184 041 on 7; the smaller size is called often enough to run 50 ms
    query = parse_query("(x y)^w x == (x y)^w @all")
    sizes = []
    for n, calls in ((6, 16), (7, 2)):
        osa = _catalan(n)
        tm = build(osa)
        assert _check(osa, tm, query).holds
        sizes.append((len(tm) ** 2, lambda osa=osa, tm=tm: _check(osa, tm, query), calls))
    best = [math.inf, math.inf]
    for _ in range(3):
        for i, (_, run, calls) in enumerate(sizes):
            best[i] = min(best[i], _seconds_per_call(run, calls))
    (small, _, _), (large, _, _) = sizes
    exponent = math.log(best[1] / best[0]) / math.log(large / small)
    assert exponent <= 1.5, (exponent, best)


def _exponent(cases) -> float:
    """The growth exponent between two (size, run, calls) cases: each run is
    timed calls times in a row, three times, interleaved, and each case keeps
    its fastest time per call."""
    best = [math.inf, math.inf]
    for _ in range(3):
        for i, (_, run, calls) in enumerate(cases):
            best[i] = min(best[i], _seconds_per_call(run, calls))
    (small, _, _), (large, _, _) = cases
    return math.log(best[1] / best[0]) / math.log(large / small)


def test_closure_is_linear_in_products():
    # the closure takes one product per element and letter: 429 * 6 = 2574
    # on the Catalan monoid of 7 points, 4862 * 8 = 38 896 on 9; the smaller
    # size is called often enough to run 50 ms
    cases = []
    for n, calls in ((7, 80), (9, 3)):
        osa = _catalan(n)
        cases.append((len(build(osa)) * (n - 1), lambda osa=osa: build(osa), calls))
    exponent = _exponent(cases)
    assert exponent <= 1.5, exponent


def _spell_every_word(tm: TransitionMonoid) -> list[str]:
    """Every element's word, on a fresh monoid over tm's Cayley graph, so that
    the tree the words are spelled along is built anew."""
    fresh = TransitionMonoid(tm.elements, tm.generators, tm.right, tm.order)
    return [fresh.word(i) for i in range(len(fresh))]


def test_spelling_every_word_is_linear_in_elements():
    # each word is spelled back along the tree of the right Cayley graph,
    # built once per monoid: 429 elements on the Catalan monoid of 7 points,
    # 4862 on 9; the smaller size is called often enough to run 30 ms
    cases = []
    for n, calls in ((7, 40), (9, 3)):
        tm = build(_catalan(n))
        cases.append((len(tm), lambda tm=tm: _spell_every_word(tm), calls))
    exponent = _exponent(cases)
    assert exponent <= 1.5, exponent


def test_parse_is_linear_in_lines():
    # 150 states give 11 175 order lines, 300 give 44 850: about four times
    # the lines; the smaller text is parsed often enough to run 50 ms
    rng = random.Random(1)
    cases = []
    for n, calls in ((150, 8), (300, 2)):
        # n(n-1)/2 order lines and 3n transition lines
        text = format_automaton(chain_automaton(rng, n, Alphabet(("a", "b", "c"))))
        assert parse_automaton(text).state_count == n
        cases.append((text.count("\n"), lambda text=text: parse_automaton(text), calls))
    exponent = _exponent(cases)
    assert exponent <= 1.5, exponent


def test_parsers_are_linear_in_length():
    # a union of n parts and a product of n factors, spaced out, at n = 1000
    # and 4000, sized by their characters: both parsers read one scan of the
    # text, and a reader that scans the rest of the text again per token
    # fits an exponent near 2 here (a bare slice per token, a memcpy, stays
    # near 1.1); the smaller texts are parsed often enough to run 30 ms
    for make, parse in ((lambda n: " | ".join(["ab"] * n), lambda text: parse_regex(text, "ab")),
                        (lambda n: " ".join(f"x{k}" for k in range(n)) + " == x0 @all", parse_query)):
        cases = [(len(make(n)), lambda text=make(n): parse(text), calls) for n, calls in ((1000, 4), (4000, 1))]
        exponent = _exponent(cases)
        assert exponent <= 1.5, exponent


def _random_dfa(rng: random.Random, n: int) -> OrderedAutomaton:
    """A 3-letter automaton of exactly n states with the discrete order, drawn
    as the benchmark's random_dfa draws: uniform transitions, each state
    final with chance 1/2, a uniform initial state."""
    delta = tuple(tuple(rng.randrange(n) for _ in "abc") for _ in range(n))
    finals = frozenset(q for q in range(n) if rng.random() < 0.5)
    sa = Semiautomaton(Alphabet(("a", "b", "c")), delta)
    return OrderedAutomaton(OrderedSemiautomaton(sa, StateOrder.discrete(n)), rng.randrange(n), finals)


def test_preorder_is_quadratic_in_states():
    # the reachable parts of 1500 and 6000 states keep 1409 and 5660 states,
    # and their preorders are nearly discrete: nearly every row loses nearly
    # all its columns, so work per lost column is cubic here; the smaller
    # part is ordered twice per timing to run 50 ms
    cases = []
    for n, calls in ((1500, 2), (6000, 1)):
        part = reachable_part(_random_dfa(random.Random(1), n))
        cases.append((part.state_count, lambda part=part: preorder(part), calls))
    assert [size for size, _, _ in cases] == [1409, 5660]
    exponent = _exponent(cases)
    assert exponent <= 2.5, exponent


def _exactly(n: int, alphabet: Alphabet) -> Semiautomaton:
    """The minimal automaton of {a^n} over the alphabet, a its first letter:
    state q < n + 1 has read a^q, and every other word leads to the sink n + 1."""
    sink = n + 1
    return Semiautomaton(alphabet, tuple((min(q + 1, sink),) + (sink,) * (len(alphabet) - 1) for q in range(n + 2)))


def test_synchronizing_is_within_quadratic():
    # over one letter every pair merges only at the sink, after up to n + 1
    # letters: the sink's merge row fills first, then each row once down the
    # chain, and the reset word is one search of n + 1 pairs (recomputing the
    # dirty rows in ascending rounds took about n^2 row changes instead); the
    # smaller size is called often enough to run 50 ms
    cases = []
    for n, calls in ((500, 8), (2000, 1)):
        sa = _exactly(n, Alphabet(("a",)))
        assert is_synchronizing(sa).witness == "a" * (n + 1)
        cases.append((n, lambda sa=sa: is_synchronizing(sa), calls))
    exponent = _exponent(cases)
    assert exponent <= 2.5, exponent


def test_synchronizing_memory_stays_near_the_rows():
    # {a^1000} over ab: 1002 rows of 1002 bits are 0.13 MB; a table of the
    # n^2 mergeable pairs would take over 100 MB
    sa = _exactly(1000, Alphabet(("a", "b")))
    tracemalloc.start()
    try:
        verdict = is_synchronizing(sa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds and verdict.witness == "b"
    assert peak < 8_000_000, peak
