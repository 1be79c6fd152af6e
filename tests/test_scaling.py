"""Growth exponents: each layer timed on one family at two sizes.

Wall-clock bounds do not carry over between machines, and identical runs on
one machine drift by 10-25%, but the ratio of two sizes timed in turn in one
process does.  Each row times both sizes a few times, interleaved, keeps each
size's fastest run, and bounds the fitted exponent by its target plus 0.5.
"""

import math
import time

from orda.core import Alphabet, OrderedSemiautomaton, Semiautomaton, StateOrder
from orda.monoid import build
from orda.omega import _check, parse_query


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
