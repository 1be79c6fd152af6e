"""Small hand-built automata used across the test suite.

Each language fixture is already in canonical form: states are the
distinct left quotients of the language and the order is inclusion of
the accepted futures.  cerny() has no order or accepting structure; it
is the classical slowly-synchronizing family.
"""

from __future__ import annotations

from orda.core import (
    Alphabet,
    OrderedAutomaton,
    OrderedSemiautomaton,
    Semiautomaton,
    StateOrder,
)

AB = Alphabet(("a", "b"))


def order_from_pairs(n: int, pairs) -> StateOrder:
    """The relation holding exactly the given pairs plus reflexivity; a pair
    out of range leaves a bit StateOrder refuses."""
    rows = [1 << p for p in range(n)]
    for p, q in pairs:
        rows[p] |= 1 << q
    return StateOrder(tuple(rows))


def contains_a() -> OrderedAutomaton:
    """Words over {a, b} containing at least one a.

    Two states: 0 is still waiting, 1 has seen an a and absorbs
    everything.  0 <= 1 since the future of 0 is contained in the
    future of 1 (which is all words).
    """
    sa = Semiautomaton(AB, ((1, 0), (1, 1)))
    order = order_from_pairs(2, [(0, 1)])
    return OrderedAutomaton(OrderedSemiautomaton(sa, order), 0, frozenset({1}))


def ab_star() -> OrderedAutomaton:
    """(ab)* over {a, b}.

    State 0 expects a, state 1 expects b, state 2 is the dead sink.
    The sink's future is empty, hence below both live states; 0 and 1
    are incomparable.
    """
    sa = Semiautomaton(AB, ((1, 2), (2, 0), (2, 2)))
    order = order_from_pairs(3, [(2, 0), (2, 1)])
    return OrderedAutomaton(OrderedSemiautomaton(sa, order), 0, frozenset({0}))


def even_a() -> OrderedAutomaton:
    """(aa)* over the one-letter alphabet {a}.

    The letter action is the swap 0 <-> 1, so the transition monoid is
    the two-element group; the order is discrete.
    """
    sa = Semiautomaton(Alphabet(("a",)), ((1,), (0,)))
    return OrderedAutomaton(OrderedSemiautomaton(sa, StateOrder.discrete(2)), 0, frozenset({0}))


def cerny(n: int = 4) -> Semiautomaton:
    """The n-state Cerny semiautomaton over {a, b}.

    a is the cyclic shift i -> i+1 mod n, b sends 0 to 1 and fixes the
    rest.  Its shortest reset word has length (n-1)^2.
    """
    if n < 2:
        raise ValueError("need at least two states")
    rows = tuple(((q + 1) % n, 1 if q == 0 else q) for q in range(n))
    return Semiautomaton(AB, rows)


def finite_two_words() -> OrderedAutomaton:
    """The two-word language {ab, ba} over {a, b}.

    Five states: start, seen-a, seen-b, accept, dead.  Only the dead
    state is comparable to anything (it sits below every state).
    """
    rows = (
        (1, 2),  # start
        (4, 3),  # after a, only b continues
        (3, 4),  # after b, only a continues
        (4, 4),  # accepting, any letter kills
        (4, 4),  # dead
    )
    sa = Semiautomaton(AB, rows)
    order = order_from_pairs(5, [(4, q) for q in range(4)])
    return OrderedAutomaton(OrderedSemiautomaton(sa, order), 0, frozenset({3}))
