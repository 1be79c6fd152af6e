"""Small hand-built automata and test-only helpers used across the test suite.

Each language fixture is already in canonical form: states are the
distinct left quotients of the language and the order is inclusion of
the accepted futures.  cerny() has no order or accepting structure; it
is the classical slowly-synchronizing family.  The helpers at the end
look up a word in a transition monoid and draw seeded random words,
finite languages, prefix-testable regexes and chain-ordered automata, and
build automata, orders and letter substitutions from dicts and predicates.
"""

from __future__ import annotations

import random

from orda.core import (
    Alphabet,
    OrderedAutomaton,
    OrderedSemiautomaton,
    Semiautomaton,
    StateOrder,
)
from orda.constructions import LetterSubstitution
from orda.errors import AlphabetError, OrdaError
from orda.languages import Regex, cat, star, sym, union, word_regex
from orda.monoid import TransitionMonoid

AB = Alphabet(("a", "b"))


def order_from_pairs(n: int, pairs) -> StateOrder:
    """The relation holding exactly the given pairs plus reflexivity; a pair
    out of range leaves a bit StateOrder refuses."""
    rows = [1 << p for p in range(n)]
    for p, q in pairs:
        rows[p] |= 1 << q
    return StateOrder(tuple(rows))


def order_from_leq(n: int, leq) -> StateOrder:
    return StateOrder(tuple(sum(1 << q for q in range(n) if leq(p, q)) for p in range(n)))


def semiautomaton_from_map(alphabet: Alphabet, state_count: int, moves: dict, names=None) -> Semiautomaton:
    """Build from a {(state, symbol): state} dict; every pair must be present."""
    rows = []
    for q in range(state_count):
        row = []
        for a in alphabet:
            if (q, a) not in moves:
                raise OrdaError(f"missing transition for ({q}, {a!r})")
            row.append(moves[(q, a)])
        rows.append(tuple(row))
    return Semiautomaton(alphabet, tuple(rows), tuple(names) if names is not None else None)


def substitution_from_map(source: Alphabet, target: Alphabet, mapping: dict) -> LetterSubstitution:
    try:
        images = tuple(mapping[b] for b in source)
    except KeyError as e:
        raise AlphabetError(f"no image for source symbol {e.args[0]!r}") from None
    return LetterSubstitution(source, target, images)


def apply_substitution(f: LetterSubstitution, w: str) -> str:
    return "".join(f.word(b) for b in w)


def discrete(sa: Semiautomaton) -> OrderedSemiautomaton:
    """Equip with the equality order."""
    return OrderedSemiautomaton(sa, StateOrder.discrete(sa.state_count))


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


def chain_automaton(rng: random.Random, n: int, alphabet: Alphabet) -> OrderedAutomaton:
    """n states on the chain 0 < 1 < ... < n-1, with n >= 2: the first
    letter is the saturating successor, the others are random non-decreasing
    maps, and the finals are a random non-empty proper up-set."""
    maps = [[min(q + 1, n - 1) for q in range(n)]]
    maps += [sorted(rng.randrange(n) for _ in range(n)) for _ in alphabet.symbols[1:]]
    sa = Semiautomaton(alphabet, tuple(tuple(m[q] for m in maps) for q in range(n)))
    chain = StateOrder(tuple(-1 << q & (1 << n) - 1 for q in range(n)))
    return OrderedAutomaton(OrderedSemiautomaton(sa, chain), 0, frozenset(range(rng.randrange(1, n), n)))


def element_of_word(tm: TransitionMonoid, w: str) -> int:
    """Fold the word through the right Cayley graph, whose columns follow the
    letters of the generator map in alphabet order."""
    column = {a: k for k, a in enumerate(tm.generators)}
    out = tm.identity
    for a in w:
        k = column.get(a)
        if k is None:
            raise AlphabetError(f"symbol {a!r} not in alphabet")
        out = tm.right[out][k]
    return out


def random_word(rng: random.Random, alphabet: Alphabet, max_len: int) -> str:
    return "".join(rng.choice(alphabet.symbols) for _ in range(rng.randint(0, max_len)))


def random_finite_language(
    rng: random.Random,
    alphabet: Alphabet,
    max_words: int = 20,
    max_len: int = 5,
) -> frozenset[str]:
    count = rng.randint(1, max_words)
    return frozenset(random_word(rng, alphabet, max_len) for _ in range(count))


def random_prefix_testable_regex(rng: random.Random, alphabet: Alphabet) -> Regex:
    """Union of a finite language and one or two u.A* blocks."""
    sigma = union([sym(a) for a in alphabet.symbols])
    parts = []
    for _ in range(rng.randint(1, 2)):
        u = random_word(rng, alphabet, 3)
        parts.append(cat(word_regex(u), star(sigma)))
    for _ in range(rng.randint(0, 5)):
        parts.append(word_regex(random_word(rng, alphabet, 4)))
    return union(parts)
