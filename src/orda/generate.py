"""Seeded random instances for fuzzing and the oracle driver.

Everything takes an explicit random.Random so runs are reproducible
from a single seed.  Transition targets are uniform, each state is
final with density 0.5, and orders are sampled along a random
topological order then rejection-tested against the action
compatibility law (fallback: discrete).
"""

from __future__ import annotations

import random

from .core import (
    Alphabet,
    OrderedAutomaton,
    OrderedSemiautomaton,
    Semiautomaton,
    StateOrder,
    compatibility_failures,
)
from .languages import (
    EMPTY,
    EPS,
    Regex,
    cat,
    compl,
    inter,
    star,
    sym,
    union,
    word_regex,
)
from .minimize import minimize_ordered

_ORDER_TRIES = 50


def random_semiautomaton(rng: random.Random, max_states: int, alphabet: Alphabet) -> Semiautomaton:
    n = rng.randint(1, max_states)
    rows = tuple(tuple(rng.randrange(n) for _ in alphabet) for _ in range(n))
    return Semiautomaton(alphabet, rows)


def random_compatible_order(rng: random.Random, sa: Semiautomaton) -> StateOrder:
    """A partial order compatible with the actions; discrete when sampling fails.

    Pairs are drawn only along a random permutation of the states, so
    antisymmetry and (after closure) transitivity are free; only
    compatibility needs the rejection loop.
    """
    n = sa.state_count
    if n == 1:
        return StateOrder.discrete(1)
    for _ in range(_ORDER_TRIES):
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [1 << p for p in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    rows[perm[i]] |= 1 << perm[j]
        # transitive closure; edges all point forward along perm so no cycles
        for k in range(n):
            for p in range(n):
                if rows[p] >> k & 1:
                    rows[p] |= rows[k]
        order = StateOrder(tuple(rows))
        if next(compatibility_failures(sa, order), None) is None:
            return order
    return StateOrder.discrete(n)


def random_automaton(
    rng: random.Random,
    max_states: int = 5,
    alphabet: Alphabet = Alphabet(("a", "b")),
    ordered: bool = False,
) -> OrderedAutomaton:
    """Random valid ordered automaton; ordered=False keeps the discrete order."""
    sa = random_semiautomaton(rng, max_states, alphabet)
    n = sa.state_count
    order = random_compatible_order(rng, sa) if ordered else StateOrder.discrete(n)
    finals = {q for q in range(n) if rng.random() < 0.5}
    # close upward so the final-set invariant holds under any sampled order
    finals = frozenset(q for q in range(n) if any(order.leq(f, q) for f in finals))
    initial = rng.randrange(n)
    return OrderedAutomaton(OrderedSemiautomaton(sa, order), initial, finals)


def random_minimal_automaton(
    rng: random.Random,
    max_states: int = 5,
    alphabet: Alphabet = Alphabet(("a", "b")),
) -> OrderedAutomaton:
    return minimize_ordered(random_automaton(rng, max_states, alphabet))


def random_regex(rng: random.Random, alphabet: Alphabet, depth: int = 4) -> Regex:
    """Random regex over the full grammar, boolean operators kept rare."""
    if depth <= 0:
        roll = rng.random()
        if roll < 0.75:
            return sym(rng.choice(alphabet.symbols))
        if roll < 0.9:
            return EPS
        return EMPTY
    roll = rng.random()
    if roll < 0.3:
        return union([random_regex(rng, alphabet, depth - 1), random_regex(rng, alphabet, depth - 1)])
    if roll < 0.6:
        return cat(random_regex(rng, alphabet, depth - 1), random_regex(rng, alphabet, depth - 1))
    if roll < 0.8:
        return star(random_regex(rng, alphabet, depth - 1))
    if roll < 0.9:
        return inter(random_regex(rng, alphabet, depth - 1), random_regex(rng, alphabet, depth - 1))
    if roll < 0.95:
        return compl(random_regex(rng, alphabet, depth - 1))
    return sym(rng.choice(alphabet.symbols))


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
