"""Minimal ordered automaton computation and ordered-automaton isomorphism.

The minimization refines the pair relation

    R1 = (Q x F) + ((Q \\ F) x Q)

by removing (p, q) whenever some letter a gives (p.a, q.a) outside the
current relation.  The greatest fixpoint Rbar satisfies: (p, q) in Rbar
iff every word u with p.u final also has q.u final.  Quotienting by the
symmetrization rho = Rbar & Rbar^-1 and ordering classes by Rbar yields
the minimal ordered automaton; its order coincides with inclusion of
residual languages.
"""

from __future__ import annotations

from operator import and_

from .core import (
    OrderedAutomaton,
    OrderedSemiautomaton,
    Semiautomaton,
    StateOrder,
    bits,
    explore,
    row_fixpoint,
)


def _initial_relation(oa: OrderedAutomaton) -> list[int]:
    """R1 as bit rows: a final state is below final states only, a non-final one below all."""
    everything = (1 << oa.state_count) - 1
    final_mask = sum(1 << q for q in oa.finals)
    return [final_mask if p in oa.finals else everything for p in range(oa.state_count)]


def preorder(oa: OrderedAutomaton) -> StateOrder:
    """Greatest relation inside R1 closed under letter actions.

    The declared state order of the input is ignored; only transitions and
    finals matter.  Row p of the fixpoint is R1[p] & pre_a(rel[p.a]) over
    every letter a, where pre_a(M) holds the states that a sends into M:
    core.row_fixpoint with and_, from the rows of R1.
    """
    return StateOrder(tuple(row_fixpoint(oa.sa, _initial_relation(oa), range(len(oa.alphabet)), and_)))


def preorder_naive(oa: OrderedAutomaton) -> StateOrder:
    """Scan-until-fixpoint reference version of preorder, for differential tests."""
    delta = oa.sa.delta
    rel = _initial_relation(oa)
    changed = True
    while changed:
        changed = False
        for p, dp in enumerate(delta):
            for q in bits(rel[p]):
                if any(not rel[a] >> b & 1 for a, b in zip(dp, delta[q])):
                    rel[p] &= ~(1 << q)
                    changed = True
    return StateOrder(tuple(rel))


def reachable_part(oa: OrderedAutomaton) -> OrderedAutomaton:
    """Restriction to the states reachable from the initial one, renumbered in BFS order."""
    sa = oa.sa
    reach, delta = explore(oa.initial, sa.delta.__getitem__)
    names = tuple(sa.names[old] for old in reach) if sa.names is not None else None
    finals = frozenset(new for new, old in enumerate(reach) if old in oa.finals)
    return OrderedAutomaton(
        OrderedSemiautomaton(Semiautomaton(sa.alphabet, tuple(delta), names), oa.order.restrict(reach)),
        0,
        finals,
    )


def minimize_with_map(oa: OrderedAutomaton) -> tuple[OrderedAutomaton, OrderedAutomaton, tuple[int, ...]]:
    """Minimize; also return the reachable part and its quotient map onto the result.

    Returns (reachable, minimal, mapping) where mapping[q] is the minimal-automaton
    state holding the rho-class of state q of `reachable`.  The mapping is a
    surjective homomorphism of ordered semiautomata.
    """
    part = reachable_part(oa)
    sa = part.sa
    rbar = preorder(part)
    rep = rbar.representatives()

    # classes are numbered by BFS from the initial class, letters in alphabet order
    reps, delta = explore(rep[part.initial], lambda r: [rep[s] for s in sa.delta[r]])
    finals = frozenset(i for i, r in enumerate(reps) if r in part.finals)
    names = tuple(sa.names[r] for r in reps) if sa.names is not None else None
    minimal = OrderedAutomaton(
        OrderedSemiautomaton(Semiautomaton(sa.alphabet, tuple(delta), names), rbar.restrict(reps)), 0, finals
    )
    number = {r: i for i, r in enumerate(reps)}
    return part, minimal, tuple(number[r] for r in rep)


def minimize_ordered(oa: OrderedAutomaton) -> OrderedAutomaton:
    """The minimal ordered automaton of the input's language."""
    return minimize_with_map(oa)[1]


def isomorphism(oa1: OrderedAutomaton, oa2: OrderedAutomaton) -> dict[int, int] | None:
    """The unique candidate bijection between reachable parts, or None.

    Deterministic automata admit at most one initial-preserving bijection,
    found by walking both automata in lockstep.  Unreachable states are
    ignored; minimal automata have none.
    """
    if oa1.alphabet.symbols != oa2.alphabet.symbols:
        return None
    d1, d2 = oa1.sa.delta, oa2.sa.delta
    # the pairs reachable from the initial pair: their second coordinates are
    # oa2's reachable states, and they form a bijection exactly when no state
    # of either side turns up in two of them
    pairs = explore((oa1.initial, oa2.initial), lambda pair: zip(d1[pair[0]], d2[pair[1]]))[0]
    mapping = dict(pairs)
    if len(mapping) != len(pairs) or len(set(mapping.values())) != len(pairs):
        return None
    for p, q in mapping.items():
        if (p in oa1.finals) != (q in oa2.finals):
            return None
    if oa1.order.restrict(list(mapping)) != oa2.order.restrict(list(mapping.values())):
        return None
    return mapping


def isomorphic(oa1: OrderedAutomaton, oa2: OrderedAutomaton) -> bool:
    """True iff some bijection preserves initial, finals, transitions, and order both ways."""
    return isomorphism(oa1, oa2) is not None
