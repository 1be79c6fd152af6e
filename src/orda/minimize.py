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

from collections import deque

from .core import (
    OrderedAutomaton,
    OrderedSemiautomaton,
    Semiautomaton,
    StateOrder,
    bits,
    reachable_states,
)


def _initial_relation(oa: OrderedAutomaton) -> list[int]:
    """R1 as bit rows: a final state is below final states only, a non-final one below all."""
    everything = (1 << oa.state_count) - 1
    final_mask = sum(1 << q for q in oa.finals)
    return [final_mask if p in oa.finals else everything for p in range(oa.state_count)]


def preorder(oa: OrderedAutomaton) -> StateOrder:
    """Greatest relation inside R1 closed under letter actions.

    The declared state order of the input is ignored; only transitions and
    finals matter.  Uses a worklist over removed pairs with per-letter
    predecessor masks, so each pair is processed once.
    """
    sa = oa.sa
    n = sa.state_count
    width = len(sa.alphabet)
    preds = [[[] for _ in range(width)] for _ in range(n)]
    pred_mask = [[0] * width for _ in range(n)]
    for p in range(n):
        row = sa.delta[p]
        for k in range(width):
            preds[row[k]][k].append(p)
            pred_mask[row[k]][k] |= 1 << p

    rel = _initial_relation(oa)
    queue = deque((p, q) for p in range(n) for q in bits(~rel[p] & ((1 << n) - 1)))
    while queue:
        rp, rq = queue.popleft()
        for k in range(width):
            mask = pred_mask[rq][k]
            if not mask:
                continue
            for p in preds[rp][k]:
                hit = rel[p] & mask
                rel[p] ^= hit
                while hit:  # inline bit loop: one removed pair per set bit
                    low = hit & -hit
                    queue.append((p, low.bit_length() - 1))
                    hit ^= low
    return StateOrder(tuple(rel))


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
    reach = reachable_states(sa, oa.initial)
    index = {old: new for new, old in enumerate(reach)}
    width = len(sa.alphabet)
    delta = tuple(tuple(index[sa.delta[old][k]] for k in range(width)) for old in reach)
    names = tuple(sa.names[old] for old in reach) if sa.names is not None else None
    finals = frozenset(index[q] for q in oa.finals if q in index)
    return OrderedAutomaton(
        OrderedSemiautomaton(Semiautomaton(sa.alphabet, delta, names), oa.order.restrict(reach)),
        index[oa.initial],
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
    n = sa.state_count
    width = len(sa.alphabet)
    rbar = preorder(part)
    rep = rbar.representatives()

    # number the classes by BFS from the initial class, letters in alphabet order
    class_index: dict[int, int] = {}
    reps_in_order: list[int] = []
    queue = deque([rep[part.initial]])
    class_index[rep[part.initial]] = 0
    reps_in_order.append(rep[part.initial])
    while queue:
        r = queue.popleft()
        for k in range(width):
            s = rep[sa.delta[r][k]]
            if s not in class_index:
                class_index[s] = len(reps_in_order)
                reps_in_order.append(s)
                queue.append(s)

    delta = tuple(tuple(class_index[rep[sa.delta[r][k]]] for k in range(width)) for r in reps_in_order)
    finals = frozenset(i for i, r in enumerate(reps_in_order) if r in part.finals)
    names = tuple(sa.names[r] for r in reps_in_order) if sa.names is not None else None
    order = rbar.restrict(reps_in_order)
    minimal = OrderedAutomaton(
        OrderedSemiautomaton(Semiautomaton(sa.alphabet, delta, names), order), 0, finals
    )
    mapping = tuple(class_index[rep[q]] for q in range(n))
    return part, minimal, mapping


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
    sa1, sa2 = oa1.sa, oa2.sa
    width = len(sa1.alphabet)
    mapping = {oa1.initial: oa2.initial}
    used = {oa2.initial}
    queue = deque([oa1.initial])
    while queue:
        p = queue.popleft()
        for k in range(width):
            r1, r2 = sa1.delta[p][k], sa2.delta[mapping[p]][k]
            if r1 in mapping:
                if mapping[r1] != r2:
                    return None
            else:
                if r2 in used:
                    return None
                mapping[r1] = r2
                used.add(r2)
                queue.append(r1)
    if len(used) != len(reachable_states(sa2, oa2.initial)):
        return None
    for p, q in mapping.items():
        if (p in oa1.finals) != (q in oa2.finals):
            return None
    for p1, q1 in mapping.items():
        for p2, q2 in mapping.items():
            if oa1.order.leq(p1, p2) != oa2.order.leq(q1, q2):
                return None
    return mapping


def isomorphic(oa1: OrderedAutomaton, oa2: OrderedAutomaton) -> bool:
    """True iff some bijection preserves initial, finals, transitions, and order both ways."""
    return isomorphism(oa1, oa2) is not None
