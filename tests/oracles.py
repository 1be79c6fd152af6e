"""Brute-force reference implementations the tests compare against.

Everything here favors obviousness over speed: languages are word sets up
to a length bound, relations are decided on explicit pair automata, the
monoid is enumerated as raw transformation tuples.  None of it shares
code with the algorithmic paths under test.
"""

from __future__ import annotations

import itertools

from orda.classify import Verdict
from orda.core import OrderedAutomaton, Semiautomaton, step
from orda.errors import OrdaError


def words_up_to(alphabet, max_len: int) -> list[str]:
    out = [""]
    for k in range(1, max_len + 1):
        out.extend("".join(t) for t in itertools.product(alphabet.symbols, repeat=k))
    return out


def words_of_length(alphabet, n: int) -> list[str]:
    return ["".join(t) for t in itertools.product(alphabet.symbols, repeat=n)]


def language(oa: OrderedAutomaton, max_len: int) -> frozenset:
    sa = oa.sa
    return frozenset(
        w for w in words_up_to(oa.alphabet, max_len) if step(sa, oa.initial, w) in oa.finals
    )


def residual_included(oa: OrderedAutomaton, p: int, q: int) -> bool:
    """Exact inclusion of future languages via the pair automaton.

    L_p is contained in L_q iff no pair reachable from (p, q) is
    (final, non-final).
    """
    width = len(oa.alphabet)
    seen = {(p, q)}
    stack = [(p, q)]
    while stack:
        x, y = stack.pop()
        if x in oa.finals and y not in oa.finals:
            return False
        for k in range(width):
            nxt = (oa.sa.delta[x][k], oa.sa.delta[y][k])
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def bounded_preorder(oa: OrderedAutomaton, max_len: int) -> list[list[bool]]:
    """p related to q iff every word up to the bound is accepted from q when from p."""
    n = oa.state_count
    sa = oa.sa
    rel = [[True] * n for _ in range(n)]
    for w in words_up_to(oa.alphabet, max_len):
        landing = [step(sa, s, w) in oa.finals for s in range(n)]
        for p in range(n):
            if not landing[p]:
                continue
            for q in range(n):
                if not landing[q]:
                    rel[p][q] = False
    return rel


def transformations(sa: Semiautomaton) -> dict[tuple, str]:
    """Every word action as a tuple, with its first witness in length-lex order."""
    ident = tuple(range(sa.state_count))
    seen = {ident: ""}
    frontier = [ident]
    while frontier:
        nxt = []
        for t in frontier:
            w = seen[t]
            for k, a in enumerate(sa.alphabet):
                u = tuple(sa.delta[t[q]][k] for q in range(sa.state_count))
                if u not in seen:
                    seen[u] = w + a
                    nxt.append(u)
        frontier = nxt
    return seen


def compose(s: tuple, t: tuple) -> tuple:
    """Action of 'first s then t'."""
    return tuple(t[s[q]] for q in range(len(s)))


def aperiodic_brute(elements) -> bool:
    """Every element's power sequence becomes constant (eventual period 1)."""
    for t in elements:
        powers = [t]
        seen = {t: 0}
        cur = t
        while True:
            cur = compose(cur, t)
            if cur in seen:
                lam = len(powers) - seen[cur]
                if lam != 1:
                    return False
                break
            seen[cur] = len(powers)
            powers.append(cur)
    return True


def r_trivial_brute(elements) -> bool:
    """Distinct elements generate distinct right ideals xM."""
    elems = list(elements)
    ideals = [frozenset(compose(x, m) for m in elems) for x in elems]
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if ideals[i] == ideals[j]:
                return False
    return True


def j_trivial_brute(elements) -> bool:
    """Distinct elements generate distinct two-sided ideals MxM."""
    elems = list(elements)
    ideals = [
        frozenset(compose(compose(u, x), v) for u in elems for v in elems) for x in elems
    ]
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if ideals[i] == ideals[j]:
                return False
    return True


def extensive_brute(osa) -> bool:
    """q is below q.t for every monoid element t (not only the letters)."""
    for t in transformations(osa.sa):
        for q in range(osa.state_count):
            if not osa.order.leq(q, t[q]):
                return False
    return True


def joinable(sa: Semiautomaton, p: int, q: int) -> bool:
    """Some word sends p and q to a common state."""
    if p == q:
        return True
    seen = {(p, q)}
    stack = [(p, q)]
    while stack:
        x, y = stack.pop()
        for k in range(len(sa.alphabet)):
            nx, ny = sa.delta[x][k], sa.delta[y][k]
            if nx == ny:
                return True
            if (nx, ny) not in seen:
                seen.add((nx, ny))
                stack.append((nx, ny))
    return False


def weakly_confluent_brute(sa: Semiautomaton) -> bool:
    """Literal definition: branches q.u, q.v always joinable, u and v short."""
    n = sa.state_count
    for q in range(n):
        ends = {step(sa, q, w) for w in words_up_to(sa.alphabet, n)}
        for p1 in ends:
            for p2 in ends:
                if not joinable(sa, p1, p2):
                    return False
    return True


def n_extensive_brute(osa, n: int) -> bool:
    """q <= q.v for every word of length exactly n, by full enumeration."""
    sa = osa.sa
    for v in words_of_length(sa.alphabet, n):
        for q in range(sa.state_count):
            if not osa.order.leq(q, step(sa, q, v)):
                return False
    return True


def lemma8_check(sa: Semiautomaton, max_len: int = 3) -> Verdict:
    """Exhaustive check of q.u.(uv)^|Q| = q.v.(uv)^|Q| for short u, v.

    Only meaningful on acyclic inputs, where the equality for all pairs is
    another face of confluence; used as a differential oracle against
    is_confluent, so it steps through words literally.  Acyclicity is
    decided here as R-triviality of the enumerated transformation monoid.
    """
    if not r_trivial_brute(transformations(sa)):
        raise OrdaError("lemma8_check requires an acyclic semiautomaton")
    n = sa.state_count
    words = words_up_to(sa.alphabet, max_len)
    for u in words:
        for v in words:
            pump = (u + v) * n
            for q in range(n):
                if step(sa, step(sa, q, u), pump) != step(sa, step(sa, q, v), pump):
                    return Verdict(False, (q, u, v))
    return Verdict(True)


def order_violations(sa: Semiautomaton, rel, finals) -> list[str]:
    """The messages validate must give for the relation rel[p][q] (p <= q), by plain loops."""
    n = sa.state_count
    out = [f"reflexivity: {p}" for p in range(n) if not rel[p][p]]
    for p in range(n):
        for q in range(n):
            if p != q and rel[p][q] and rel[q][p]:
                out.append(f"antisymmetry: {p},{q}")
    for p in range(n):
        for q in range(n):
            for r in range(n):
                if rel[p][q] and rel[q][r] and not rel[p][r]:
                    out.append(f"transitivity: {p},{q},{r}")
    for p in range(n):
        for q in range(n):
            for k, a in enumerate(sa.alphabet):
                x, y = sa.delta[p][k], sa.delta[q][k]
                if p != q and rel[p][q] and not rel[x][y]:
                    out.append(f"compatibility: {p}<={q} but {x}<={y} fails on {a!r}")
    for p in finals:
        for q in range(n):
            if rel[p][q] and q not in finals:
                out.append(f"finals not upward closed: {p}<={q}, {q} not final")
    return out


def precongruence_errors(sa: Semiautomaton, order, rel) -> list[str]:
    """Every reason rel (a bool matrix) cannot quotient a semiautomaton ordered by
    the bool matrix order, in the order quotient_by_precongruence checks them:
    reflexivity, transitivity, then per pair (p, q) containment of the order
    before compatibility with each letter."""
    n = sa.state_count
    out = [f"not reflexive at {p}" for p in range(n) if not rel[p][p]]
    for p in range(n):
        for q in range(n):
            for r in range(n):
                if rel[p][q] and rel[q][r] and not rel[p][r]:
                    out.append(f"not transitive at {p},{q},{r}")
    for p in range(n):
        for q in range(n):
            if order[p][q] and not rel[p][q]:
                out.append(f"state order not contained: {p} <= {q}")
            for k, a in enumerate(sa.alphabet):
                if rel[p][q] and not rel[sa.delta[p][k]][sa.delta[q][k]]:
                    out.append(f"not action-compatible: {p},{q} on {a!r}")
    return out
