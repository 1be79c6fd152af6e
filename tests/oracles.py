"""Brute-force reference implementations the tests compare against.

Everything here favors obviousness over speed: languages are word sets up
to a length bound, relations are decided on explicit pair automata, the
monoid is enumerated as raw transformation tuples.  None of it shares
code with the algorithmic paths under test.
"""

from __future__ import annotations

import itertools
import re

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


def _ideal(start: tuple, steps) -> frozenset:
    """Closure of {start} under the maps in steps."""
    seen = {start}
    stack = [start]
    while stack:
        t = stack.pop()
        for step_map in steps:
            u = step_map(t)
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return frozenset(seen)


def _first_shared(ideals) -> tuple[bool, tuple[int, int] | None]:
    """(True, None) if the ideals are distinct, else (False, (i, x)) for the first
    x whose ideal an earlier i already has."""
    first: dict[frozenset, int] = {}
    for x, ideal in enumerate(ideals):
        if ideal in first:
            return False, (first[ideal], x)
        first[ideal] = x
    return True, None


def green_triviality_brute(sa: Semiautomaton) -> tuple[tuple, tuple]:
    """R- and J-triviality of the transition monoid, each as (holds, pair), by
    explicit ideal closures over the raw transformations.

    Elements are numbered in the order transformations() finds them.  A
    non-aperiodic monoid fails both with (e, e.m), where m is the first element
    whose powers do not settle and e its idempotent power.  Otherwise R fails
    at the first element whose right ideal an earlier one generates, paired
    with that earlier one; J is tested the same way, and only if R holds.
    """
    elems = list(transformations(sa))
    index = {t: i for i, t in enumerate(elems)}
    letters = [tuple(sa.delta[q][k] for q in range(sa.state_count)) for k in range(len(sa.alphabet))]
    for t in elems:
        e = t
        while compose(e, e) != e:
            e = compose(e, t)
        if compose(e, t) != e:
            failure = (False, (index[e], index[compose(e, t)]))
            return failure, failure
    right_steps = [lambda t, g=g: compose(t, g) for g in letters]
    left_steps = [lambda t, g=g: compose(g, t) for g in letters]
    r = _first_shared(_ideal(x, right_steps) for x in elems)
    if not r[0]:
        return r, r
    return r, _first_shared(_ideal(x, right_steps + left_steps) for x in elems)


def _first_words_by_length(sa: Semiautomaton) -> list[dict[int, str]]:
    """first[k] maps each element acting as a word of length k to the first such
    word, letters sorted; elements are numbered in the order transformations()
    finds them.  Words are enumerated length by length until the set of actions
    of one length is that of an earlier length; from then on the sets repeat."""
    number = {t: i for i, t in enumerate(transformations(sa))}
    column = {a: k for k, a in enumerate(sa.alphabet)}
    words = [("", tuple(range(sa.state_count)))]  # every word of the current length, in order
    first: list[dict[int, str]] = []
    while not first or set(first[-1]) not in [set(d) for d in first[:-1]]:
        if first:
            words = [(w + a, tuple(sa.delta[q][column[a]] for q in t)) for w, t in words for a in sorted(column)]
        found: dict[int, str] = {}
        for w, t in words:
            found.setdefault(number[t], w)
        first.append(found)
    return first


def lm_substitutions_brute(sa: Semiautomaton, arity: int) -> list[tuple[tuple, tuple]]:
    """(elements, witness words) of every lm substitution of arity variables.

    Elements are numbered in the order transformations() finds them, and the
    tuples come in lexicographic order.  A tuple is kept when some length
    k >= 1 has words acting as every one of its elements (see
    _first_words_by_length), and its witnesses are the first such words of the
    least such k.
    """
    first = _first_words_by_length(sa)
    out = []
    for combo in itertools.product(range(len(transformations(sa))), repeat=arity):
        k = next((k for k in range(1, len(first)) if all(e in first[k] for e in combo)), None)
        if k is not None:
            out.append((combo, tuple(first[k][e] for e in combo)))
    return out


def _read_term(text: str):
    """A term of an omega-query: a variable name, ("pow", term) or
    ("cat", [terms]); 1 is ("cat", [])."""
    tokens = re.findall(r"\^w|[A-Za-z][A-Za-z0-9]*|[()1]", text)
    pos = 0

    def sequence():
        nonlocal pos
        parts = []
        while pos < len(tokens) and tokens[pos] != ")":
            token = tokens[pos]
            pos += 1
            if token == "(":
                term = sequence()
                pos += 1
            else:
                term = ("cat", []) if token == "1" else token
            while pos < len(tokens) and tokens[pos] == "^w":
                pos += 1
                term = ("pow", term)
            parts.append(term)
        return parts[0] if len(parts) == 1 else ("cat", parts)

    return sequence()


def _read_query(text: str):
    """(left, relation, right, category) of an omega-query."""
    body, _, category = text.rpartition("@")
    relation = "<=" if "<=" in body else "=="
    left, right = body.split(relation)
    return _read_term(left), relation, _read_term(right), category.strip()


def _variables(term) -> set[str]:
    if isinstance(term, str):
        return {term}
    if term[0] == "pow":
        return _variables(term[1])
    return set().union(*(_variables(p) for p in term[1]))


def _action(term, values: dict, identity: tuple) -> tuple:
    """The transformation of the term when each variable acts as values[name];
    ^w is the first power of the inner action that is idempotent."""
    if isinstance(term, str):
        return values[term]
    if term[0] == "pow":
        m = _action(term[1], values, identity)
        e = m
        while compose(e, e) != e:
            e = compose(e, m)
        return e
    out = identity
    for part in term[1]:
        out = compose(out, _action(part, values, identity))
    return out


def check_brute(osa, text: str) -> Verdict:
    """Decide the query text on the ordered semiautomaton by plain enumeration.

    Variables are sorted by name.  A substitution is a tuple of words, one per
    variable, and each variable acts as its word stepped on the semiautomaton;
    elements are numbered in the order transformations() finds them.  The
    substitutions come in the documented order: all, every element tuple in
    lexicographic order with least words; ne, the same over elements of
    non-empty words with least non-empty words (letters sorted); lp, letter
    tuples in alphabet order; surj, for each permutation of slots given the
    letters in alphabet order, the other slots as for all; lm,
    lm_substitutions_brute.  The first failure gives
    Verdict(False, (names, elements, words, state)) at its lowest state; no
    substitution at all gives a vacuous pass.
    """
    left, relation, right, category = _read_query(text)
    names = tuple(sorted(_variables(left) | _variables(right)))
    sa = osa.sa
    least = transformations(sa)  # action -> least word, letters in alphabet order
    actions = list(least)
    words = [least[t] for t in actions]
    arity = len(names)
    if category == "all":
        space = [tuple(words[e] for e in c) for c in itertools.product(range(len(actions)), repeat=arity)]
    elif category == "ne":
        nonempty: dict[int, str] = {}
        for found in _first_words_by_length(sa)[1:]:
            for e, w in found.items():
                nonempty.setdefault(e, w)
        space = [tuple(nonempty[e] for e in c) for c in itertools.product(sorted(nonempty), repeat=arity)]
    elif category == "lp":
        space = list(itertools.product(sa.alphabet.symbols, repeat=arity))
    elif category == "surj":
        space = []
        for chosen in itertools.permutations(range(arity), len(sa.alphabet)):
            rest = [i for i in range(arity) if i not in chosen]
            for combo in itertools.product(range(len(actions)), repeat=len(rest)):
                spelled = [""] * arity
                for a, i in zip(sa.alphabet.symbols, chosen):
                    spelled[i] = a
                for e, i in zip(combo, rest):
                    spelled[i] = words[e]
                space.append(tuple(spelled))
    elif category == "lm":
        space = [spelled for _, spelled in lm_substitutions_brute(sa, arity)]
    else:
        raise OrdaError(f"unknown category {category!r}")
    n = sa.state_count
    identity = tuple(range(n))
    number = {t: i for i, t in enumerate(actions)}
    for spelled in space:
        values = {x: tuple(step(sa, q, w) for q in range(n)) for x, w in zip(names, spelled)}
        elements = tuple(number[values[x]] for x in names)
        lt, rt = _action(left, values, identity), _action(right, values, identity)
        for p in range(n):
            if not (osa.order.leq(lt[p], rt[p]) if relation == "<=" else lt[p] == rt[p]):
                return Verdict(False, (names, elements, spelled, p))
    if not space:
        return Verdict(True, vacuous=True)
    return Verdict(True)


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


def merge_word_brute(sa: Semiautomaton, p: int, q: int) -> str | None:
    """Shortest, then lexicographically least, word sending p and q to one
    state, or None: breadth-first over ordered pairs, each queued with its word."""
    if p == q:
        return ""
    seen = {(p, q)}
    queue = [((p, q), "")]
    for (x, y), w in queue:
        for k, a in enumerate(sa.alphabet.symbols):
            nx, ny = sa.delta[x][k], sa.delta[y][k]
            if nx == ny:
                return w + a
            if (nx, ny) not in seen:
                seen.add((nx, ny))
                queue.append(((nx, ny), w + a))
    return None


def synchronizing_brute(sa: Semiautomaton) -> tuple[bool, object]:
    """(False, first pair p < q no word merges), or (True, reset word) built by
    merging the two smallest surviving states with merge_word_brute until one is left."""
    n = sa.state_count
    for p in range(n):
        for q in range(p + 1, n):
            if merge_word_brute(sa, p, q) is None:
                return False, (p, q)
    survivors = set(range(n))
    word = ""
    while len(survivors) > 1:
        w = merge_word_brute(sa, *sorted(survivors)[:2])
        word += w
        for a in w:
            k = sa.alphabet.symbols.index(a)
            survivors = {sa.delta[s][k] for s in survivors}
    return True, word


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
