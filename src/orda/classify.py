"""Decidable automaton and language classes, each with checkable evidence.

Every predicate returns a Verdict: holds plus either a certificate (reset
word, topological order) or a counterexample that re-evaluates against the
defining condition of the class.  Language-level conclusions are only drawn
from the minimal ordered automaton; classify_language minimizes first and
records what it judged.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields
from functools import cache, partial
from operator import or_

from .core import (
    OrderedAutomaton,
    OrderedSemiautomaton,
    Semiautomaton,
    explore,
    layer_word,
    path_word,
    reachable_states,
    row_fixpoint,
    sccs,
)
from .errors import OrdaError, ResourceError
from .minimize import minimize_with_map
# build_monoid is unused here: only the bench needs the binding, to check that
# its tracer wraps monoid.build everywhere, until the package has spans (ROADMAP item 1)
from .monoid import MONOID_CAP, build as build_monoid, explore_letters, nontrivial_cycle  # noqa: F401

# the exhaustive confluence search on cyclic input is exponential in the alphabet
CONFLUENCE_ALPHABET_CAP = 10
# has_n_extensive_actions keeps up to n + 1 layers of reached states per start state
N_EXTENSIVE_LIMIT = 10_000


@dataclass(frozen=True)
class Verdict:
    """Outcome of one class check: holds, plus witness evidence.

    For a failed check the witness is a counterexample to the defining
    condition; for some passing checks it is a certificate (topological
    order, reset word, component decomposition).
    """

    holds: bool
    witness: object = None
    vacuous: bool = False

    def __bool__(self):
        return self.holds


def _shortest_path_word(sa: Semiautomaton, src: int, dst: int) -> str:
    """Lexicographically least shortest transition word src -> dst; dst must be reachable."""
    nodes, rows = explore(src, sa.delta.__getitem__, stop=dst.__eq__)
    return path_word(rows, sa.alphabet.symbols, len(nodes) - 1)


def is_counter_free(sa: Semiautomaton, cap: int = MONOID_CAP) -> Verdict:
    """No nontrivial cycle powers: q.u^n = q forces q.u = q.

    Decided through aperiodicity of the transition monoid, whose closure
    stops at the first element acting with a cycle of length >= 2; that
    element's least word, together with a state on the cycle, violates the
    definition directly.  Only an aperiodic monoid is enumerated in full.
    """
    elements, rows = explore_letters(sa, cap, lambda t: nontrivial_cycle(t) is not None)
    if len(rows) < len(elements):
        m = len(elements) - 1
        return Verdict(False, (nontrivial_cycle(elements[m]), path_word(rows, sa.alphabet.symbols, m)))
    return Verdict(True)


def is_acyclic(sa: Semiautomaton) -> Verdict:
    """Every cycle is made of letters fixing the looping state.

    Equivalent to: every strongly connected component is a singleton
    (self-loops allowed).  Certificate: a topological order of the states.
    Counterexample: (q, u, a) with q.u = q, a in the letters of u, q.a != q.
    """
    adj = [set(row) for row in sa.delta]
    for comp in sorted(sccs(adj), key=min):
        if len(comp) < 2:
            continue
        q, r = comp[0], comp[1]
        u = _shortest_path_word(sa, q, r) + _shortest_path_word(sa, r, q)
        return Verdict(False, (q, u, u[0]))
    n = sa.state_count
    # Kahn over the self-loop-free DAG, smallest state first
    indeg = [0] * n
    for p in range(n):
        for r in adj[p]:
            if r != p:
                indeg[r] += 1
    ready = [q for q in range(n) if indeg[q] == 0]  # ascending, so already a heap
    topo = []
    while ready:
        q = heapq.heappop(ready)
        topo.append(q)
        for r in adj[q]:
            if r == q:
                continue
            indeg[r] -= 1
            if indeg[r] == 0:
                heapq.heappush(ready, r)
    return Verdict(True, tuple(topo))


def is_confluent(sa: Semiautomaton, alphabet_cap: int = CONFLUENCE_ALPHABET_CAP) -> Verdict:
    """Branches from a common state rejoin using only letters already spent.

    On acyclic input (every strongly connected component a single state)
    this is the local condition of _locally_confluent.  Otherwise, for each
    state q the BFS tracks (state, letter content) pairs; two branches
    (p1, C1), (p2, C2) must be joinable inside the product automaton
    restricted to C1 | C2, which the merge rows of C1 | C2 answer.  That
    search is exponential in the alphabet, hence the cap on cyclic input.
    """
    if all(len(comp) == 1 for comp in sccs([set(row) for row in sa.delta])):
        return _locally_confluent(sa)
    width = len(sa.alphabet)
    if width > alphabet_cap:
        raise ResourceError(f"confluence check capped at {alphabet_cap} letters, got {width}")
    delta = sa.delta
    merge_rows = cache(partial(_merge_rows, sa))  # letter set -> its merge rows
    for q in range(sa.state_count):
        # a node is (state, letters spent so far as a bitmask of alphabet positions)
        nodes, rows = explore((q, 0), lambda node: [(r, node[1] | 1 << k) for k, r in enumerate(delta[node[0]])])
        for i, (p1, c1) in enumerate(nodes):
            for j in range(i + 1, len(nodes)):
                p2, c2 = nodes[j]
                if p1 == p2:
                    continue
                if not merge_rows(c1 | c2)[p1] >> p2 & 1:
                    words = path_word(rows, sa.alphabet.symbols, i), path_word(rows, sa.alphabet.symbols, j)
                    return Verdict(False, (q, *words))
    return Verdict(True)


def _locally_confluent(sa: Semiautomaton) -> Verdict:
    """Confluence of an acyclic semiautomaton: q.a and q.b merge under a word
    over {a, b}, for every state q and letters a < b (Klima & Polak, DLT 2013).

    Each branch pair is decided by _merges, a forward search with one memo
    per letter pair, so a pair of states is decided at most once per letter
    pair; counterexample (q, a, b), the first in state then letter order.
    """
    symbols = sa.alphabet.symbols
    delta = sa.delta
    memos: dict[tuple[int, int], dict[tuple[int, int], bool]] = {}
    for q, row in enumerate(delta):
        for i, p1 in enumerate(row):
            for j in range(i + 1, len(row)):
                p2 = row[j]
                if p1 == p2:
                    continue
                memo = memos.setdefault((i, j), {})
                if not _merges(delta, i, j, memo, (p1, p2) if p1 < p2 else (p2, p1)):
                    return Verdict(False, (q, symbols[i], symbols[j]))
    return Verdict(True)


def _merges(delta, i: int, j: int, memo: dict[tuple[int, int], bool], pair: tuple[int, int]) -> bool:
    """Whether a word over the letters at positions i and j sends the states
    of pair, p < q, to one state; delta must be acyclic.

    Iterative depth-first search forward over the pairs p < q.  The stack is
    a path of pairs, each the successor of the one below it, so a merge found
    at the top holds for the whole stack.  A pair reads False in memo while it
    is on the stack: on acyclic input a cycle of pairs is a self-loop, since
    both of its state walks stay inside one singleton component, so that
    never hides a merge.
    """
    if pair in memo:
        return memo[pair]
    memo[pair] = False
    stack = [pair]
    while stack:
        p, q = stack[-1]
        unseen = None
        for k in (i, j):
            x, y = delta[p][k], delta[q][k]
            if x > y:
                x, y = y, x
            if x == y or memo.get((x, y)):
                memo.update(dict.fromkeys(stack, True))
                return True
            if unseen is None and (x, y) not in memo:
                unseen = (x, y)
        if unseen is None:
            stack.pop()
        else:
            memo[unseen] = False
            stack.append(unseen)
    return False


def is_pt_semiautomaton(sa: Semiautomaton) -> Verdict:
    """Acyclic and confluent; the automaton side of piecewise testability."""
    acyclic = is_acyclic(sa)
    return _locally_confluent(sa) if acyclic else acyclic


def has_extensive_actions(osa: OrderedSemiautomaton) -> Verdict:
    """q <= q.a everywhere; counterexample (q, a)."""
    sa = osa.sa
    for q in range(sa.state_count):
        for k, a in enumerate(sa.alphabet):
            if not osa.order.leq(q, sa.delta[q][k]):
                return Verdict(False, (q, a))
    return Verdict(True)


def is_autonomous(sa: Semiautomaton) -> Verdict:
    """All letters act identically; counterexample (q, a, b) where they differ."""
    for q in range(sa.state_count):
        base = sa.delta[q][0]
        for k in range(1, len(sa.alphabet)):
            if sa.delta[q][k] != base:
                return Verdict(False, (q, sa.alphabet.symbols[0], sa.alphabet.symbols[k]))
    return Verdict(True)


def is_cycle_union_dividing(sa: Semiautomaton, d: int) -> Verdict:
    """Autonomous disjoint union of cycles with lengths dividing d.

    A component that is a cycle with a tail is not covered by the defining
    family; the verdict is false and the witness reports the shape so the
    caller can tell it apart from a genuine cycle-length failure.
    """
    if d < 1:
        raise OrdaError("d must be positive")
    autonomous = is_autonomous(sa)
    if not autonomous.holds:
        return Verdict(False, ("not autonomous",) + tuple(autonomous.witness))
    t = [row[0] for row in sa.delta]
    lengths = []
    for members in _weak_components(sa):
        cur = members[0]
        for _ in members:  # a tail is shorter than its component
            cur = t[cur]
        cycle = [cur]
        nxt = t[cur]
        while nxt != cur:
            cycle.append(nxt)
            nxt = t[nxt]
        if len(cycle) < len(members):  # a tail hangs off the cycle
            return Verdict(False, ("rho_shape", tuple(members), tuple(sorted(cycle))))
        lengths.append(len(cycle))
        if d % len(cycle) != 0:
            return Verdict(False, ("cycle_length", len(cycle), d))
    return Verdict(True, tuple(lengths))


def _merge_rows(sa: Semiautomaton, letters: int) -> list[int]:
    """Row p: the states that some word over a letter set, a bitmask of alphabet
    positions, sends with p to one state; the least fixpoint of M[p] = {p} |
    pre_a(M[p.a]) over its letters a, by core.row_fixpoint with or_."""
    ks = [k for k in range(len(sa.alphabet)) if letters >> k & 1]
    return row_fixpoint(sa, [1 << p for p in range(sa.state_count)], ks, or_)


def _first_unmergeable(states, rows) -> tuple[int, int] | None:
    """The first pair p < q of the ascending states with q missing from row p, or None."""
    later = sum(1 << q for q in states)
    for p in states:
        later ^= 1 << p
        if missing := later & ~rows[p]:
            return p, (missing & -missing).bit_length() - 1
    return None


def is_synchronizing(sa: Semiautomaton) -> Verdict:
    """Some word maps all states to one; certificate = a reset word.

    Every pair of states must lie in the full-alphabet merge rows.  The reset
    word is assembled greedily (Eppstein, SIAM J. Comput. 1990) by repeatedly
    merging the two smallest surviving states with their shortest, then
    lexicographically least, merging word, found by a breadth-first search
    over unordered pairs that stops at the first pair of equal states.
    """
    delta, symbols = sa.delta, sa.alphabet.symbols
    pair = _first_unmergeable(range(sa.state_count), _merge_rows(sa, (1 << len(symbols)) - 1))
    if pair is not None:
        return Verdict(False, pair)
    survivors = set(range(sa.state_count))
    word = []
    while len(survivors) > 1:
        start = tuple(sorted(survivors)[:2])
        pairs, rows = explore(start, lambda pq: [(x, y) if x < y else (y, x) for x, y in zip(delta[pq[0]], delta[pq[1]])],
                              stop=lambda pq: pq[0] == pq[1])
        for k in map(sa.alphabet.index, path_word(rows, symbols, len(pairs) - 1)):
            word.append(symbols[k])
            survivors = {delta[s][k] for s in survivors}
    return Verdict(True, "".join(word))


def _weak_components(sa: Semiautomaton) -> list[list[int]]:
    """Weakly connected components of the transition graph: the strongly
    connected components once every edge is also reversed.

    Each component is sorted; components come in order of their smallest member.
    """
    adj = [set(row) for row in sa.delta]
    for q, row in enumerate(sa.delta):
        for r in row:
            adj[r].add(q)
    return sorted(sccs(adj), key=min)


def is_weakly_confluent(sa: Semiautomaton) -> Verdict:
    """Every weakly connected component synchronizes on its own.

    On success the witness is the component decomposition; on failure it is
    (component, offending state pair).  A component is closed under the
    letters, so the full-alphabet merge rows of sa judge every component.
    """
    rows = _merge_rows(sa, (1 << len(sa.alphabet)) - 1)
    comps = _weak_components(sa)
    for members in comps:
        pair = _first_unmergeable(members, rows)
        if pair is not None:
            return Verdict(False, (tuple(members), pair))
    return Verdict(True, tuple(map(tuple, comps)))


def is_strongly_acyclic(sa: Semiautomaton) -> Verdict:
    """Every state lying on a cycle is absorbing.

    Counterexample (q, u, a): q.u = q yet q.a != q, either from a cycle
    through two states as is_acyclic reports it, or from a self-loop, as
    _loops_absorbing finds it once acyclicity holds.
    """
    acyclic = is_acyclic(sa)
    return _loops_absorbing(sa) if acyclic else acyclic


def _loops_absorbing(sa: Semiautomaton) -> Verdict:
    """Strong acyclicity of an acyclic semiautomaton, whose only cycles are
    self-loops: a state fixed by one letter is fixed by every letter."""
    width = len(sa.alphabet)
    for q in range(sa.state_count):
        loops = [k for k in range(width) if sa.delta[q][k] == q]
        if loops and len(loops) < width:
            moving = next(k for k in range(width) if sa.delta[q][k] != q)
            return Verdict(False, (q, sa.alphabet.symbols[loops[0]], sa.alphabet.symbols[moving]))
    return Verdict(True)


def main_follower(sa: Semiautomaton, q: int) -> int:
    """The unique absorbing state reachable from q.

    Defined for strongly acyclic confluent semiautomata; both preconditions
    are enforced because uniqueness depends on them.
    """
    if not is_strongly_acyclic(sa).holds:
        raise OrdaError("main follower needs a strongly acyclic semiautomaton")
    if not is_confluent(sa).holds:
        raise OrdaError("main follower needs a confluent semiautomaton")
    return _follower(sa, q)


def _follower(sa: Semiautomaton, q: int) -> int:
    """main_follower without its precondition checks, for callers that hold both verdicts."""
    width = len(sa.alphabet)
    hits = [
        p
        for p in reachable_states(sa, q)
        if all(sa.delta[p][k] == p for k in range(width))
    ]
    if len(hits) != 1:
        raise OrdaError(f"expected one absorbing follower, found {len(hits)}")
    return hits[0]


def has_n_extensive_actions(osa: OrderedSemiautomaton, n: int) -> Verdict:
    """q <= q.u for every word of length exactly n.

    Decided by layered reachability (exactly k steps, k = 0..n), not by
    enumerating the |A|^n words; a failing word is rebuilt from the layers.
    A layer, parents included, depends only on the set of the layer before,
    so the layers from q form a lasso: the walk stops at the first layer j
    whose set repeats that of an earlier layer i, and every later layer L is
    layer i + 1 + (L - i - 1) mod (j - i), as in omega.length_set.
    """
    if n < 0:
        raise OrdaError("n must be nonnegative")
    if n > N_EXTENSIVE_LIMIT:
        raise ResourceError(f"n-extensive check capped at N_EXTENSIVE_LIMIT = {N_EXTENSIVE_LIMIT}, got n = {n}")
    sa = osa.sa
    symbols = sa.alphabet.symbols
    for q in range(sa.state_count):
        layers: list[dict[int, tuple[int, str] | None]] = [{q: None}]
        seen = {frozenset(layers[0]): 0}
        i = j = n  # no repeat before layer n: every layer is stored
        while len(layers) <= n:
            nxt: dict[int, tuple[int, str] | None] = {}
            for p in sorted(layers[-1]):
                for k, r in enumerate(sa.delta[p]):
                    if r not in nxt:
                        nxt[r] = (p, symbols[k])
            subset = frozenset(nxt)
            if subset in seen:
                i, j = seen[subset], len(layers)
                layers.append(nxt)
                break
            seen[subset] = len(layers)
            layers.append(nxt)

        def layer(L):
            return layers[L] if L <= j else layers[i + 1 + (L - i - 1) % (j - i)]

        bad = [p for p in sorted(layer(n)) if not osa.order.leq(q, p)]
        if bad:
            return Verdict(False, (q, layer_word([layer(L) for L in range(n + 1)], bad[0], n)))
    return Verdict(True)


@dataclass(frozen=True)
class ClassificationReport:
    """All language-class verdicts for one language, judged on its minimal automaton."""

    minimal: OrderedAutomaton
    finite: Verdict
    cofinite: Verdict
    prefix_testable: Verdict
    piecewise_testable: Verdict
    positive_piecewise_testable: Verdict
    star_free: Verdict
    r_trivial_language: Verdict
    weakly_confluent: Verdict
    synchronizing: Verdict
    autonomous: Verdict
    n_insertion_closed: tuple[tuple[int, Verdict], ...] = field(default=())

    def items(self) -> list[tuple[str, Verdict]]:
        """Stable (name, verdict) pairs: the fields between minimal and
        n_insertion_closed in declaration order, n-indexed entries last."""
        out = [(f.name, getattr(self, f.name)) for f in fields(self)[1:-1]]
        out.extend((f"n_insertion_closed_{n}", v) for n, v in self.n_insertion_closed)
        return out


def classify_language(oa: OrderedAutomaton, ns=()) -> ClassificationReport:
    """Minimize, then judge every class on the canonical ordered automaton.

    Language facts are only valid on the minimal automaton (its order is the
    residual-inclusion order), which is why this never classifies the input
    object directly.
    """
    minimal = minimize_with_map(oa)[1]
    sa = minimal.sa
    osa = minimal.osa

    r_trivial = is_acyclic(sa)
    # a cycle of an acyclic automaton is a self-loop, so q.u^n = q forces
    # q.u = q: it is counter-free with no monoid closure
    star_free = Verdict(True) if r_trivial else is_counter_free(sa)
    strongly = _loops_absorbing(sa) if r_trivial else is_strongly_acyclic(sa)
    # every verdict that reads confluence needs acyclicity first
    pt = _locally_confluent(sa) if r_trivial else r_trivial
    positive_pt = has_extensive_actions(osa)

    if strongly.holds and pt.holds:
        f = _follower(sa, minimal.initial)
        # every state is reachable from the initial one, so f is the follower of
        # them all, and the order condition is f <= q at every state q
        order_ok = minimal.order.up[f] == (1 << sa.state_count) - 1
        if f in minimal.finals:
            finite = Verdict(False, ("follower final", f))
            cofinite = Verdict(True, (f, order_ok))
        else:
            finite = Verdict(True, (f, order_ok))
            cofinite = Verdict(False, ("follower not final", f))
    else:
        blocker = strongly if not strongly.holds else pt
        finite = Verdict(False, blocker.witness)
        cofinite = Verdict(False, blocker.witness)
    synchronizing = is_synchronizing(sa)
    # the minimal automaton is one weakly connected component, so it is weakly
    # confluent exactly when it synchronizes
    states = tuple(range(sa.state_count))
    weakly_confluent = Verdict(True, (states,)) if synchronizing else Verdict(False, (states, synchronizing.witness))

    return ClassificationReport(
        minimal=minimal,
        finite=finite,
        cofinite=cofinite,
        prefix_testable=strongly,
        piecewise_testable=pt,
        positive_piecewise_testable=positive_pt,
        star_free=star_free,
        r_trivial_language=r_trivial,
        weakly_confluent=weakly_confluent,
        synchronizing=synchronizing,
        autonomous=is_autonomous(sa),
        n_insertion_closed=tuple((n, has_n_extensive_actions(osa, n)) for n in ns),
    )
