"""Decidable automaton and language classes, each with checkable evidence.

Every predicate returns a Verdict: holds plus either a certificate (reset
word, topological order) or a counterexample that re-evaluates against the
defining condition of the class.  Language-level conclusions are only drawn
from the minimal ordered automaton; classify_language minimizes first and
records what it judged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    OrderedAutomaton,
    OrderedSemiautomaton,
    Semiautomaton,
    StateOrder,
    path_word,
    reachable_states,
    step,
)
from .errors import OrdaError, ResourceError
from .minimize import minimize_with_map
from .monoid import build as build_monoid, is_aperiodic

CONFLUENCE_ALPHABET_CAP = 10


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


def _successor_sets(sa: Semiautomaton) -> list[set]:
    return [set(row) for row in sa.delta]


def _sccs(adj: list[set]) -> list[list[int]]:
    """Tarjan, iterative; components come out sorted internally."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(sorted(adj[root])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(sorted(adj[w]))))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                out.append(sorted(comp))
    return out


def _shortest_path_word(sa: Semiautomaton, src: int, dst: int) -> str | None:
    """Lexicographically least shortest transition word src -> dst."""
    if src == dst:
        return ""
    parents: dict[int, tuple[int, str] | None] = {src: None}
    frontier = [src]
    while frontier:
        nxt = []
        for p in frontier:
            for k, a in enumerate(sa.alphabet):
                r = sa.delta[p][k]
                if r not in parents:
                    parents[r] = (p, a)
                    nxt.append(r)
        if dst in parents:
            return path_word(parents, dst)
        frontier = nxt
    return None


def is_counter_free(sa: Semiautomaton, cap: int = 1_000_000) -> Verdict:
    """No nontrivial cycle powers: q.u^n = q forces q.u = q.

    Decided through aperiodicity of the transition monoid; a non-aperiodic
    element's witness word, together with a state on one of its nontrivial
    cycles, violates the definition directly.
    """
    osa = OrderedSemiautomaton(sa, StateOrder.discrete(sa.state_count))
    tm = build_monoid(osa, cap)
    ok, m = is_aperiodic(tm)
    if ok:
        return Verdict(True)
    u = tm.witnesses[m]
    t = tm.elements[m]
    for q in range(sa.state_count):
        trail = []
        seen = {}
        cur = q
        while cur not in seen:
            seen[cur] = len(trail)
            trail.append(cur)
            cur = t[cur]
        cycle = trail[seen[cur]:]
        if len(cycle) >= 2:
            return Verdict(False, (min(cycle), u))
    raise OrdaError("non-aperiodic element without a nontrivial cycle")  # unreachable


def is_acyclic(sa: Semiautomaton) -> Verdict:
    """Every cycle is made of letters fixing the looping state.

    Equivalent to: every strongly connected component is a singleton
    (self-loops allowed).  Certificate: a topological order of the states.
    Counterexample: (q, u, a) with q.u = q, a in the letters of u, q.a != q.
    """
    adj = _successor_sets(sa)
    n = sa.state_count
    for comp in sorted(_sccs(adj), key=min):
        if len(comp) < 2:
            continue
        q = comp[0]
        r = comp[1]
        u = _shortest_path_word(sa, q, r) + _shortest_path_word(sa, r, q)
        return Verdict(False, (q, u, u[0]))
    # Kahn over the self-loop-free DAG, smallest state first
    indeg = [0] * n
    for p in range(n):
        for r in adj[p]:
            if r != p:
                indeg[r] += 1
    ready = sorted(q for q in range(n) if indeg[q] == 0)
    topo = []
    while ready:
        q = ready.pop(0)
        topo.append(q)
        for r in sorted(adj[q]):
            if r == q:
                continue
            indeg[r] -= 1
            if indeg[r] == 0:
                ready.append(r)
        ready.sort()
    return Verdict(True, tuple(topo))


def is_confluent(sa: Semiautomaton, alphabet_cap: int = CONFLUENCE_ALPHABET_CAP) -> Verdict:
    """Branches from a common state rejoin using only letters already spent.

    For each state q the BFS tracks (state, letter content) pairs; two
    branches (p1, C1), (p2, C2) must be joinable inside the product automaton
    restricted to C1 | C2.  Exponential in the alphabet, hence the cap.
    """
    width = len(sa.alphabet)
    if width > alphabet_cap:
        raise ResourceError(f"confluence check capped at {alphabet_cap} letters, got {width}")
    delta = sa.delta
    join_cache: dict[tuple[int, int, frozenset], bool] = {}

    def joinable(p1: int, p2: int, letters: frozenset) -> bool:
        if p1 == p2:
            return True
        key = (min(p1, p2), max(p1, p2), letters)
        hit = join_cache.get(key)
        if hit is not None:
            return hit
        ks = [k for k, a in enumerate(sa.alphabet) if a in letters]
        seen = {(p1, p2)}
        frontier = [(p1, p2)]
        found = False
        while frontier and not found:
            nxt = []
            for x, y in frontier:
                for k in ks:
                    pair = (delta[x][k], delta[y][k])
                    if pair[0] == pair[1]:
                        found = True
                        break
                    if pair not in seen:
                        seen.add(pair)
                        nxt.append(pair)
                if found:
                    break
            frontier = nxt
        join_cache[key] = found
        return found

    for q in range(sa.state_count):
        start = (q, frozenset())
        parents: dict[tuple[int, frozenset], tuple[tuple[int, frozenset], str] | None] = {
            start: None
        }
        order = [start]
        pos = 0
        while pos < len(order):
            node = order[pos]
            pos += 1
            p, content = node
            for k, a in enumerate(sa.alphabet):
                succ = (delta[p][k], content | {a})
                if succ not in parents:
                    parents[succ] = (node, a)
                    order.append(succ)

        for i in range(len(order)):
            p1, c1 = order[i]
            for j in range(i + 1, len(order)):
                p2, c2 = order[j]
                if p1 == p2:
                    continue
                if not joinable(p1, p2, c1 | c2):
                    words = path_word(parents, order[i]), path_word(parents, order[j])
                    return Verdict(False, (q, *words))
    return Verdict(True)


def is_pt_semiautomaton(sa: Semiautomaton) -> Verdict:
    """Acyclic and confluent; the automaton side of piecewise testability."""
    acyclic = is_acyclic(sa)
    if not acyclic.holds:
        return acyclic
    return is_confluent(sa)


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
    n = sa.state_count
    lengths = []
    for members in _weak_components(n, enumerate(t)):
        cur = members[0]
        for _ in range(n):
            cur = t[cur]
        cycle = [cur]
        nxt = t[cur]
        while nxt != cur:
            cycle.append(nxt)
            nxt = t[nxt]
        tails = sorted(set(members) - set(cycle))
        if tails:
            return Verdict(False, ("rho_shape", tuple(members), tuple(sorted(cycle))))
        lengths.append(len(cycle))
        if d % len(cycle) != 0:
            return Verdict(False, ("cycle_length", len(cycle), d))
    return Verdict(True, tuple(lengths))


def _merge_word(sa: Semiautomaton, p: int, q: int) -> str | None:
    """Shortest (then lex-least) word sending p and q to one state."""
    if p == q:
        return ""
    start = (min(p, q), max(p, q))
    parents: dict[tuple[int, int], tuple[tuple[int, int], str] | None] = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for pair in frontier:
            for k, a in enumerate(sa.alphabet):
                x, y = sa.delta[pair[0]][k], sa.delta[pair[1]][k]
                if x == y:
                    return path_word(parents, pair) + a
                succ = (min(x, y), max(x, y))
                if succ not in parents:
                    parents[succ] = (pair, a)
                    nxt.append(succ)
        frontier = nxt
    return None


def is_synchronizing(sa: Semiautomaton) -> Verdict:
    """Some word maps all states to one; certificate = a reset word.

    The reset word is assembled greedily by repeatedly merging the two
    smallest surviving states, which is short enough at desk scale.
    """
    n = sa.state_count
    for p in range(n):
        for q in range(p + 1, n):
            if _merge_word(sa, p, q) is None:
                return Verdict(False, (p, q))
    survivors = set(range(n))
    word = ""
    while len(survivors) > 1:
        p, q = sorted(survivors)[:2]
        w = _merge_word(sa, p, q)
        word += w
        survivors = {step(sa, s, w) for s in survivors}
    return Verdict(True, word)


def _weak_components(n: int, edges) -> list[list[int]]:
    """Components of the undirected graph on 0..n-1 with the given edges, by union-find.

    Each component is sorted; components come in order of their smallest member.
    """
    comp = list(range(n))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for q, r in edges:
        a, b = find(q), find(r)
        if a != b:
            comp[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for q in range(n):
        groups.setdefault(find(q), []).append(q)
    return [groups[root] for root in sorted(groups)]


def _restrict(sa: Semiautomaton, states: list[int]) -> Semiautomaton:
    index = {p: i for i, p in enumerate(states)}
    rows = tuple(
        tuple(index[sa.delta[p][k]] for k in range(len(sa.alphabet))) for p in states
    )
    names = tuple(sa.names[p] for p in states) if sa.names is not None else None
    return Semiautomaton(sa.alphabet, rows, names)


def is_weakly_confluent(sa: Semiautomaton) -> Verdict:
    """Every weakly connected component synchronizes on its own.

    On success the witness is the component decomposition; on failure it is
    (component, offending state pair) in original numbering.
    """
    comps = _weak_components(sa.state_count, ((q, r) for q, row in enumerate(sa.delta) for r in row))
    for members in comps:
        sub = _restrict(sa, members)
        v = is_synchronizing(sub)
        if not v.holds:
            p, q = v.witness
            return Verdict(False, (tuple(members), (members[p], members[q])))
    return Verdict(True, tuple(tuple(c) for c in comps))


def is_strongly_acyclic(sa: Semiautomaton) -> Verdict:
    """Every state lying on a cycle is absorbing.

    Counterexample (q, u, a): q.u = q yet q.a != q.
    """
    adj = _successor_sets(sa)
    for comp in sorted(_sccs(adj), key=min):
        if len(comp) < 2:
            continue
        q, r = comp[0], comp[1]
        u = _shortest_path_word(sa, q, r) + _shortest_path_word(sa, r, q)
        return Verdict(False, (q, u, u[0]))
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
    """
    if n < 0:
        raise OrdaError("n must be nonnegative")
    sa = osa.sa
    width = len(sa.alphabet)
    for q in range(sa.state_count):
        layers: list[dict[int, tuple[int, str] | None]] = [{q: None}]
        for _ in range(n):
            nxt: dict[int, tuple[int, str] | None] = {}
            for p in sorted(layers[-1]):
                for k in range(width):
                    r = sa.delta[p][k]
                    if r not in nxt:
                        nxt[r] = (p, sa.alphabet.symbols[k])
            layers.append(nxt)
        bad = [p for p in sorted(layers[n]) if not osa.order.leq(q, p)]
        if bad:
            letters = []
            cur = bad[0]
            for depth in range(n, 0, -1):
                prev, a = layers[depth][cur]
                letters.append(a)
                cur = prev
            return Verdict(False, (q, "".join(reversed(letters))))
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
        """Stable (name, verdict) pairs, n-indexed entries last."""
        out = [
            ("finite", self.finite),
            ("cofinite", self.cofinite),
            ("prefix_testable", self.prefix_testable),
            ("piecewise_testable", self.piecewise_testable),
            ("positive_piecewise_testable", self.positive_piecewise_testable),
            ("star_free", self.star_free),
            ("r_trivial_language", self.r_trivial_language),
            ("weakly_confluent", self.weakly_confluent),
            ("synchronizing", self.synchronizing),
            ("autonomous", self.autonomous),
        ]
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

    star_free = is_counter_free(sa)
    r_trivial = is_acyclic(sa)
    confluent = is_confluent(sa)
    if not r_trivial.holds:
        pt = r_trivial
    elif not confluent.holds:
        pt = confluent
    else:
        pt = Verdict(True)
    positive_pt = has_extensive_actions(osa)
    strongly = is_strongly_acyclic(sa)

    if strongly.holds and confluent.holds:
        f = main_follower(sa, minimal.initial)
        order_ok = all(
            minimal.order.leq(main_follower(sa, q), q) for q in range(sa.state_count)
        )
        if f in minimal.finals:
            finite = Verdict(False, ("follower final", f))
            cofinite = Verdict(True, (f, order_ok))
        else:
            finite = Verdict(True, (f, order_ok))
            cofinite = Verdict(False, ("follower not final", f))
    else:
        blocker = strongly if not strongly.holds else confluent
        finite = Verdict(False, blocker.witness)
        cofinite = Verdict(False, blocker.witness)

    return ClassificationReport(
        minimal=minimal,
        finite=finite,
        cofinite=cofinite,
        prefix_testable=strongly,
        piecewise_testable=pt,
        positive_piecewise_testable=positive_pt,
        star_free=star_free,
        r_trivial_language=r_trivial,
        weakly_confluent=is_weakly_confluent(sa),
        synchronizing=is_synchronizing(sa),
        autonomous=is_autonomous(sa),
        n_insertion_closed=tuple((n, has_n_extensive_actions(osa, n)) for n in ns),
    )
