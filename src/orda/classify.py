"""Decidable automaton and language classes, each with checkable evidence.

Every predicate returns a Verdict: holds plus either a certificate (reset
word, topological order) or a counterexample that re-evaluates against the
defining condition of the class.  Language-level conclusions are only drawn
from the minimal ordered automaton; classify_language minimizes first and
records what it judged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .core import (
    OrderedAutomaton,
    OrderedSemiautomaton,
    Semiautomaton,
    explore,
    layer_word,
    path_word,
    reachable_states,
    sccs,
)
from .errors import OrdaError, ResourceError
from .minimize import minimize_with_map
# build_monoid is unused here: only the bench needs the binding, to check that
# its tracer wraps monoid.build everywhere, until the package has spans (ROADMAP item 5)
from .monoid import build as build_monoid, closure, nontrivial_cycle  # noqa: F401

# the exhaustive confluence search on cyclic input is exponential in the alphabet
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


def _shortest_path_word(sa: Semiautomaton, src: int, dst: int) -> str:
    """Lexicographically least shortest transition word src -> dst; dst must be reachable."""
    states, rows = explore(src, sa.delta.__getitem__)
    return path_word(rows, sa.alphabet.symbols, states.index(dst))


def is_counter_free(sa: Semiautomaton, cap: int = 1_000_000) -> Verdict:
    """No nontrivial cycle powers: q.u^n = q forces q.u = q.

    Decided through aperiodicity of the transition monoid, whose closure
    stops at the first element acting with a cycle of length >= 2; that
    element's witness word, together with a state on the cycle, violates the
    definition directly.  Only an aperiodic monoid is enumerated in full.
    """
    elements, witnesses = [], []
    for m in closure(sa, cap, elements, witnesses, []):
        q = nontrivial_cycle(elements[m])
        if q is not None:
            return Verdict(False, (q, witnesses[m]))
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

    On acyclic input (every strongly connected component a single state)
    this is the local condition of _locally_confluent.  Otherwise, for each
    state q the BFS tracks (state, letter content) pairs; two branches
    (p1, C1), (p2, C2) must be joinable inside the product automaton
    restricted to C1 | C2, which the merge table of C1 | C2 answers.  That
    search is exponential in the alphabet, hence the cap on cyclic input.
    """
    if all(len(comp) == 1 for comp in sccs([set(row) for row in sa.delta])):
        return _locally_confluent(sa)
    width = len(sa.alphabet)
    if width > alphabet_cap:
        raise ResourceError(f"confluence check capped at {alphabet_cap} letters, got {width}")
    delta = sa.delta
    tables: dict[int, dict[tuple[int, int], int]] = {}  # letter set -> its merge table
    for q in range(sa.state_count):
        # a node is (state, letters spent so far as a bitmask of alphabet positions)
        nodes, rows = explore((q, 0), lambda node: [(r, node[1] | 1 << k) for k, r in enumerate(delta[node[0]])])
        for i, (p1, c1) in enumerate(nodes):
            for j in range(i + 1, len(nodes)):
                p2, c2 = nodes[j]
                if p1 == p2:
                    continue
                letters = c1 | c2
                table = tables.get(letters)
                if table is None:
                    table = tables[letters] = _merge_table(sa, letters)
                if (p1, p2) not in table:
                    words = path_word(rows, sa.alphabet.symbols, i), path_word(rows, sa.alphabet.symbols, j)
                    return Verdict(False, (q, *words))
    return Verdict(True)


def _locally_confluent(sa: Semiautomaton) -> Verdict:
    """Confluence of an acyclic semiautomaton: q.a and q.b merge under a word
    over {a, b}, for every state q and letters a < b (Klima & Polak, DLT 2013).

    One merge table per letter pair, built on first use; counterexample (q, a, b).
    """
    symbols = sa.alphabet.symbols
    tables: dict[int, dict[tuple[int, int], int]] = {}  # letter pair -> its merge table
    for q, row in enumerate(sa.delta):
        for i, p1 in enumerate(row):
            for j in range(i + 1, len(row)):
                p2 = row[j]
                if p1 == p2:
                    continue
                letters = 1 << i | 1 << j
                table = tables.get(letters)
                if table is None:
                    table = tables[letters] = _merge_table(sa, letters)
                if (p1, p2) not in table:
                    return Verdict(False, (q, symbols[i], symbols[j]))
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


def _merge_table(sa: Semiautomaton, letters: int) -> dict[tuple[int, int], int]:
    """Length of the shortest word over a letter set that sends p and q to one
    state, for every pair, in both orders, that such a word merges; the letter
    set is a bitmask of alphabet positions.

    One backward breadth-first search from the diagonal (p, p), at distance 0,
    over the per-letter preimages of the pair automaton.
    """
    n = sa.state_count
    ks = [k for k in range(len(sa.alphabet)) if letters >> k & 1]
    preimages = [[[] for _ in range(n)] for _ in ks]
    for x, row in enumerate(sa.delta):
        for pre, k in zip(preimages, ks):
            pre[row[k]].append(x)
    dist = {(p, p): 0 for p in range(n)}
    frontier = list(dist)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for p, q in frontier:
            for pre in preimages:
                for x in pre[p]:
                    for y in pre[q]:
                        if (x, y) not in dist:
                            dist[x, y] = d
                            nxt.append((x, y))
        frontier = nxt
    return dist


def is_synchronizing(sa: Semiautomaton) -> Verdict:
    """Some word maps all states to one; certificate = a reset word.

    The reset word is assembled greedily by repeatedly merging the two
    smallest surviving states with their shortest, then lexicographically
    least, merging word, which is short enough at desk scale.
    """
    n = sa.state_count
    width = len(sa.alphabet)
    dist = _merge_table(sa, (1 << width) - 1)
    for p in range(n):
        for q in range(p + 1, n):
            if (p, q) not in dist:
                return Verdict(False, (p, q))
    survivors = set(range(n))
    word = []
    while len(survivors) > 1:
        p, q = sorted(survivors)[:2]
        while p != q:
            # the smallest letter that brings the pair one step closer to merging
            k = next(k for k in range(width) if dist[sa.delta[p][k], sa.delta[q][k]] < dist[p, q])
            word.append(sa.alphabet.symbols[k])
            survivors = {sa.delta[s][k] for s in survivors}
            p, q = sa.delta[p][k], sa.delta[q][k]
    return Verdict(True, "".join(word))


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


def is_weakly_confluent(sa: Semiautomaton) -> Verdict:
    """Every weakly connected component synchronizes on its own.

    On success the witness is the component decomposition; on failure it is
    (component, offending state pair) in original numbering.
    """
    comps = _weak_components(sa.state_count, ((q, r) for q, row in enumerate(sa.delta) for r in row))
    for members in comps:
        sub = sa.restrict(members)
        v = is_synchronizing(sub)
        if not v.holds:
            p, q = v.witness
            return Verdict(False, (tuple(members), (members[p], members[q])))
    return Verdict(True, tuple(tuple(c) for c in comps))


def is_strongly_acyclic(sa: Semiautomaton) -> Verdict:
    """Every state lying on a cycle is absorbing.

    Counterexample (q, u, a): q.u = q yet q.a != q, either from a cycle
    through two states as is_acyclic reports it, or from a self-loop.
    """
    acyclic = is_acyclic(sa)
    if not acyclic.holds:
        return acyclic
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
            return Verdict(False, (q, layer_word(layers, bad[0], n)))
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

    star_free = is_counter_free(sa)
    r_trivial = is_acyclic(sa)
    # every verdict that reads confluence needs acyclicity first
    confluent = is_confluent(sa) if r_trivial.holds else None
    if not r_trivial.holds:
        pt = r_trivial
    elif not confluent.holds:
        pt = confluent
    else:
        pt = Verdict(True)
    positive_pt = has_extensive_actions(osa)
    strongly = is_strongly_acyclic(sa)

    if strongly.holds and confluent.holds:
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
