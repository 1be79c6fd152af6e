"""Transition monoids of ordered semiautomata and the inequality oracles on them.

The transition monoid of (Q, A, ., <=) is the set of transformations of Q
induced by words, ordered pointwise by the state order.  Taken over the
minimal ordered automaton of a language it is the syntactic ordered monoid,
which is what lets the oracles here serve as ground truth for the
automaton-level classifiers.
"""

from __future__ import annotations

from .core import OrderedSemiautomaton, Semiautomaton, sccs
from .errors import AlphabetError, ResourceError


class TransitionMonoid:
    """Closure of the letter actions under composition; immutable once built.

    elements[i] is a transformation tuple t with q.w = t[q]; element 0 is the
    identity.  witnesses[i] is the length-lex least word acting as element i.
    generators maps each letter, in alphabet order, to its element, and
    right[i][k] is the element acting as w_i followed by the k-th of those
    letters: the right Cayley graph.
    """

    __slots__ = ("elements", "witnesses", "generators", "right", "order", "_column", "_omega")

    identity = 0

    def __init__(self, elements, witnesses, generators, right, order):
        self.elements = elements
        self.witnesses = witnesses
        self.generators = generators
        self.right = right
        self.order = order
        self._column = {a: k for k, a in enumerate(generators)}  # letter -> column of right
        self._omega = {}

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"<transition monoid, {len(self.elements)} elements>"

    def compose(self, i: int, j: int) -> int:
        """Element acting as w_i followed by w_j: the end of w_j's path from i
        in the right Cayley graph (Froidure & Pin)."""
        right, column = self.right, self._column
        for a in self.witnesses[j]:
            i = right[i][column[a]]
        return i


def closure(sa: Semiautomaton, cap: int, elements: list, witnesses: list, right: list):
    """Breadth-first closure of the letter actions, resumable (Froidure & Pin).

    Fills the three lists in place and yields each new element's index as it
    is found, so a caller can stop at any element.  Elements are discovered in
    length-lex order of their witness words, so every element carries its
    shortest (then lexicographically least) witness; right[i] is complete once
    the search has moved past element i.
    """
    columns = [tuple(row[k] for row in sa.delta) for k in range(len(sa.alphabet))]  # q -> q.a
    identity = tuple(range(sa.state_count))
    elements.append(identity)
    witnesses.append("")
    index = {identity: 0}
    yield 0
    letters = list(zip(columns, sa.alphabet.symbols))
    pos = 0
    # Numbered like core.explore, but inline: this is the hot loop of classify
    # and check, and explore would leave the witness words and the element
    # index to two more passes over the elements.
    while pos < len(elements):
        base = elements[pos]
        row = []
        for column, a in letters:
            t = tuple([column[q] for q in base])
            i = index.get(t)
            if i is None:
                if len(elements) >= cap:
                    raise ResourceError(f"transition monoid exceeded {cap} elements")
                i = index[t] = len(elements)
                elements.append(t)
                witnesses.append(witnesses[pos] + a)
                yield i
            row.append(i)
        right.append(tuple(row))
        pos += 1


def build(osa: OrderedSemiautomaton, cap: int = 1_000_000) -> TransitionMonoid:
    """Transition monoid: the closure of the letter actions, run to the end."""
    elements, witnesses, right = [], [], []
    for _ in closure(osa.sa, cap, elements, witnesses, right):
        pass
    generators = dict(zip(osa.sa.alphabet, right[0]))
    return TransitionMonoid(tuple(elements), tuple(witnesses), generators, tuple(right), osa.order)


def element_of_word(tm: TransitionMonoid, w: str) -> int:
    """Fold the word through the generator map."""
    column = tm._column
    out = tm.identity
    for a in w:
        k = column.get(a)
        if k is None:
            raise AlphabetError(f"symbol {a!r} not in alphabet")
        out = tm.right[out][k]
    return out


def _omega_data(tm: TransitionMonoid, m: int) -> tuple[int, int]:
    """(idempotent power of m, its exponent): multiply by m until the power's
    transformation fixes its own image, which happens first at the least n
    with m^n idempotent."""
    cached = tm._omega.get(m)
    if cached is None:
        power, n, t = m, 1, tm.elements[m]
        while any(t[x] != x for x in t):
            power, n = tm.compose(power, m), n + 1
            t = tm.elements[power]
        cached = tm._omega[m] = (power, n)
    return cached


def omega_power(tm: TransitionMonoid, m: int) -> int:
    """The unique idempotent among the powers of m."""
    return _omega_data(tm, m)[0]


def omega_exponent(tm: TransitionMonoid, m: int) -> int:
    """The least exponent n >= 1 with m^n idempotent; realizes ^w on witness words."""
    return _omega_data(tm, m)[1]


def nontrivial_cycle(t: tuple) -> int | None:
    """Smallest state on the first cycle of length >= 2 that walks along q -> t[q]
    run into, starting from each state in increasing order; None if there is none."""
    walk = [-1] * len(t)  # the start whose walk first reached each state
    for q in range(len(t)):
        cur = q
        while walk[cur] == -1:
            walk[cur] = q
            cur = t[cur]
        if walk[cur] == q and t[cur] != cur:
            low, x = cur, t[cur]
            while x != cur:
                low, x = min(low, x), t[x]
            return low
    return None


def is_aperiodic(tm: TransitionMonoid) -> tuple[bool, int | None]:
    """True iff m^omega . m = m^omega, that is, the transformation of m has no
    cycle of length >= 2, for every element m; witness = offending element."""
    for m, t in enumerate(tm.elements):
        if nontrivial_cycle(t) is not None:
            return False, m
    return True, None


def _trivial_classes(classes) -> tuple[bool, tuple[int, int] | None]:
    """(True, None) when every class is a singleton; otherwise the pair
    (smallest member of x's class, x) for the lowest-index x that is not the
    smallest member of its class."""
    pairs = [(c[1], c[0]) for c in classes if len(c) > 1]
    if not pairs:
        return True, None
    x, first = min(pairs)
    return False, (first, x)


def is_r_trivial(tm: TransitionMonoid) -> tuple[bool, tuple[int, int] | None]:
    """True iff equal principal right ideals force equal elements.

    The R-classes are the strongly connected components of the right Cayley
    graph.  A non-aperiodic monoid fails outright: for a witness m with
    e = m^omega, the pair (e, e.m) is distinct yet e.m.m^(n-1) = e.e = e, so
    both generate the same right ideal; that pair is reported first.
    """
    ok, m = is_aperiodic(tm)
    if not ok:
        e = omega_power(tm, m)
        return False, (e, tm.compose(e, m))
    return _trivial_classes(sccs(tm.right))


def is_j_trivial(tm: TransitionMonoid) -> tuple[bool, tuple[int, int] | None]:
    """True iff equal principal two-sided ideals force equal elements.

    The J-classes are the strongly connected components of the right and left
    Cayley graphs taken together.  J-trivial implies R-trivial on a finite
    monoid, and an R-violating pair has equal right (hence two-sided) ideals,
    so the R check doubles as a sound prefilter.
    """
    ok, pair = is_r_trivial(tm)
    if not ok:
        return False, pair
    letters = tm.right[0]
    adj = [row + tuple(tm.compose(g, m) for g in letters) for m, row in enumerate(tm.right)]
    return _trivial_classes(sccs(adj))


def leq(tm: TransitionMonoid, m1: int, m2: int) -> bool:
    """Pointwise order lifted from the state order: q.m1 <= q.m2 at every q."""
    t1 = tm.elements[m1]
    t2 = tm.elements[m2]
    return all(tm.order.leq(p, q) for p, q in zip(t1, t2))


def satisfies_one_leq_x(tm: TransitionMonoid) -> tuple[bool, int | None]:
    """True iff the identity is below every element in the pointwise order."""
    for m in range(len(tm)):
        if not leq(tm, tm.identity, m):
            return False, m
    return True, None
