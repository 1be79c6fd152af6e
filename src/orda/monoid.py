"""Transition monoids of ordered semiautomata and the inequality oracles on them.

The transition monoid of (Q, A, ., <=) is the set of transformations of Q
induced by words, ordered pointwise by the state order.  Taken over the
minimal ordered automaton of a language it is the syntactic ordered monoid,
which is what lets the oracles here serve as ground truth for the
automaton-level classifiers.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter

from .core import OrderedSemiautomaton, Semiautomaton, explore, sccs, tree

_first = itemgetter(0)

# build, omega.check and classify.is_counter_free refuse a transition monoid
# of more elements than this, unless given another cap
MONOID_CAP = 1_000_000


class TransitionMonoid:
    """Closure of the letter actions under composition; immutable once built.

    elements[i] is a transformation t with q.w = t[q], packed by _pack: a
    bytes of length |Q| up to 256 states, a tuple above; element 0 is the
    identity.  generators maps each letter, in alphabet order, to its
    element, and right[i][k] is the element acting as w_i followed by the
    k-th of those letters: the right Cayley graph, whose breadth-first tree
    spells the words of the elements (see word).  omega[t] is (the
    idempotent power of transformation t, the least exponent n >= 1 giving
    it), found on first lookup (see _Powers); the exponent realizes ^w on
    words.  index, left_multiples and right_multiples are built on first use.
    """

    __slots__ = ("elements", "generators", "right", "order", "omega", "_index", "_right_tree", "_left", "_left_tree")

    identity = 0

    def __init__(self, elements, generators, right, order):
        self.elements = elements
        self.generators = generators
        self.right = right
        self.order = order
        self.omega = _Powers()
        self._index = self._right_tree = self._left = self._left_tree = None

    def __len__(self):
        return len(self.elements)

    @property
    def index(self) -> dict:
        """Each transformation -> its element, built on first use."""
        if self._index is None:
            self._index = dict(zip(self.elements, range(len(self.elements))))
        return self._index

    def _tree(self) -> list[tuple[int, int, int]]:
        """core.tree of right, letters in alphabet order, built once: it
        lists (j, p, k) for j = 1, 2, ... in turn, since build numbers
        breadth-first, and w_j is w_p then the k-th letter."""
        if self._right_tree is None:
            self._right_tree = tree(self.right, range(len(self.generators)))
        return self._right_tree

    def word(self, i: int) -> str:
        """The length-lex least word acting as element i, spelled back along
        the breadth-first tree of right."""
        edges, letters, word = self._tree(), [*self.generators], []
        while i:
            _, i, k = edges[i - 1]
            word.append(letters[k])
        return "".join(reversed(word))

    def _left_cayley(self) -> list[tuple[int, ...]]:
        """left[j][g]: the element acting as the g-th letter, then w_j, built
        once.  By the prefix rule, if the tree of right reaches j as
        right[p][k], so that w_j is w_p then the k-th letter, left[j][g] is
        right[left[p][g]][k]."""
        if self._left is None:
            columns = list(zip(*self.right))  # k -> (right[x][k] for every x)
            left = self._left = [self.right[0]]
            for _, p, k in self._tree():
                left.append(_then(left[p])(columns[k]))
        return self._left

    def left_multiples(self, i: int) -> list[int]:
        """The element i.j for every element j, in index order: w_j is w_p
        then the k-th letter for its parent (p, k), so i.j is right[i.p][k]
        (the prefix rule of Froidure & Pin)."""
        right, row = self.right, [i]
        for _, p, k in self._tree():
            row.append(right[row[p]][k])
        return row

    def right_multiples(self, i: int) -> list[int]:
        """The element j.i for every element j, in index order: each j other
        than 1 is the g-th letter then an element p found before it, so j.i
        is left[p.i][g]."""
        left = self._left_cayley()
        if self._left_tree is None:
            self._left_tree = tree(left, range(len(self.generators)))
        column = [i] * len(self.elements)
        for j, p, g in self._left_tree:
            column[j] = left[column[p]][g]
        return column

    def __repr__(self):
        return f"<transition monoid, {len(self.elements)} elements>"

    def compose(self, i: int, j: int) -> int:
        """Element acting as w_i followed by w_j."""
        return self.index[then(self.elements[i], self.elements[j])]


def _pack(states) -> bytes | tuple:
    """The element with images q -> states[q]: a bytes up to 256 states, where a
    product is one bytes.translate call and the hash is cached; a tuple above."""
    return bytes(states) if len(states) <= 256 else tuple(states)


def _operand(u: bytes | tuple) -> bytes | tuple:
    """u as the right factor of a product: a packed u padded to the 256-byte
    table bytes.translate reads, a tuple u as it is."""
    return u.ljust(256, b"\0") if type(u) is bytes else u


def _then(t: bytes | tuple):
    """The map u -> t then u, that is, u -> (u[t[q]] for q), on u given by
    _operand: t.translate for a packed t, one itemgetter call for a tuple t,
    where a 1-state t gets a one-element tuple, not a bare int."""
    if type(t) is bytes:
        return t.translate
    if len(t) > 1:
        return itemgetter(*t)
    (q,) = t
    return lambda u: (u[q],)


def then(s: bytes | tuple, t: bytes | tuple) -> bytes | tuple:
    """The transformation s, then t, on packed transformations (see _pack)."""
    if type(s) is bytes:
        return s.translate(t.ljust(256, b"\0"))
    return _then(s)(t)


def operands(row: list) -> list:
    """_operand of each transformation of a non-empty row, in one map."""
    if type(row[0]) is bytes:
        return list(map(bytes.ljust, row, repeat(256), repeat(b"\0")))
    return row


def products(row: list, others, actions=None) -> list:
    """then(t, u) for each t of a non-empty row and u of others, given by
    _operand: one bytes.translate each on packed transformations; on tuples
    one call each of actions, the _then of the row's entries, built here
    when not given."""
    if type(row[0]) is bytes:
        return list(map(bytes.translate, row, others))
    return [act(u) for act, u in zip(actions or map(_then, row), others)]


def idempotents(powers: _Powers, row: list) -> list:
    """The idempotent power of each transformation of row, read off powers."""
    return list(map(_first, map(powers.__getitem__, row)))


def _letters(sa: Semiautomaton) -> list:
    """Each letter's transformation q -> q.a, packed, in alphabet order."""
    return [_pack([row[k] for row in sa.delta]) for k in range(len(sa.alphabet))]


def explore_letters(sa: Semiautomaton, cap: int, stop=None) -> tuple[list, list]:
    """core.explore of the letter actions from the identity (Froidure & Pin):
    (elements, right), numbered breadth-first, letters in alphabet order, so
    in length-lex order of their least words.  A product is one call of the
    base element's _then on a letter's column: up to 256 states one
    bytes.translate, whose result caches its hash for the index lookup and
    the insert.  More than cap elements raise ResourceError; stop is that
    of explore."""
    columns = [_operand(t) for t in _letters(sa)]  # q -> q.a
    return explore(_pack(range(sa.state_count)), lambda t: map(_then(t), columns), cap,
                   f"transition monoid exceeded {cap} elements", stop)


def build(osa: OrderedSemiautomaton, cap: int = MONOID_CAP) -> TransitionMonoid:
    """Transition monoid: the closure of the letter actions, run to the end."""
    elements, right = explore_letters(osa.sa, cap)
    generators = dict(zip(osa.sa.alphabet, right[0]))
    return TransitionMonoid(tuple(elements), generators, tuple(right), osa.order)


class _Powers(dict):
    """transformation t -> (idempotent power of t, its exponent), found on the
    first lookup of t: the power is multiplied by t until it satisfies
    power then power == power, which happens first at the least exponent
    n >= 1 with an idempotent n-th power.  A lookup of a known t is one dict
    lookup, with no Python call."""

    __slots__ = ()

    def __missing__(self, t):
        power, n, times_t = t, 1, _operand(t)
        if type(t) is bytes:  # then and _operand inline: this runs once per element of a check
            while power.translate(power.ljust(256, b"\0")) != power:
                power, n = power.translate(times_t), n + 1
        else:
            while _then(power)(power) != power:
                power, n = _then(power)(times_t), n + 1
        self[t] = power, n
        return power, n


class LetterActions:
    """The letters' actions without their closure: what a check needs whose
    variables range over letters only.

    elements and generators are those of the built monoid cut to the
    identity and the letters: element 0 is the identity, and each letter
    whose action is new takes the next index, as build numbers its first
    row.  omega is a _Powers, as for TransitionMonoid.
    """

    __slots__ = ("elements", "generators", "omega")

    def __init__(self, sa: Semiautomaton):
        identity = _pack(range(sa.state_count))
        index = {identity: 0}
        self.elements, self.generators = [identity], {}
        for t, a in zip(_letters(sa), sa.alphabet.symbols):
            i = self.generators[a] = index.setdefault(t, len(self.elements))
            if i == len(self.elements):
                self.elements.append(t)
        self.omega = _Powers()

    def __len__(self):
        return len(self.elements)

    def word(self, i: int) -> str:
        """The first letter acting as element i; the empty word for the identity."""
        return next(a for a, j in self.generators.items() if j == i) if i else ""


def omega_power(tm: TransitionMonoid, m: int) -> int:
    """The unique idempotent among the powers of m."""
    return tm.index[tm.omega[tm.elements[m]][0]]


def nontrivial_cycle(t: bytes | tuple) -> int | None:
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
    so the R check doubles as a sound prefilter.  The left Cayley graph
    follows from the right one by the prefix rule: if j is first reached as
    right[i][k], then g.w_j = (g.w_i).k, so left[j][g] = right[left[i][g]][k].
    """
    ok, pair = is_r_trivial(tm)
    if not ok:
        return False, pair
    left = tm._left_cayley()
    return _trivial_classes(sccs([r + l for r, l in zip(tm.right, left)]))


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
