"""Regular-expression frontend and exact language oracles.

The regex AST supports the extended operators (intersection, complement)
because derivatives handle them uniformly and the cofinite/prefix-testable
test inputs need complements.  Union is kept in ACI normal form (flattened,
sorted, deduplicated) and the empty-language/empty-word simplifications are
applied by the smart constructors below; this is the classical similarity
argument that keeps the set of iterated derivatives finite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import (
    Alphabet,
    OrderedAutomaton,
    OrderedSemiautomaton,
    Semiautomaton,
    StateOrder,
    path_word,
)
from .errors import AlphabetError, ParseError, ResourceError
from .minimize import minimize_ordered

RESERVED = frozenset("|&*!()#_")


class Regex:
    """Structural AST node; subclasses carry their children.

    Each node caches a structural key (nested tuples) used for hashing,
    equality, and the deterministic ordering of union elements.
    """

    __slots__ = ("_key", "_hash")

    def _seal(self, key):
        self._key = key
        self._hash = hash(key)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (isinstance(other, Regex) and self._key == other._key)

    def __repr__(self):
        return f"<regex {format_regex(self)!r}>"


class Empty(Regex):
    __slots__ = ()

    def __init__(self):
        self._seal(("empty",))


class Eps(Regex):
    __slots__ = ()

    def __init__(self):
        self._seal(("eps",))


class Sym(Regex):
    __slots__ = ("symbol",)

    def __init__(self, symbol: str):
        self.symbol = symbol
        self._seal(("sym", symbol))


class Cat(Regex):
    __slots__ = ("left", "right")

    def __init__(self, left: Regex, right: Regex):
        self.left = left
        self.right = right
        self._seal(("cat", left._key, right._key))


class Star(Regex):
    __slots__ = ("inner",)

    def __init__(self, inner: Regex):
        self.inner = inner
        self._seal(("star", inner._key))


class Union(Regex):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        self.parts = parts
        self._seal(("union",) + tuple(p._key for p in parts))


class Inter(Regex):
    __slots__ = ("left", "right")

    def __init__(self, left: Regex, right: Regex):
        self.left = left
        self.right = right
        self._seal(("inter", left._key, right._key))


class Compl(Regex):
    __slots__ = ("inner",)

    def __init__(self, inner: Regex):
        self.inner = inner
        self._seal(("compl", inner._key))


EMPTY = Empty()
EPS = Eps()


def sym(a: str) -> Regex:
    return Sym(a)


def cat(left: Regex, right: Regex) -> Regex:
    if left is EMPTY or right is EMPTY or isinstance(left, Empty) or isinstance(right, Empty):
        return EMPTY
    if isinstance(left, Eps):
        return right
    if isinstance(right, Eps):
        return left
    return Cat(left, right)


def star(r: Regex) -> Regex:
    if isinstance(r, (Empty, Eps)):
        return EPS
    return Star(r)


def union(parts) -> Regex:
    flat = []
    for p in parts:
        if isinstance(p, Union):
            flat.extend(p.parts)
        elif not isinstance(p, Empty):
            flat.append(p)
    dedup = {p._key: p for p in flat}
    items = tuple(dedup[k] for k in sorted(dedup))
    if not items:
        return EMPTY
    if len(items) == 1:
        return items[0]
    return Union(items)


def inter(left: Regex, right: Regex) -> Regex:
    if isinstance(left, Empty) or isinstance(right, Empty):
        return EMPTY
    return Inter(left, right)


def compl(r: Regex) -> Regex:
    return Compl(r)


def word_regex(w: str) -> Regex:
    """The one-word language {w}; the empty word gives EPS."""
    out: Regex = EPS
    for a in w:
        out = cat(out, sym(a))
    return out


def finite_language_regex(words) -> Regex:
    return union(word_regex(w) for w in words)


def normalize(r: Regex) -> Regex:
    """Rebuild bottom-up through the smart constructors; idempotent."""
    if isinstance(r, (Empty, Eps, Sym)):
        return r
    if isinstance(r, Cat):
        return cat(normalize(r.left), normalize(r.right))
    if isinstance(r, Star):
        return star(normalize(r.inner))
    if isinstance(r, Union):
        return union(normalize(p) for p in r.parts)
    if isinstance(r, Inter):
        return inter(normalize(r.left), normalize(r.right))
    if isinstance(r, Compl):
        return compl(normalize(r.inner))
    raise TypeError(f"not a regex: {r!r}")


def regex_symbols(r: Regex) -> set[str]:
    if isinstance(r, Sym):
        return {r.symbol}
    if isinstance(r, (Cat, Inter)):
        return regex_symbols(r.left) | regex_symbols(r.right)
    if isinstance(r, (Star, Compl)):
        return regex_symbols(r.inner)
    if isinstance(r, Union):
        out = set()
        for p in r.parts:
            out |= regex_symbols(p)
        return out
    return set()


def nullable(r: Regex) -> bool:
    """True iff the empty word belongs to the language of r."""
    if isinstance(r, (Empty, Sym)):
        return False
    if isinstance(r, (Eps, Star)):
        return True
    if isinstance(r, Cat):
        return nullable(r.left) and nullable(r.right)
    if isinstance(r, Union):
        return any(nullable(p) for p in r.parts)
    if isinstance(r, Inter):
        return nullable(r.left) and nullable(r.right)
    if isinstance(r, Compl):
        return not nullable(r.inner)
    raise TypeError(f"not a regex: {r!r}")


def derivative(r: Regex, a: str, alphabet: Alphabet | None = None) -> Regex:
    """The left derivative a^-1 L(r), in ACI normal form."""
    if alphabet is not None and a not in alphabet:
        raise AlphabetError(f"symbol {a!r} not in alphabet")
    return _derivative(r, a, {})


def _derivative(r: Regex, a: str, memo: dict) -> Regex:
    key = (r, a)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(r, (Empty, Eps)):
        out = EMPTY
    elif isinstance(r, Sym):
        out = EPS if r.symbol == a else EMPTY
    elif isinstance(r, Cat):
        out = cat(_derivative(r.left, a, memo), r.right)
        if nullable(r.left):
            out = union((out, _derivative(r.right, a, memo)))
    elif isinstance(r, Star):
        out = cat(_derivative(r.inner, a, memo), r)
    elif isinstance(r, Union):
        out = union(_derivative(p, a, memo) for p in r.parts)
    elif isinstance(r, Inter):
        out = inter(_derivative(r.left, a, memo), _derivative(r.right, a, memo))
    elif isinstance(r, Compl):
        out = compl(_derivative(r.inner, a, memo))
    else:
        raise TypeError(f"not a regex: {r!r}")
    memo[key] = out
    return out


def regex_matches(r: Regex, w: str) -> bool:
    """Word membership by iterated derivative plus nullable, straight on the AST."""
    memo: dict = {}
    for a in w:
        r = _derivative(r, a, memo)
    return nullable(r)


def _as_alphabet(alphabet) -> Alphabet:
    """Accept an Alphabet, a string of symbols, or any iterable of symbols."""
    if isinstance(alphabet, Alphabet):
        return alphabet
    return Alphabet(tuple(alphabet))


# --- parsing and printing ---------------------------------------------------
#
# Grammar precedence low to high: `|`, `&`, juxtaposition, postfix `*`,
# prefix `!`; `#` is the empty language, `_` the empty word; any other
# printable non-reserved character is a symbol.  Whitespace is skipped.


def parse_regex(text: str, alphabet: Alphabet) -> Regex:
    alphabet = _as_alphabet(alphabet)
    pos = 0

    def skip():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def peek():
        skip()
        return text[pos] if pos < len(text) else None

    def starts_atom(c):
        return c is not None and c not in "|&*)"

    def parse_union():
        parts = [parse_inter()]
        while peek() == "|":
            nonlocal pos
            pos += 1
            parts.append(parse_inter())
        return union(parts)

    def parse_inter():
        nonlocal pos
        node = parse_concat()
        while peek() == "&":
            pos += 1
            node = inter(node, parse_concat())
        return node

    def parse_concat():
        node = parse_postfix()
        while starts_atom(peek()):
            node = cat(node, parse_postfix())
        return node

    def parse_postfix():
        nonlocal pos
        node = parse_prefix()
        while peek() == "*":
            pos += 1
            node = star(node)
        return node

    def parse_prefix():
        nonlocal pos
        if peek() == "!":
            pos += 1
            return compl(parse_prefix())
        return parse_atom()

    def parse_atom():
        nonlocal pos
        c = peek()
        if c is None:
            raise ParseError("unexpected end of expression", column=pos)
        if c == "(":
            pos += 1
            node = parse_union()
            if peek() != ")":
                raise ParseError("missing ')'", column=pos)
            pos += 1
            return node
        if c == "#":
            pos += 1
            return EMPTY
        if c == "_":
            pos += 1
            return EPS
        if c in RESERVED:
            raise ParseError(f"unexpected {c!r}", column=pos)
        if not c.isprintable():
            raise ParseError(f"unprintable character at {pos}", column=pos)
        if c not in alphabet:
            raise AlphabetError(f"symbol {c!r} at column {pos} not in alphabet {''.join(alphabet)!r}")
        pos += 1
        return Sym(c)

    node = parse_union()
    if peek() is not None:
        raise ParseError(f"unexpected {text[pos]!r}", column=pos)
    return node


# node precedence levels used by the printer
_LEVEL_UNION, _LEVEL_INTER, _LEVEL_CAT, _LEVEL_STAR, _LEVEL_COMPL, _LEVEL_ATOM = range(6)


def _render(r: Regex, level: int) -> str:
    if isinstance(r, Empty):
        return "#"
    if isinstance(r, Eps):
        return "_"
    if isinstance(r, Sym):
        return r.symbol
    if isinstance(r, Union):
        text = "|".join(_render(p, _LEVEL_INTER) for p in r.parts)
        mine = _LEVEL_UNION
    elif isinstance(r, Inter):
        text = _render(r.left, _LEVEL_INTER) + "&" + _render(r.right, _LEVEL_CAT)
        mine = _LEVEL_INTER
    elif isinstance(r, Cat):
        text = _render(r.left, _LEVEL_CAT) + _render(r.right, _LEVEL_STAR)
        mine = _LEVEL_CAT
    elif isinstance(r, Star):
        text = _render(r.inner, _LEVEL_COMPL) + "*"
        mine = _LEVEL_STAR
    elif isinstance(r, Compl):
        text = "!" + _render(r.inner, _LEVEL_ATOM)
        mine = _LEVEL_COMPL
    else:
        raise TypeError(f"not a regex: {r!r}")
    return "(" + text + ")" if mine < level else text


def format_regex(r: Regex) -> str:
    return _render(r, _LEVEL_UNION)


# --- automaton constructions ------------------------------------------------


def derivative_automaton(r: Regex, alphabet: Alphabet, cap: int = 10000) -> OrderedAutomaton:
    """DFA over the ACI-normal-form derivatives reachable from r; discrete order.

    Syntactically distinct normal forms may denote the same language, so no
    order is claimed here; the inclusion order appears after minimization.
    """
    alphabet = _as_alphabet(alphabet)
    start = normalize(r)
    index = {start: 0}
    states = [start]
    rows = []
    memo: dict = {}
    pos = 0
    while pos < len(states):
        s = states[pos]
        row = []
        for a in alphabet:
            d = _derivative(s, a, memo)
            i = index.get(d)
            if i is None:
                if len(states) >= cap:
                    raise ResourceError(f"derivative automaton exceeded {cap} states")
                i = len(states)
                index[d] = i
                states.append(d)
            row.append(i)
        rows.append(tuple(row))
        pos += 1
    finals = frozenset(i for i, s in enumerate(states) if nullable(s))
    names = tuple(format_regex(s) for s in states)
    sa = Semiautomaton(alphabet, tuple(rows), names)
    return OrderedAutomaton(
        OrderedSemiautomaton(sa, StateOrder.discrete(len(states))), 0, finals
    )


def canonical_ordered_automaton(r: Regex, alphabet: Alphabet, cap: int = 10000) -> OrderedAutomaton:
    """Minimal ordered automaton of L(r): states are the residuals, ordered by inclusion."""
    return minimize_ordered(derivative_automaton(r, alphabet, cap))


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic automaton; exists only as input to subset construction."""

    alphabet: Alphabet
    moves: tuple[tuple[frozenset[int], ...], ...]  # moves[q][k] = successor set
    initials: frozenset[int]
    finals: frozenset[int]

    def __post_init__(self):
        n = len(self.moves)
        width = len(self.alphabet)
        for q, row in enumerate(self.moves):
            if len(row) != width:
                raise ParseError(f"nfa state {q}: expected {width} move sets")
            for targets in row:
                for r in targets:
                    if not 0 <= r < n:
                        raise ParseError(f"nfa state {q}: target {r} out of range")
        for q in self.initials | self.finals:
            if not 0 <= q < n:
                raise ParseError(f"nfa state {q} out of range")

    @property
    def state_count(self) -> int:
        return len(self.moves)


def subset_construction(n: Nfa) -> OrderedAutomaton:
    """Accessible subset DFA, ordered by set inclusion on the reachable subsets."""
    width = len(n.alphabet)
    start = frozenset(n.initials)
    index = {start: 0}
    subsets = [start]
    rows = []
    pos = 0
    while pos < len(subsets):
        cur = subsets[pos]
        row = []
        for k in range(width):
            nxt = frozenset().union(*(n.moves[q][k] for q in cur)) if cur else frozenset()
            i = index.get(nxt)
            if i is None:
                i = len(subsets)
                index[nxt] = i
                subsets.append(nxt)
            row.append(i)
        rows.append(tuple(row))
        pos += 1
    order = StateOrder.from_leq(len(subsets), lambda i, j: subsets[i] <= subsets[j])
    finals = frozenset(i for i, s in enumerate(subsets) if s & n.finals)
    names = tuple("{" + ",".join(str(q) for q in sorted(s)) + "}" for s in subsets)
    sa = Semiautomaton(n.alphabet, tuple(rows), names)
    return OrderedAutomaton(OrderedSemiautomaton(sa, order), 0, finals)


def reverse(oa: OrderedAutomaton) -> Nfa:
    """Arrow-reversed NFA: initial and final sets swap; recognizes the mirror language."""
    sa = oa.sa
    n = sa.state_count
    width = len(sa.alphabet)
    moves = [[set() for _ in range(width)] for _ in range(n)]
    for q in range(n):
        for k in range(width):
            moves[sa.delta[q][k]][k].add(q)
    return Nfa(
        sa.alphabet,
        tuple(tuple(frozenset(targets) for targets in row) for row in moves),
        frozenset(oa.finals),
        frozenset({oa.initial}),
    )


def brzozowski_minimize(oa: OrderedAutomaton) -> OrderedAutomaton:
    """Minimal ordered automaton by double reversal.

    Both subset constructions build only accessible subsets, which is what
    makes the final inclusion order coincide with residual inclusion.
    """
    return subset_construction(reverse(subset_construction(reverse(oa))))


def language_inclusion(oa1: OrderedAutomaton, oa2: OrderedAutomaton) -> tuple[bool, str | None]:
    """Decide L(oa1) <= L(oa2); on failure return the shortest (then lex-least) separating word."""
    if oa1.alphabet.symbols != oa2.alphabet.symbols:
        raise AlphabetError("alphabet mismatch")
    d1, d2 = oa1.sa.delta, oa2.sa.delta
    f1, f2 = oa1.finals, oa2.finals
    width = len(oa1.alphabet)
    start = (oa1.initial, oa2.initial)
    parents: dict[tuple[int, int], tuple[tuple[int, int], str] | None] = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        p1, p2 = pair
        if p1 in f1 and p2 not in f2:
            return False, path_word(parents, pair)
        for k in range(width):
            nxt = (d1[p1][k], d2[p2][k])
            if nxt not in parents:
                parents[nxt] = (pair, oa1.alphabet.symbols[k])
                queue.append(nxt)
    return True, None


def enumerate_words(oa: OrderedAutomaton, max_len: int) -> list[str]:
    """All accepted words of length <= max_len, in length-lexicographic order."""
    sa = oa.sa
    out = []
    level = [("", oa.initial)]
    for _ in range(max_len + 1):
        for w, q in level:
            if q in oa.finals:
                out.append(w)
        level = [(w + a, sa.delta[q][k]) for w, q in level for k, a in enumerate(sa.alphabet)]
    return out


def to_regex(oa: OrderedAutomaton) -> Regex:
    """Language-equivalent regex by state elimination (oracle support).

    Deterministic: ties in the elimination-cost heuristic break on state index.
    """
    n = oa.state_count
    start, end = n, n + 1
    edge: dict[tuple[int, int], Regex] = {}

    def add(i, j, r):
        if isinstance(r, Empty):
            return
        old = edge.get((i, j))
        edge[(i, j)] = union((old, r)) if old is not None else r

    add(start, oa.initial, EPS)
    for q in oa.finals:
        add(q, end, EPS)
    for p in range(n):
        for k, a in enumerate(oa.alphabet):
            add(p, oa.sa.delta[p][k], Sym(a))

    remaining = set(range(n))
    while remaining:
        def cost(v):
            ins = sum(1 for (i, j) in edge if j == v and i != v)
            outs = sum(1 for (i, j) in edge if i == v and j != v)
            return ins * outs
        v = min(remaining, key=lambda v: (cost(v), v))
        remaining.discard(v)
        loop = edge.pop((v, v), None)
        middle = star(loop) if loop is not None else EPS
        ins = [(i, r) for (i, j), r in edge.items() if j == v]
        outs = [(j, r) for (i, j), r in edge.items() if i == v]
        for (i, _) in ins:
            del edge[(i, v)]
        for (j, _) in outs:
            del edge[(v, j)]
        for i, rin in ins:
            left = cat(rin, middle)
            for j, rout in outs:
                add(i, j, cat(left, rout))
    return edge.get((start, end), EMPTY)
