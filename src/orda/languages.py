"""Regular-expression frontend and exact language oracles.

The regex AST supports the extended operators (intersection, complement)
because derivatives handle them uniformly and the cofinite/prefix-testable
test inputs need complements.  Union is kept in ACI normal form (flattened,
sorted, deduplicated) and the empty-language/empty-word simplifications are
applied by the smart constructors below, the only normalizer; this similarity
argument keeps the set of iterated derivatives finite.  Derivatives add four
rules about the regex for every word, which bring their automata close to
minimal (see derivatives).
"""

from __future__ import annotations

import weakref
from functools import partial
from operator import attrgetter

from .core import (
    Alphabet,
    OrderedAutomaton,
    OrderedSemiautomaton,
    Semiautomaton,
    StateOrder,
    _Reader,
    bits,
    explore,
    packed_preimages,
    path_word,
    unions,
)
from .errors import AlphabetError, ParseError, ResourceError
from .minimize import minimize_ordered

RESERVED = frozenset("|&*!()#_")
# derivative_automaton and each subset construction refuse more states than this
STATE_CAP = 10_000


class Regex:
    """Structural AST node; subclasses carry their children.

    Nodes are hash-consed: the constructor, which copy and pickle go through
    too, hands out the one live node per class and fields from a weak-value
    table.  So equal regexes are one object and compare and hash by
    identity, and a node lives only as long as its last user.  Each node
    caches `_order`, its tag followed by its children's `_order`, which
    orders union parts deterministically; and whether its language holds the
    empty word (`nullable`, read off its children's when it is built).
    str(node) is its printed form.
    """

    __slots__ = ("_order", "nullable", "__weakref__")

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _NODES.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = object.__new__(cls)
            node._build(*fields)
            _NODES[key] = weakref.ref(node, partial(_forget, key))
        return node

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __lt__(self, other):
        return self._order < other._order

    def __str__(self):
        return format_regex(self)

    def __repr__(self):
        return f"<regex {format_regex(self)!r}>"


_NODES: dict = {}  # (class, *fields) -> a weak reference to the live node


def _forget(key, ref, nodes=_NODES):
    """Drop a dead node's entry; the table is bound here, so that this still
    works while the interpreter shuts down."""
    if nodes.get(key) is ref:
        del nodes[key]


class Empty(Regex):
    __slots__ = ()

    def _build(self):
        self._order, self.nullable = ("empty",), False


class Eps(Regex):
    __slots__ = ()

    def _build(self):
        self._order, self.nullable = ("eps",), True


class Sym(Regex):
    __slots__ = ("symbol",)

    def _build(self, symbol: str):
        self.symbol = symbol
        self._order, self.nullable = ("sym", symbol), False


class Cat(Regex):
    __slots__ = ("left", "right")

    def _build(self, left: Regex, right: Regex):
        self.left, self.right = left, right
        self._order, self.nullable = ("cat", left._order, right._order), left.nullable and right.nullable


class Star(Regex):
    __slots__ = ("inner",)

    def _build(self, inner: Regex):
        self.inner = inner
        self._order, self.nullable = ("star", inner._order), True


class Union(Regex):
    __slots__ = ("parts",)

    def _build(self, parts: tuple):
        self.parts = parts
        self._order, self.nullable = ("union", *(p._order for p in parts)), any(p.nullable for p in parts)


class Inter(Regex):
    __slots__ = ("left", "right")

    def _build(self, left: Regex, right: Regex):
        self.left, self.right = left, right
        self._order, self.nullable = ("inter", left._order, right._order), left.nullable and right.nullable


class Compl(Regex):
    __slots__ = ("inner",)

    def _build(self, inner: Regex):
        self.inner = inner
        self._order, self.nullable = ("compl", inner._order), not inner.nullable


EMPTY = Empty()
EPS = Eps()
TOP = Compl(EMPTY)  # !#, every word
_ORDER = attrgetter("_order")


def sym(a: str) -> Regex:
    return Sym(a)


def cat(left: Regex, right: Regex) -> Regex:
    if left is EMPTY or right is EMPTY:
        return EMPTY
    if left is EPS:
        return right
    if right is EPS:
        return left
    return Cat(left, right)


def star(r: Regex) -> Regex:
    if r is EMPTY or r is EPS:
        return EPS
    return Star(r)


def union(parts) -> Regex:
    flat = []
    for p in parts:
        if type(p) is Union:
            flat.extend(p.parts)
        elif p is not EMPTY:
            flat.append(p)
    items = tuple(sorted(dict.fromkeys(flat), key=_ORDER))
    if not items:
        return EMPTY
    if len(items) == 1:
        return items[0]
    return Union(items)


def inter(left: Regex, right: Regex) -> Regex:
    if left is EMPTY or right is EMPTY:
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


def derivatives(alphabet):
    """step(r): the left derivatives a^-1 L(r), one per letter a of alphabet
    in its order.

    Each derivative is built by the smart constructors and four rules about
    TOP = !#, the regex for every word (Owens, Reppy & Turon, JFP 2009): a
    union that holds TOP is TOP; TOP is the unit of & and r&r is r; TOP
    followed by a nullable regex is TOP; and !!r is r.  They apply only here,
    so parsed, printed and constructed trees stay as they were, and they
    keep the derivative automaton close to the minimal one.

    step memoizes its answer per node for as long as it is kept, so a caller
    keeps it for one walk only.
    """
    symbols = tuple(alphabet)
    nothing = (EMPTY,) * len(symbols)
    memo: dict = {}

    def then(d, r):  # d followed by r
        return TOP if d is TOP and r.nullable else cat(d, r)

    def join(ds):
        u = union(ds)
        return TOP if type(u) is Union and TOP in u.parts else u

    def meet(x, y):
        if x is TOP or x is y:
            return y
        return x if y is TOP else inter(x, y)

    def step(r: Regex) -> tuple:
        out = memo.get(r)
        if out is not None:
            return out
        t = type(r)
        if t is Sym:
            out = tuple(EPS if a == r.symbol else EMPTY for a in symbols)
        elif t is Cat:
            right = r.right
            out = tuple(then(d, right) for d in step(r.left))
            if r.left.nullable:
                out = tuple(map(join, zip(out, step(right))))
        elif t is Union:
            out = tuple(map(join, zip(*map(step, r.parts))))
        elif t is Star:
            out = tuple(then(d, r) for d in step(r.inner))
        elif t is Empty or t is Eps:
            out = nothing
        elif t is Inter:
            out = tuple(map(meet, step(r.left), step(r.right)))
        elif t is Compl:
            out = tuple(d.inner if type(d) is Compl else Compl(d) for d in step(r.inner))
        else:
            raise TypeError(f"not a regex: {r!r}")
        memo[r] = out
        return out

    return step


def derivative(r: Regex, a: str) -> Regex:
    """The left derivative a^-1 L(r), built as by derivatives."""
    return derivatives((a,))(r)[0]


def regex_matches(r: Regex, w: str) -> bool:
    """Word membership by iterated derivative plus nullable, straight on the AST."""
    index = {a: k for k, a in enumerate(dict.fromkeys(w))}  # w's letters, first seen first
    step = derivatives(index)
    for a in w:
        r = step(r)[index[a]]
    return r.nullable


def _as_alphabet(alphabet) -> Alphabet:
    """Accept an Alphabet, a string of symbols, or any iterable of symbols."""
    if isinstance(alphabet, Alphabet):
        return alphabet
    return Alphabet(tuple(alphabet))


# --- parsing and printing ---------------------------------------------------
#
# Grammar precedence low to high: `|`, `&`, juxtaposition, postfix `*`,
# prefix `!`; `#` is the empty language, `_` the empty word; any other
# printable non-reserved character is a symbol.  Whitespace is skipped:
# the parser reads core._Reader's scan of the text.

# Parser and tree walkers recurse once per level, so the depth of a parsed
# regex stays well inside Python's default recursion limit of 1000 frames.
REGEX_DEPTH_LIMIT = 100


def parse_regex(text: str, alphabet: Alphabet) -> Regex:
    """Parse with the grammar above.

    Every node counts one level above its deepest child, and a parenthesized
    group one level above its contents; more than REGEX_DEPTH_LIMIT levels
    is a ParseError.
    """
    alphabet = _as_alphabet(alphabet)
    reader = _Reader(text, "regex", REGEX_DEPTH_LIMIT)
    chars, columns, level = reader.chars, reader.columns, reader.level
    i = 0  # the next character of chars
    open_levels = 0  # parentheses and `!` the parser is inside of

    # each parse_* returns (node, depth of node); a depth fault is reported
    # where the scan stands: at the next character, columns[i], when the
    # parser has just looked at it, or just past the character it has just
    # read, columns[i - 1] + 1
    def parse_union():
        nonlocal i
        node, height = parse_inter()
        parts = [node]
        while chars[i] == "|":
            i += 1
            node, h = parse_inter()
            parts.append(node)
            height = max(height, h)
        return union(parts), level(height, columns[i]) if len(parts) > 1 else height

    def parse_inter():
        nonlocal i
        node, height = parse_concat()
        while chars[i] == "&":
            i += 1
            right, h = parse_concat()
            node, height = inter(node, right), level(max(height, h), columns[i])
        return node, height

    def parse_concat():
        node, height = parse_postfix()
        while chars[i] not in "|&*) ":
            right, h = parse_postfix()
            node, height = cat(node, right), level(max(height, h), columns[i])
        return node, height

    def parse_postfix():
        nonlocal i
        node, height = parse_prefix()
        while chars[i] == "*":
            i += 1
            node, height = star(node), level(height, columns[i - 1] + 1)
        return node, height

    def parse_prefix():
        nonlocal i, open_levels
        if chars[i] != "!":
            return parse_atom()
        i += 1
        open_levels = level(open_levels, columns[i - 1] + 1)
        node, height = parse_prefix()
        open_levels -= 1
        return compl(node), level(height, columns[i - 1] + 1)

    def parse_atom():
        nonlocal i, open_levels
        c, column = chars[i], columns[i]
        if c == " ":
            raise ParseError("unexpected end of expression", column=column)
        i += 1
        if c == "(":
            open_levels = level(open_levels, column + 1)
            node, height = parse_union()
            open_levels -= 1
            if chars[i] != ")":
                raise ParseError("missing ')'", column=columns[i])
            i += 1
            return node, level(height, columns[i - 1] + 1)
        if c == "#":
            return EMPTY, 1
        if c == "_":
            return EPS, 1
        if c in RESERVED:
            raise ParseError(f"unexpected {c!r}", column=column)
        if not c.isprintable():
            raise ParseError(f"unprintable character at {column}", column=column)
        if c not in alphabet:
            raise AlphabetError(f"symbol {c!r} at column {column} not in alphabet {''.join(alphabet)!r}")
        return Sym(c), 1

    node, _ = parse_union()
    if chars[i] != " ":
        raise ParseError(f"unexpected {chars[i]!r}", column=columns[i])
    return node


# node precedence levels used by the printer
_LEVEL_UNION, _LEVEL_INTER, _LEVEL_CAT, _LEVEL_STAR, _LEVEL_COMPL, _LEVEL_ATOM = range(6)


def _layout(r: Regex):
    """How a node prints: (its level, prefix, separator, suffix, [(child, the
    level the child is printed at)]); a child below that level is parenthesized."""
    if isinstance(r, Union):
        return _LEVEL_UNION, "", "|", "", [(p, _LEVEL_INTER) for p in r.parts]
    if isinstance(r, Inter):
        return _LEVEL_INTER, "", "&", "", [(r.left, _LEVEL_INTER), (r.right, _LEVEL_CAT)]
    if isinstance(r, Cat):
        return _LEVEL_CAT, "", "", "", [(r.left, _LEVEL_CAT), (r.right, _LEVEL_STAR)]
    if isinstance(r, Star):
        return _LEVEL_STAR, "", "", "*", [(r.inner, _LEVEL_COMPL)]
    if isinstance(r, Compl):
        return _LEVEL_COMPL, "!", "", "", [(r.inner, _LEVEL_ATOM)]
    if isinstance(r, Sym):
        return _LEVEL_ATOM, r.symbol, "", "", []
    if isinstance(r, Empty):
        return _LEVEL_ATOM, "#", "", "", []
    if isinstance(r, Eps):
        return _LEVEL_ATOM, "_", "", "", []
    raise TypeError(f"not a regex: {r!r}")


def _render(r: Regex, level: int) -> str:
    if isinstance(r, Sym):  # most nodes
        return r.symbol
    mine, prefix, separator, suffix, children = _layout(r)
    text = prefix + separator.join(_render(c, at) for c, at in children) + suffix
    return "(" + text + ")" if mine < level else text


def _printed_depth(r: Regex, memo: dict) -> tuple[int, int]:
    """(level of r, the depth parse_regex assigns to format_regex(r)): one per
    node and one per pair of parentheses the printer adds."""
    out = memo.get(r)
    if out is None:
        mine, _, _, _, children = _layout(r)
        depth = 1
        for c, at in children:
            c_level, c_depth = _printed_depth(c, memo)
            depth = max(depth, 1 + c_depth + (c_level < at))
        out = memo[r] = (mine, depth)
    return out


def format_regex(r: Regex) -> str:
    return _render(r, _LEVEL_UNION)


# --- automaton constructions ------------------------------------------------


def derivative_automaton(r: Regex, alphabet: Alphabet, cap: int = STATE_CAP) -> OrderedAutomaton:
    """DFA over the derivatives reachable from r, as derivatives builds them; discrete order.

    r is taken as given: the smart constructors and parse_regex build only
    normal forms, and the rules about TOP apply from the first derivative on.
    Syntactically distinct derivatives may denote the same language, so no
    order is claimed here; the inclusion order appears after minimization.
    Each state's name is its regex, printed only when shown.
    """
    alphabet = _as_alphabet(alphabet)
    states, rows = explore(r, derivatives(alphabet), cap, f"derivative automaton exceeded {cap} states")
    finals = frozenset(i for i, s in enumerate(states) if s.nullable)
    sa = Semiautomaton(alphabet, tuple(rows), tuple(states))
    return OrderedAutomaton(
        OrderedSemiautomaton(sa, StateOrder.discrete(len(states))), 0, finals
    )


def canonical_ordered_automaton(r: Regex, alphabet: Alphabet) -> OrderedAutomaton:
    """Minimal ordered automaton of L(r): states are the residuals, ordered by inclusion."""
    return minimize_ordered(derivative_automaton(r, alphabet))


def reverse_subsets(oa: OrderedAutomaton, cap: int = STATE_CAP) -> OrderedAutomaton:
    """Accessible subset automaton of the reversal of oa, ordered by inclusion.

    The reversal runs oa's arrows backwards, from its finals to its initial
    state, and recognizes the mirror language.  A subset is a mask of oa's
    states and is named by its members; cap bounds the subsets.
    """
    n = oa.state_count
    width = len(oa.alphabet)
    full = (1 << n) - 1
    union = unions(packed_preimages(oa.sa))

    def predecessors(subset):
        pre = union(subset)
        return ((pre >> (k * n)) & full for k in range(width))

    start = sum(1 << q for q in oa.finals)
    subsets, rows = explore(start, predecessors, cap, f"subset construction exceeded {cap} states")
    # up[i] is the set of subsets containing every member of subset i: all
    # subsets but those that lack one of its members
    everything = (1 << len(subsets)) - 1
    lacking = [everything] * n
    for i, s in enumerate(subsets):
        for q in bits(s):
            lacking[q] ^= 1 << i
    lack_any = unions(lacking)
    up = [everything ^ lack_any(s) for s in subsets]
    finals = frozenset(i for i, s in enumerate(subsets) if s >> oa.initial & 1)
    names = tuple("{" + ",".join(map(str, bits(s))) + "}" for s in subsets)
    sa = Semiautomaton(oa.alphabet, tuple(rows), names)
    return OrderedAutomaton(OrderedSemiautomaton(sa, StateOrder(tuple(up))), 0, finals)


def brzozowski_minimize(oa: OrderedAutomaton, cap: int = STATE_CAP) -> OrderedAutomaton:
    """Minimal ordered automaton by double reversal.

    Both subset constructions build only accessible subsets, which is what
    makes the final inclusion order coincide with residual inclusion; cap
    bounds the states of each.
    """
    return reverse_subsets(reverse_subsets(oa, cap), cap)


def language_inclusion(oa1: OrderedAutomaton, oa2: OrderedAutomaton) -> tuple[bool, str | None]:
    """Decide L(oa1) <= L(oa2); on failure return the shortest (then lex-least) separating word."""
    if oa1.alphabet.symbols != oa2.alphabet.symbols:
        raise AlphabetError("alphabet mismatch")
    d1, d2 = oa1.sa.delta, oa2.sa.delta
    pairs, rows = explore((oa1.initial, oa2.initial), lambda pair: zip(d1[pair[0]], d2[pair[1]]),
                          stop=lambda pair: pair[0] in oa1.finals and pair[1] not in oa2.finals)
    if len(rows) < len(pairs):  # it stopped at a separating pair
        return False, path_word(rows, oa1.alphabet.symbols, len(pairs) - 1)
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
    Refuses what parse_regex could not read back: an alphabet holding a
    reserved character (AlphabetError), or a result nesting deeper than
    REGEX_DEPTH_LIMIT (ResourceError, raised once it would).
    """
    for a in oa.alphabet:
        if a in RESERVED:
            raise AlphabetError(f"symbol {a!r} is a regex operator, so a regex over it could not be read back")
    n = oa.state_count
    start, end = n, n + 1
    succ: list[dict[int, Regex]] = [{} for _ in range(n + 2)]  # succ[i][j]: the edge i -> j
    pred: list[dict[int, Regex]] = [{} for _ in range(n + 2)]  # pred[j][i]: the same edge
    # An edge between live states, those on some path from start to end, ends
    # up inside the result; any other edge only needs to exist, for the costs.
    back = [[] for _ in range(n + 2)]
    back[end] = sorted(oa.finals)
    for p, row in enumerate(oa.sa.delta):
        for r in row:
            back[r].append(p)
    live = set(explore(oa.initial, oa.sa.delta.__getitem__)[0]) & set(explore(end, back.__getitem__)[0])
    live |= {start, end}
    depths: dict = {}

    def add(i, j, r):
        if isinstance(r, Empty):
            return
        if i not in live or j not in live:
            r = EPS
        else:
            old = succ[i].get(j)
            r = union((old, r)) if old is not None else r
            if _printed_depth(r, depths)[1] > REGEX_DEPTH_LIMIT:
                raise ResourceError(
                    f"regex for the automaton nests deeper than REGEX_DEPTH_LIMIT = {REGEX_DEPTH_LIMIT} "
                    "levels, so it could not be read back"
                )
        succ[i][j] = pred[j][i] = r

    add(start, oa.initial, EPS)
    for q in oa.finals:
        add(q, end, EPS)
    for p in range(n):
        for k, a in enumerate(oa.alphabet):
            add(p, oa.sa.delta[p][k], Sym(a))

    def cost(v):
        return (len(pred[v]) - (v in pred[v])) * (len(succ[v]) - (v in succ[v]))

    remaining = set(range(n))
    while remaining:
        v = min(remaining, key=lambda v: (cost(v), v))
        remaining.discard(v)
        pred[v].pop(v, None)
        loop = succ[v].pop(v, None)
        middle = star(loop) if loop is not None else EPS
        ins, outs = pred[v], succ[v]
        for i in ins:
            del succ[i][v]
        for j in outs:
            del pred[j][v]
        for i, rin in ins.items():
            left = cat(rin, middle)
            for j, rout in outs.items():
                add(i, j, cat(left, rout))
    return succ[start].get(end, EMPTY)
