"""Regular-expression frontend and exact language oracles.

The regex AST supports the extended operators (intersection, complement)
because derivatives handle them uniformly and the cofinite/prefix-testable
test inputs need complements.  Union is kept in ACI normal form (flattened,
sorted, deduplicated) and the empty-language/empty-word simplifications are
applied by the smart constructors below; this is the classical similarity
argument that keeps the set of iterated derivatives finite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Alphabet,
    OrderedAutomaton,
    OrderedSemiautomaton,
    Semiautomaton,
    StateOrder,
    explore,
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
    pos = 0
    open_levels = 0  # parentheses and `!` the parser is inside of

    def skip():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def peek():
        skip()
        return text[pos] if pos < len(text) else None

    def starts_atom(c):
        return c is not None and c not in "|&*)"

    def level(height):
        """The depth one level above height, refused past the limit."""
        if height >= REGEX_DEPTH_LIMIT:
            raise ParseError(f"regex nested deeper than the limit of {REGEX_DEPTH_LIMIT} levels", column=pos)
        return height + 1

    # each parse_* returns (node, depth of node)
    def parse_union():
        node, height = parse_inter()
        parts = [node]
        while peek() == "|":
            nonlocal pos
            pos += 1
            node, h = parse_inter()
            parts.append(node)
            height = max(height, h)
        return union(parts), level(height) if len(parts) > 1 else height

    def parse_inter():
        nonlocal pos
        node, height = parse_concat()
        while peek() == "&":
            pos += 1
            right, h = parse_concat()
            node, height = inter(node, right), level(max(height, h))
        return node, height

    def parse_concat():
        node, height = parse_postfix()
        while starts_atom(peek()):
            right, h = parse_postfix()
            node, height = cat(node, right), level(max(height, h))
        return node, height

    def parse_postfix():
        nonlocal pos
        node, height = parse_prefix()
        while peek() == "*":
            pos += 1
            node, height = star(node), level(height)
        return node, height

    def parse_prefix():
        nonlocal pos, open_levels
        if peek() == "!":
            pos += 1
            open_levels = level(open_levels)
            node, height = parse_prefix()
            open_levels -= 1
            return compl(node), level(height)
        return parse_atom()

    def parse_atom():
        nonlocal pos, open_levels
        c = peek()
        if c is None:
            raise ParseError("unexpected end of expression", column=pos)
        if c == "(":
            pos += 1
            open_levels = level(open_levels)
            node, height = parse_union()
            open_levels -= 1
            if peek() != ")":
                raise ParseError("missing ')'", column=pos)
            pos += 1
            return node, level(height)
        if c == "#":
            pos += 1
            return EMPTY, 1
        if c == "_":
            pos += 1
            return EPS, 1
        if c in RESERVED:
            raise ParseError(f"unexpected {c!r}", column=pos)
        if not c.isprintable():
            raise ParseError(f"unprintable character at {pos}", column=pos)
        if c not in alphabet:
            raise AlphabetError(f"symbol {c!r} at column {pos} not in alphabet {''.join(alphabet)!r}")
        pos += 1
        return Sym(c), 1

    node, _ = parse_union()
    if peek() is not None:
        raise ParseError(f"unexpected {text[pos]!r}", column=pos)
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


def derivative_automaton(r: Regex, alphabet: Alphabet, cap: int = 10000) -> OrderedAutomaton:
    """DFA over the ACI-normal-form derivatives reachable from r; discrete order.

    Syntactically distinct normal forms may denote the same language, so no
    order is claimed here; the inclusion order appears after minimization.
    """
    alphabet = _as_alphabet(alphabet)
    memo: dict = {}
    states, rows = explore(
        normalize(r), lambda s: (_derivative(s, a, memo) for a in alphabet), cap, "derivative automaton"
    )
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


def subset_construction(n: Nfa, cap: int = 10000) -> OrderedAutomaton:
    """Accessible subset DFA, ordered by set inclusion on the reachable subsets."""
    width = len(n.alphabet)
    subsets, rows = explore(
        frozenset(n.initials),
        lambda cur: (frozenset().union(*(n.moves[q][k] for q in cur)) for k in range(width)),
        cap,
        "subset construction",
    )
    # up[i] is the set of subsets containing every member of subset i
    containing = [0] * len(n.moves)
    for i, s in enumerate(subsets):
        for q in s:
            containing[q] |= 1 << i
    up = []
    for s in subsets:
        mask = (1 << len(subsets)) - 1
        for q in s:
            mask &= containing[q]
        up.append(mask)
    finals = frozenset(i for i, s in enumerate(subsets) if s & n.finals)
    names = tuple("{" + ",".join(str(q) for q in sorted(s)) + "}" for s in subsets)
    sa = Semiautomaton(n.alphabet, tuple(rows), names)
    return OrderedAutomaton(OrderedSemiautomaton(sa, StateOrder(tuple(up))), 0, finals)


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


def brzozowski_minimize(oa: OrderedAutomaton, cap: int = 10000) -> OrderedAutomaton:
    """Minimal ordered automaton by double reversal.

    Both subset constructions build only accessible subsets, which is what
    makes the final inclusion order coincide with residual inclusion; cap
    bounds the states of each.
    """
    return subset_construction(reverse(subset_construction(reverse(oa), cap)), cap)


def language_inclusion(oa1: OrderedAutomaton, oa2: OrderedAutomaton) -> tuple[bool, str | None]:
    """Decide L(oa1) <= L(oa2); on failure return the shortest (then lex-least) separating word."""
    if oa1.alphabet.symbols != oa2.alphabet.symbols:
        raise AlphabetError("alphabet mismatch")
    d1, d2 = oa1.sa.delta, oa2.sa.delta
    pairs, rows = explore((oa1.initial, oa2.initial), lambda pair: zip(d1[pair[0]], d2[pair[1]]))
    for j, (p1, p2) in enumerate(pairs):
        if p1 in oa1.finals and p2 not in oa2.finals:
            return False, path_word(rows, oa1.alphabet.symbols, j)
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
    Raises ResourceError once the result would nest deeper than
    REGEX_DEPTH_LIMIT, which parse_regex could not read back.
    """
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
