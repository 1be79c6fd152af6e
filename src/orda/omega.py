"""Omega-terms and the decision procedure for omega-inequalities.

A query u <= v holds in an ordered semiautomaton with respect to a category
of homomorphisms when every admissible substitution satisfies
p.f(u) <= p.f(v) from every state p.  Words only matter through their monoid
action, so the procedure quantifies over monoid-element substitutions; each
element carries a witness word, and every counterexample can therefore be
replayed literally on the semiautomaton.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product as cartesian
from math import perm

from .classify import Verdict
from .core import Alphabet, OrderedSemiautomaton, Semiautomaton, StateOrder
from .errors import OrdaError, ParseError, ResourceError
from .monoid import TransitionMonoid, build, omega_exponent, omega_power

CATEGORIES = ("all", "ne", "lp", "surj", "lm")


class OmegaTerm:
    """Base class; terms are unit, variables, concatenations, omega-powers."""

    __slots__ = ()


@dataclass(frozen=True)
class Unit(OmegaTerm):
    __slots__ = ()


@dataclass(frozen=True)
class Var(OmegaTerm):
    name: str


@dataclass(frozen=True)
class Concat(OmegaTerm):
    parts: tuple


@dataclass(frozen=True)
class OmegaPower(OmegaTerm):
    inner: OmegaTerm


UNIT = Unit()


def concat(parts) -> OmegaTerm:
    flat: list[OmegaTerm] = []
    for p in parts:
        if isinstance(p, Concat):
            flat.extend(p.parts)
        elif not isinstance(p, Unit):
            flat.append(p)
    if not flat:
        return UNIT
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def term_variables(t: OmegaTerm) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Concat):
        out: set[str] = set()
        for p in t.parts:
            out |= term_variables(p)
        return out
    if isinstance(t, OmegaPower):
        return term_variables(t.inner)
    return set()


def format_term(t: OmegaTerm) -> str:
    if isinstance(t, Unit):
        return "1"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, OmegaPower):
        if isinstance(t.inner, (Var, Unit)):
            return format_term(t.inner) + "^w"
        return "(" + format_term(t.inner) + ")^w"
    if isinstance(t, Concat):
        return " ".join(
            "(" + format_term(p) + ")" if isinstance(p, Concat) else format_term(p)
            for p in t.parts
        )
    raise TypeError(f"not an omega-term: {t!r}")


@dataclass(frozen=True)
class OmegaQuery:
    left: OmegaTerm
    right: OmegaTerm
    relation: str  # "<=" or "=="
    category: str  # one of CATEGORIES


def format_query(q: OmegaQuery) -> str:
    return f"{format_term(q.left)} {q.relation} {format_term(q.right)} @{q.category}"


# The parser and the term walkers recurse once per level, so the depth of a
# parsed term stays well inside Python's default recursion limit.
QUERY_DEPTH_LIMIT = 100


def parse_query(text: str) -> OmegaQuery:
    """Grammar: term (<=|==) term @all|@ne|@lp|@surj|@lm.

    Terms: `1`, variables (letter then alphanumerics, maximal munch),
    juxtaposition, `^w` postfix on a variable or parenthesized group.
    Juxtaposition and `^w` count one level above their deepest operand, and
    parentheses one above their contents; a term more than QUERY_DEPTH_LIMIT
    levels deep is a ParseError.
    """
    pos = 0
    open_parens = 0

    def skip():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def peek():
        skip()
        return text[pos] if pos < len(text) else None

    def level(height):
        """The depth one level above height, refused past the limit."""
        if height >= QUERY_DEPTH_LIMIT:
            raise ParseError(f"query nested deeper than the limit of {QUERY_DEPTH_LIMIT} levels", column=pos)
        return height + 1

    # each parse_* returns (term, depth of term)
    def parse_atom() -> tuple[OmegaTerm, int]:
        nonlocal pos, open_parens
        c = peek()
        if c is None:
            raise ParseError("unexpected end of query", column=pos)
        if c == "(":
            pos += 1
            open_parens = level(open_parens)
            node, height = parse_term()
            open_parens -= 1
            if peek() != ")":
                raise ParseError("missing ')'", column=pos)
            pos += 1
            return node, level(height)
        if c == "1":
            pos += 1
            return UNIT, 1
        if c.isalpha():
            start = pos
            pos += 1
            while pos < len(text) and text[pos].isalnum():
                pos += 1
            return Var(text[start:pos]), 1
        raise ParseError(f"unexpected {c!r}", column=pos)

    def parse_postfix() -> tuple[OmegaTerm, int]:
        nonlocal pos
        node, height = parse_atom()
        while peek() == "^":
            pos += 1
            if pos >= len(text) or text[pos] != "w":
                raise ParseError("expected 'w' after '^'", column=pos)
            pos += 1
            node, height = OmegaPower(node), level(height)
        return node, height

    def starts_atom(c) -> bool:
        return c is not None and (c == "(" or c == "1" or c.isalpha())

    def parse_term() -> tuple[OmegaTerm, int]:
        node, height = parse_postfix()
        parts = [node]
        while starts_atom(peek()):
            node, h = parse_postfix()
            parts.append(node)
            height = max(height, h)
        return concat(parts), level(height) if len(parts) > 1 else height

    left, _ = parse_term()
    c = peek()
    if c == "<":
        if not text.startswith("<=", pos):
            raise ParseError("expected '<='", column=pos)
        relation = "<="
        pos += 2
    elif c == "=":
        if not text.startswith("==", pos):
            raise ParseError("expected '=='", column=pos)
        relation = "=="
        pos += 2
    else:
        raise ParseError("expected '<=' or '=='", column=pos)
    right, _ = parse_term()
    if peek() != "@":
        raise ParseError("expected '@' category suffix", column=pos)
    pos += 1
    start = pos
    while pos < len(text) and text[pos].isalnum():
        pos += 1
    category = text[start:pos]
    if category not in CATEGORIES:
        raise ParseError(f"unknown category {category!r}", column=start)
    if peek() is not None:
        raise ParseError(f"unexpected {text[pos]!r}", column=pos)
    return OmegaQuery(left, right, relation, category)


@dataclass(frozen=True)
class Substitution:
    """Assignment of monoid elements to variables, with realizing words."""

    names: tuple[str, ...]
    elements: tuple[int, ...]
    witnesses: tuple[str, ...]

    def element_of(self, name: str) -> int:
        try:
            return self.elements[self.names.index(name)]
        except ValueError:
            raise OrdaError(f"unbound variable {name!r}") from None

    def witness_of(self, name: str) -> str:
        return self.witnesses[self.names.index(name)]

    def __str__(self):
        return ", ".join(f"{x}={w!r}" for x, w in zip(self.names, self.witnesses))


def eval_term(tm: TransitionMonoid, t: OmegaTerm, s: Substitution) -> int:
    """Value of the term in the monoid; 1 is the identity, ^w the idempotent power."""
    if isinstance(t, Unit):
        return tm.identity
    if isinstance(t, Var):
        return s.element_of(t.name)
    if isinstance(t, Concat):
        out = tm.identity
        for p in t.parts:
            out = tm.compose(out, eval_term(tm, p, s))
        return out
    if isinstance(t, OmegaPower):
        return omega_power(tm, eval_term(tm, t.inner, s))
    raise TypeError(f"not an omega-term: {t!r}")


def term_word(tm: TransitionMonoid, t: OmegaTerm, s: Substitution) -> str:
    """A concrete word realizing the term: each ^w unfolds to its own exponent.

    The word's action equals eval_term's value, which is what makes replayed
    counterexamples equivalent to the monoid computation.
    """
    if isinstance(t, Unit):
        return ""
    if isinstance(t, Var):
        return s.witness_of(t.name)
    if isinstance(t, Concat):
        return "".join(term_word(tm, p, s) for p in t.parts)
    if isinstance(t, OmegaPower):
        w = term_word(tm, t.inner, s)
        return w * omega_exponent(tm, eval_term(tm, t.inner, s))
    raise TypeError(f"not an omega-term: {t!r}")


def nonempty_realizable(tm: TransitionMonoid) -> dict[int, str]:
    """Elements realizable by non-empty words, with least such witnesses.

    This is the transition semigroup; it contains the identity only when some
    non-empty word acts as the identity.
    """
    out: dict[int, str] = {}
    queue: list[int] = []
    columns = sorted((a, k) for k, a in enumerate(tm.generators))
    for a, k in columns:
        g = tm.right[tm.identity][k]
        if g not in out:
            out[g] = a
            queue.append(g)
    pos = 0
    while pos < len(queue):
        e = queue[pos]
        pos += 1
        for a, k in columns:
            y = tm.right[e][k]
            if y not in out:
                out[y] = out[e] + a
                queue.append(y)
    return out


def length_set(tm: TransitionMonoid, cap: int = 100_000) -> list[dict[int, tuple[int, str]]]:
    """The elements acting as words of each length, with least such words.

    Layer 0 is {1} and layer L+1 is layer L times every letter, until a layer
    repeats the set of an earlier one; so every length k >= 1 has the set of
    some layer 1 <= L < len(layers).  layers[L] maps each of its elements to
    (parent, letter): its least word of length L is the parent's of length
    L - 1, then the letter.  Layers are visited in the order of their least
    words, letters sorted, so the first product found is the least word.
    """
    columns = sorted((a, k) for k, a in enumerate(tm.generators))
    layers = [{tm.identity: (tm.identity, "")}]
    seen = {frozenset(layers[0])}
    while True:
        layer = {}
        for e in layers[-1]:
            for a, k in columns:
                y = tm.right[e][k]
                if y not in layer:
                    layer[y] = (e, a)
        layers.append(layer)
        subset = frozenset(layer)
        if subset in seen:
            return layers
        if len(seen) >= cap:
            raise ResourceError(f"length-set lasso exceeded {cap} subsets")
        seen.add(subset)


def _word_of_length(layers: list[dict[int, tuple[int, str]]], m: int, k: int) -> str:
    """Lexicographically least word of length exactly k acting as m, read off
    the parent pointers of length_set's layers; m must be in layers[k]."""
    word = []
    for L in range(k, 0, -1):
        m, a = layers[L][m]
        word.append(a)
    return "".join(reversed(word))


def valid_substitutions(
    tm: TransitionMonoid,
    names: tuple[str, ...],
    category: str,
    alphabet: Alphabet,
    cap: int = 10_000_000,
):
    """Stream the admissible substitutions of a category, deterministically.

    all: every element tuple.  ne: tuples over the transition semigroup, with
    non-empty witnesses.  lp: every map into single letters.  surj: some
    injection of the alphabet into the variables is pinned to the letters,
    the rest range free; fewer variables than letters means no substitution.
    lm: element tuples realizable with one common witness length k >= 1.
    """
    k = len(names)
    n = len(tm)
    if category == "all":
        _guard(n**k, cap)
        for combo in cartesian(range(n), repeat=k):
            yield Substitution(names, combo, tuple(tm.witnesses[e] for e in combo))
    elif category == "ne":
        realizable = nonempty_realizable(tm)
        choices = sorted(realizable)
        _guard(len(choices) ** k, cap)
        for combo in cartesian(choices, repeat=k):
            yield Substitution(names, combo, tuple(realizable[e] for e in combo))
    elif category == "lp":
        letters = list(alphabet.symbols)
        _guard(len(letters) ** k, cap)
        for combo in cartesian(letters, repeat=k):
            yield Substitution(
                names, tuple(tm.generators[a] for a in combo), tuple(combo)
            )
    elif category == "surj":
        width = len(alphabet)
        if k < width:
            return
        slots = list(range(k))
        _guard(perm(k, width) * n ** (k - width), cap)
        for chosen in permutations(slots, width):
            rest = [i for i in slots if i not in chosen]
            for combo in cartesian(range(n), repeat=len(rest)):
                elements: list[int] = [0] * k
                witnesses: list[str] = [""] * k
                for a, slot in zip(alphabet.symbols, chosen):
                    elements[slot] = tm.generators[a]
                    witnesses[slot] = a
                for e, slot in zip(combo, rest):
                    elements[slot] = e
                    witnesses[slot] = tm.witnesses[e]
                yield Substitution(names, tuple(elements), tuple(witnesses))
    elif category == "lm":
        _guard(n**k, cap)
        layers = length_set(tm)
        lengths = [0] * n  # bit L set when the element has a word of length L
        for L, layer in enumerate(layers):
            for e in layer:
                lengths[e] |= 1 << L
        for combo in cartesian(range(n), repeat=k):
            common = (1 << len(layers)) - 2  # the lengths 1 .. len(layers) - 1
            for e in combo:
                common &= lengths[e]
            if common:
                length = (common & -common).bit_length() - 1
                yield Substitution(names, combo, tuple(_word_of_length(layers, e, length) for e in combo))
    else:
        raise OrdaError(f"unknown category {category!r}")


def _guard(count: int, cap: int):
    if count > cap:
        raise ResourceError(f"substitution space of {count} tuples exceeds cap {cap}")


def check(
    osa: OrderedSemiautomaton,
    query: OmegaQuery,
    substitution_cap: int = 10_000_000,
    monoid_cap: int = 1_000_000,
) -> Verdict:
    """Decide the query; counterexample = (substitution, state), replayable.

    Quantification over states uses the state order for <= and state equality
    for ==.  A category admitting no substitution at all yields a vacuous
    pass, flagged as such.
    """
    tm = build(osa, monoid_cap)
    names = tuple(sorted(term_variables(query.left) | term_variables(query.right)))
    want_leq = query.relation == "<="
    order = osa.order
    any_substitution = False
    for s in valid_substitutions(tm, names, query.category, osa.alphabet, substitution_cap):
        any_substitution = True
        left = eval_term(tm, query.left, s)
        right = eval_term(tm, query.right, s)
        if left == right:
            continue
        tl, tr = tm.elements[left], tm.elements[right]
        for p in range(osa.state_count):
            if not (order.leq(tl[p], tr[p]) if want_leq else tl[p] == tr[p]):
                return Verdict(False, (s, p))
    if not any_substitution:
        return Verdict(True, vacuous=True)
    return Verdict(True)


def counterexample_words(tm: TransitionMonoid, query: OmegaQuery, s: Substitution) -> tuple[str, str]:
    """Concrete words for both sides under the substitution, for literal replay."""
    return term_word(tm, query.left, s), term_word(tm, query.right, s)


@dataclass(frozen=True)
class CatalogSummary:
    """Results of the standard identity catalog on one semiautomaton."""

    aperiodic: Verdict
    r_trivial: Verdict
    j_trivial: Verdict


def check_identity_catalog(sa: Semiautomaton, monoid_cap: int = 1_000_000) -> CatalogSummary:
    """Run the classical identities on the discretely ordered semiautomaton.

    x^w x == x^w characterizes aperiodicity, (x y)^w x == (x y)^w
    R-triviality, and adding y (x y)^w == (x y)^w gives J-triviality; the
    results mirror the monoid oracles.
    """
    osa = OrderedSemiautomaton(sa, StateOrder.discrete(sa.state_count))
    ap = check(osa, parse_query("x^w x == x^w @all"), monoid_cap=monoid_cap)
    r = check(osa, parse_query("(x y)^w x == (x y)^w @all"), monoid_cap=monoid_cap)
    if r.holds:
        j2 = check(osa, parse_query("y (x y)^w == (x y)^w @all"), monoid_cap=monoid_cap)
        j = j2 if not j2.holds else Verdict(True)
    else:
        j = r
    return CatalogSummary(ap, r, j)
