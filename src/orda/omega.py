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
from functools import partial, reduce
from itertools import permutations, product as cartesian, repeat
from math import perm
from operator import and_

from .classify import Verdict
from .core import Alphabet, OrderedSemiautomaton, Semiautomaton, StateOrder, layer_word, tree
from .errors import OrdaError, ParseError, ResourceError
from .monoid import MONOID_CAP, LetterActions, TransitionMonoid, _operand, _then, build, idempotents, operands, products, then

CATEGORIES = ("all", "ne", "lp", "surj", "lm")
# check refuses a category whose substitution space has more tuples than this
SUBSTITUTION_CAP = 10_000_000
# length_set refuses a lasso with more distinct layer sets than this
LENGTH_SET_CAP = 100_000


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

    def __str__(self):
        return ", ".join(f"{x}={w!r}" for x, w in zip(self.names, self.witnesses))


def nonempty_realizable(tm: TransitionMonoid) -> dict[int, str]:
    """Elements realizable by non-empty words, with least such witnesses.

    This is the transition semigroup; it contains the identity only when some
    non-empty word acts as the identity: a letter a acting as a permutation,
    after a word acting as its inverse, a power of a.
    """
    letters = [*tm.generators]
    words = {tm.identity: ""}  # each element's least word, the identity's first
    for j, p, k in tree(tm.right, sorted(range(len(letters)), key=letters.__getitem__)):
        words[j] = words[p] + letters[k]
    ends = []  # for each permuting letter, the least word acting as 1 that ends in it
    for k, a in enumerate(letters):
        t = tm.elements[tm.right[tm.identity][k]]
        if len(set(t)) == len(t):
            x = tm.identity
            while tm.right[x][k] != tm.identity:
                x = tm.right[x][k]
            ends.append(words[x] + a)
    del words[tm.identity]
    if ends:
        words[tm.identity] = min(ends, key=lambda w: (len(w), w))
    return words


def length_set(tm: TransitionMonoid) -> list[dict[int, tuple[int, str]]]:
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
        if len(seen) >= LENGTH_SET_CAP:
            raise ResourceError(f"length-set lasso exceeded {LENGTH_SET_CAP} subsets")
        seen.add(subset)


def valid_substitutions(tm: TransitionMonoid | LetterActions, names: tuple[str, ...], category: str, alphabet: Alphabet):
    """Stream the admissible substitutions of a category, deterministically, a row at a time.

    A row is a triple (outer, last, spell): outer holds the elements of every
    variable but the last, and last the last variable's elements, so the row
    stands for the element tuples outer + (e,) for e in last; spell maps each
    of them to its witness words.  Rows come in the cartesian order of their
    tuples.  One variable's elements come in rows of 1, 2, 4, ... of them, so
    that a caller stopping at the first failing tuple has read fewer than
    twice as many; with no variable the one empty tuple is the row
    ((), None, spell).
    all: every element tuple, spelled by least words.  ne: tuples over the
    transition semigroup, spelled by least non-empty words.  lp: tuples of
    letter actions, each spelled by the first letter acting as it.  surj: some
    injection of the alphabet into the variables pins each chosen variable to
    its letter, the rest range free as for all; fewer variables than letters
    means no substitution.  lm: element tuples realizable with one common word
    length k >= 1, spelled by the least words of the least such k.  lp, and
    surj with no more variables than letters, range over the letters'
    elements only, so tm may be the LetterActions of the semiautomaton there.
    """
    k = len(names)
    n = len(tm)
    least = tm.word
    if category == "all":
        _guard(n**k)
        yield from _rows([range(n)] * k, partial(_spell_each, (least,) * k))
    elif category == "ne":
        realizable = nonempty_realizable(tm)  # element -> least non-empty word
        _guard(len(realizable) ** k)
        yield from _rows([sorted(realizable)] * k, partial(_spell_each, (realizable.__getitem__,) * k))
    elif category == "lp":
        letter: dict[int, str] = {}  # generator -> first letter acting as it
        for a in alphabet.symbols:
            letter.setdefault(tm.generators[a], a)
        _guard(len(letter) ** k)
        yield from _rows([list(letter)] * k, partial(_spell_each, (letter.__getitem__,) * k))
    elif category == "surj":
        width = len(alphabet)
        if k < width:
            return
        _guard(perm(k, width) * n ** (k - width))
        pins = [((tm.generators[a],), {tm.generators[a]: a}.__getitem__) for a in alphabet.symbols]
        for chosen in permutations(range(k), width):  # the slot of each letter
            domains, spell = [range(n)] * k, [least] * k
            for (domain, speller), slot in zip(pins, chosen):
                domains[slot], spell[slot] = domain, speller
            yield from _rows(domains, partial(_spell_each, tuple(spell)))
    elif category == "lm":
        _guard(n**k)
        layers = length_set(tm)
        lengths = [0] * n  # bit L set when the element has a word of length L
        for L, layer in enumerate(layers):
            for e in layer:
                lengths[e] |= 1 << L
        common = (1 << len(layers)) - 2  # the lengths 1 .. len(layers) - 1
        spell = partial(_spell_lm, layers, lengths)
        if k < 2:  # no outer variable: the one domain of a variable, or no variable
            yield from _rows([[e for e in range(n) if lengths[e] & common]] * k, spell)
            return
        lasts: dict[int, list[int]] = {}  # lengths common to the outer elements -> admissible last elements
        for outer in cartesian(range(n), repeat=k - 1):
            shared = reduce(and_, map(lengths.__getitem__, outer), common)
            last = lasts.get(shared)
            if last is None:
                last = lasts[shared] = [e for e in range(n) if lengths[e] & shared]
            if last:
                yield outer, last, spell
    else:
        raise OrdaError(f"unknown category {category!r}")


def _rows(domains: list, spell):
    """The rows (see valid_substitutions) of the tuples in cartesian(*domains)."""
    if not domains:
        return [((), None, spell)]
    if len(domains) == 1:
        return zip(repeat(()), _blocks(domains[0]), repeat(spell))
    return zip(cartesian(*domains[:-1]), repeat(domains[-1]), repeat(spell))


def _blocks(domain):
    """domain cut into slices of 1, 2, 4, ... entries, the last one shorter."""
    start, size = 0, 1
    while start < len(domain):
        yield domain[start : start + size]
        start, size = start + size, 2 * size


def _spell_each(spellers: tuple, elements: tuple[int, ...]) -> tuple[str, ...]:
    """Each variable's word: its speller applied to its element."""
    return tuple(f(e) for f, e in zip(spellers, elements))


def _spell_lm(layers, lengths: list[int], elements: tuple[int, ...]) -> tuple[str, ...]:
    """The least words of the elements at their least common length >= 1."""
    common = reduce(and_, map(lengths.__getitem__, elements), (1 << len(layers)) - 2)
    k = (common & -common).bit_length() - 1
    return tuple(layer_word(layers, e, k) for e in elements)


def _guard(count: int):
    if count > SUBSTITUTION_CAP:
        raise ResourceError(f"substitution space of {count} tuples exceeds cap {SUBSTITUTION_CAP}")


def _program(query: OmegaQuery, names: tuple[str, ...]) -> tuple[list[tuple[int, int | None]], int, int]:
    """Both sides of the query as one straight-line program: (steps, left, right).

    Slots 0..k-1 hold the variables of names, slot k the identity, and step i
    fills slot k+1+i: (a, b) is the product of slots a and b, (a, None) the
    omega power of slot a.  Equal steps share one slot, so a subterm on both
    sides is computed once; products with 1 and powers of 1 take no step.
    left and right are the slots of the two sides.
    """
    k = len(names)
    slot_of: dict[tuple[int, int | None], int] = {}  # step -> its slot, in the order the steps run

    def emit(step) -> int:
        return slot_of.setdefault(step, k + 1 + len(slot_of))

    def walk(t: OmegaTerm) -> int:
        if isinstance(t, Var):
            return names.index(t.name)
        if isinstance(t, OmegaPower):
            inner = walk(t.inner)
            return k if inner == k else emit((inner, None))
        if isinstance(t, Concat):
            out = k
            for p in t.parts:
                x = walk(p)
                out = x if out == k else out if x == k else emit((out, x))
            return out
        if isinstance(t, Unit):
            return k
        raise TypeError(f"not an omega-term: {t!r}")

    left, right = walk(query.left), walk(query.right)
    return list(slot_of), left, right


def letter_actions(osa: OrderedSemiautomaton, query: OmegaQuery) -> LetterActions | None:
    """The LetterActions the query runs on, when its variables range over
    letters only: for lp, and for surj with no more variables than letters
    (fewer admit no substitution); None when it needs the transition monoid."""
    if query.category == "lp" or (
        query.category == "surj" and len(term_variables(query.left) | term_variables(query.right)) <= len(osa.alphabet)
    ):
        return LetterActions(osa.sa)
    return None


def check(osa: OrderedSemiautomaton, query: OmegaQuery, monoid_cap: int = MONOID_CAP) -> Verdict:
    """Decide the query; counterexample = (substitution, state), replayable.

    Both sides run as one program (see _program), once per row of element
    tuples (see _check), and the Substitution with its words is built for
    the failing tuple only.  Quantification over states uses the state order for
    <= and state equality for ==.  A category admitting no substitution at
    all yields a vacuous pass, flagged as such.  A query over letters only
    (see letter_actions) runs on the letters' transformations and never
    builds the monoid.
    """
    letters = letter_actions(osa, query)
    return _check(osa, build(osa, monoid_cap) if letters is None else letters, query)


def _check(osa: OrderedSemiautomaton, tm: TransitionMonoid | LetterActions, query: OmegaQuery) -> Verdict:
    """check on tm: the built transition monoid of osa, or its LetterActions.

    The program runs once per row of valid_substitutions.  A slot that reads
    the last variable holds a list over the row, any other slot one value:
    a value times a list is one map of the value's _then over the list's
    operands, a list times a value one map over the list's actions, an omega
    power of a list one map over tm.omega.  Above 256 states, where each of
    those products gathers |Q| entries, a value times a list, or a list
    times a value, on a row over every element is read off a row of the
    Cayley graphs instead (TransitionMonoid.left_multiples and
    right_multiples).  The two sides compare as lists, and only where they
    differ are states tested, so the first failing tuple and its lowest
    failing state are those of a tuple-by-tuple search.
    """
    names = tuple(sorted(term_variables(query.left) | term_variables(query.right)))
    k = len(names)
    steps, left, right = _program(query, names)
    varies = [i == k - 1 for i in range(k + 1)]  # the slots holding lists over a row
    for a, b in steps:
        varies.append(varies[a] or b is not None and varies[b])
    plan = [(a, b, varies[a], b is not None and varies[b]) for a, b in steps]
    spread = varies[left] != varies[right]  # one side is a value, to compare with a list
    elements, identity, omega = tm.elements, tm.elements[0], tm.omega
    packed = elements.__getitem__
    by_graph = type(identity) is tuple and isinstance(tm, TransitionMonoid)
    # above 256 states, the getters of the last variable's entries, when a step multiplies them
    want_acts = type(identity) is tuple and any(a == k - 1 and b is not None for a, b in steps)
    domain = pads = acts = None
    wide = False
    want_leq = query.relation == "<="
    order = osa.order
    any_substitution = False
    for outer, last, spell in valid_substitutions(tm, names, query.category, osa.alphabet):
        any_substitution = True
        slots = [*map(packed, outer)]
        if last is not None:
            if last is not domain:  # once per domain
                domain, row = last, [*map(packed, last)]
                wide = by_graph and [*last] == [*range(len(tm))]  # the row runs over every element, in order
                pads = operands(row)
                if want_acts:
                    acts = [*map(_then, row)]
            slots.append(row)
        slots.append(identity)
        for a, b, row_a, row_b in plan:
            x = slots[a]
            if b is None:
                value = idempotents(omega, x) if row_a else omega[x][0]
            elif not row_a and not row_b:
                value = then(x, slots[b])
            elif wide and not row_a:  # x.j for every element j, then at the entries' elements
                r = tm.left_multiples(tm.index[x])
                value = [*map(packed, r if b == k - 1 else map(r.__getitem__, map(tm.index.__getitem__, slots[b])))]
            elif wide and not row_b:  # j.y for every element j, likewise
                c = tm.right_multiples(tm.index[slots[b]])
                value = [*map(packed, c if a == k - 1 else map(c.__getitem__, map(tm.index.__getitem__, x)))]
            elif not row_a:
                value = [*map(_then(x), pads if b == k - 1 else operands(slots[b]))]
            else:
                y = (pads if b == k - 1 else operands(slots[b])) if row_b else repeat(_operand(slots[b]))
                value = products(x, y, acts if a == k - 1 else None)
            slots.append(value)
        tl, tr = slots[left], slots[right]
        if spread:
            tl, tr = (tl, [tr] * len(tl)) if varies[left] else ([tl] * len(tr), tr)
        if tl == tr:  # every tuple of the row holds, or no variable: both sides are 1
            continue
        for j, (u, v) in enumerate(zip(tl, tr)):
            if u == v:
                continue
            for p in range(osa.state_count):
                if not (order.leq(u[p], v[p]) if want_leq else u[p] == v[p]):
                    failing = (*outer, last[j])
                    return Verdict(False, (Substitution(names, failing, spell(failing)), p))
    if not any_substitution:
        return Verdict(True, vacuous=True)
    return Verdict(True)


def counterexample_words(tm: TransitionMonoid | LetterActions, query: OmegaQuery, s: Substitution) -> tuple[str, str]:
    """Concrete words for both sides under the substitution, for literal replay.

    The query's program (see _program) runs once on the transformations of
    s's elements, as in check, with a word beside each value: the variables
    start from s's witnesses and the identity from the empty word, a product
    concatenates its two words, and an omega power repeats its base word by
    the base's omega exponent.  So each word acts as its value.
    """
    steps, left, right = _program(query, s.names)
    values = [*map(tm.elements.__getitem__, s.elements), tm.elements[0]]
    words = [*s.witnesses, ""]
    for a, b in steps:
        if b is None:
            power, n = tm.omega[values[a]]
            values.append(power)
            words.append(words[a] * n)
        else:
            values.append(then(values[a], values[b]))
            words.append(words[a] + words[b])
    return words[left], words[right]


@dataclass(frozen=True)
class CatalogSummary:
    """Results of the standard identity catalog on one semiautomaton."""

    aperiodic: Verdict
    r_trivial: Verdict
    j_trivial: Verdict


def check_identity_catalog(sa: Semiautomaton) -> CatalogSummary:
    """Run the classical identities on the discretely ordered semiautomaton.

    x^w x == x^w characterizes aperiodicity, (x y)^w x == (x y)^w
    R-triviality, and adding y (x y)^w == (x y)^w gives J-triviality; the
    results mirror the monoid oracles.  The monoid is built once for all of them.
    """
    osa = OrderedSemiautomaton(sa, StateOrder.discrete(sa.state_count))
    tm = build(osa)
    ap = _check(osa, tm, parse_query("x^w x == x^w @all"))
    r = _check(osa, tm, parse_query("(x y)^w x == (x y)^w @all"))
    if r.holds:
        j2 = _check(osa, tm, parse_query("y (x y)^w == (x y)^w @all"))
        j = j2 if not j2.holds else Verdict(True)
    else:
        j = r
    return CatalogSummary(ap, r, j)
