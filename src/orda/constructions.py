"""Products, disjoint unions, renamings, homomorphisms, and quotients.

These are the closure operators of the ordered-semiautomaton algebra, plus
the constructive witnesses tying them together: the projection of a product
with a trivial semiautomaton onto a disjoint union, the embedding of a
1-generated semiautomaton into a product of canonical automata, and the
covering of an arbitrary semiautomaton by the union of its generated parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as cartesian

from .core import (
    Alphabet,
    OrderedAutomaton,
    OrderedSemiautomaton,
    Semiautomaton,
    StateOrder,
    bits,
    compatibility_failures,
    reachable_states,
    reflexivity_failures,
    step,
    transitivity_failures,
)
from .errors import AlphabetError, CompatibilityError, OrdaError, ParseError, ResourceError
from .minimize import isomorphic, minimize_with_map


@dataclass(frozen=True)
class LetterSubstitution:
    """Homomorphism of free monoids B* -> A*, given by the images of letters.

    images[k] is the word assigned to source.symbols[k]; the empty string
    encodes the empty word.
    """

    source: Alphabet
    target: Alphabet
    images: tuple[str, ...]

    def __post_init__(self):
        if len(self.images) != len(self.source):
            raise AlphabetError("one image word per source symbol required")
        for b, w in zip(self.source, self.images):
            for c in w:
                if c not in self.target:
                    raise AlphabetError(f"image of {b!r} uses {c!r} outside the target alphabet")

    @classmethod
    def from_map(cls, source: Alphabet, target: Alphabet, mapping: dict) -> "LetterSubstitution":
        try:
            images = tuple(mapping[b] for b in source)
        except KeyError as e:
            raise AlphabetError(f"no image for source symbol {e.args[0]!r}") from None
        return cls(source, target, images)

    def word(self, b: str) -> str:
        return self.images[self.source.index(b)]

    def apply(self, w: str) -> str:
        return "".join(self.word(b) for b in w)


def parse_substitution(text: str, target: Alphabet | None = None) -> LetterSubstitution:
    """Parse lines of the form `b -> aab`; `_` on the right denotes the empty word.

    Source symbols appear in line order.  When no target alphabet is given it
    is inferred from the symbols used on the right-hand sides.
    """
    sources: list[str] = []
    images: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, arrow, tail = line.partition("->")
        if not arrow:
            raise ParseError("expected 'symbol -> word'", line=lineno)
        b = head.strip()
        w = tail.strip()
        if len(b) != 1:
            raise ParseError(f"source symbol must be a single character, got {b!r}", line=lineno)
        if b in sources:
            raise ParseError(f"duplicate source symbol {b!r}", line=lineno)
        sources.append(b)
        images.append("" if w == "_" else w)
    if not sources:
        raise ParseError("no substitution lines")
    if target is None:
        used = sorted({c for w in images for c in w})
        if not used:
            raise ParseError("cannot infer target alphabet: all images empty")
        target = Alphabet(tuple(used))
    return LetterSubstitution(Alphabet(tuple(sources)), target, tuple(images))


def format_substitution(f: LetterSubstitution) -> str:
    return "\n".join(f"{b} -> {w or '_'}" for b, w in zip(f.source, f.images)) + "\n"


@dataclass(frozen=True)
class SemiautomatonHom:
    """State map between ordered semiautomata over the same alphabet."""

    source: OrderedSemiautomaton
    target: OrderedSemiautomaton
    map: tuple[int, ...]

    def __post_init__(self):
        if len(self.map) != self.source.state_count:
            raise OrdaError("map must cover every source state")
        n = self.target.state_count
        for q, img in enumerate(self.map):
            if not 0 <= img < n:
                raise OrdaError(f"image of state {q} out of range: {img}")


def check_homomorphism(h: SemiautomatonHom) -> tuple[bool, str | None]:
    """Verify isotonicity and commutation with every letter action.

    Returns (True, None) or (False, description of the first violated axiom).
    """
    src, dst = h.source, h.target
    if src.alphabet.symbols != dst.alphabet.symbols:
        return False, "alphabet mismatch"
    phi = h.map
    n = src.state_count
    for p in range(n):
        for q in range(n):
            if src.order.leq(p, q) and not dst.order.leq(phi[p], phi[q]):
                return False, f"isotonicity: {p} <= {q} but image {phi[p]} <= {phi[q]} fails"
    for q in range(n):
        for k, a in enumerate(src.alphabet):
            if phi[src.sa.delta[q][k]] != dst.sa.delta[phi[q]][k]:
                return False, f"action: state {q} on {a!r}"
    return True, None


def _same_alphabet(osas) -> Alphabet:
    alphabet = osas[0].alphabet
    for o in osas[1:]:
        if o.alphabet.symbols != alphabet.symbols:
            raise AlphabetError("all factors must share one alphabet")
    return alphabet


def _row_major(sizes):
    """Index of a state tuple in the row-major numbering of a product of the given sizes."""
    strides = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    return lambda t: sum(q * s for q, s in zip(t, strides))


def product(osas: list[OrderedSemiautomaton], cap: int = 1_000_000) -> OrderedSemiautomaton:
    """Componentwise product with componentwise order; states in row-major order.

    The state space is materialized eagerly, so the cap bounds the product of
    the factor sizes.
    """
    if not osas:
        raise OrdaError("product of an empty family")
    alphabet = _same_alphabet(osas)
    sizes = [o.state_count for o in osas]
    total = math.prod(sizes)
    if total > cap:
        raise ResourceError(f"product would have {total} states (cap {cap})")
    width = len(alphabet)
    tuples = list(cartesian(*(range(s) for s in sizes)))
    encode = _row_major(sizes)
    deltas = [o.sa.delta for o in osas]
    rows = tuple(
        tuple(encode(tuple(d[q][k] for d, q in zip(deltas, t))) for k in range(width))
        for t in tuples
    )
    orders = [o.order for o in osas]
    order = StateOrder.from_leq(
        total,
        lambda i, j: all(od.leq(p, q) for od, p, q in zip(orders, tuples[i], tuples[j])),
    )
    names = tuple(
        "(" + ",".join(o.sa.state_name(q) for o, q in zip(osas, t)) + ")" for t in tuples
    )
    return OrderedSemiautomaton(Semiautomaton(alphabet, rows, names), order)


def disjoint_union(osas: list[OrderedSemiautomaton]) -> OrderedSemiautomaton:
    """Tagged sum: block-shifted transitions, order inside blocks only.

    State offsets[j] + q is local state q of component j; names keep the tag.
    """
    if not osas:
        raise OrdaError("union of an empty family")
    alphabet = _same_alphabet(osas)
    rows, names, ups = [], [], []
    base = 0
    for j, o in enumerate(osas):
        for q in range(o.state_count):
            rows.append(tuple(base + r for r in o.sa.delta[q]))
            names.append(f"{j}:{o.sa.state_name(q)}")
        ups.extend(row << base for row in o.order.up)  # order inside the block only
        base += o.state_count
    order = StateOrder(tuple(ups))
    return OrderedSemiautomaton(Semiautomaton(alphabet, tuple(rows), tuple(names)), order)


def trivial(n: int, alphabet: Alphabet) -> OrderedSemiautomaton:
    """n fixed points under every letter, discretely ordered."""
    if n < 1:
        raise OrdaError("trivial semiautomaton needs at least one state")
    rows = tuple(tuple(q for _ in alphabet) for q in range(n))
    return OrderedSemiautomaton(Semiautomaton(alphabet, rows), StateOrder.discrete(n))


def f_rename(osa: OrderedSemiautomaton, f: LetterSubstitution) -> OrderedSemiautomaton:
    """Reinterpret over the source alphabet of f: letter b acts as the word f(b).

    States and order are untouched; the result recognizes exactly the
    f-preimages of the languages the input recognizes.
    """
    if f.target.symbols != osa.alphabet.symbols:
        raise AlphabetError("substitution target must match the semiautomaton alphabet")
    sa = osa.sa
    rows = tuple(
        tuple(step(sa, q, f.word(b)) for b in f.source) for q in range(sa.state_count)
    )
    return OrderedSemiautomaton(Semiautomaton(f.source, rows, sa.names), osa.order)


def subsemiautomaton(osa: OrderedSemiautomaton, states) -> OrderedSemiautomaton:
    """Restriction to an action-closed state subset, renumbered in ascending order."""
    keep = sorted(set(states))
    if not keep:
        raise OrdaError("empty state subset")
    sa = osa.sa
    member = set(keep)
    for p in keep:
        for k, a in enumerate(sa.alphabet):
            r = sa.delta[p][k]
            if r not in member:
                raise CompatibilityError(
                    f"subset not action-closed: {sa.state_name(p)} on {a!r} reaches {sa.state_name(r)}",
                    witness=(p, a),
                )
    index = {p: i for i, p in enumerate(keep)}
    rows = tuple(tuple(index[sa.delta[p][k]] for k in range(len(sa.alphabet))) for p in keep)
    names = tuple(sa.names[p] for p in keep) if sa.names is not None else None
    return OrderedSemiautomaton(Semiautomaton(sa.alphabet, rows, names), osa.order.restrict(keep))


def generated(osa: OrderedSemiautomaton, q: int) -> OrderedSemiautomaton:
    """The subsemiautomaton on the states reachable from q."""
    return subsemiautomaton(osa, reachable_states(osa.sa, q))


def quotient_by_precongruence(
    osa: OrderedSemiautomaton, rel: StateOrder
) -> tuple[OrderedSemiautomaton, SemiautomatonHom]:
    """Collapse mutually related states; order classes by the relation.

    The relation must be a reflexive transitive quasiorder compatible with
    every letter action, and it must contain the state order (otherwise the
    quotient map could not be isotone).  Classes are numbered by their
    smallest member.
    """
    sa = osa.sa
    n = sa.state_count
    if rel.size != n:
        raise CompatibilityError("relation size differs from the state count")
    for p in reflexivity_failures(rel):
        raise CompatibilityError(f"not reflexive at {p}", witness=(p, p))
    for p, q, r in transitivity_failures(rel):
        raise CompatibilityError(f"not transitive at {p},{q},{r}", witness=(p, q, r))
    # the first offending pair in (p, q) order decides; containment goes first on a tie
    missing = next(((p, q) for p in range(n) for q in bits(osa.order.up[p] & ~rel.up[p])), None)
    clash = next(compatibility_failures(sa, rel), None)
    if missing is not None and (clash is None or missing <= clash[:2]):
        p, q = missing
        raise CompatibilityError(f"state order not contained: {p} <= {q}", witness=(p, q))
    if clash is not None:
        p, q, k = clash
        a = sa.alphabet.symbols[k]
        raise CompatibilityError(f"not action-compatible: {p},{q} on {a!r}", witness=(p, q, a))

    rep = rel.representatives()
    reps = sorted(set(rep))
    cls = {r: i for i, r in enumerate(reps)}
    mapping = tuple(cls[rep[q]] for q in range(n))
    width = len(sa.alphabet)
    rows = tuple(tuple(mapping[sa.delta[r][k]] for k in range(width)) for r in reps)
    if sa.names is not None:
        groups = [[sa.names[q] for q in range(n) if rep[q] == r] for r in reps]
        names = tuple("+".join(g) for g in groups)
    else:
        names = None
    quotient = OrderedSemiautomaton(Semiautomaton(sa.alphabet, rows, names), rel.restrict(reps))
    return quotient, SemiautomatonHom(osa, quotient, mapping)


def union_via_product_embedding(
    osas: list[OrderedSemiautomaton], cap: int = 1_000_000
) -> tuple[OrderedSemiautomaton, SemiautomatonHom]:
    """Product with a trivial factor, projected onto the disjoint union.

    The map (q_1, ..., q_n, j) -> component j, state q_j is a surjective
    homomorphism; the trivial factor freezes which component is projected.
    """
    if not osas:
        raise OrdaError("empty family")
    alphabet = _same_alphabet(osas)
    n = len(osas)
    big = product(list(osas) + [trivial(n, alphabet)], cap=cap)
    uni = disjoint_union(osas)
    sizes = [o.state_count for o in osas] + [n]
    offsets = [0]
    for o in osas:
        offsets.append(offsets[-1] + o.state_count)
    mapping = []
    for t in cartesian(*(range(s) for s in sizes)):
        j = t[-1]
        mapping.append(offsets[j] + t[j])
    return big, SemiautomatonHom(big, uni, tuple(mapping))


def _upward_closed_sets(order: StateOrder) -> list[frozenset]:
    """All upward-closed subsets, one per antichain of minimal elements."""
    up, down = order.up, order.reversed().up
    out: list[frozenset] = []

    def rec(start: int, comparable: int, closure: int):
        # comparable: states related either way to an element already chosen
        out.append(frozenset(bits(closure)))
        for p in range(start, order.size):
            if not comparable >> p & 1:
                rec(p + 1, comparable | up[p] | down[p], closure | up[p])

    rec(0, 0, 0)
    return out


def recognized_languages(
    osa: OrderedSemiautomaton, cap: int = 10_000
) -> tuple[list[OrderedAutomaton], bool]:
    """Minimal automata of every language the semiautomaton can recognize.

    Ranges over all initial states and all upward-closed final sets,
    deduplicated up to isomorphism.  Returns (automata, truncated); the flag
    is set when the cap cut the enumeration short.
    """
    upsets = _upward_closed_sets(osa.order)
    kept: list[OrderedAutomaton] = []
    for i in range(osa.state_count):
        for finals in upsets:
            minimal = minimize_with_map(OrderedAutomaton(osa, i, finals))[1]
            if any(isomorphic(minimal, k) for k in kept):
                continue
            if len(kept) >= cap:
                return kept, True
            kept.append(minimal)
    return kept, False


def product_intersection(oas: list[OrderedAutomaton], cap: int = 1_000_000) -> OrderedAutomaton:
    """Product automaton accepting the intersection: final iff every component is."""
    return _product_automaton(oas, want_all=True, cap=cap)


def product_union(oas: list[OrderedAutomaton], cap: int = 1_000_000) -> OrderedAutomaton:
    """Product automaton accepting the union: final iff some component is."""
    return _product_automaton(oas, want_all=False, cap=cap)


def _product_automaton(oas: list[OrderedAutomaton], want_all: bool, cap: int) -> OrderedAutomaton:
    if not oas:
        raise OrdaError("empty family")
    osa = product([oa.osa for oa in oas], cap=cap)
    sizes = [oa.state_count for oa in oas]
    finals = []
    for i, t in enumerate(cartesian(*(range(s) for s in sizes))):
        hits = (q in oa.finals for q, oa in zip(t, oas))
        if all(hits) if want_all else any(hits):
            finals.append(i)
    initial = _row_major(sizes)([oa.initial for oa in oas])
    return OrderedAutomaton(osa, initial, frozenset(finals))


def reconstruction_product_embedding(
    osa: OrderedSemiautomaton, q0: int
) -> tuple[list[OrderedAutomaton], OrderedSemiautomaton, SemiautomatonHom]:
    """Embed a 1-generated semiautomaton into the product of its canonical quotients.

    One component per upward-closed final set, each the minimal automaton of
    the language recognized from q0.  Only the image of the embedding is
    materialized (as a subsemiautomaton of the implicit product: tuples under
    componentwise action and order), which keeps the construction usable even
    when the full product would be astronomically large.  The returned map is
    injective and reflects the order; tests assert both.
    """
    sa = osa.sa
    n = sa.state_count
    reach = reachable_states(sa, q0)
    if len(reach) != n:
        raise CompatibilityError(f"state {q0} does not generate the whole semiautomaton")
    pos = {orig: i for i, orig in enumerate(reach)}
    components: list[OrderedAutomaton] = []
    maps: list[tuple[int, ...]] = []
    for finals in _upward_closed_sets(osa.order):
        _, minimal, mapping = minimize_with_map(OrderedAutomaton(osa, q0, finals))
        phi = tuple(mapping[pos[q]] for q in range(n))
        if any(isomorphic(minimal, c) for c in components):
            continue
        components.append(minimal)
        maps.append(phi)

    tuples = [tuple(m[q] for m in maps) for q in range(n)]
    index: dict[tuple[int, ...], int] = {}
    image: list[tuple[int, ...]] = []
    for t in tuples:
        if t not in index:
            index[t] = len(image)
            image.append(t)
    width = len(sa.alphabet)
    rows = []
    for t in image:
        src = tuples.index(t)  # any preimage; actions agree componentwise
        rows.append(tuple(index[tuples[sa.delta[src][k]]] for k in range(width)))
    order = StateOrder.from_leq(
        len(image),
        lambda i, j: all(
            c.order.leq(p, q) for c, p, q in zip(components, image[i], image[j])
        ),
    )
    names = tuple("(" + ",".join(str(q) for q in t) + ")" for t in image)
    target = OrderedSemiautomaton(Semiautomaton(sa.alphabet, tuple(rows), names), order)
    hom = SemiautomatonHom(osa, target, tuple(index[t] for t in tuples))
    return components, target, hom


def reconstruction_union_cover(
    osa: OrderedSemiautomaton,
) -> tuple[OrderedSemiautomaton, SemiautomatonHom]:
    """Cover by the disjoint union of all generated subsemiautomata.

    Component q is the part generated by state q; sending its local states
    back to the original ones is a surjective homomorphism onto the input.
    """
    comps = []
    back: list[int] = []
    for q in range(osa.state_count):
        keep = sorted(reachable_states(osa.sa, q))
        comps.append(subsemiautomaton(osa, keep))
        back.extend(keep)
    uni = disjoint_union(comps)
    return uni, SemiautomatonHom(uni, osa, tuple(back))
