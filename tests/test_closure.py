"""The closure theorem as a test oracle.

A positive variety of languages is closed under finite unions and
intersections, left and right quotients, and preimages under morphisms; a
variety is also closed under complement.  Star-free, R-trivial and piecewise
testable languages form varieties, positive piecewise testable languages a
positive variety.  So seeded random members of each class, put through those
operations, must stay members, as the classifiers judge them on the minimal
ordered automaton.  Each construction is first checked on short words, so a
verdict is about the language the theorem names.
"""

import random

import pytest

from orda.classify import has_extensive_actions, is_acyclic, is_counter_free, is_pt_semiautomaton
from orda.constructions import f_rename, product_intersection, product_union
from orda.core import Alphabet, OrderedAutomaton, Semiautomaton, accepts, dual, quotient_left, quotient_right
from orda.languages import EPS, canonical_ordered_automaton, cat, compl, inter, parse_regex, star, sym, union
from orda.minimize import minimize_ordered

from fixtures import AB, apply_substitution, discrete, random_word, substitution_from_map
from oracles import words_up_to

XYZ = Alphabet(("x", "y", "z"))
MEMBERS = 20
WORDS = 5  # constructions are compared with their definitions on words up to this length


def subword(u: str):
    """A* u1 A* u2 ... A*: the words holding u as a scattered subword."""
    everything = star(union([sym("a"), sym("b")]))
    r = everything
    for a in u:
        r = cat(r, cat(sym(a), everything))
    return r


def random_star_free(rng, depth=4):
    """A regex over letters and the empty word with union, concatenation,
    intersection and complement, but no star."""
    if depth == 0 or rng.random() < 0.15:
        return rng.choice([sym("a"), sym("b"), EPS])
    roll = rng.random()
    left = random_star_free(rng, depth - 1)
    if roll < 0.25:
        return compl(left)
    right = random_star_free(rng, depth - 1)
    if roll < 0.6:
        return cat(left, right)
    return union([left, right]) if roll < 0.85 else inter(left, right)


def random_piecewise(rng, depth=2, positive=False):
    """A boolean combination of subword languages; without complement when positive."""
    if depth == 0:
        return subword(random_word(rng, AB, 3))
    roll = rng.random()
    if roll < 0.25 and not positive:
        return compl(random_piecewise(rng, depth - 1))
    left, right = (random_piecewise(rng, depth - 1, positive) for _ in range(2))
    return union([left, right]) if roll < 0.6 else inter(left, right)


def random_r_trivial(rng, max_states=6):
    """A random acyclic automaton: every arrow goes to the same or a later state."""
    n = rng.randint(1, max_states)
    rows = tuple(tuple(rng.randint(q, n - 1) for _ in AB) for q in range(n))
    finals = frozenset(q for q in range(n) if rng.random() < 0.5)
    return minimize_ordered(OrderedAutomaton(discrete(Semiautomaton(AB, rows)), 0, finals))


CLASSES = {
    "star_free": (
        lambda rng: canonical_ordered_automaton(random_star_free(rng), AB),
        lambda m: is_counter_free(m.sa).holds,
    ),
    "r_trivial": (random_r_trivial, lambda m: is_acyclic(m.sa).holds),
    "piecewise_testable": (
        lambda rng: canonical_ordered_automaton(random_piecewise(rng), AB),
        lambda m: is_pt_semiautomaton(m.sa).holds,
    ),
    "positive_piecewise_testable": (
        lambda rng: canonical_ordered_automaton(random_piecewise(rng, positive=True), AB),
        lambda m: has_extensive_actions(m.osa).holds,
    ),
}
VARIETIES = ("star_free", "r_trivial", "piecewise_testable")


def same_language(oa, alphabet, member) -> None:
    """oa accepts exactly the words w up to length WORDS with member(w)."""
    for w in words_up_to(alphabet, WORDS):
        assert accepts(oa, w) == member(w), w


def complement(oa):
    """The complement: flip the finals, so the order turns around."""
    everything = frozenset(range(oa.state_count))
    return OrderedAutomaton(dual(oa.osa), oa.initial, everything - oa.finals)


def random_substitution(rng):
    """A morphism from {x, y, z}* to {a, b}*, erasing letters now and then."""
    images = {b: random_word(rng, AB, 2) for b in XYZ}
    return substitution_from_map(XYZ, AB, images)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_class_is_closed_under_the_operations_of_its_kind(name):
    draw, holds = CLASSES[name]
    rng = random.Random(f"closure {name}")

    def member(oa) -> bool:
        return holds(minimize_ordered(oa))

    xs = []
    while len(xs) < MEMBERS:
        x = draw(rng)
        assert holds(x)
        if x.state_count >= 3:  # the languages of one or two states say little
            xs.append(x)
    for x, y in zip(xs, xs[1:] + xs[:1]):
        either = product_union([x, y])
        both = product_intersection([x, y])
        same_language(either, AB, lambda w: accepts(x, w) or accepts(y, w))
        same_language(both, AB, lambda w: accepts(x, w) and accepts(y, w))
        assert member(either) and member(both)

        u, v = random_word(rng, AB, 2), random_word(rng, AB, 2)
        left, right = quotient_left(x, u), quotient_right(x, v)
        same_language(left, AB, lambda w: accepts(x, u + w))
        same_language(right, AB, lambda w: accepts(x, w + v))
        assert member(left) and member(right)

        f = random_substitution(rng)
        preimage = OrderedAutomaton(f_rename(x.osa, f), x.initial, x.finals)
        same_language(preimage, XYZ, lambda w: accepts(x, apply_substitution(f, w)))
        assert member(preimage)

        if name in VARIETIES:
            flipped = complement(x)
            same_language(flipped, AB, lambda w: not accepts(x, w))
            assert member(flipped)


def test_positive_piecewise_testable_is_not_closed_under_complement():
    _, holds = CLASSES["positive_piecewise_testable"]
    contains_a = canonical_ordered_automaton(parse_regex("(a|b)*a(a|b)*", AB), AB)
    only_b = minimize_ordered(complement(contains_a))
    assert holds(contains_a)
    assert not holds(only_b)
    assert only_b.state_count == 2
    same_language(only_b, AB, lambda w: "a" not in w)
