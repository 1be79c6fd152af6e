"""Foundational automaton types: alphabets, semiautomata, state orders.

A semiautomaton is a finite complete deterministic transition system
(Q, A, delta).  An ordered semiautomaton adds a partial order on Q under
which every letter acts as an isotone map; an ordered automaton further
fixes an initial state and an upward-closed set of final states.  States
are dense integer indices 0..n-1; display names are an optional side
table used only for rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import AlphabetError, OrdaError, ParseError, ResourceError


@dataclass(frozen=True)
class Alphabet:
    """Ordered sequence of distinct single-character symbols."""

    symbols: tuple[str, ...]
    _position: dict = field(init=False, repr=False, compare=False)  # symbol -> index

    def __post_init__(self):
        if not self.symbols:
            raise AlphabetError("alphabet must be non-empty")
        position = {}
        for s in self.symbols:
            if len(s) != 1 or not s.isprintable() or s.isspace():
                raise AlphabetError(f"bad symbol {s!r}: need a single printable non-whitespace character")
            if s in position:
                raise AlphabetError(f"duplicate symbol {s!r}")
            position[s] = len(position)
        object.__setattr__(self, "_position", position)

    @classmethod
    def from_string(cls, text: str) -> "Alphabet":
        return cls(tuple(text))

    def index(self, symbol: str) -> int:
        try:
            return self._position[symbol]
        except KeyError:
            raise AlphabetError(f"symbol {symbol!r} not in alphabet {''.join(self.symbols)!r}") from None

    def __contains__(self, symbol) -> bool:
        return symbol in self._position

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class Semiautomaton:
    """Complete deterministic transition table: delta[q][k] = q . symbols[k]."""

    alphabet: Alphabet
    delta: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        n = len(self.delta)
        if n < 1:
            raise OrdaError("semiautomaton needs at least one state")
        width = len(self.alphabet)
        for q, row in enumerate(self.delta):
            if len(row) != width:
                raise OrdaError(f"state {q}: expected {width} transitions, got {len(row)}")
            for r in row:
                if not 0 <= r < n:
                    raise OrdaError(f"state {q}: transition target {r} out of range")
        if self.names is not None and len(self.names) != n:
            raise OrdaError("names table length differs from state count")

    @classmethod
    def from_map(cls, alphabet: Alphabet, state_count: int, moves: dict, names=None) -> "Semiautomaton":
        """Build from a {(state, symbol): state} dict; every pair must be present."""
        rows = []
        for q in range(state_count):
            row = []
            for a in alphabet:
                if (q, a) not in moves:
                    raise OrdaError(f"missing transition for ({q}, {a!r})")
                row.append(moves[(q, a)])
            rows.append(tuple(row))
        return cls(alphabet, tuple(rows), tuple(names) if names is not None else None)

    @property
    def state_count(self) -> int:
        return len(self.delta)

    def state_name(self, q: int) -> str:
        return self.names[q] if self.names is not None else str(q)

    def restrict(self, states) -> "Semiautomaton":
        """The rows of the given distinct, action-closed states, renumbered by
        list position; names are kept."""
        index = {s: i for i, s in enumerate(states)}
        rows = tuple(tuple(index[r] for r in self.delta[s]) for s in states)
        names = tuple(self.names[s] for s in states) if self.names is not None else None
        return Semiautomaton(self.alphabet, rows, names)


def bits(mask: int):
    """Positions of the set bits of a non-negative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class StateOrder:
    """Relation on states as bitmask rows; bit q of up[p] means p <= q.

    Construction never closes the relation transitively: a non-transitive
    input is preserved as given and surfaces through validate().  The same
    type carries quasiorders such as the minimization preorder.
    """

    up: tuple[int, ...]

    def __post_init__(self):
        n = len(self.up)
        for p, row in enumerate(self.up):
            if row >> n:
                raise OrdaError(f"order row {p} has a bit at or above the state count {n}")

    @property
    def size(self) -> int:
        return len(self.up)

    def leq(self, p: int, q: int) -> bool:
        return bool(self.up[p] >> q & 1)

    def pairs(self):
        """Yield the non-reflexive related pairs (p, q) with p <= q."""
        for p, row in enumerate(self.up):
            for q in bits(row & ~(1 << p)):
                yield p, q

    def reversed(self) -> "StateOrder":
        down = [0] * self.size
        for p, row in enumerate(self.up):
            for q in bits(row):
                down[q] |= 1 << p
        return StateOrder(tuple(down))

    def restrict(self, states) -> "StateOrder":
        """The relation on the given distinct states, renumbered by list position."""
        index = {s: i for i, s in enumerate(states)}
        rows = []
        for s in states:
            row = 0
            for t in bits(self.up[s]):
                if t in index:
                    row |= 1 << index[t]
            rows.append(row)
        return StateOrder(tuple(rows))

    def representatives(self) -> tuple[int, ...]:
        """rep[p] is the smallest q with p <= q and q <= p; on a quasiorder it names p's rho-class."""
        down = self.reversed().up
        reps = []
        for p, row in enumerate(self.up):
            mutual = row & down[p] | 1 << p
            reps.append((mutual & -mutual).bit_length() - 1)
        return tuple(reps)

    @classmethod
    def discrete(cls, n: int) -> "StateOrder":
        return cls(tuple(1 << p for p in range(n)))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "StateOrder":
        """Relation holding exactly the given pairs plus reflexivity."""
        rows = [1 << p for p in range(n)]
        for p, q in pairs:
            if not (0 <= p < n and 0 <= q < n):
                raise OrdaError(f"order pair ({p}, {q}) out of range")
            rows[p] |= 1 << q
        return cls(tuple(rows))

    @classmethod
    def from_leq(cls, n: int, leq) -> "StateOrder":
        return cls(tuple(sum(1 << q for q in range(n) if leq(p, q)) for p in range(n)))


@dataclass(frozen=True)
class OrderedSemiautomaton:
    sa: Semiautomaton
    order: StateOrder

    def __post_init__(self):
        if self.order.size != self.sa.state_count:
            raise OrdaError("order size differs from state count")

    @property
    def alphabet(self) -> Alphabet:
        return self.sa.alphabet

    @property
    def state_count(self) -> int:
        return self.sa.state_count


@dataclass(frozen=True)
class OrderedAutomaton:
    osa: OrderedSemiautomaton
    initial: int
    finals: frozenset[int]

    def __post_init__(self):
        n = self.osa.state_count
        if not 0 <= self.initial < n:
            raise OrdaError(f"initial state {self.initial} out of range")
        object.__setattr__(self, "finals", frozenset(self.finals))
        for q in self.finals:
            if not 0 <= q < n:
                raise OrdaError(f"final state {q} out of range")

    @property
    def sa(self) -> Semiautomaton:
        return self.osa.sa

    @property
    def order(self) -> StateOrder:
        return self.osa.order

    @property
    def alphabet(self) -> Alphabet:
        return self.osa.alphabet

    @property
    def state_count(self) -> int:
        return self.osa.state_count


def step(sa: Semiautomaton, q: int, w: str) -> int:
    """Run the word w from state q; the action extends letter-wise, q . (ua) = (q . u) . a."""
    if not 0 <= q < sa.state_count:
        raise OrdaError(f"state {q} out of range")
    delta, index = sa.delta, sa.alphabet.index
    for a in w:
        q = delta[q][index(a)]
    return q


# --- order axioms -----------------------------------------------------------
#
# Each check yields its violations in lexicographic order, so a caller can
# report all of them (validate) or stop at the first (quotients, sampling).


def reflexivity_failures(order: StateOrder):
    """States p without p <= p."""
    for p, row in enumerate(order.up):
        if not row >> p & 1:
            yield p


def antisymmetry_failures(order: StateOrder):
    """Pairs (p, q), p != q, related both ways."""
    down = order.reversed().up
    for p, row in enumerate(order.up):
        for q in bits(row & down[p] & ~(1 << p)):
            yield p, q


def transitivity_failures(order: StateOrder):
    """Triples (p, q, r) with p <= q and q <= r but not p <= r."""
    up = order.up
    for p, row in enumerate(up):
        for q in bits(row):
            for r in bits(up[q] & ~row):
                yield p, q, r


def compatibility_failures(sa: Semiautomaton, order: StateOrder):
    """Triples (p, q, k) with p <= q, p != q, but not p.a <= q.a for the k-th letter a."""
    up, delta = order.up, sa.delta
    for p, row in enumerate(up):
        dp = delta[p]
        for q in bits(row & ~(1 << p)):
            dq = delta[q]
            for k in range(len(dp)):
                if not up[dp[k]] >> dq[k] & 1:
                    yield p, q, k


def validate(oa: OrderedAutomaton) -> list[str]:
    """Check every ordered-automaton axiom; return one message per violation.

    Violations are data, not errors: an empty list means the instance is valid.
    """
    sa, order, finals = oa.sa, oa.order, oa.finals
    name = sa.state_name
    out = [f"reflexivity: {name(p)}" for p in reflexivity_failures(order)]
    out += [f"antisymmetry: {name(p)},{name(q)}" for p, q in antisymmetry_failures(order)]
    out += [f"transitivity: {name(p)},{name(q)},{name(r)}" for p, q, r in transitivity_failures(order)]
    for p, q, k in compatibility_failures(sa, order):
        pa, qa = sa.delta[p][k], sa.delta[q][k]
        out.append(
            f"compatibility: {name(p)}<={name(q)} but "
            f"{name(pa)}<={name(qa)} fails on {sa.alphabet.symbols[k]!r}"
        )
    final_mask = sum(1 << q for q in finals)
    for p in finals:
        for q in bits(order.up[p] & ~final_mask):
            out.append(f"finals not upward closed: {name(p)}<={name(q)}, {name(q)} not final")
    return out


def accepts(oa: OrderedAutomaton, w: str) -> bool:
    return step(oa.sa, oa.initial, w) in oa.finals


def future_accepts(oa: OrderedAutomaton, q: int, w: str) -> bool:
    """Membership in L_q = {u : q . u in F}, the future language of q."""
    return step(oa.sa, q, w) in oa.finals


def quotient_left(oa: OrderedAutomaton, u: str) -> OrderedAutomaton:
    """Automaton for the left quotient u^-1 L: move the initial state along u."""
    return OrderedAutomaton(oa.osa, step(oa.sa, oa.initial, u), oa.finals)


def quotient_right(oa: OrderedAutomaton, v: str) -> OrderedAutomaton:
    """Automaton for the right quotient L v^-1: replace F by F_v = {q : q . v in F}."""
    sa = oa.sa
    fv = frozenset(q for q in range(sa.state_count) if step(sa, q, v) in oa.finals)
    out = OrderedAutomaton(oa.osa, oa.initial, fv)
    # F_v is upward closed whenever the input is valid; re-check rather than trust.
    for p in fv:
        for q in range(sa.state_count):
            if oa.order.leq(p, q) and q not in fv:
                raise OrdaError(f"right quotient by {v!r} broke upward closure at ({p}, {q}); input automaton is invalid")
    return out


def dual(osa: OrderedSemiautomaton) -> OrderedSemiautomaton:
    """Same transitions, reversed order."""
    return OrderedSemiautomaton(osa.sa, osa.order.reversed())


def discrete(sa: Semiautomaton) -> OrderedSemiautomaton:
    """Equip with the equality order."""
    return OrderedSemiautomaton(sa, StateOrder.discrete(sa.state_count))


def explore(start, successors, cap=None, what=None):
    """Breadth-first numbering of the nodes reachable from start.

    successors(node) yields the node's successors in a fixed order.  Returns
    (nodes, rows): nodes[i] is the i-th node discovered, start first, and
    rows[i][k] the number of the k-th successor of nodes[i].  Discovering more
    than cap nodes raises ResourceError naming what was being built.
    """
    index = {start: 0}
    nodes = [start]
    rows = []
    for node in nodes:  # nodes grows while it is walked: the list is the queue
        row = []
        for succ in successors(node):
            i = index.get(succ)
            if i is None:
                if cap is not None and len(nodes) >= cap:
                    raise ResourceError(f"{what} exceeded {cap} states")
                i = index[succ] = len(nodes)
                nodes.append(succ)
            row.append(i)
        rows.append(tuple(row))
    return nodes, rows


def path_word(rows, letters, j: int) -> str:
    """Shortest, then lexicographically least, word leading from node 0 to node j
    of explore's rows, where successor k reads letters[k].

    Node j > 0 was discovered at its first occurrence in row order, so that
    occurrence names its parent and the letter from it.
    """
    parent = {}
    for i, row in enumerate(rows):
        for k, r in enumerate(row):
            parent.setdefault(r, (i, k))
    word = []
    while j:
        j, k = parent[j]
        word.append(letters[k])
    return "".join(reversed(word))


def reachable_states(sa: Semiautomaton, q: int) -> tuple[int, ...]:
    """States reachable from q, in breadth-first discovery order (letters in alphabet order)."""
    return tuple(explore(q, sa.delta.__getitem__)[0])


def sccs(adj) -> list[list[int]]:
    """Tarjan, iterative, over the successor lists adj; components come out sorted internally."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(sorted(adj[root])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(sorted(adj[w]))))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                out.append(sorted(comp))
    return out


# --- text format ------------------------------------------------------------
#
# One item per line, '#' starts a comment, keys: alphabet, states, initial,
# finals, order, trans.  Missing order lines mean the discrete order.


def _decimal(token: str) -> int | None:
    """Value of a token of decimal digits; None for anything else, also for more
    digits than int() converts."""
    if not token.isdecimal():
        return None
    try:
        return int(token)
    except ValueError:
        return None


def parse_automaton(text: str) -> OrderedAutomaton:
    alphabet = None
    state_count = None
    initial = None
    finals = None
    order_pairs = []
    trans = {}

    def fail(msg, lineno):
        raise ParseError(msg, line=lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            fail(f"expected 'key: value', got {line!r}", lineno)
        key = key.strip()
        rest = rest.strip()
        if key == "alphabet":
            if alphabet is not None:
                fail("duplicate alphabet line", lineno)
            try:
                alphabet = Alphabet(tuple(rest.split()))
            except AlphabetError as e:
                fail(str(e), lineno)
        elif key == "states":
            if state_count is not None:
                fail("duplicate states line", lineno)
            state_count = _decimal(rest)
            if state_count is None or state_count < 1:
                fail(f"states wants a positive integer, got {rest!r}", lineno)
        elif key == "initial":
            if initial is not None:
                fail("duplicate initial line", lineno)
            initial = _decimal(rest)
            if initial is None:
                fail(f"initial wants a state index, got {rest!r}", lineno)
        elif key == "finals":
            if finals is not None:
                fail("duplicate finals line", lineno)
            try:
                finals = frozenset(int(tok) for tok in rest.split())
            except ValueError:
                fail(f"finals wants state indices, got {rest!r}", lineno)
        elif key == "order":
            parts = rest.split()
            shaped = len(parts) == 3 and parts[1] == "<="
            p, q = (_decimal(parts[0]), _decimal(parts[2])) if shaped else (None, None)
            if p is None or q is None:
                fail(f"order wants 'p <= q', got {rest!r}", lineno)
            order_pairs.append((p, q, lineno))
        elif key == "trans":
            parts = rest.split()
            src, dst = (_decimal(parts[0]), _decimal(parts[2])) if len(parts) == 3 else (None, None)
            if src is None or dst is None:
                fail(f"trans wants 'state symbol state', got {rest!r}", lineno)
            sym = parts[1]
            if (src, sym) in trans:
                fail(f"duplicate transition for ({src}, {sym})", lineno)
            trans[(src, sym)] = (dst, lineno)
        else:
            fail(f"unknown key {key!r}", lineno)

    if alphabet is None:
        raise ParseError("missing alphabet line")
    if state_count is None:
        raise ParseError("missing states line")
    if initial is None:
        raise ParseError("missing initial line")
    if finals is None:
        raise ParseError("missing finals line")

    rows = []
    for q in range(state_count):
        row = []
        for a in alphabet:
            if (q, a) not in trans:
                raise ParseError(f"missing transition for ({q}, {a})")
            dst, lineno = trans.pop((q, a))
            if not 0 <= dst < state_count:
                raise ParseError(f"transition target {dst} out of range", line=lineno)
            row.append(dst)
        rows.append(tuple(row))
    if trans:
        (src, sym), (_, lineno) = next(iter(trans.items()))
        raise ParseError(f"transition from unknown state or symbol ({src}, {sym})", line=lineno)

    for p, q, lineno in order_pairs:
        if not (0 <= p < state_count and 0 <= q < state_count):
            raise ParseError(f"order pair ({p}, {q}) out of range", line=lineno)
    order = StateOrder.from_pairs(state_count, [(p, q) for p, q, _ in order_pairs])

    if not 0 <= initial < state_count:
        raise ParseError(f"initial state {initial} out of range")
    for q in finals:
        if not 0 <= q < state_count:
            raise ParseError(f"final state {q} out of range")

    oa = OrderedAutomaton(OrderedSemiautomaton(Semiautomaton(alphabet, tuple(rows)), order), initial, finals)
    violations = validate(oa)
    if violations:
        raise OrdaError("invalid automaton: " + "; ".join(violations))
    return oa


def format_automaton(oa: OrderedAutomaton) -> str:
    sa = oa.sa
    lines = [
        "alphabet: " + " ".join(sa.alphabet),
        f"states: {sa.state_count}",
        f"initial: {oa.initial}",
        "finals:" + "".join(f" {q}" for q in sorted(oa.finals)),
    ]
    for p, q in sorted(oa.order.pairs()):
        lines.append(f"order: {p} <= {q}")
    for q in range(sa.state_count):
        for k, a in enumerate(sa.alphabet):
            lines.append(f"trans: {q} {a} {sa.delta[q][k]}")
    return "\n".join(lines) + "\n"
