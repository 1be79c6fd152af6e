"""Foundational automaton types: alphabets, semiautomata, state orders.

A semiautomaton is a finite complete deterministic transition system
(Q, A, delta).  An ordered semiautomaton adds a partial order on Q under
which every letter acts as an isotone map; an ordered automaton further
fixes an initial state and an upward-closed set of final states.  States
are dense integer indices 0..n-1; display names are an optional side
table used only for rendering.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain, count, islice

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
    names: tuple | None = None  # display objects, shown as str(name)

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

    @property
    def state_count(self) -> int:
        return len(self.delta)

    def state_name(self, q: int) -> str:
        return str(self.names[q]) if self.names is not None else str(q)

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


# unions keeps memoizing until its memo holds about this many bytes; past
# that it still answers, walking the bytes it has not memoized
UNION_MEMO_BYTES = 16 << 20

# a mask with at most this many set bits is walked bit by bit
_FEW_BITS = 8

# the set bit positions of each byte value
_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))


def _positions(mask: int) -> list[int]:
    """The positions bits(mask) yields for a nonzero mask, as one list read a
    byte at a time from the byte of the lowest set bit."""
    base = ((mask & -mask).bit_length() - 1) & ~7
    data = (mask >> base).to_bytes((mask.bit_length() - base + 7) >> 3, "little")
    return [base + (i << 3) + j for i, byte in enumerate(data) if byte for j in _BYTE_BITS[byte]]


def unions(table):
    """union(mask): the OR of table[q] over the set bits q of mask.

    A mask with more than a few set bits is read a byte at a time, and the
    union for each (byte position, byte value) met is memoized, in the
    manner of the "Four Russians" of Arlazarov, Dinic, Kronrod & Faradzev
    (1970).  The memo lives as long as the returned function and stops
    taking entries at about UNION_MEMO_BYTES.
    """
    width = (len(table) + 7) // 8
    memo = {}
    room = UNION_MEMO_BYTES

    def union(mask):
        nonlocal room
        out = 0
        if mask.bit_count() <= _FEW_BITS:
            while mask:
                low = mask & -mask
                out |= table[low.bit_length() - 1]
                mask ^= low
            return out
        for i, byte in enumerate(mask.to_bytes(width, "little")):
            if byte:
                key = i << 8 | byte
                part = memo.get(key)
                if part is None:
                    part, base = 0, i << 3
                    for j in _BYTE_BITS[byte]:
                        part |= table[base + j]
                    if room > 0:
                        memo[key] = part
                        # a dict slot and its key, and the value at 4 bytes per 30 bits
                        room -= 100 + part.bit_length() * 2 // 15
                out |= part
        return out

    return union


def row_fixpoint(sa: Semiautomaton, rows: list[int], letters, combine) -> list[int]:
    """Iterate rows[p] = combine(rows[p], pre_k(rows[p.k])) over the letter
    positions k until no row changes, in place; pre_k(M) holds the states that
    letter k sends into M.  With operator.and_ this is the greatest fixpoint
    below the start rows, with operator.or_ the least one above them.

    The highest dirty row is recomputed first (breadth-first numbering tends
    to put successors later), and a row that changes makes its predecessors
    dirty.  A row's preimages under every letter are one union of the packed
    preimages, memoized by row value, since many rows share a value (R1 has
    two, and full rows are equal); the memo stops taking entries at about
    UNION_MEMO_BYTES, as in unions."""
    n = sa.state_count
    everything = (1 << n) - 1
    packed = packed_preimages(sa)
    union = unions(packed)
    shifts = [(k, k * n) for k in letters]
    gathered, room = {}, UNION_MEMO_BYTES
    dirty = everything
    while dirty:
        p = dirty.bit_length() - 1
        dirty ^= 1 << p
        row, successors = rows[p], sa.delta[p]
        for k, shift in shifts:
            target = rows[successors[k]]
            pre = gathered.get(target)
            if pre is None:
                pre = union(target)
                if room > 0:
                    gathered[target] = pre
                    room -= 100 + (target.bit_length() + pre.bit_length()) * 2 // 15
            row = combine(row, pre >> shift)
        row &= everything  # or_ also took the blocks of later letters
        if row != rows[p]:
            rows[p] = row
            for _, shift in shifts:  # p's predecessors under the letters
                dirty |= packed[p] >> shift
            dirty &= everything
    return rows


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
        bit = [0] * self.size  # old state -> its new bit, 0 if not listed
        for i, s in enumerate(states):
            bit[s] = 1 << i
        union, up = unions(bit), self.up
        return StateOrder(tuple(union(up[s]) for s in states))

    def representatives(self) -> tuple[int, ...]:
        """rep[p] is the first state whose row equals p's.

        Defined on quasiorders (reflexive and transitive), where p <= q and
        q <= p exactly when the rows of p and q are equal; so rep[p] is the
        smallest member of p's rho-class.
        """
        first = {}
        return tuple(first.setdefault(row, p) for p, row in enumerate(self.up))

    @classmethod
    def discrete(cls, n: int) -> "StateOrder":
        return cls(tuple(1 << p for p in range(n)))


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
    union = unions(up)
    for p, row in enumerate(up):
        outside = ~row
        if union(row) & outside:  # row p holds the rows of all its q in the common case
            for q in bits(row):
                for r in bits(up[q] & outside):
                    yield p, q, r


def packed_preimages(sa: Semiautomaton) -> list[int]:
    """packed[q] holds the states that each letter sends to q as one mask,
    letter k in bits k*n to k*n + n - 1; so the preimage of a set of states
    under every letter at once is the OR of their entries."""
    n = sa.state_count
    packed = [0] * n
    for p, row in enumerate(sa.delta):
        for k, q in enumerate(row):
            packed[q] |= 1 << (k * n + p)
    return packed


def compatibility_failures(sa: Semiautomaton, order: StateOrder):
    """Triples (p, q, k) with p <= q, p != q, but not p.a <= q.a for the k-th letter a.

    Row p is checked whole against above[s] for each image s = p.a: the
    states q with q.a >= s, in the layout of packed_preimages, formed as the
    OR of the packed preimages over the up-set of s.  Pairs are walked only
    in rows with a bad column.
    """
    up, delta = order.up, sa.delta
    n = len(up)
    union = None
    above = {}
    for p, row in enumerate(up):
        others = row & ~(1 << p)
        if not others:
            continue
        if union is None:
            union = unions(packed_preimages(sa))
        bad, worst = [], 0
        for k, s in enumerate(delta[p]):
            mask = above.get(s)
            if mask is None:
                mask = above[s] = union(up[s])
            columns = others & ~(mask >> k * n)
            bad.append(columns)
            worst |= columns
        for q in bits(worst):
            for k, columns in enumerate(bad):
                if columns >> q & 1:
                    yield p, q, k


def _violations(oa: OrderedAutomaton):
    """validate's messages, lazily and in order.

    A transitive relation whose rows are pairwise distinct is antisymmetric
    (p <= q <= p makes the rows of p and q equal), so pairs are searched for
    antisymmetry only when the first transitivity failure exists or two rows
    are equal.  A discrete order, every row the bit of its own state, breaks
    no axiom and is not searched.
    """
    sa, order, finals = oa.sa, oa.order, oa.finals
    if order.up == tuple(map((1).__lshift__, range(order.size))):
        return
    name = sa.state_name
    for p in reflexivity_failures(order):
        yield f"reflexivity: {name(p)}"
    transitivity = transitivity_failures(order)
    first = next(transitivity, None)
    if first is not None or len(set(order.up)) < order.size:
        for p, q in antisymmetry_failures(order):
            yield f"antisymmetry: {name(p)},{name(q)}"
    if first is not None:
        for p, q, r in chain((first,), transitivity):
            yield f"transitivity: {name(p)},{name(q)},{name(r)}"
    for p, q, k in compatibility_failures(sa, order):
        pa, qa = sa.delta[p][k], sa.delta[q][k]
        yield f"compatibility: {name(p)}<={name(q)} but {name(pa)}<={name(qa)} fails on {sa.alphabet.symbols[k]!r}"
    final_mask = sum(1 << q for q in finals)
    for p in finals:
        for q in bits(order.up[p] & ~final_mask):
            yield f"finals not upward closed: {name(p)}<={name(q)}, {name(q)} not final"


def validate(oa: OrderedAutomaton) -> list[str]:
    """Check every ordered-automaton axiom; return one message per violation.

    Violations are data, not errors: an empty list means the instance is valid.
    """
    return list(_violations(oa))


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
    # F_v is upward closed whenever the input is valid; re-check rather than
    # trust, one row per final p, and name the lowest q >= p outside F_v
    finals = sum(1 << q for q in fv)
    for p in fv:
        above = oa.order.up[p] & ~finals
        if above:
            q = (above & -above).bit_length() - 1
            raise OrdaError(f"right quotient by {v!r} broke upward closure at ({p}, {q}); input automaton is invalid")
    return out


def dual(osa: OrderedSemiautomaton) -> OrderedSemiautomaton:
    """Same transitions, reversed order."""
    return OrderedSemiautomaton(osa.sa, osa.order.reversed())


def explore(start, successors, cap=None, message=None, stop=None):
    """Breadth-first numbering of the nodes reachable from start.

    successors(node) yields the node's successors in a fixed order.  Returns
    (nodes, rows): nodes[i] is the i-th node discovered, start first, and
    rows[i][k] the number of the k-th successor of nodes[i].  Discovering more
    than cap nodes raises ResourceError(message).  The walk ends as soon as it
    discovers a node for which stop(node) holds: that node is nodes[-1], and
    the last row, cut after it, is the one that discovered it, so that
    len(rows) < len(nodes) tells a stopped walk.
    """
    index = {start: 0}
    nodes = [start]
    rows = []
    if stop is not None and stop(start):
        return nodes, rows
    for node in nodes:  # nodes grows while it is walked: the list is the queue
        row = []
        for succ in successors(node):
            i = index.get(succ)
            if i is None:
                if cap is not None and len(nodes) >= cap:
                    raise ResourceError(message)
                i = index[succ] = len(nodes)
                nodes.append(succ)
                if stop is not None and stop(succ):
                    rows.append((*row, i))
                    return nodes, rows
            row.append(i)
        rows.append(tuple(row))
    return nodes, rows


def tree(graph, columns) -> list[tuple[int, int, int]]:
    """The breadth-first tree of graph from node 0: (j, p, k) for each other
    node j it reaches, in the order it reaches them, where j = graph[p][k]
    and the columns k of each row are tried in the given order."""
    seen = [False] * len(graph)
    seen[0] = True
    edges = [(0, None, None)]  # node 0 heads the queue, and leaves it at the end
    for p, _, _ in edges:  # the edges grow as the loop runs: they are the queue
        row = graph[p]
        for k in columns:
            j = row[k]
            if not seen[j]:
                seen[j] = True
                edges.append((j, p, k))
    del edges[0]
    return edges


def path_word(rows, letters, j: int) -> str:
    """Shortest, then lexicographically least, word leading from node 0 to node j
    of explore's rows, where successor k reads letters[k].

    explore numbers nodes in the order it discovers them, so the parent of
    node i > 0 is the first row to list it.
    """
    links = [None]  # links[i]: the parent of node i and the letter from it
    for p, row in enumerate(rows):
        for k, i in enumerate(row):
            if i == len(links):
                links.append((p, letters[k]))
    word = []
    while j:
        j, a = links[j]
        word.append(a)
    return "".join(reversed(word))


def layer_word(layers, node, k: int) -> str:
    """The word spelled back from node in layers[k], where layers[L] maps each
    node of layer L >= 1 to (its parent in layer L - 1, the letter from it)."""
    word = []
    for L in range(k, 0, -1):
        node, a = layers[L][node]
        word.append(a)
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

# parse_automaton reports this many violations of an invalid input at most:
# a dense order can break transitivity a cubic number of times
VIOLATION_LIMIT = 20


# A run of up to _RUN_LINES canonical order or trans lines (ASCII indices of
# at most 9 digits, single spaces, each line ended by "\n" or "\r\n") is
# read in bulk; the lines between runs are read one at a time.  The bound
# keeps the tokens of one run small, and the regex engine's backtracking
# state, about 276 bytes a line while a run matches.
_RUN_LINES = 256
_RUNS = re.compile(
    rf"(?m)^(?:(?P<order>(?:order: [0-9]{{1,9}} <= [0-9]{{1,9}}\r?\n){{1,{_RUN_LINES}}})"
    rf"|(?P<trans>(?:trans: [0-9]{{1,9}} [^\s#] [0-9]{{1,9}}\r?\n){{1,{_RUN_LINES}}}))"
)


class _Indices(dict):
    """Memo of int(token) for the index tokens of runs: most tokens repeat,
    and a lookup costs a fraction of int()."""

    def __missing__(self, token):
        value = self[token] = int(token)
        return value


def _decimal(token: str) -> int | None:
    """Value of a token of decimal digits; None for anything else, also for more
    digits than int() converts."""
    if not token.isdecimal():
        return None
    try:
        return int(token)
    except ValueError:
        return None


def _chunks(text: str):
    """(kind, line number, what) in line order: kind "order" or "trans" and
    the match for each run of _RUNS, which starts on that line, and kind None
    and the line for each line between runs."""
    done = end = 0  # lines and characters before the gap
    for run in _RUNS.finditer(text):
        start = run.start()
        for done, line in enumerate(text[end:start].splitlines(), done + 1):
            yield None, done, line
        yield run.lastgroup, done + 1, run
        done += text.count("\n", start, run.end())
        end = run.end()
    for done, line in enumerate(text[end:].splitlines(), done + 1):
        yield None, done, line


def _add_transitions(trans: dict, run: str, lineno: int, index) -> None:
    """Add a run of trans lines, the first on line lineno, to parse_automaton's
    trans.  A transition given twice fails with the line that repeats it."""
    tokens = run.split()
    keys = [*zip(map(index, tokens[1::4]), tokens[2::4])]
    lines = dict(zip(keys, zip(map(index, tokens[3::4]), count(lineno))))
    if len(lines) < len(keys) or not lines.keys().isdisjoint(trans):
        for lineno, key in enumerate(keys, lineno):
            if key in trans:
                raise ParseError("duplicate transition for ({}, {})".format(*key), line=lineno)
            trans[key] = None
    trans.update(lines)


def _order_rows(orders, state_count: int, index) -> tuple[int, ...]:
    """The order's bit rows from parse_automaton's orders, (first line, a
    run's match or the pair of one line) in line order; the first pair out of
    range fails with its line."""
    up = [1 << p for p in range(state_count)]
    for lineno, run in orders:
        if isinstance(run, tuple):  # one line read on its own
            p, q = run
            if p >= state_count or q >= state_count:
                raise ParseError(f"order pair ({p}, {q}) out of range", line=lineno)
            up[p] |= 1 << q
            continue
        tokens = run[0].split()
        ps, qs = [*map(index, tokens[1::4])], [*map(index, tokens[3::4])]
        if max(ps) >= state_count or max(qs) >= state_count:
            for lineno, p, q in zip(count(lineno), ps, qs):
                if p >= state_count or q >= state_count:
                    raise ParseError(f"order pair ({p}, {q}) out of range", line=lineno)
        for p, q in zip(ps, qs):
            up[p] |= 1 << q
    return tuple(up)


def parse_automaton(text: str) -> OrderedAutomaton:
    alphabet = None
    state_count = None
    initial = initial_line = None
    finals = finals_line = None
    orders = []  # (first line, a run's match or the pair of one line)
    trans = {}  # (state, symbol) -> (target, line)
    index = _Indices().__getitem__  # the value of a run's index token

    def fail(msg, lineno):
        raise ParseError(msg, line=lineno)

    # a run in bulk; any other line by one branch per key, the frequent ones
    # first, where a malformed line fails
    for kind, lineno, raw in _chunks(text):
        if kind == "order":  # read once the state count is known
            orders.append((lineno, raw))
            continue
        if kind == "trans":
            _add_transitions(trans, raw[0], lineno, index)
            continue
        line = raw.partition("#")[0]
        key, sep, rest = line.partition(":")
        if not sep:
            if line.strip():
                fail(f"expected 'key: value', got {line.strip()!r}", lineno)
            continue
        key = key.strip()
        if key == "order":
            parts = rest.split()
            if len(parts) == 3 and parts[1] == "<=":
                p, q = _decimal(parts[0]), _decimal(parts[2])
                if p is not None and q is not None:
                    orders.append((lineno, (p, q)))
                    continue
            fail(f"order wants 'p <= q', got {rest.strip()!r}", lineno)
        elif key == "trans":
            parts = rest.split()
            if len(parts) == 3:
                src, dst = _decimal(parts[0]), _decimal(parts[2])
                if src is not None and dst is not None:
                    sym = parts[1]
                    if (src, sym) in trans:
                        fail(f"duplicate transition for ({src}, {sym})", lineno)
                    trans[(src, sym)] = (dst, lineno)
                    continue
            fail(f"trans wants 'state symbol state', got {rest.strip()!r}", lineno)
        elif key == "alphabet":
            if alphabet is not None:
                fail("duplicate alphabet line", lineno)
            try:
                alphabet = Alphabet(tuple(rest.split()))
            except AlphabetError as e:
                fail(str(e), lineno)
        elif key == "states":
            if state_count is not None:
                fail("duplicate states line", lineno)
            rest = rest.strip()
            state_count = _decimal(rest)
            if state_count is None or state_count < 1:
                fail(f"states wants a positive integer, got {rest!r}", lineno)
        elif key == "initial":
            if initial is not None:
                fail("duplicate initial line", lineno)
            rest = rest.strip()
            initial, initial_line = _decimal(rest), lineno
            if initial is None:
                fail(f"initial wants a state index, got {rest!r}", lineno)
        elif key == "finals":
            if finals is not None:
                fail("duplicate finals line", lineno)
            finals, finals_line = frozenset(map(_decimal, rest.split())), lineno
            if None in finals:
                fail(f"finals wants state indices, got {rest.strip()!r}", lineno)
        else:
            fail(f"unknown key {key!r}", lineno)

    for key, value in (("alphabet", alphabet), ("states", state_count), ("initial", initial), ("finals", finals)):
        if value is None:
            raise ParseError(f"missing {key} line")

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

    up = _order_rows(orders, state_count, index)
    if not 0 <= initial < state_count:
        raise ParseError(f"initial state {initial} out of range", line=initial_line)
    for q in finals:
        if not 0 <= q < state_count:
            raise ParseError(f"final state {q} out of range", line=finals_line)

    oa = OrderedAutomaton(
        OrderedSemiautomaton(Semiautomaton(alphabet, tuple(rows)), StateOrder(up)), initial, finals
    )
    violations = list(islice(_violations(oa), VIOLATION_LIMIT + 1))
    if violations:
        shown = "; ".join(violations[:VIOLATION_LIMIT])
        if len(violations) > VIOLATION_LIMIT:
            shown += f"; ... (more violations cut: only the first {VIOLATION_LIMIT} are shown)"
        raise OrdaError("invalid automaton: " + shown)
    return oa


def format_automaton(oa: OrderedAutomaton) -> str:
    sa = oa.sa
    lines = [
        "alphabet: " + " ".join(sa.alphabet),
        f"states: {sa.state_count}",
        f"initial: {oa.initial}",
        "finals:" + "".join(f" {q}" for q in sorted(oa.finals)),
    ]
    names = [*map(str, range(sa.state_count))]
    for p, row in enumerate(oa.order.up):  # the pairs of one row at a time, as pairs() yields them
        above = row & ~(1 << p)
        if above:
            lines.extend(map(f"order: {p} <= ".__add__, map(names.__getitem__, _positions(above))))
    symbols = [f" {a} " for a in sa.alphabet]
    lines += [f"trans: {q}{a}{names[r]}" for q, row in zip(names, sa.delta) for a, r in zip(symbols, row)]
    return "\n".join(lines) + "\n"


class _Reader:
    """A regex or query text as its parser reads it, scanned once: chars holds
    the text's non-space characters (str.isspace, on which str.split splits)
    and then a space, an end sentinel that no other entry can be, and
    columns[i] is the column of chars[i], len(text) for the sentinel.  A
    token of more than one character is a run of adjacent columns (joined,
    run).  level is the one depth rule of both grammars."""

    __slots__ = ("chars", "columns", "noun", "limit")

    def __init__(self, text: str, noun: str, limit: int):
        self.chars = "".join(text.split()) + " "
        self.columns = [k for k, c in enumerate(text) if not c.isspace()] + [len(text)]
        self.noun, self.limit = noun, limit

    def level(self, height: int, column: int) -> int:
        """The depth one level above height, refused at column past the limit."""
        if height >= self.limit:
            raise ParseError(f"{self.noun} nested deeper than the limit of {self.limit} levels", column=column)
        return height + 1

    def joined(self, i: int) -> bool:
        """Whether chars[i] stands right after chars[i - 1] in the text."""
        return self.columns[i] == self.columns[i - 1] + 1

    def run(self, i: int) -> int:
        """The end of the run of alphanumerics from chars[i] on, each standing
        right after the one before it."""
        chars = self.chars
        while chars[i].isalnum() and self.joined(i):
            i += 1
        return i
