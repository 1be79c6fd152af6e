"""Independent correctness checks for benchmark operations.

Nothing here calls the algorithms under test.  Automaton texts, regexes
and omega-queries are parsed by the small readers below; minimal
automata are recomputed by Moore refinement; every counterexample the
command prints is replayed with this module's own stepping loop.  The
brute-force references in ``tests/oracles.py`` are used where the issue
of scale allows (small monoids, short words).

Each ``check_<command>`` function takes the operation and the command's
exit code and stdout, and returns ``None`` when the output is correct or
a one-line reason when it is not.
"""

from __future__ import annotations

import ast
import itertools
import math
import re

import oracles

# brute-force references run only below these sizes, so a check stays cheap
ORACLE_MONOID_LIMIT = 400
J_ORACLE_MONOID_LIMIT = 30
RESIDUAL_ORACLE_STATES = 30
BRUTE_SUBSTITUTIONS = 5000
WORDS_CHECKED = 1100


class Letters(tuple):
    """Alphabet as a tuple of one-character symbols; ``.symbols`` as the oracles expect."""

    @property
    def symbols(self):
        return tuple(self)


class Order:
    """Non-strict order given by its strict pairs."""

    def __init__(self, pairs=()):
        self.pairs = frozenset(pairs)

    def leq(self, p: int, q: int) -> bool:
        return p == q or (p, q) in self.pairs


class Dfa:
    """Complete deterministic automaton; also shaped like the oracles' automaton argument."""

    def __init__(self, letters, delta, initial, finals, order=None):
        self.alphabet = Letters(letters)
        self.delta = tuple(tuple(row) for row in delta)
        self.initial = initial
        self.finals = frozenset(finals)
        self.order = order if order is not None else Order()
        self.sa = self

    @property
    def state_count(self) -> int:
        return len(self.delta)


def run_word(dfa: Dfa, q: int, word: str) -> int:
    """The benchmark's own stepping loop: q . word."""
    column = {a: k for k, a in enumerate(dfa.alphabet)}
    for a in word:
        q = dfa.delta[q][column[a]]
    return q


def automaton_text(letters, delta, initial, finals, order_pairs=()) -> str:
    """Serialize in the interchange format the command reads."""
    lines = [
        "alphabet: " + " ".join(letters),
        f"states: {len(delta)}",
        f"initial: {initial}",
        "finals:" + "".join(f" {q}" for q in sorted(finals)),
    ]
    lines.extend(f"order: {p} <= {q}" for p, q in order_pairs)
    for q, row in enumerate(delta):
        lines.extend(f"trans: {q} {a} {r}" for a, r in zip(letters, row))
    return "\n".join(lines) + "\n"


def parse_automaton_text(text: str) -> Dfa:
    """Read the interchange format; raises ValueError when it is malformed."""
    fields: dict[str, str] = {}
    pairs = []
    moves = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key, rest = key.strip(), rest.strip()
        if key == "order":
            p, rel, q = rest.split()
            if rel != "<=":
                raise ValueError(f"bad order line {line!r}")
            pairs.append((int(p), int(q)))
        elif key == "trans":
            p, a, q = rest.split()
            moves[(int(p), a)] = int(q)
        elif key in ("alphabet", "states", "initial", "finals") and key not in fields:
            fields[key] = rest
        else:
            raise ValueError(f"unexpected line {line!r}")
    letters = fields["alphabet"].split()
    n = int(fields["states"])
    delta = [[moves.pop((q, a)) for a in letters] for q in range(n)]
    if moves or any(not 0 <= r < n for row in delta for r in row):
        raise ValueError("transition table is not complete and in range")
    finals = {int(tok) for tok in fields["finals"].split()}
    return Dfa(letters, delta, int(fields["initial"]), finals, Order(p for p in pairs if p[0] != p[1]))


# --- minimal automata ---------------------------------------------------------


def canonical_minimal(dfa: Dfa) -> Dfa:
    """Minimal automaton by Moore refinement, numbered breadth-first from the initial
    state with letters in alphabet order (the numbering the command prints)."""
    width = len(dfa.alphabet)
    delta = dfa.delta
    reach = [dfa.initial]
    seen = {dfa.initial}
    for q in reach:
        for r in delta[q]:
            if r not in seen:
                seen.add(r)
                reach.append(r)
    cls = {q: int(q in dfa.finals) for q in reach}
    count = len(set(cls.values()))
    while True:
        ids: dict[tuple, int] = {}
        new = {q: ids.setdefault((cls[q],) + tuple(cls[r] for r in delta[q]), len(ids)) for q in reach}
        cls = new
        if len(ids) == count:
            break
        count = len(ids)
    rep: dict[int, int] = {}
    for q in reach:
        rep.setdefault(cls[q], q)
    number = {cls[dfa.initial]: 0}
    order = [cls[dfa.initial]]
    for c in order:
        for k in range(width):
            d = cls[delta[rep[c]][k]]
            if d not in number:
                number[d] = len(order)
                order.append(d)
    rows = [[number[cls[delta[rep[c]][k]]] for k in range(width)] for c in order]
    finals = {i for i, c in enumerate(order) if rep[c] in dfa.finals}
    return Dfa(dfa.alphabet, rows, 0, finals)


def with_residual_order(dfa: Dfa) -> Dfa:
    """Same automaton, ordered by inclusion of future languages (the oracles' pair search)."""
    n = dfa.state_count
    pairs = [(p, q) for p in range(n) for q in range(n) if p != q and oracles.residual_included(dfa, p, q)]
    return Dfa(dfa.alphabet, dfa.delta, dfa.initial, dfa.finals, Order(pairs))


def monoid_size(dfa: Dfa, limit: int) -> int | None:
    """Number of distinct word actions, or None once it passes ``limit``.

    Actions are byte strings, so applying a letter is one ``bytes.translate``;
    the closure grows a word length at a time.
    """
    tables = [bytes(row[k] for row in dfa.delta).ljust(256, b"\0") for k in range(len(dfa.alphabet))]
    frontier = {bytes(range(dfa.state_count))}
    seen = set(frontier)
    while frontier:
        frontier = {base.translate(table) for base in frontier for table in tables}
        frontier -= seen
        seen |= frontier
        if len(seen) > limit:
            return None
    return len(seen)


def _mergeable(dfa: Dfa, p: int, q: int, ks) -> bool:
    """Some word over the letter columns ``ks`` sends p and q to one state."""
    seen = {(p, q)}
    stack = [(p, q)]
    while stack:
        x, y = stack.pop()
        if x == y:
            return True
        for k in ks:
            nxt = (dfa.delta[x][k], dfa.delta[y][k])
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


# --- regular expressions --------------------------------------------------------
#
# Same grammar as the command: `|` < `&` < juxtaposition < postfix `*` < prefix `!`;
# `#` is the empty language and `_` the empty word.


def parse_regex_text(text: str):
    tokens = [c for c in text if not c.isspace()]
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def union():
        node = inter()
        while peek() == "|":
            take()
            node = ("or", node, inter())
        return node

    def inter():
        node = concat()
        while peek() == "&":
            take()
            node = ("and", node, concat())
        return node

    def concat():
        node = postfix()
        while peek() is not None and peek() not in "|&*)":
            node = ("cat", node, postfix())
        return node

    def postfix():
        node = prefix()
        while peek() == "*":
            take()
            node = ("star", node)
        return node

    def prefix():
        if peek() == "!":
            take()
            return ("not", prefix())
        c = take()
        if c == "(":
            node = union()
            if take() != ")":
                raise ValueError("missing ')'")
            return node
        return {"#": ("empty",), "_": ("eps",)}.get(c, ("sym", c))

    node = union()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return node


def _explore(letters, start, succ, final) -> Dfa:
    index = {start: 0}
    keys = [start]
    rows = []
    for key in keys:
        row = []
        for k in range(len(letters)):
            nxt = succ(key, k)
            if nxt not in index:
                index[nxt] = len(keys)
                keys.append(nxt)
            row.append(index[nxt])
        rows.append(row)
    return canonical_minimal(Dfa(letters, rows, 0, {i for i, key in enumerate(keys) if final(key)}))


def regex_dfa(node, letters) -> Dfa:
    """Minimal automaton of a parsed regex, by products and subset constructions."""
    tag = node[0]
    if tag in ("empty", "eps", "sym"):
        # states: 0 start, 1 after the symbol, 2 dead
        def succ(q, k):
            return 1 if q == 0 and tag == "sym" and letters[k] == node[1] else 2
        return _explore(letters, 0, succ, lambda q: q == (0 if tag == "eps" else 1))
    if tag == "not":
        a = regex_dfa(node[1], letters)
        return Dfa(letters, a.delta, a.initial, set(range(a.state_count)) - a.finals)
    a = regex_dfa(node[1], letters)
    if tag == "star":
        def succ(key, k):
            nxt = {a.delta[s][k] for s in key[0]}
            if nxt & a.finals:
                nxt.add(a.initial)
            return frozenset(nxt), False
        return _explore(letters, (frozenset({a.initial}), True), succ,
                        lambda key: key[1] or bool(key[0] & a.finals))
    b = regex_dfa(node[2], letters)
    if tag == "cat":
        def succ(key, k):
            p = a.delta[key[0]][k]
            nxt = {b.delta[s][k] for s in key[1]}
            if p in a.finals:
                nxt.add(b.initial)
            return p, frozenset(nxt)
        start = (a.initial, frozenset({b.initial} if a.initial in a.finals else ()))
        return _explore(letters, start, succ, lambda key: bool(key[1] & b.finals))
    join = any if tag == "or" else all
    return _explore(letters, (a.initial, b.initial),
                    lambda key, k: (a.delta[key[0]][k], b.delta[key[1]][k]),
                    lambda key: join((key[0] in a.finals, key[1] in b.finals)))


# --- omega-queries ----------------------------------------------------------------


def parse_query_text(text: str):
    """(left term, relation, right term, category); terms are nested tuples."""
    body, _, category = text.rpartition("@")
    rel = "<=" if "<=" in body else "=="
    left, right = body.split(rel)
    return _parse_term(left), rel, _parse_term(right), category.strip()


def _parse_term(text: str):
    tokens = re.findall(r"\^w|[A-Za-z][A-Za-z0-9]*|[()1]", text)
    pos = 0

    def seq():
        nonlocal pos
        parts = []
        while pos < len(tokens) and tokens[pos] != ")":
            tok = tokens[pos]
            pos += 1
            if tok == "(":
                node = seq()
                pos += 1
            elif tok == "1":
                node = ("cat", [])
            else:
                node = ("var", tok)
            while pos < len(tokens) and tokens[pos] == "^w":
                pos += 1
                node = ("pow", node)
            parts.append(node)
        return parts[0] if len(parts) == 1 else ("cat", parts)

    return seq()


def term_variables(node) -> set[str]:
    if node[0] == "var":
        return {node[1]}
    if node[0] == "pow":
        return term_variables(node[1])
    return set().union(*(term_variables(p) for p in node[1]))


def _compose(s: tuple, t: tuple) -> tuple:
    return tuple([t[q] for q in s])


def _idempotent_power(m: tuple) -> tuple:
    cur = m
    while _compose(cur, cur) != cur:
        cur = _compose(cur, m)
    return cur


def term_value(node, values: dict, identity: tuple) -> tuple:
    """Action of the term when each variable acts as ``values[name]``."""
    if node[0] == "var":
        return values[node[1]]
    if node[0] == "pow":
        return _idempotent_power(term_value(node[1], values, identity))
    out = identity
    for part in node[1]:
        out = _compose(out, term_value(part, values, identity))
    return out


def word_action(dfa: Dfa, word: str) -> tuple:
    return tuple(run_word(dfa, q, word) for q in range(dfa.state_count))


def _substitution_space(dfa: Dfa, names, category):
    """Every admissible assignment of actions to variables, for brute-force re-checks."""
    width = len(dfa.alphabet)
    letters = [word_action(dfa, a) for a in dfa.alphabet]
    if category == "lp":
        return [dict(zip(names, combo)) for combo in itertools.product(letters, repeat=len(names))]
    elements = list(oracles.transformations(dfa))
    if category == "ne":
        semigroup = set(letters)
        frontier = list(letters)
        while frontier:
            frontier = [y for x in frontier for g in letters if (y := _compose(x, g)) not in semigroup]
            semigroup.update(frontier)
        elements = sorted(semigroup)
    if category in ("all", "ne"):
        return [dict(zip(names, combo)) for combo in itertools.product(elements, repeat=len(names))]
    out = []
    for chosen in itertools.permutations(range(len(names)), width):
        rest = [i for i in range(len(names)) if i not in chosen]
        for combo in itertools.product(elements, repeat=len(rest)):
            values = {names[i]: letters[j] for j, i in enumerate(chosen)}
            values.update((names[i], e) for i, e in zip(rest, combo))
            out.append(values)
    return out


def _space_size(monoid: int, width: int, k: int, category: str) -> int:
    if category == "lp":
        return width**k
    if category == "surj":
        return math.perm(k, width) * monoid ** (k - width) if k >= width else 0
    return monoid**k


# --- per-command checks -----------------------------------------------------------


def input_automaton(op) -> Dfa:
    """The automaton the command reads: the file as given, or the regex's minimal
    automaton ordered by inclusion of future languages."""
    if op.regex is None:
        return parse_automaton_text(op.stdin)
    return with_residual_order(regex_dfa(parse_regex_text(op.regex), op.alphabet))


def check_minimize(op, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    head, _, body = out.partition("\n")
    count_line, _, body = body.partition("\n")
    got = parse_automaton_text(body)
    if head != f"# states: {got.state_count}" or count_line != f"# order pairs: {len(got.order.pairs)}":
        return "header counts differ from the printed automaton"
    given = parse_automaton_text(op.stdin)
    want = canonical_minimal(given)
    if (got.delta, got.initial, got.finals) != (want.delta, want.initial, want.finals):
        return "not the canonically numbered minimal automaton of the input"
    length = max(k for k in range(12) if len(given.alphabet) ** k <= WORDS_CHECKED)
    if oracles.language(got, length) != oracles.language(given, length):
        return f"languages differ on words up to length {length}"
    return _order_problem(got)


def _order_problem(dfa: Dfa) -> str | None:
    """The printed order must be the inclusion order of future languages.

    A compatible order under which finals are upward closed lies inside
    that inclusion; equality is confirmed by the oracle on small automata.
    """
    up = [1 << p for p in range(dfa.state_count)]
    for p, q in dfa.order.pairs:
        up[p] |= 1 << q
    for p, q in dfa.order.pairs:
        if up[q] & ~up[p] or (q, p) in dfa.order.pairs:
            return f"order is not a partial order at {p} <= {q}"
        if p in dfa.finals and q not in dfa.finals:
            return f"finals not upward closed at {p} <= {q}"
        for rp, rq in zip(dfa.delta[p], dfa.delta[q]):
            if not dfa.order.leq(rp, rq):
                return f"order not compatible with the letters at {p} <= {q}"
    if dfa.state_count <= RESIDUAL_ORACLE_STATES:
        if with_residual_order(dfa).order.pairs != dfa.order.pairs:
            return "order differs from inclusion of future languages"
    return None


_VERDICT = re.compile(r"(\w+) ([✓✗])(?:  witness=(.*))?$")
CLASS_NAMES = (
    "finite", "cofinite", "prefix_testable", "piecewise_testable", "positive_piecewise_testable",
    "star_free", "r_trivial_language", "weakly_confluent", "synchronizing", "autonomous",
)


def check_classify(op, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    given = input_automaton(op)
    minimal = given if op.regex is not None else with_residual_order(canonical_minimal(given))
    lines = out.splitlines()
    if lines[0] != f"# judged on the minimal automaton ({minimal.state_count} states)":
        return f"expected {minimal.state_count} minimal states, got {lines[0]!r}"
    verdicts = {}
    for line in lines[1:]:
        m = _VERDICT.match(line)
        if m is None:
            return f"unreadable verdict line {line!r}"
        witness = ast.literal_eval(m.group(3)) if m.group(3) else None
        verdicts[m.group(1)] = (m.group(2) == "✓", witness)
    if tuple(verdicts) != CLASS_NAMES:
        return f"verdict names {tuple(verdicts)}"
    for name, (holds, witness) in verdicts.items():
        problem = _replay_class(minimal, name, holds, witness)
        if problem:
            return f"{name}: {problem}"
    return _compare_class_oracles(minimal, {name: v[0] for name, v in verdicts.items()})


def _loop_escape(dfa, q, u, a) -> bool:
    return run_word(dfa, q, u) == q and run_word(dfa, q, a) != q


def _unjoinable(dfa, q, u, v) -> bool:
    ks = [k for k, a in enumerate(dfa.alphabet) if a in u + v]
    return not _mergeable(dfa, run_word(dfa, q, u), run_word(dfa, q, v), ks)


def _replay_class(dfa: Dfa, name: str, holds: bool, w) -> str | None:
    all_ks = range(len(dfa.alphabet))
    n = dfa.state_count
    if holds:
        if name == "synchronizing" and len({run_word(dfa, q, w) for q in range(n)}) != 1:
            return f"reset word {w!r} does not synchronize"
        if name == "r_trivial_language":
            place = {q: i for i, q in enumerate(w)}
            if sorted(w) != list(range(n)) or any(
                place[r] < place[q] for q in range(n) for r in dfa.delta[q] if r != q
            ):
                return f"{w!r} is not a topological order"
        return None
    if name in ("finite", "cofinite") and isinstance(w[0], str):
        f = w[1]
        absorbing = all(r == f for r in dfa.delta[f])
        reachable = f in _reachable_from(dfa, dfa.initial)
        final_ok = (f in dfa.finals) == (name == "finite")
        return None if absorbing and reachable and final_ok else f"follower witness {w!r} fails"
    if name in ("finite", "cofinite", "prefix_testable", "piecewise_testable", "r_trivial_language"):
        q, u, v = w
        may_be_confluence = name in ("finite", "cofinite", "piecewise_testable")
        if _loop_escape(dfa, q, u, v) or (may_be_confluence and _unjoinable(dfa, q, u, v)):
            return None
        return f"witness {w!r} does not replay"
    if name == "positive_piecewise_testable":
        q, a = w
        return None if not dfa.order.leq(q, run_word(dfa, q, a)) else f"{q} <= {q}.{a} holds"
    if name == "star_free":
        q, u = w
        trail = [q]
        for _ in range(n):
            trail.append(run_word(dfa, trail[-1], u))
        return None if trail[1] != q and q in trail[2:] else f"{u!r} has no cycle through {q}"
    if name in ("weakly_confluent", "synchronizing"):
        p, q = w[1] if name == "weakly_confluent" else w
        return None if not _mergeable(dfa, p, q, all_ks) else f"{p} and {q} merge"
    if name == "autonomous":
        q, a, b = w
        return None if run_word(dfa, q, a) != run_word(dfa, q, b) else f"{a!r} and {b!r} agree at {q}"
    return "unknown class"


def _reachable_from(dfa: Dfa, q: int) -> set:
    seen = {q}
    stack = [q]
    while stack:
        for r in dfa.delta[stack.pop()]:
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return seen


def _finite(dfa: Dfa, finals) -> bool:
    """No cycle through a state that can still reach a final state."""
    useful = {q for q in range(dfa.state_count) if _reachable_from(dfa, q) & finals}
    return not any(q in _reachable_from(dfa, r) for q in useful for r in dfa.delta[q] if r in useful)


def _compare_class_oracles(dfa: Dfa, holds: dict) -> str | None:
    everything = set(range(dfa.state_count))
    expect = {
        "finite": _finite(dfa, dfa.finals),
        "cofinite": _finite(dfa, everything - dfa.finals),
        "autonomous": all(len(set(row)) == 1 for row in dfa.delta),
    }
    if monoid_size(dfa, ORACLE_MONOID_LIMIT) is not None:
        elements = list(oracles.transformations(dfa))
        expect["star_free"] = oracles.aperiodic_brute(elements)
        expect["r_trivial_language"] = oracles.r_trivial_brute(elements)
        expect["positive_piecewise_testable"] = oracles.extensive_brute(dfa)
        if len(elements) <= J_ORACLE_MONOID_LIMIT:
            expect["piecewise_testable"] = oracles.j_trivial_brute(elements)
    if len(dfa.alphabet) ** dfa.state_count <= WORDS_CHECKED:
        expect["weakly_confluent"] = oracles.weakly_confluent_brute(dfa)
    for name, value in expect.items():
        if holds[name] != value:
            return f"{name}: claimed {holds[name]}, reference {value}"
    return None


_IDENTITY_ORACLES = {
    "x^w x == x^w @all": "aperiodic",
    "(x y)^w x == (x y)^w @all": "r_trivial",
}


def check_check(op, code: int, out: str) -> str | None:
    dfa = input_automaton(op)
    left, rel, right, category = parse_query_text(op.query)
    names = sorted(term_variables(left) | term_variables(right))
    identity = tuple(range(dfa.state_count))
    if code == 1:
        return _replay_counterexample(dfa, out, left, rel, right, category, names, identity)
    if code != 0:
        return f"exit {code}"
    vacuous = category == "surj" and len(names) < len(dfa.alphabet)
    if out != ("holds (vacuously: no admissible substitutions)\n" if vacuous else "holds\n"):
        return f"unexpected output {out!r}"
    return _confirm_holds(dfa, op.query, left, rel, right, category, names, identity)


def _replay_counterexample(dfa, out, left, rel, right, category, names, identity) -> str | None:
    lines = out.splitlines()
    m = re.fullmatch(r"fails at state (\d+)", lines[0])
    if m is None or len(lines) != 4:
        return f"unreadable counterexample {out!r}"
    p = int(m.group(1))
    words = {
        name: ast.literal_eval(word)
        for name, word in re.findall(r"(\w+)=('(?:[^'\\]|\\.)*')", lines[1].removeprefix("substitution: "))
    }
    lw = ast.literal_eval(lines[2].removeprefix("left word: "))
    rw = ast.literal_eval(lines[3].removeprefix("right word: "))
    if sorted(words) != names or any(a not in dfa.alphabet for w in (lw, rw, *words.values()) for a in w):
        return f"substitution {lines[1]!r} does not bind {names} to words"
    lengths = {len(w) for w in words.values()}
    admissible = {
        "all": True,
        "ne": min(lengths) >= 1,
        "lp": lengths == {1},
        "lm": len(lengths) == 1 and min(lengths) >= 1,
        "surj": set(dfa.alphabet) <= set(words.values()),
    }[category]
    if not admissible:
        return f"substitution {words} is not in category {category}"
    values = {name: word_action(dfa, w) for name, w in words.items()}
    if word_action(dfa, lw) != term_value(left, values, identity):
        return "left word does not act as the left term"
    if word_action(dfa, rw) != term_value(right, values, identity):
        return "right word does not act as the right term"
    ql, qr = run_word(dfa, p, lw), run_word(dfa, p, rw)
    if (ql == qr) if rel == "==" else dfa.order.leq(ql, qr):
        return f"words agree at state {p}"
    return None


def _confirm_holds(dfa, query, left, rel, right, category, names, identity) -> str | None:
    """A positive verdict against the oracles and against brute-force enumeration."""
    size = monoid_size(dfa, ORACLE_MONOID_LIMIT)
    if size is None:
        return None
    kind = _IDENTITY_ORACLES.get(query)
    if kind is not None:
        elements = list(oracles.transformations(dfa))
        if kind == "aperiodic" and not oracles.aperiodic_brute(elements):
            return "holds, but aperiodic_brute disagrees"
        if kind == "r_trivial" and not oracles.r_trivial_brute(elements):
            return "holds, but r_trivial_brute disagrees"
    if category == "lm" or _space_size(size, len(dfa.alphabet), len(names), category) > BRUTE_SUBSTITUTIONS:
        return None
    for values in _substitution_space(dfa, names, category):
        tl = term_value(left, values, identity)
        tr = term_value(right, values, identity)
        for p in range(dfa.state_count):
            if not ((tl[p] == tr[p]) if rel == "==" else dfa.order.leq(tl[p], tr[p])):
                return f"brute force finds a counterexample at state {p}"
    return None


CHECKS = {"minimize": check_minimize, "classify": check_classify, "check": check_check}


def check_output(op, code: int, out: str) -> str | None:
    """None when the command's answer is correct, else the reason it is not."""
    try:
        return CHECKS[op.argv[0]](op, code, out)
    except Exception as exc:  # output too garbled to check is a wrong answer, not a crash
        return f"unreadable output ({type(exc).__name__}: {exc})"
