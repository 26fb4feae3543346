"""Regular-language front end: regexes, complete DFAs, minimization.

Words are plain strings.  Regex symbols are single characters; DFA files may
use arbitrary whitespace-free tokens as symbols.  Every DFA handled here is
complete (the transition function is total), completion being enforced at
construction by adding a sink where needed.

All values are immutable after construction and all operations are pure, so
concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass


class RegexSyntaxError(ValueError):
    """Malformed regular expression; carries the 0-based offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DfaFormatError(ValueError):
    """Malformed DFA description file."""


# ---------------------------------------------------------------------------
# Regex AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmptyWord:
    pass


@dataclass(frozen=True)
class Letter:
    symbol: str


@dataclass(frozen=True)
class Concat:
    parts: tuple


@dataclass(frozen=True)
class Union:
    parts: tuple


@dataclass(frozen=True)
class Star:
    inner: object


RegexNode = EmptyWord | Letter | Concat | Union | Star


@dataclass(frozen=True)
class Regex:
    """Parsed regular expression together with its (possibly declared) alphabet."""

    root: RegexNode
    alphabet: tuple[str, ...]


_METACHARS = "|*()~"

# The parser and the NFA construction recurse once or twice per parenthesis
# level, so nesting is capped well below the interpreter's recursion limit.
MAX_REGEX_NESTING = 100


def _concat(parts) -> RegexNode:
    flat = []
    for p in parts:
        if isinstance(p, EmptyWord):
            continue
        if isinstance(p, Concat):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return EmptyWord()
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def _union(parts) -> RegexNode:
    flat = []
    for p in parts:
        if isinstance(p, Union):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    return Union(tuple(flat))


def _star(inner) -> RegexNode:
    if isinstance(inner, (EmptyWord, Star)):
        return inner if isinstance(inner, Star) else EmptyWord()
    return Star(inner)


class _RegexParser:
    def __init__(self, text: str, declared: frozenset | None):
        self.text = text
        self.i = 0
        self.depth = 0
        self.declared = declared

    def peek(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1
        return self.text[self.i] if self.i < len(self.text) else None

    def parse_union(self) -> RegexNode:
        parts = [self.parse_concat()]
        while self.peek() == "|":
            self.i += 1
            parts.append(self.parse_concat())
        return _union(parts)

    def parse_concat(self) -> RegexNode:
        parts = []
        while True:
            c = self.peek()
            if c is None or c in "|)":
                break
            parts.append(self.parse_postfix())
        if not parts:
            raise RegexSyntaxError("expected a letter, '~' or '('", self.i)
        return _concat(parts)

    def parse_postfix(self) -> RegexNode:
        node = self.parse_atom()
        while self.peek() == "*":
            self.i += 1
            node = _star(node)
        return node

    def parse_atom(self) -> RegexNode:
        c = self.peek()
        pos = self.i
        if c == "(":
            if self.depth >= MAX_REGEX_NESTING:
                raise RegexSyntaxError(
                    f"parentheses nested more than {MAX_REGEX_NESTING} deep", pos)
            self.i += 1
            self.depth += 1
            node = self.parse_union()
            self.depth -= 1
            if self.peek() != ")":
                raise RegexSyntaxError("unbalanced parenthesis", pos)
            self.i += 1
            return node
        if c == "~":
            self.i += 1
            return EmptyWord()
        if c is None or c in _METACHARS:
            raise RegexSyntaxError("expected a letter, '~' or '('", pos)
        if self.declared is not None and c not in self.declared:
            raise RegexSyntaxError(f"letter {c!r} outside declared alphabet", pos)
        self.i += 1
        return Letter(c)


def _letters_of(node: RegexNode, out: set):
    if isinstance(node, Letter):
        out.add(node.symbol)
    elif isinstance(node, (Concat, Union)):
        for p in node.parts:
            _letters_of(p, out)
    elif isinstance(node, Star):
        _letters_of(node.inner, out)


def parse_regex(text: str, alphabet=None) -> Regex:
    """Parse a regex (`|` union, juxtaposition concat, `*` star, `~` empty word).

    If ``alphabet`` is omitted it is inferred as the set of letters occurring,
    in sorted order.  An explicitly declared empty alphabet is rejected.
    """
    declared = None
    if alphabet is not None:
        alphabet = tuple(alphabet)
        if not alphabet:
            raise RegexSyntaxError("empty alphabet", 0)
        if len(set(alphabet)) != len(alphabet):
            raise RegexSyntaxError("duplicate symbol in alphabet", 0)
        declared = frozenset(alphabet)
    parser = _RegexParser(text, declared)
    if parser.peek() is None:
        raise RegexSyntaxError("empty regex", 0)
    root = parser.parse_union()
    if parser.peek() is not None:
        raise RegexSyntaxError("unexpected character", parser.i)
    if alphabet is None:
        used = set()
        _letters_of(root, used)
        alphabet = tuple(sorted(used))
    return Regex(root, alphabet)


# ---------------------------------------------------------------------------
# Complete DFAs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dfa:
    """Complete deterministic automaton; states are 0..n_states-1."""

    alphabet: tuple[str, ...]
    delta: tuple[tuple[int, ...], ...]
    initial: int
    finals: frozenset[int]

    def __post_init__(self):
        n = len(self.delta)
        if n == 0:
            raise ValueError("a DFA needs at least one state")
        for row in self.delta:
            if len(row) != len(self.alphabet):
                raise ValueError("delta row length does not match alphabet")
            if any(not (0 <= t < n) for t in row):
                raise ValueError("transition target out of range")
        if not (0 <= self.initial < n):
            raise ValueError("initial state out of range")
        if not all(0 <= f < n for f in self.finals):
            raise ValueError("final state out of range")

    @property
    def n_states(self) -> int:
        return len(self.delta)

    def symbol_index(self, a: str) -> int:
        try:
            return self.alphabet.index(a)
        except ValueError:
            raise ValueError(f"letter {a!r} outside alphabet") from None

    def accepts(self, word: str) -> bool:
        s = self.initial
        for ch in word:
            s = self.delta[s][self.symbol_index(ch)]
        return s in self.finals


def minimize(d: Dfa) -> Dfa:
    """Minimal complete DFA for the same language, canonically numbered.

    Moore refinement runs over all states; then one BFS from the initial
    state's block, letters in alphabet order, numbers the blocks it reaches,
    which are those of the reachable states.  The refinement is a
    congruence, so any state of a block gives its transitions and finality.
    """
    n = d.n_states
    block = [int(s in d.finals) for s in range(n)]
    count = len(set(block))
    while True:
        sig: dict[tuple, int] = {}
        new = [sig.setdefault((block[s], *[block[t] for t in d.delta[s]]), len(sig))
               for s in range(n)]
        if len(sig) == count:
            break
        block, count = new, len(sig)
    member = dict(zip(block, range(n)))  # a state of each block
    rank = {block[d.initial]: 0}
    order = [block[d.initial]]
    for b in order:
        for t in d.delta[member[b]]:
            if block[t] not in rank:
                rank[block[t]] = len(order)
                order.append(block[t])
    delta = tuple(tuple(rank[block[t]] for t in d.delta[member[b]]) for b in order)
    return Dfa(d.alphabet, delta, 0, frozenset(rank[b] for b in order if member[b] in d.finals))


# ---------------------------------------------------------------------------
# Thompson construction and subset determinization
# ---------------------------------------------------------------------------

class _Nfa:
    def __init__(self):
        self.eps = []    # list[set[int]]
        self.trans = []  # list[dict[str, set[int]]]

    def new_state(self) -> int:
        self.eps.append(set())
        self.trans.append({})
        return len(self.eps) - 1

    def add_eps(self, s, t):
        self.eps[s].add(t)

    def add(self, s, a, t):
        self.trans[s].setdefault(a, set()).add(t)


def _build_nfa(node: RegexNode, nfa: _Nfa) -> tuple[int, int]:
    start = nfa.new_state()
    end = nfa.new_state()
    if isinstance(node, EmptyWord):
        nfa.add_eps(start, end)
    elif isinstance(node, Letter):
        nfa.add(start, node.symbol, end)
    elif isinstance(node, Concat):
        cur = start
        for p in node.parts:
            s, e = _build_nfa(p, nfa)
            nfa.add_eps(cur, s)
            cur = e
        nfa.add_eps(cur, end)
    elif isinstance(node, Union):
        for p in node.parts:
            s, e = _build_nfa(p, nfa)
            nfa.add_eps(start, s)
            nfa.add_eps(e, end)
    elif isinstance(node, Star):
        s, e = _build_nfa(node.inner, nfa)
        nfa.add_eps(start, end)
        nfa.add_eps(start, s)
        nfa.add_eps(e, s)
        nfa.add_eps(e, end)
    else:
        raise TypeError(f"not a regex node: {node!r}")
    return start, end


def _closure(nfa: _Nfa, states) -> frozenset:
    stack = list(states)
    out = set(states)
    while stack:
        s = stack.pop()
        for t in nfa.eps[s]:
            if t not in out:
                out.add(t)
                stack.append(t)
    return frozenset(out)


def regex_to_min_dfa(r: Regex) -> Dfa:
    """Complete minimal DFA for the regex language, canonically numbered."""
    nfa = _Nfa()
    start, end = _build_nfa(r.root, nfa)
    init = _closure(nfa, {start})
    index = {init: 0}
    subsets = [init]
    delta = []
    qi = 0
    while qi < len(subsets):
        cur = subsets[qi]
        qi += 1
        row = []
        for a in r.alphabet:
            nxt = set()
            for s in cur:
                nxt |= nfa.trans[s].get(a, set())
            nxt = _closure(nfa, nxt)
            if nxt not in index:
                index[nxt] = len(subsets)
                subsets.append(nxt)
            row.append(index[nxt])
        delta.append(tuple(row))
    finals = frozenset(i for i, sub in enumerate(subsets) if end in sub)
    full = Dfa(r.alphabet, tuple(delta), 0, finals)
    return minimize(full)


# ---------------------------------------------------------------------------
# DFA file format
# ---------------------------------------------------------------------------

def parse_dfa_file(text: str) -> Dfa:
    """Parse the line-based DFA format.

    Expected headers, in order: ``alphabet:``, ``states:``, ``initial:``,
    ``final:`` (possibly with an empty list), followed by ``SRC SYM DST``
    transition triples.  Missing transitions go to an implicit non-final
    sink appended as the last state.  ``#`` starts a comment line.
    """
    lines = []
    for raw in text.splitlines():
        s = raw.strip()
        if s and not s.startswith("#"):
            lines.append(s)

    def header(idx: int, key: str) -> list[str]:
        if idx >= len(lines) or not lines[idx].startswith(key + ":"):
            raise DfaFormatError(f"missing header line: expected '{key}:'")
        return lines[idx][len(key) + 1:].split()

    alphabet = tuple(header(0, "alphabet"))
    if not alphabet:
        raise DfaFormatError("empty alphabet")
    if len(set(alphabet)) != len(alphabet):
        raise DfaFormatError("duplicate symbol in alphabet")
    state_names = header(1, "states")
    if not state_names:
        raise DfaFormatError("no states declared")
    if len(set(state_names)) != len(state_names):
        raise DfaFormatError("duplicate state name")
    initial_toks = header(2, "initial")
    if len(initial_toks) != 1:
        raise DfaFormatError("initial: expects exactly one state")
    final_toks = header(3, "final")

    sidx = {name: i for i, name in enumerate(state_names)}
    aidx = {a: i for i, a in enumerate(alphabet)}
    if initial_toks[0] not in sidx:
        raise DfaFormatError(f"unknown state {initial_toks[0]!r}")
    for f in final_toks:
        if f not in sidx:
            raise DfaFormatError(f"unknown state {f!r}")

    n = len(state_names)
    table: list[list[int | None]] = [[None] * len(alphabet) for _ in range(n)]
    for line in lines[4:]:
        toks = line.split()
        if len(toks) != 3:
            raise DfaFormatError(f"malformed transition line: {line!r}")
        src, sym, dst = toks
        if src not in sidx or dst not in sidx:
            raise DfaFormatError(f"unknown state in transition: {line!r}")
        if sym not in aidx:
            raise DfaFormatError(f"unknown symbol in transition: {line!r}")
        if table[sidx[src]][aidx[sym]] is not None:
            raise DfaFormatError(f"duplicate transition: {src} {sym}")
        table[sidx[src]][aidx[sym]] = sidx[dst]

    if any(t is None for row in table for t in row):
        sink = n
        table.append([sink] * len(alphabet))
        for row in table:
            for a in range(len(alphabet)):
                if row[a] is None:
                    row[a] = sink
        n += 1
    delta = tuple(tuple(row) for row in table)
    finals = frozenset(sidx[f] for f in final_toks)
    return Dfa(alphabet, delta, sidx[initial_toks[0]], finals)


def all_words(alphabet, max_len: int) -> list[str]:
    """All words over the alphabet up to length max_len.

    Order: by length, then lexicographically in alphabet order.  Each
    length's list extends the one before by every letter.
    """
    alphabet = tuple(alphabet)
    out, level = [""], [""]
    for _ in range(max_len):
        level = [w + a for w in level for a in alphabet]
        out += level
    return out
