"""Rankers, condensed evaluation, and the word relations they induce.

A ranker is a nonempty sequence of instructions Xa ("go to the next
a-position") and Ya ("go to the previous a-position"), executed left to
right on a word.  Positions are 1-based; 0 and len+1 act as virtual
boundary positions for the first instruction.  A ranker either defines a
unique position or is undefined.

A ranker is *condensed* on a word when its execution zooms monotonically
inward: maintaining an open interval that starts at (0, len+1), every
instruction must land strictly inside the current interval, and the landed
position replaces the left endpoint when the next instruction moves right,
or the right endpoint when it moves left.  The interval-chain recurrence
implemented in ``is_condensed`` is normative; ``is_condensed_no_overrun``
is an independent simulation (fail when a move lands on or passes a
previously visited position) kept as a testing oracle.

Word relations:

* ``rel_right(u, v, m, n)``: the same rankers among the X-starting ones of
  depth <= n with <= m blocks, plus the Y-starting ones of depth <= n-1
  with <= m-1 blocks, are condensed on u and on v.
* ``rel_left``: the mirror image.
* ``equiv_wi(u, v, m, n)``: the same rankers of depth <= n and <= m blocks
  are defined on both, and four families of ranker pairs induce identical
  order types on both words.

``RankerTable`` vectorizes evaluation of a whole ranker class over a fixed
word list and exposes the induced partitions, which the brute-force oracles
(morphism refinement, factorization compatibility, subword invariance) are
built on.  Signature computation per word is independent; everything here
is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .monoid import FiniteMonoid

X = "X"
Y = "Y"


class RankerSyntaxError(ValueError):
    """Malformed ranker text."""


class RankerBudgetError(ValueError):
    """Word or ranker enumeration exceeds the configured budget."""


@dataclass(frozen=True)
class Ranker:
    """Instruction sequence; each step is (direction, letter)."""

    steps: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("rankers are nonempty")
        for d, a in self.steps:
            if d not in (X, Y):
                raise ValueError(f"bad direction {d!r}")

    @property
    def depth(self) -> int:
        return len(self.steps)

    @property
    def blocks(self) -> int:
        b = 1
        for i in range(1, len(self.steps)):
            if self.steps[i][0] != self.steps[i - 1][0]:
                b += 1
        return b

    @property
    def start(self) -> str:
        return self.steps[0][0]

    def __str__(self):
        return " ".join(d + a for d, a in self.steps)


def parse_ranker(text: str, alphabet=None) -> Ranker:
    """Parse whitespace-separated tokens like ``Xa Yb Xc``."""
    toks = text.split()
    if not toks:
        raise RankerSyntaxError("empty ranker")
    steps = []
    for t in toks:
        if len(t) < 2 or t[0] not in (X, Y):
            raise RankerSyntaxError(f"bad ranker token {t!r}")
        letter = t[1:]
        if alphabet is not None and letter not in alphabet:
            raise RankerSyntaxError(f"letter {letter!r} outside alphabet")
        steps.append((t[0], letter))
    return Ranker(tuple(steps))


# ---------------------------------------------------------------------------
# Scalar evaluation
# ---------------------------------------------------------------------------

def next_pos(u: str, a: str, x: int) -> int | None:
    """min{y : y > x and u[y] == a}, with 1-based positions; None if empty."""
    for i in range(max(x + 1, 1), len(u) + 1):
        if u[i - 1] == a:
            return i
    return None


def prev_pos(u: str, a: str, x: int) -> int | None:
    """max{y : y < x and u[y] == a}; None if empty."""
    for i in range(min(x - 1, len(u)), 0, -1):
        if u[i - 1] == a:
            return i
    return None


def ranker_positions(r: Ranker, u: str) -> list[int | None]:
    """The threaded position after each instruction (None once undefined)."""
    out = []
    pos: int | None = None
    for i, (d, a) in enumerate(r.steps):
        if i == 0:
            pos = next_pos(u, a, 0) if d == X else prev_pos(u, a, len(u) + 1)
        elif pos is not None:
            pos = next_pos(u, a, pos) if d == X else prev_pos(u, a, pos)
        out.append(pos)
    return out


def eval_ranker(r: Ranker, u: str) -> int | None:
    """The position defined by the ranker, or None when undefined."""
    return ranker_positions(r, u)[-1]


def is_condensed(r: Ranker, u: str) -> bool:
    """Interval-chain condensedness (normative).

    Each instruction is evaluated from the interval endpoint it moves away
    from; the landed position must fall strictly inside the current open
    interval, and becomes the new left endpoint when the next instruction
    moves right, the new right endpoint when it moves left.  Proper nesting
    of the chain and strict membership in the final interval are exactly
    these per-step strict-inside conditions.
    """
    lo, hi = 0, len(u) + 1
    steps = r.steps
    for i, (d, a) in enumerate(steps):
        p = next_pos(u, a, lo) if d == X else prev_pos(u, a, hi)
        if p is None or not (lo < p < hi):
            return False
        if i + 1 < len(steps):
            if steps[i + 1][0] == X:
                lo = p
            else:
                hi = p
    return True


def is_condensed_no_overrun(r: Ranker, u: str) -> bool:
    """Secondary semantics: no move may land on or pass a visited position."""
    trace = ranker_positions(r, u)
    if trace[-1] is None:
        return False
    cur = 0 if r.steps[0][0] == X else len(u) + 1
    visited: list[int] = []
    for p, (d, _a) in zip(trace, r.steps):
        for v in visited:
            if d == X and cur < v <= p:
                return False
            if d == Y and p <= v < cur:
                return False
        visited.append(p)
        cur = p
    return True


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _instruction_order(alphabet) -> list[tuple[str, str]]:
    return [(X, a) for a in alphabet] + [(Y, a) for a in alphabet]


def enumerate_rankers(alphabet, m: int, n: int, start: str = "either") -> list[Ranker]:
    """All rankers with depth <= n and <= m blocks, optionally filtered by the
    starting direction.  Order: depth-major, then lexicographic with X
    before Y and letters in alphabet order."""
    if m < 1 or n < 1:
        return []
    if start not in (X, Y, "either"):
        raise ValueError("start must be 'X', 'Y' or 'either'")
    instr = _instruction_order(alphabet)
    out: list[Ranker] = []
    level: list[tuple[tuple, str, int]] = []  # (steps, last_dir, blocks)
    for d, a in instr:
        if start in (d, "either"):
            level.append((((d, a),), d, 1))
    out.extend(Ranker(s) for s, _, _ in level)
    for _depth in range(2, n + 1):
        nxt = []
        for steps, last, blocks in level:
            for d, a in instr:
                b = blocks + (d != last)
                if b <= m:
                    nxt.append((steps + ((d, a),), d, b))
        out.extend(Ranker(s) for s, _, _ in nxt)
        level = nxt
    return out


# ---------------------------------------------------------------------------
# Word relations (direct definitions)
# ---------------------------------------------------------------------------

def _infer_alphabet(u: str, v: str, alphabet):
    if alphabet is not None:
        return tuple(alphabet)
    # rankers over letters absent from both words are never defined on
    # either, so inferring the joint alphabet is sound
    return tuple(sorted(set(u) | set(v)))


def rel_right(u: str, v: str, m: int, n: int, alphabet=None) -> bool:
    """Same condensed rankers among X-start (m, n) and Y-start (m-1, n-1)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    alpha = _infer_alphabet(u, v, alphabet)
    rankers = enumerate_rankers(alpha, m, n, X) + enumerate_rankers(alpha, m - 1, n - 1, Y)
    return all(is_condensed(r, u) == is_condensed(r, v) for r in rankers)


def rel_left(u: str, v: str, m: int, n: int, alphabet=None) -> bool:
    """Same condensed rankers among Y-start (m, n) and X-start (m-1, n-1)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    alpha = _infer_alphabet(u, v, alphabet)
    rankers = enumerate_rankers(alpha, m, n, Y) + enumerate_rankers(alpha, m - 1, n - 1, X)
    return all(is_condensed(r, u) == is_condensed(r, v) for r in rankers)


def _ord(i: int, j: int) -> int:
    return (i > j) - (i < j)


def equiv_wi(u: str, v: str, m: int, n: int, alphabet=None) -> bool:
    """Ranker equivalence: same defined rankers of depth <= n with <= m
    blocks, and equal order types for the four comparison families."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    alpha = _infer_alphabet(u, v, alphabet)
    rankers = enumerate_rankers(alpha, m, n, "either")
    pu = {r: eval_ranker(r, u) for r in rankers}
    pv = {r: eval_ranker(r, v) for r in rankers}
    for r in rankers:
        if (pu[r] is None) != (pv[r] is None):
            return False
    x_mn = [r for r in rankers if r.start == X]
    y_mn = [r for r in rankers if r.start == Y]
    families = (
        (x_mn, [s for s in y_mn if s.depth <= n - 1]),
        (y_mn, [s for s in x_mn if s.depth <= n - 1]),
        (x_mn, [s for s in x_mn if s.depth <= n - 1 and s.blocks <= m - 1]),
        (y_mn, [s for s in y_mn if s.depth <= n - 1 and s.blocks <= m - 1]),
    )
    for rs, ss in families:
        for r in rs:
            ru, rv = pu[r], pv[r]
            if ru is None:
                continue
            for s in ss:
                su, sv = pu[s], pv[s]
                if su is None:
                    continue
                if _ord(ru, su) != _ord(rv, sv):
                    return False
    return True


# ---------------------------------------------------------------------------
# Vectorized evaluation over a fixed word list
# ---------------------------------------------------------------------------

class RankerTable:
    """Positions and condensedness of every ranker in a class over a word list.

    Built once per (alphabet, max_blocks, max_depth, words); partitions for
    any smaller (m, n) are derived from the same table and cached.  The
    equivalence partition uses exact signatures: the definedness vector over
    value-profiles plus the order-type matrix restricted to the four
    comparison families, so two words get the same label precisely when the
    direct definition relates them.
    """

    def __init__(self, alphabet, max_blocks: int, max_depth: int, words,
                 max_rankers: int = 2_000_000):
        self.alphabet = tuple(alphabet)
        self.max_blocks = max_blocks
        self.max_depth = max_depth
        self.words = list(words)
        self._windex = {w: i for i, w in enumerate(self.words)}
        if len(self._windex) != len(self.words):
            raise ValueError("duplicate words")
        W = len(self.words)
        maxlen = max((len(w) for w in self.words), default=0)
        lens = np.array([len(w) for w in self.words], dtype=np.int16)
        # next/previous occurrence tables per letter, indexed by position 0..maxlen+1
        nxt = {}
        prv = {}
        for a in self.alphabet:
            na = np.zeros((W, maxlen + 2), dtype=np.int16)
            pa = np.zeros((W, maxlen + 2), dtype=np.int16)
            for j, w in enumerate(self.words):
                last = 0
                for x in range(len(w), 0, -1):
                    if w[x - 1] == a:
                        last = x
                    na[j, x - 1] = last
                first = 0
                for x in range(1, len(w) + 1):
                    pa[j, x] = first  # strictly before x
                    if w[x - 1] == a:
                        first = x
                pa[j, len(w) + 1:] = first
            nxt[a] = na
            prv[a] = pa
        arW = np.arange(W)

        steps_list: list[tuple[tuple[str, str], ...]] = []
        start_l: list[int] = []
        depth_l: list[int] = []
        blocks_l: list[int] = []
        values_rows: list[np.ndarray] = []
        cond_rows: list[np.ndarray] = []

        instr = _instruction_order(self.alphabet)
        level = []
        zero = np.zeros(W, dtype=np.int16)
        top = (lens + 1).astype(np.int16)
        for d, a in instr:
            if d == X:
                p = nxt[a][arW, 0]
            else:
                p = prv[a][arW, top]
            defined = p != 0
            alive = defined.copy()
            node = (((d, a),), d, 1, p, zero, top, alive, defined)
            level.append(node)
        self._emit(level, steps_list, start_l, depth_l, blocks_l, values_rows, cond_rows)
        for _depth in range(2, max_depth + 1):
            nxt_level = []
            for steps, last, blocks, p, lo, hi, alive, defined in level:
                for d, a in instr:
                    b = blocks + (d != last)
                    if b > max_blocks:
                        continue
                    if len(steps_list) + len(nxt_level) >= max_rankers:
                        raise RankerBudgetError("ranker enumeration exceeds budget")
                    if d == X:
                        clo, chi = p, hi
                        q = nxt[a][arW, p]
                    else:
                        clo, chi = lo, p
                        q = prv[a][arW, p]
                    q = np.where(defined, q, 0).astype(np.int16)
                    cdef = defined & (q != 0)
                    calive = alive & cdef & (clo < q) & (q < chi)
                    nxt_level.append((steps + ((d, a),), d, b, q, clo, chi, calive, cdef))
            self._emit(nxt_level, steps_list, start_l, depth_l, blocks_l, values_rows, cond_rows)
            level = nxt_level

        self.rankers = [Ranker(s) for s in steps_list]
        self.start = np.array(start_l, dtype=np.int8)       # 0 = X, 1 = Y
        self.depth = np.array(depth_l, dtype=np.int16)
        self.blocks = np.array(blocks_l, dtype=np.int16)
        self.values = (np.vstack(values_rows) if values_rows
                       else np.zeros((0, W), dtype=np.int16))
        self.condensed = (np.vstack(cond_rows) if cond_rows
                          else np.zeros((0, W), dtype=bool))
        self._equiv_cache: dict[tuple[int, int], np.ndarray] = {}
        self._right_cache: dict[tuple[int, int], np.ndarray] = {}
        self._left_cache: dict[tuple[int, int], np.ndarray] = {}

    @staticmethod
    def _emit(level, steps_list, start_l, depth_l, blocks_l, values_rows, cond_rows):
        for steps, d, b, p, _lo, _hi, alive, _defined in level:
            steps_list.append(steps)
            start_l.append(0 if steps[0][0] == X else 1)
            depth_l.append(len(steps))
            blocks_l.append(b)
            values_rows.append(p)
            cond_rows.append(alive)

    def word_index(self, w: str) -> int:
        return self._windex[w]

    def _class_mask(self, start: str | None, m: int, n: int) -> np.ndarray:
        if m < 1 or n < 1:
            return np.zeros(len(self.rankers), dtype=bool)
        if m > self.max_blocks or n > self.max_depth:
            raise ValueError("requested class exceeds the table bounds")
        mask = (self.depth <= n) & (self.blocks <= m)
        if start == X:
            mask &= self.start == 0
        elif start == Y:
            mask &= self.start == 1
        return mask

    @staticmethod
    def _labels_from_keys(keys) -> np.ndarray:
        lab: dict = {}
        out = np.empty(len(keys), dtype=np.int32)
        for i, k in enumerate(keys):
            out[i] = lab.setdefault(k, len(lab))
        return out

    def partition_right(self, m: int, n: int) -> np.ndarray:
        """Label words by which rankers of the right-relation class are condensed."""
        key = (m, n)
        if key not in self._right_cache:
            mask = self._class_mask(X, m, n) | self._class_mask(Y, m - 1, n - 1)
            C = self.condensed[mask]
            packed = np.packbits(C, axis=0)
            keys = [packed[:, j].tobytes() for j in range(C.shape[1])]
            self._right_cache[key] = self._labels_from_keys(keys)
        return self._right_cache[key]

    def partition_left(self, m: int, n: int) -> np.ndarray:
        key = (m, n)
        if key not in self._left_cache:
            mask = self._class_mask(Y, m, n) | self._class_mask(X, m - 1, n - 1)
            C = self.condensed[mask]
            packed = np.packbits(C, axis=0)
            keys = [packed[:, j].tobytes() for j in range(C.shape[1])]
            self._left_cache[key] = self._labels_from_keys(keys)
        return self._left_cache[key]

    def partition_equiv(self, m: int, n: int) -> np.ndarray:
        """Label words by their ranker-equivalence signature at (m, n)."""
        key = (m, n)
        if key in self._equiv_cache:
            return self._equiv_cache[key]
        sub = np.nonzero(self._class_mask(None, m, n))[0]
        V = self.values[sub]
        profiles, inv = np.unique(V, axis=0, return_inverse=True)
        P = profiles.shape[0]

        def prof_mask(global_mask: np.ndarray) -> np.ndarray:
            local = global_mask[sub]
            out = np.zeros(P, dtype=bool)
            out[inv[local]] = True
            return out

        is_x = prof_mask(self._class_mask(X, m, n))
        is_y = prof_mask(self._class_mask(Y, m, n))
        col_for_x = prof_mask(self._class_mask(Y, m, n - 1)) | prof_mask(self._class_mask(X, m - 1, n - 1))
        col_for_y = prof_mask(self._class_mask(X, m, n - 1)) | prof_mask(self._class_mask(Y, m - 1, n - 1))
        pair_mask = (is_x[:, None] & col_for_x[None, :]) | (is_y[:, None] & col_for_y[None, :])

        keys = []
        W = len(self.words)
        for j in range(W):
            vals = profiles[:, j].astype(np.int16)
            defined = vals > 0
            sign = np.sign(vals[:, None] - vals[None, :]).astype(np.int8)
            keep = pair_mask & defined[:, None] & defined[None, :]
            sign[~keep] = 2  # sentinel for "comparison not in force"
            keys.append(defined.tobytes() + sign.tobytes())
        labels = self._labels_from_keys(keys)
        self._equiv_cache[key] = labels
        return labels


# ---------------------------------------------------------------------------
# Morphism refinement oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleOutcome:
    holds: bool
    counterexample: tuple[str, str] | None
    num_classes: int


def oracle_equiv_refines_morphism(monoid: FiniteMonoid, m: int, n: int, max_len: int,
                                  table: RankerTable | None = None,
                                  max_words: int = 2_000_000) -> OracleOutcome:
    """Check that ranker equivalence at (m, n) refines the word morphism.

    Enumerates all words up to max_len over the generator alphabet,
    partitions them by ranker-equivalence signature, and verifies the
    morphism image is constant on every class.  The first violating pair
    (in word enumeration order) is returned as a counterexample.
    """
    if monoid.gens is None:
        raise ValueError("oracle needs a monoid with a generator map")
    alphabet = tuple(monoid.gens)
    total = sum(len(alphabet) ** k for k in range(max_len + 1))
    if total > max_words:
        raise RankerBudgetError(f"{total} words exceed the budget of {max_words}")
    if table is None:
        from .automata import all_words
        table = RankerTable(alphabet, m, n, all_words(alphabet, max_len))
    labels = table.partition_equiv(m, n)
    images = [monoid.eval_word(w) for w in table.words]
    first_word: dict[int, int] = {}
    for j in range(len(table.words)):
        lab = int(labels[j])
        if lab not in first_word:
            first_word[lab] = j
        elif images[j] != images[first_word[lab]]:
            return OracleOutcome(False, (table.words[first_word[lab]], table.words[j]),
                                 int(labels.max()) + 1)
    return OracleOutcome(True, None, int(labels.max()) + 1)


def least_oracle_n(monoid: FiniteMonoid, m: int, max_n: int, max_len: int,
                   table: RankerTable | None = None) -> tuple[int | None, OracleOutcome]:
    """Smallest n <= max_n making the refinement oracle pass, with the last outcome."""
    if table is None:
        from .automata import all_words
        alphabet = tuple(monoid.gens)
        table = RankerTable(alphabet, m, max_n, all_words(alphabet, max_len))
    outcome = None
    for n in range(1, max_n + 1):
        outcome = oracle_equiv_refines_morphism(monoid, m, n, max_len, table=table)
        if outcome.holds:
            return n, outcome
    return None, outcome


def oracle_right_refines_morphism(monoid: FiniteMonoid, m: int, n: int, max_len: int,
                                  table: RankerTable | None = None) -> OracleOutcome:
    """Same refinement check for the right relation (condensed X-side rankers)."""
    if monoid.gens is None:
        raise ValueError("oracle needs a monoid with a generator map")
    alphabet = tuple(monoid.gens)
    if table is None:
        from .automata import all_words
        table = RankerTable(alphabet, m, n, all_words(alphabet, max_len))
    labels = table.partition_right(m, n)
    images = [monoid.eval_word(w) for w in table.words]
    first_word: dict[int, int] = {}
    for j in range(len(table.words)):
        lab = int(labels[j])
        if lab not in first_word:
            first_word[lab] = j
        elif images[j] != images[first_word[lab]]:
            return OracleOutcome(False, (table.words[first_word[lab]], table.words[j]),
                                 int(labels.max()) + 1)
    return OracleOutcome(True, None, int(labels.max()) + 1)


# ---------------------------------------------------------------------------
# Greens-driven word factorizations
# ---------------------------------------------------------------------------

def r_factorize(monoid: FiniteMonoid, u: str) -> tuple[list[str], list[str]]:
    """Split u = s1 a1 s2 a2 ... ak s_{k+1} along strict drops in the R-order.

    Reading left to right, a letter that keeps the image of the prefix in
    the same R-class extends the current segment; a letter that drops the
    R-class becomes the next marker a_i.  Returns (segments, markers) with
    len(segments) == len(markers) + 1.
    """
    if monoid.gens is None:
        raise ValueError("factorization needs a monoid with a generator map")
    rcls = monoid.greens().r_class
    segments: list[str] = []
    markers: list[str] = []
    cur = monoid.identity
    seg: list[str] = []
    for ch in u:
        nxt = monoid.mul(cur, monoid.eval_word(ch))
        if rcls[nxt] == rcls[cur]:
            seg.append(ch)
        else:
            segments.append("".join(seg))
            markers.append(ch)
            seg = []
        cur = nxt
    segments.append("".join(seg))
    return segments, markers


def l_factorize(monoid: FiniteMonoid, u: str) -> tuple[list[str], list[str]]:
    """Right-to-left dual of ``r_factorize``, along strict drops in the L-order.

    Returns (segments, markers) with u = segments[0] markers[0] segments[1]
    ... markers[k-1] segments[k]; the last segment keeps the L-class of the
    identity.
    """
    if monoid.gens is None:
        raise ValueError("factorization needs a monoid with a generator map")
    lcls = monoid.greens().l_class
    segments_rev: list[str] = []
    markers_rev: list[str] = []
    cur = monoid.identity
    seg: list[str] = []
    for ch in reversed(u):
        nxt = monoid.mul(monoid.eval_word(ch), cur)
        if lcls[nxt] == lcls[cur]:
            seg.append(ch)
        else:
            segments_rev.append("".join(reversed(seg)))
            markers_rev.append(ch)
            seg = []
        cur = nxt
    segments_rev.append("".join(reversed(seg)))
    return list(reversed(segments_rev)), list(reversed(markers_rev))


# ---------------------------------------------------------------------------
# Word combinatorics helpers used by the property suites
# ---------------------------------------------------------------------------

def left_factorization(u: str, a: str) -> tuple[str, str] | None:
    """u = u_minus a u_plus at the first a-position, or None if a is absent."""
    i = u.find(a)
    if i < 0:
        return None
    return u[:i], u[i + 1:]


def right_factorization(u: str, a: str) -> tuple[str, str] | None:
    """u = u_minus a u_plus at the last a-position, or None if a is absent."""
    i = u.rfind(a)
    if i < 0:
        return None
    return u[:i], u[i + 1:]


def subwords_upto(u: str, n: int) -> frozenset[str]:
    """All scattered subwords of u of length 1..n."""
    out = {""}
    for ch in u:
        out |= {w + ch for w in out if len(w) < n}
    out.discard("")
    return frozenset(out)
