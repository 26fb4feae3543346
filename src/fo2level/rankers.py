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

``RankerTable`` vectorizes evaluation of a whole ranker class over a fixed
word list and exposes the partitions of the word relations the rankers
induce:

* the right relation at (m, n): the same rankers among the X-starting ones
  of depth <= n with <= m blocks, plus the Y-starting ones of depth <= n-1
  with <= m-1 blocks, are condensed on both words; the left relation is the
  mirror image;
* ranker equivalence at (m, n): the same rankers of depth <= n and <= m
  blocks are defined on both words, and four families of ranker pairs
  induce identical order types on both.

The brute-force oracles (morphism refinement, factorization compatibility,
subword invariance) are built on these partitions.  Signature computation
per word is independent; everything here is pure.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass

import numpy as np

from .automata import all_words
from .monoid import FiniteMonoid, _first_seen_labels, _physical_memory

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
# Vectorized evaluation over a fixed word list
# ---------------------------------------------------------------------------

def _ranker_count(k: int, m: int, n: int, max_rankers: int) -> int:
    """Number of rankers over k letters of depth <= n with <= m blocks;
    RankerBudgetError when they are more than max_rankers.

    Counted in closed form, depth by depth: ``ends[b]`` is the number of
    rankers of the current depth with b blocks whose last instruction has a
    given direction (the same for X and Y by mirror symmetry).  A further
    instruction either keeps that direction or opens a block in the other.
    """
    if m < 1 or n < 1 or k < 1:
        return 0
    ends = [0, k]
    total = 0
    for depth in range(1, n + 1):
        if depth > 1:
            grown = ends + [0] if len(ends) <= m else ends  # one block more than before
            ends = [0] + [k * (grown[b] + grown[b - 1]) for b in range(1, len(grown))]
        total += 2 * sum(ends)
        if total > max_rankers:
            raise RankerBudgetError(
                f"more than {max_rankers} rankers of depth <= {n} with <= {m} blocks")
    return total


def _check_fits(need: int, what: str) -> None:
    """Refuse an allocation of need bytes larger than the memory available."""
    have = _physical_memory()
    if have is not None and need > have:
        raise RankerBudgetError(f"{what} need {need / 2**30:.1f} GiB "
                                f"but {have / 2**30:.1f} GiB is available")


def _letter_codes(words: list[str]) -> np.ndarray:
    """Code point of every letter as a words x max-length matrix, padded
    with -1 (no letter); a letter outside any alphabet keeps its code."""
    lens = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    maxlen = int(lens.max(initial=0))
    codes = np.full((len(words), maxlen), -1, dtype=np.int32)
    codes[np.arange(maxlen) < lens[:, None]] = np.frombuffer(
        "".join(words).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    return codes


def _accumulate_rows(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.accumulate(a, axis=0)`` in place, one whole row per step.

    numpy's own accumulate runs its inner loop along the accumulated axis,
    one short loop per column, which is several times slower when the rows
    are few and long.
    """
    for x in range(1, len(a)):
        ufunc(a[x - 1], a[x], out=a[x])
    return a


# positions, and len + 1 for the Y-instructions' start, are int16
_MAX_WORD_LEN = 32_766


def _word_table_bytes(k: int, count: int, letters: int, maxlen: int) -> int:
    """Bytes a table over count words (letters in all, the longest maxlen
    letters) holds besides its ranker rows, counted before any word exists.

    That is the words (as str objects, list and index entries, and as the
    UTF-32 buffer ``_letter_codes`` reads) and, per cell of the words x (maxlen + 2) grid,
    the int32 letter matrix (built again for the word images), the 2k
    int16 occurrence tables and the temporaries that fill them.  Words
    longer than int16 positions allow are refused outright.
    """
    if maxlen > _MAX_WORD_LEN:
        raise RankerBudgetError(f"words longer than {_MAX_WORD_LEN} letters")
    return 200 * count + 9 * letters + (12 + 4 * k) * count * (maxlen + 2)


class RankerTable:
    """Positions and condensedness of every ranker in a class over a word list.

    Built once per (alphabet, max_blocks, max_depth, words); partitions for
    any smaller (m, n) are derived from the same table and cached.  The class
    size is counted in closed form and checked against ``max_rankers``, and
    the full table's size (3 bytes per ranker and word: int16 ``values``,
    bool ``condensed``) against the memory available, at ``max_depth`` and
    before any row is allocated.

    The constructor enumerates the class as arrays (each ranker's start,
    depth, blocks, parent and last instruction, at O(rankers) with no
    factor for the word count; the ``Ranker`` objects are built on first
    read of ``rankers``) and the next/previous-occurrence tables, from
    running minima and maxima over a words x length letter matrix.  The
    words' letter and occurrence tables are checked against physical
    memory with the rows, and words longer than int16 positions allow are
    refused.
    The word rows are filled on demand, one depth at a time, each depth
    one gather over all its rankers and words from the depth before, and
    appended depth-major: a partition at depth n fills and reads only the
    rows of depths <= n, and ``filled_depth`` says how deep the table is
    filled.  Reading ``values`` or ``condensed`` fills every depth.

    The equivalence partition uses exact signatures: per word, the
    definedness bits of the distinct ranker value rows and their compressed
    ranks among the values the four comparison families compare them with
    (see ``partition_equiv``).  Two words get the same label precisely when
    the direct definition relates them.
    """

    def __init__(self, alphabet, max_blocks: int, max_depth: int, words,
                 max_rankers: int = 2_000_000):
        self.alphabet = tuple(alphabet)
        self.max_blocks = max_blocks
        self.max_depth = max_depth
        self.words = list(words)
        if len(set(self.words)) != len(self.words):
            raise ValueError("duplicate words")
        total = _ranker_count(len(self.alphabet), max_blocks, max_depth, max_rankers)
        W, k = len(self.words), len(self.alphabet)
        lens = list(map(len, self.words))
        maxlen = max(lens, default=0)
        _check_fits(3 * total * W + _word_table_bytes(k, W, sum(lens), maxlen),
                    f"{total} rankers x {W} words up to length {maxlen}")
        codes = _letter_codes(self.words)
        self._maxlen = maxlen
        # occ[t][j, x] for x in 0..maxlen+1: for instruction t = (X, a) the first
        # a-position of word j after x, for t = (Y, a) the last one before x;
        # 0 when there is none
        pos = np.arange(1, maxlen + 1, dtype=np.int16)
        occ = np.zeros((2 * k, W, maxlen + 2), dtype=np.int16)
        for i, a in enumerate(self.alphabet):
            hit = codes == (ord(a) if len(a) == 1 else -2)  # -2 matches no position
            after = np.minimum.accumulate(np.where(hit, pos, maxlen + 1)[:, ::-1], axis=1)[:, ::-1]
            occ[i, :, :maxlen] = np.where(after > maxlen, 0, after)
            occ[k + i, :, 2:] = np.maximum.accumulate(np.where(hit, pos, 0), axis=1)

        # The frontier keeps, per ranker of the last filled depth and word, the
        # position p (0 when undefined), the open interval (lo, hi) it was
        # reached in, and whether the run is condensed ("alive") so far.
        top = (codes >= 0).sum(axis=1, dtype=np.int16) + np.int16(1)
        p = np.concatenate([occ[:k, :, 0], occ[k:, np.arange(W), top]])
        self._frontier = (p, np.zeros_like(p), np.broadcast_to(top, p.shape), p != 0)
        occ[:, :, 0] = 0  # past depth 1, position 0 means undefined and stays so
        self._occ = occ

        # The class structure, depth by depth: every ranker extended by every
        # instruction within max_blocks, ranker-major and in instruction order.
        # _growth[d - 2] holds, per ranker of depth d, its parent's index
        # within depth d - 1 and its last instruction.
        count = 2 * k
        is_y = np.arange(2 * k) >= k
        start = is_y
        blocks = np.ones(2 * k, dtype=np.int16)
        start_l, depth_l, blocks_l = [], [], []
        self._growth: list[tuple[np.ndarray, np.ndarray]] = []
        self._ends = [0]  # _ends[d]: rows of depth <= d
        for depth in range(1, max_depth + 1 if total else 1):
            if depth > 1:
                parent = np.repeat(np.arange(count), 2 * k)
                t = np.tile(np.arange(2 * k), count)
                child_y = t >= k
                child_blocks = blocks[parent] + (child_y != is_y[parent])
                keep = child_blocks <= max_blocks
                parent, t, is_y, blocks = parent[keep], t[keep], child_y[keep], child_blocks[keep]
                start = start[parent]
                count = len(parent)
                self._growth.append((parent, t))
            start_l.append(start)
            blocks_l.append(blocks)
            depth_l.append(np.full(count, depth, dtype=np.int16))
            self._ends.append(self._ends[-1] + count)

        self.start = np.concatenate(start_l or [[]]).astype(np.int8)   # 0 = X, 1 = Y
        self.depth = np.concatenate(depth_l or [[]]).astype(np.int16)
        self.blocks = np.concatenate(blocks_l or [[]]).astype(np.int16)
        self._rankers: list[Ranker] | None = None
        self._values = np.empty((0, W), dtype=np.int16)
        self._condensed = np.empty((0, W), dtype=bool)
        self.filled_depth = 0
        self._fill_lock = threading.Lock()
        self._partitions: dict[tuple[str, int, int], np.ndarray] = {}

    def _fill(self, n: int) -> int:
        """Fill the rows of every depth up to n; returns their count.  The
        lock keeps concurrent readers from appending a depth twice."""
        n = min(n, len(self._ends) - 1)
        rows = max(1, (1 << 17) // max(len(self.words), 1))  # bounds the flat-index temporary
        with self._fill_lock:
            while self.filled_depth < n:
                depth = self.filled_depth + 1
                p, lo, hi, alive = self._frontier
                if depth > 1:
                    parent, t = self._growth[depth - 2]
                    is_y = t >= len(self.alphabet)
                    pp = p[parent]
                    # X moves right from p inside (p, hi), Y left from p inside (lo, p)
                    occ = self._occ
                    occ_row = np.arange(occ.shape[0] * occ.shape[1]).reshape(occ.shape[:2]) * occ.shape[2]
                    p = np.empty_like(pp)
                    for r in range(0, len(p), rows):
                        p[r:r + rows] = np.take(occ, occ_row[t[r:r + rows]] + pp[r:r + rows])
                    lo = np.where(is_y[:, None], lo[parent], pp)
                    hi = np.where(is_y[:, None], pp, hi[parent])
                    alive = alive[parent] & (lo < p) & (p < hi)
                self._values = np.concatenate([self._values, p])
                self._condensed = np.concatenate([self._condensed, alive])
                self.filled_depth = depth
                if depth < len(self._ends) - 1:
                    self._frontier = (p, lo, hi, alive)
                else:  # complete: the inputs of further depths are no longer needed
                    self._frontier = self._occ = None
        return self._ends[n]

    def restricted(self, keep: np.ndarray) -> RankerTable:
        """The table over the words at the increasing indices keep, filled as
        deep as this one.

        It shares the class arrays and slices the filled rows, the frontier
        and the occurrence tables, so its deeper depths fill only the kept
        words.  Every partition compares the words two at a time, so each
        partition of the restricted table is this one's restricted to keep,
        up to the numbering of the labels.
        """
        with self._fill_lock:
            sub = copy.copy(self)
            sub._values = self._values[:, keep]
            sub._condensed = self._condensed[:, keep]
            if self._frontier is not None:
                sub._frontier = tuple(a[:, keep] for a in self._frontier)
                sub._occ = self._occ[:, keep]
        sub.words = [self.words[i] for i in keep.tolist()]
        sub._fill_lock = threading.Lock()
        sub._partitions = {}
        return sub

    @property
    def rankers(self) -> list[Ranker]:
        """The class's rankers in row order, built on first read from the
        parent and instruction arrays; reading them fills no row."""
        if self._rankers is None:
            instr = _instruction_order(self.alphabet)
            steps = [(s,) for s in instr] if self._ends[-1] else []
            out = list(steps)
            for parent, t in self._growth:
                steps = [steps[i] + (instr[j],) for i, j in zip(parent.tolist(), t.tolist())]
                out.extend(steps)
            self._rankers = [Ranker(s) for s in out]
        return self._rankers

    @property
    def values(self) -> np.ndarray:
        """Position of each ranker (row) on each word (column), 0 where it is
        undefined; reading it fills every depth."""
        self._fill(self.max_depth)
        return self._values

    @property
    def condensed(self) -> np.ndarray:
        """Whether each ranker (row) is condensed on each word (column);
        reading it fills every depth."""
        self._fill(self.max_depth)
        return self._condensed

    def _class_mask(self, start: str | None, m: int, n: int) -> np.ndarray:
        if m < 1 or n < 1:
            return np.zeros(len(self.depth), dtype=bool)
        if m > self.max_blocks or n > self.max_depth:
            raise ValueError("requested class exceeds the table bounds")
        mask = (self.depth <= n) & (self.blocks <= m)
        if start == X:
            mask &= self.start == 0
        elif start == Y:
            mask &= self.start == 1
        return mask

    def _condensed_labels(self, kind: str, m: int, n: int, mask: np.ndarray) -> np.ndarray:
        key = (kind, m, n)
        if key not in self._partitions:
            end = self._fill(n)
            packed = np.packbits(self._condensed[:end][mask[:end]], axis=0).T
            self._partitions[key] = _first_seen_labels(packed)[0]
        return self._partitions[key]

    def partition_right(self, m: int, n: int) -> np.ndarray:
        """Label words by which rankers of the right-relation class are condensed."""
        mask = self._class_mask(X, m, n) | self._class_mask(Y, m - 1, n - 1)
        return self._condensed_labels("R", m, n, mask)

    def partition_left(self, m: int, n: int) -> np.ndarray:
        """Label words by which rankers of the left-relation class are condensed."""
        mask = self._class_mask(Y, m, n) | self._class_mask(X, m - 1, n - 1)
        return self._condensed_labels("L", m, n, mask)

    def partition_equiv(self, m: int, n: int) -> np.ndarray:
        """Label words by their ranker-equivalence signature at (m, n).

        Rankers with equal value rows are merged into P profiles.  The
        comparison families put in force the profile pairs of two blocks:
        rows X-start (m, n) against columns for X, and rows Y-start (m, n)
        against columns for Y.  In a block a profile is row-only,
        column-only or both, and a pair is in force when one side is a row
        and the other a column.  Per word and block the distinct values of
        the block's profiles are its levels (undefined is 0, below every
        position); a level is pure row-only, pure column-only or mixed.
        Each run of consecutive pure row-only levels, and each run of pure
        column-only ones, is merged into one level, and a profile's
        compressed rank is the index of its level after merging.  A word's
        key is its P definedness bits followed by the compressed ranks of
        the X block and then of the Y block; a block without rows or
        without columns puts no pair in force and adds nothing.

        The key is exact.  A merged level holds no in-force pair, so
        merging loses no sign; any two adjacent levels left after merging
        hold an in-force pair across them, so the signs fix the merged
        order.  Two words therefore have equal keys precisely when they
        agree on definedness and on the sign of every in-force pair, and
        labels are numbered by first appearance in the word list.

        Cost: O(W * (P + max length)) for W words.  The level grids are
        laid out level-major, (max length + 1) levels by a chunk of words,
        so that the running maximum (the type of the previous present
        level) and the running sum of rank increments each take one pass
        along axis 0 for the whole chunk.  A chunk holds about 2**20 value
        and level cells.  Ranks never exceed the number of levels, so they
        take one byte while words are shorter than 255 letters and two
        after.  The keys are checked against the memory available before
        they are allocated.
        """
        key = ("E", m, n)
        if key in self._partitions:
            return self._partitions[key]
        end = self._fill(n)
        sub = self._class_mask(None, m, n)[:end]
        V = self._values[:end][sub]
        plabels, pfirst = _first_seen_labels(V.view(np.uint8))
        profiles = V[pfirst]
        P = profiles.shape[0]

        def prof_mask(global_mask: np.ndarray) -> np.ndarray:
            out = np.zeros(P, dtype=bool)
            out[plabels[global_mask[:end][sub]]] = True
            return out

        is_x = prof_mask(self._class_mask(X, m, n))
        is_y = prof_mask(self._class_mask(Y, m, n))
        col_for_x = prof_mask(self._class_mask(Y, m, n - 1)) | prof_mask(self._class_mask(X, m - 1, n - 1))
        col_for_y = prof_mask(self._class_mask(X, m, n - 1)) | prof_mask(self._class_mask(Y, m - 1, n - 1))
        # per block that puts a pair in force: its row and its column profiles
        blocks = [(np.flatnonzero(rows), np.flatnonzero(cols), np.flatnonzero(rows | cols))
                  for rows, cols in ((is_x, col_for_x), (is_y, col_for_y))
                  if rows.any() and cols.any()]

        W = len(self.words)
        levels = self._maxlen + 1  # values 0 (undefined) .. maxlen
        rank_dtype = np.dtype(np.uint8 if levels <= 255 else np.uint16)  # ranks <= levels
        head = (P + 7) // 8
        width = head + rank_dtype.itemsize * sum(len(members) for *_, members in blocks)
        _check_fits(W * (4 + width), f"signatures of {P} profiles")
        keys = np.empty((W, width), dtype=np.uint8)
        step = max(1, (1 << 20) // (P + levels))
        shift = np.arange(levels, dtype=np.int32)[:, None] * 4
        for lo in range(0, W, step):
            vals = profiles[:, lo:lo + step]
            c, top = vals.shape[1], int(vals.max(initial=0)) + 1  # levels in this chunk
            cells = vals * np.int32(c) + np.arange(c, dtype=np.int32)  # level-major cell of each value
            keys[lo:lo + c, :head] = np.packbits(vals > 0, axis=0).T
            at = head
            for rows, cols, members in blocks:
                row = np.zeros(top * c, dtype=np.uint8)
                col = np.zeros(top * c, dtype=np.uint8)
                row[cells[rows]] = 1
                col[cells[cols]] = 2
                # 0 absent, 1 pure row-only, 2 pure column-only, 3 mixed (a
                # profile of type both marks its level in both grids)
                t = (row | col).reshape(top, c)
                # (level, type) of the last present level so far, 4 * level + type
                last = _accumulate_rows(np.maximum, np.where(t > 0, shift[:top] + t, 0))
                new = t > 0
                new[1:] &= (t[1:] == 3) | (t[1:] != (last[:-1] & 3))
                ranks = _accumulate_rows(np.add, new.astype(rank_dtype)).ravel()[cells[members]]
                span = len(members) * rank_dtype.itemsize
                keys[lo:lo + c, at:at + span] = np.ascontiguousarray(ranks.T).view(np.uint8)
                at += span
        labels = _first_seen_labels(keys)[0]
        self._partitions[key] = labels
        return labels


# ---------------------------------------------------------------------------
# Morphism refinement oracle
# ---------------------------------------------------------------------------

MAX_WORDS = 2_000_000


@dataclass(frozen=True)
class OracleOutcome:
    holds: bool
    counterexample: tuple[str, str] | None
    num_classes: int


def _oracle_table(monoid: FiniteMonoid, m: int, n: int, max_len: int,
                  table: RankerTable | None, max_words: int) -> RankerTable:
    """The given table, or one over all words up to max_len.  The generator
    names must be single letters, the word count is checked against
    max_words, and the word tables against physical memory, before any
    word is enumerated."""
    if monoid.gens is None:
        raise ValueError("oracle needs a monoid with a generator map")
    alphabet = tuple(monoid.gens)
    for a in alphabet:
        if len(a) != 1:
            raise ValueError(f"oracle needs one-letter generator names, not {a!r}")
    total = letters = 0
    term = 1
    for length in range(max_len + 1):
        total += term
        letters += length * term
        if total > max_words:
            raise RankerBudgetError(f"more than {max_words} words up to length {max_len}")
        term *= len(alphabet)
        if not term:
            break
    if table is None:
        longest = max_len if alphabet else 0
        _check_fits(_word_table_bytes(len(alphabet), total, letters, longest),
                    f"tables of {total} words up to length {longest}")
        table = RankerTable(alphabet, m, n, all_words(alphabet, max_len))
    return table


def _word_images(monoid: FiniteMonoid, words: list[str]) -> np.ndarray:
    """Images of all words under the generator morphism (whose names are
    single letters), one letter column at a time; raises like
    ``eval_word`` on the first unknown letter."""
    codes = _letter_codes(words)
    # generator code points, sorted, behind a sentinel that matches no letter
    gens = sorted((ord(a), g) for a, g in monoid.gens.items())
    gen_code = np.array([-2] + [c for c, _ in gens], dtype=np.int32)
    gen_elem = np.array([monoid.identity] + [g for _, g in gens], dtype=np.intp)
    images = np.full(len(words), monoid.identity, dtype=np.intp)
    unknown = np.zeros(len(words), dtype=bool)
    for column in np.ascontiguousarray(codes.T):
        at = np.searchsorted(gen_code, column).clip(max=len(gen_code) - 1)
        known = gen_code[at] == column
        unknown |= ~known & (column >= 0)
        images = monoid.table[images, np.where(known, gen_elem[at], monoid.identity)]  # padding: identity
    if unknown.any():
        word = words[int(np.argmax(unknown))]
        raise ValueError(f"unknown letter {next(a for a in word if a not in monoid.gens)!r}")
    return images


def _violations(labels: np.ndarray, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per word, the index of the first word (in list order) of its label
    class, and whether the two words' images differ."""
    rep = np.unique(labels, return_index=True)[1][labels]
    return rep, images != images[rep]


def _first_violation(labels: np.ndarray, images: np.ndarray, words: list[str]) -> OracleOutcome:
    """Check that the images are constant on every label class.  The first
    word (in list order) whose image differs from that of its class's first
    word is returned with that first word as the counterexample."""
    rep, bad = _violations(labels, images)
    classes = int(labels.max(initial=-1)) + 1
    if bad.any():
        j = int(np.argmax(bad))
        return OracleOutcome(False, (words[rep[j]], words[j]), classes)
    return OracleOutcome(True, None, classes)


def oracle_equiv_refines_morphism(monoid: FiniteMonoid, m: int, n: int, max_len: int,
                                  table: RankerTable | None = None,
                                  max_words: int = MAX_WORDS) -> OracleOutcome:
    """Check that ranker equivalence at (m, n) refines the word morphism.

    Enumerates all words up to max_len over the generator alphabet,
    partitions them by ranker-equivalence signature, and verifies the
    morphism image is constant on every class.  The first violating pair
    (in word enumeration order) is returned as a counterexample.
    """
    table = _oracle_table(monoid, m, n, max_len, table, max_words)
    return _first_violation(table.partition_equiv(m, n),
                            _word_images(monoid, table.words), table.words)


def least_oracle_n(monoid: FiniteMonoid, m: int, max_n: int, max_len: int,
                   table: RankerTable | None = None
                   ) -> tuple[int | None, tuple[str, str] | None]:
    """Smallest n <= max_n making the refinement oracle pass (None when no
    n does), and the counterexample at the last n tried (None when it passes).

    The search refines a partition.  The rankers and comparison families of
    equivalence at (m, n) are among those at (m, n + 1), so each class at
    n + 1 lies in one class at n, and a class whose words share one image
    splits only into such classes.  After a failing n the search keeps the
    words of the classes that mix images, in list order, and goes on with
    the table restricted to them.  The first violating word at n + 1 and
    the first word of its class lie in one class at n that mixes images, so
    both are kept, and the partition of the kept words is the full one
    restricted to them (``RankerTable.restricted``).  So n and the
    counterexample are those of ``oracle_equiv_refines_morphism`` tried at
    n = 1, 2, ..., while the deeper depths fill and partition only the kept
    words.  The given table is read (and filled) at n = 1 only.
    """
    table = _oracle_table(monoid, m, max_n, max_len, table, MAX_WORDS)
    images = _word_images(monoid, table.words)
    counterexample = None
    for n in range(1, max_n + 1):
        labels = table.partition_equiv(m, n)
        rep, bad = _violations(labels, images)
        if not bad.any():
            return n, None
        j = int(np.argmax(bad))
        counterexample = (table.words[rep[j]], table.words[j])
        keep = np.flatnonzero(np.isin(labels, labels[bad]))
        table, images = table.restricted(keep), images[keep]
    return None, counterexample


def oracle_right_refines_morphism(monoid: FiniteMonoid, m: int, n: int, max_len: int,
                                  table: RankerTable | None = None) -> OracleOutcome:
    """Same refinement check for the right relation (condensed X-side rankers)."""
    table = _oracle_table(monoid, m, n, max_len, table, MAX_WORDS)
    return _first_violation(table.partition_right(m, n),
                            _word_images(monoid, table.words), table.words)


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
