"""Rankers, their evaluation, and the ranker-equivalence oracle.

A ranker is a nonempty sequence of instructions Xa ("go to the next
a-position") and Ya ("go to the previous a-position"), executed left to
right on a word.  Positions are 1-based; 0 and len+1 act as virtual
boundary positions for the first instruction.  A ranker either defines a
unique position or is undefined.

A ranker is *condensed* on a word when its execution zooms monotonically
inward: maintaining an open interval that starts at (0, len+1), every
instruction must land strictly inside the current interval, and the landed
position replaces the left endpoint when the next instruction moves right,
or the right endpoint when it moves left.  ``is_condensed`` implements this
interval-chain recurrence for one ranker and word.

``RankerTable`` vectorizes evaluation of a whole ranker class over a fixed
word list and partitions the words by ranker equivalence at (m, n): the
same rankers of depth <= n and <= m blocks are defined on both words, and
four families of ranker pairs induce identical order types on both.  A
partition gives each word the first word of its class.  The
morphism-refinement oracle ``least_oracle_n`` is built on these
partitions.  Signature computation per word is independent; everything
here is pure.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .monoid import FiniteMonoid, _check_fits, _first_equal_rows

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


def parse_ranker(text: str) -> Ranker:
    """Parse whitespace-separated tokens like ``Xa Yb Xc``: a direction and
    one letter each, since words spell one character per letter."""
    toks = text.split()
    if not toks:
        raise RankerSyntaxError("empty ranker")
    steps = []
    for t in toks:
        if len(t) != 2 or t[0] not in (X, Y):
            raise RankerSyntaxError(f"bad ranker token {t!r}")
        steps.append((t[0], t[1]))
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


# ---------------------------------------------------------------------------
# Enumeration and budgets
# ---------------------------------------------------------------------------

MAX_RANKERS = 2_000_000
MAX_WORDS = 2_000_000


def _ranker_count(k: int, m: int, n: int) -> int:
    """Number of rankers over k letters of depth <= n with <= m blocks;
    RankerBudgetError when they are more than ``MAX_RANKERS``.

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
        if total > MAX_RANKERS:
            raise RankerBudgetError(
                f"more than {MAX_RANKERS} rankers of depth <= {n} with <= {m} blocks")
    return total


def _letter_codes(words: list[str], lens: np.ndarray, alphabet: tuple) -> _Words:
    """A word list (of lengths lens) as a letter matrix, max length x words,
    position-major (row x holds letter x + 1 of every word).  A cell holds
    its letter's index among the names, the alphabet and then the words'
    other letters in code-point order, and the padding the index after."""
    text = "".join(words)
    found = sorted(set(text))  # in code-point order
    names = alphabet + tuple(a for a in found if a not in alphabet)
    index = np.array([names.index(a) for a in found], dtype=np.min_scalar_type(len(names)))
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    maxlen = int(lens.max(initial=0))
    letters = np.full((maxlen, len(words)), len(names), dtype=index.dtype)
    letters.T[np.arange(maxlen) < lens[:, None]] = index[np.searchsorted([ord(a) for a in found], codes)]
    return _Words(letters, lens, names)


def _all_word_letters(alphabet: tuple, max_len: int) -> _Words:
    """All words over the alphabet up to max_len, in ``all_words`` order,
    laid out as ``_letter_codes`` lays them out, built with no string: the
    longest words spell their column's digits in base k, and the words of
    each shorter length are every k**(max_len - length)-th of them, cut
    short."""
    k = len(alphabet)
    counts = [k ** length for length in range(max_len + 1)] if k else [1]
    lens = np.repeat(np.arange(len(counts)), counts)
    letters = np.full((len(counts) - 1, len(lens)), k, dtype=np.min_scalar_type(k))
    longest = letters[:, len(lens) - counts[-1]:]
    digits = np.arange(k, dtype=letters.dtype)[:, None]
    for x, row in enumerate(longest):  # a row is contiguous: its reshape is a view
        row.reshape(counts[x], k, -1)[...] = digits
    start = 1
    for length in range(1, len(counts) - 1):
        letters[:length, start:start + counts[length]] = longest[:length, ::counts[-1 - length]]
        start += counts[length]
    return _Words(letters, lens, alphabet)


def _all_words_size(k: int, max_len: int) -> tuple[int, int]:
    """The number of words over k letters up to max_len and of their letters
    in all; RankerBudgetError when the words are more than ``MAX_WORDS``."""
    total = letters = 0
    term = 1
    for length in range(max_len + 1):
        total += term
        letters += length * term
        if total > MAX_WORDS:
            raise RankerBudgetError(f"more than {MAX_WORDS} words up to length {max_len}")
        term *= k
        if not term:
            break
    return total, letters


def _accumulate_rows(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.accumulate(a, axis=0)`` in place, one whole row per step.

    numpy's own accumulate runs its inner loop along the accumulated axis,
    one short loop per column, which is several times slower when the rows
    are few and long.
    """
    rows = list(a)
    for before, row in zip(rows, rows[1:]):
        ufunc(before, row, out=row)
    return a


# roles (bits 0-1 row, column of block X; 2-3 of Y) by 4 * (depth < n) + 2 * start + (blocks < m)
_ROLES = np.array([1, 1, 4, 4, 9, 11, 6, 14], dtype=np.uint8)
_TYPES = np.array([[c & 3, c >> 2] for c in range(16)], dtype=np.uint8)  # a role code's X, Y types
_TYPES16 = _TYPES.view(np.uint16).ravel()
# per role code, the mask of the ranks a profile keeps, for one- and two-byte ranks
_KEEP = [np.where(_TYPES > 0, ~t(0), t(0)).ravel() for t in (np.uint8, np.uint16)]

# positions are unsigned, one byte for words of up to 254 letters and two
# below this bound, and len + 1, the Y-instructions' start, is int16
_MAX_WORD_LEN = 32_766


def _word_table_bytes(k: int, count: int, letters: int, maxlen: int) -> int:
    """Bytes a table over count words (letters in all, the longest maxlen
    letters) holds besides its ranker rows, counted before any word exists.

    An upper bound, the same for every table: the words as strings (str
    objects, list and index entries, which a table over all words never
    builds), the UTF-32 buffer and letter indices
    ``_letter_codes`` encodes a list through, and, per cell of the
    (maxlen + 2) x words grid, the letter matrix (one byte a cell, counted
    as four), the 2k occurrence tables (counted at two bytes a position)
    and temporaries.  Words longer than int16 allows are refused outright.
    """
    if maxlen > _MAX_WORD_LEN:
        raise RankerBudgetError(f"words longer than {_MAX_WORD_LEN} letters")
    return 200 * count + 9 * letters + (12 + 4 * k) * count * (maxlen + 2)


class _Words:
    """A table's words: the letter matrix, the word lengths, the letter
    names and the words' columns in the matrix; ``word(i)`` decodes one."""

    def __init__(self, letters: np.ndarray, lens: np.ndarray, names: tuple, cols=None):
        self.letters, self.lens, self.names = letters, lens, names
        self.cols = np.arange(len(lens)) if cols is None else cols

    def word(self, i) -> str:
        col = self.cols[i]
        return "".join(map(self.names.__getitem__, self.letters[:self.lens[col], col].tolist()))

    def __len__(self):
        return len(self.cols)


class RankerTable:
    """Positions of every ranker in a class over a word list.

    Built once per (alphabet, max_blocks, max_depth, words); partitions for
    any smaller (m, n) are derived from the same table and cached.  The
    constructor is the ranker layer's one budget gate, and checks before it
    builds any word or row: an int max_len's word count against
    ``MAX_WORDS``, the class size, counted in closed form, against
    ``MAX_RANKERS``, and the full table (3 bytes per ranker and word at
    ``max_depth``, which covers positions of at most two bytes) with the
    letter and occurrence tables against the memory available; words
    longer than int16 allows are refused.

    The constructor enumerates the class as arrays, depth by depth (each
    ranker's start, blocks, parent and last instruction, at O(rankers); the
    ``Ranker`` objects are built on first read of ``rankers``).  words is a
    list of distinct words, or an int max_len for all words over the
    one-character letters up to that length in ``all_words`` order; either
    way the table holds them as one letter matrix, position-major
    (positions x words), and decodes a word only when it is asked for
    (``_Words.word``).  The next/previous-occurrence tables are laid out the
    same way, (max length + 2) x words per instruction, and filled by
    running minima and maxima along the position axis, in one byte a
    position for words of up to 254 letters, else two.  The word rows,
    the positions, are filled on demand one depth at a time and kept as
    one block per depth (``filled_depth`` says how deep), each depth one
    gather from the positions of the depth before.  A partition at depth
    n fills and reads only depths <= n.

    The equivalence partition uses exact signatures, the compressed ranks of
    the distinct ranker value rows (``partition_equiv``): two words share a
    first class word precisely when the direct definition relates them.
    """

    def __init__(self, alphabet, max_blocks: int, max_depth: int, words):
        self.alphabet = tuple(alphabet)
        self.max_blocks = max_blocks
        self.max_depth = max_depth
        k = len(self.alphabet)
        if isinstance(words, int):
            if any(len(a) != 1 for a in self.alphabet):
                raise ValueError("words spell one character per letter")
            W, letters = _all_words_size(k, words)
            maxlen = words if k else 0
        else:
            words = list(words)
            if len(set(words)) != len(words):
                raise ValueError("duplicate words")
            lens = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
            W, letters, maxlen = len(words), int(lens.sum()), int(lens.max(initial=0))
        total = _ranker_count(k, max_blocks, max_depth)
        _check_fits(3 * total * W + _word_table_bytes(k, W, letters, maxlen),
                    f"{total} rankers x {W} words up to length {maxlen} need", RankerBudgetError)
        self.words = (_all_word_letters(self.alphabet, maxlen) if isinstance(words, int)
                      else _letter_codes(words, lens, self.alphabet))
        self._maxlen = maxlen
        letters = self.words.letters
        # occ[t, x, j] for x in 0..maxlen+1: for instruction t = (X, a) the first
        # a-position of word j after x, for t = (Y, a) the last one before x;
        # 0 when there is none
        occ = np.zeros((2 * k, maxlen + 2, W), dtype=np.uint8 if maxlen < 255 else np.uint16)
        # per letter, position - 1 where it occurs, else -1, which wraps round
        # above every position: the running minimum from the end, plus 1, is
        # the next position, and none wraps round to 0; and the position
        # where it occurs, else 0, whose running maximum is the last
        after, before = occ[:k, :maxlen], occ[k:, 2:]
        pos = np.arange(1, maxlen + 1, dtype=occ.dtype)[:, None]  # the position of each row
        for i in range(k):
            np.multiply(letters == i, pos, out=before[i])
            np.subtract(before[i], 1, out=after[i])
        # all letters at once, a position (x) at a time
        after = after.transpose(1, 0, 2)
        _accumulate_rows(np.minimum, after[::-1])
        after += 1
        _accumulate_rows(np.maximum, before.transpose(1, 0, 2))

        # depth 1's positions: X from 0, Y from len + 1, where the last
        # position of the tables holds, as no padding letter occurs; past
        # depth 1, position 0 means undefined and stays so
        self._first = np.concatenate([occ[:k, 0], occ[k:, maxlen + 1]])
        self._position_type = occ.dtype  # of every position block
        occ[:, 0] = 0
        self._occ = occ

        # The class structure, depth by depth: every ranker extended by every
        # instruction within max_blocks, ranker-major and in instruction order.
        # _growth[d - 2] holds, per ranker of depth d, its parent's index
        # within depth d - 1 and its last instruction.
        count = 2 * k
        instr_y = np.arange(2 * k) >= k
        start = is_y = instr_y
        blocks = np.ones(2 * k, dtype=np.int16)
        start_l, blocks_l = [], []
        self._growth: list[tuple[np.ndarray, np.ndarray]] = []
        self._ends = [0]  # _ends[d]: rows of depth <= d
        for depth in range(1, max_depth + 1 if total else 1):
            if depth > 1:
                child_blocks = blocks[:, None] + (instr_y != is_y[:, None])  # (parent, instruction)
                keep = child_blocks <= max_blocks
                parent, t = np.nonzero(keep)
                is_y, blocks, start = instr_y[t], child_blocks[keep], start[parent]
                count = len(parent)
                self._growth.append((parent, t))
            start_l.append(start)
            blocks_l.append(blocks)
            self._ends.append(self._ends[-1] + count)

        self.start = np.concatenate(start_l or [[]]).astype(np.int8)   # 0 = X, 1 = Y
        self.blocks = np.concatenate(blocks_l or [[]]).astype(np.int16)
        self._rankers: list[Ranker] | None = None
        # one (rankers of the depth) x words block of positions per filled depth
        self._value_blocks: list[np.ndarray] = []
        self.filled_depth = 0
        self._fill_lock = threading.Lock()
        self._firsts: dict[tuple[int, int], np.ndarray] = {}  # per word, its class's first word

    def _fill(self, n: int) -> int:
        """Fill the positions of every depth up to n; returns their rows'
        count.  A depth is one gather from the occurrence tables at flat
        index (instruction * (max length + 2) + parent's position) * columns
        + the word's column, whose parent's part is computed once per parent.
        The lock keeps concurrent readers from appending a depth twice."""
        n = min(n, len(self._ends) - 1)
        cols = self.words.cols
        rows = max(1, (1 << 17) // max(len(cols), 1))  # bounds the flat-index temporaries
        with self._fill_lock:
            while self.filled_depth < n:
                depth = self.filled_depth + 1
                if depth == 1:
                    p, self._first = self._first, None
                else:
                    parent, t = self._growth[depth - 2]
                    prev = self._value_blocks[-1]
                    flat = self._occ.reshape(-1)
                    stride = self._occ.shape[1] * self._occ.shape[2]  # one instruction's table
                    p = np.empty((len(parent), len(cols)), dtype=prev.dtype)
                    for r in range(0, len(p), rows):
                        # the parents of these rows, consecutive: their part of the index
                        par = parent[r:r + rows]
                        base = np.multiply(prev[par[0]:par[-1] + 1], np.intp(self._occ.shape[2]), dtype=np.intp)
                        base += cols
                        at = base.take(par - par[0], axis=0)
                        at += (t[r:r + rows] * stride)[:, None]
                        np.take(flat, at, out=p[r:r + rows])
                self._value_blocks.append(p)
                self.filled_depth = depth
                if depth == len(self._ends) - 1:  # complete: no further depth reads them
                    self._occ = None
        return self._ends[n]

    def restricted(self, keep: np.ndarray) -> RankerTable:
        """The table over the words at the increasing indices keep, filled as
        deep as this one.

        It shares the class arrays, the letter matrix and the occurrence
        tables, whose word columns it reads through its own slice of the
        word-column index, and slices the word axis of the blocks filled so
        far (and of depth 1's positions until they are filled), so its
        deeper depths fill only the kept words; it builds no string.  Every
        partition compares the words two at a time, so each class of the
        restricted table is a class of this one's restricted to keep, and
        each kept word's first class word is the first kept word of its
        class here.
        """
        with self._fill_lock:
            sub = object.__new__(RankerTable)
            sub.__dict__.update(self.__dict__)
            sub._value_blocks = [b.take(keep, axis=1) for b in self._value_blocks]
            if self._first is not None:
                sub._first = self._first.take(keep, axis=1)
        w = self.words
        sub.words = _Words(w.letters, w.lens, w.names, w.cols[keep])
        sub._fill_lock = threading.Lock()
        sub._firsts = {}
        return sub

    @property
    def rankers(self) -> list[Ranker]:
        """The class's rankers in row order, built on first read from the
        parent and instruction arrays; reading them fills no row."""
        if self._rankers is None:
            instr = [(X, a) for a in self.alphabet] + [(Y, a) for a in self.alphabet]
            steps = [(s,) for s in instr] if self._ends[-1] else []
            out = list(steps)
            for parent, t in self._growth:
                steps = [steps[i] + (instr[j],) for i, j in zip(parent.tolist(), t.tolist())]
                out.extend(steps)
            self._rankers = [Ranker(s) for s in out]
        return self._rankers

    def _nonempty_class(self, m: int, n: int) -> bool:
        """Whether the class at (m, n) has rankers; ValueError past the table's bounds."""
        if m < 1 or n < 1:
            return False
        if m > self.max_blocks or n > self.max_depth:
            raise ValueError("requested class exceeds the table bounds")
        return True

    def partition_equiv(self, m: int, n: int) -> np.ndarray:
        """Per word, the index of the first word of its ranker-equivalence
        class at (m, n), from the words' signatures.

        Rankers with equal value rows are merged into P profiles.  The
        comparison families put in force the profile pairs of two blocks:
        rows X-start (m, n) against columns for X, and rows Y-start (m, n)
        against columns for Y.  Per word and block the distinct values of
        the block's profiles are its levels, undefined (0) always one of its
        own; a level is pure row-only, pure column-only or mixed.  Each run
        of consecutive defined pure row-only levels, and each of pure
        column-only ones, is merged into one level, and a profile's
        compressed rank is the index of its level after merging.  A word's
        key is each profile's compressed ranks in the blocks it belongs to;
        with no column (n = 1) no pair is in force, and it is definedness.

        The key is exact.  A rank is 1 exactly where its profile is
        undefined, and every profile is a row of its start's block.  A
        merged level holds no in-force pair, so merging loses no sign; any
        two adjacent defined levels left after merging hold an in-force pair
        across them, so the signs fix the merged order.  Equal keys thus
        mean equal definedness and equal signs on every in-force pair.

        Cost: O(W * (P + max length)) for W words, in a fixed number of
        numpy steps per chunk of about 2**20 cells.  One dict of the row
        bytes (a byte a position for words of up to 254 letters) finds the
        profiles and their rankers' roles, by which they are ordered.  Per
        run of equal roles one assignment sets both blocks' level types in a
        plane of a level-major grid: the first plane whose last run's roles
        its own include, so where two runs of a plane meet the later write
        holds the types of both.  The usual six runs take two planes, and
        one OR joins them.  Running maxima of 4 * level + type and running
        sums along the level axis give the ranks, and one take reads them
        into the profiles x words keys, checked against the memory available
        first.  The keys are grouped by one 32-bit hash per word, a weighted
        sum down its column (``_first_equal_rows``), which gives each word
        the first word of its class; they are kept per (m, n).
        """
        key = (m, n)
        if key not in self._firsts:
            end = self._fill(n) if self._nonempty_class(m, n) else 0  # the class's rows' end
            W = len(self.words)
            row_type = np.dtype((np.void, self._position_type.itemsize * W))
            # each ranker's role, 0 outside the class
            blocks = self.blocks[:end]
            role = 2 * self.start[:end] + (blocks < m)
            role[:self._ends[n - 1]] += 4  # the rows of depth < n
            role = _ROLES.take(role)
            role *= blocks <= m
            each = iter(role.tolist())
            roles: dict[bytes, int] = {}
            for block in self._value_blocks[:n] if end else ():
                for row, r in zip(block.view(row_type).ravel().tolist(), each):
                    if r:
                        roles[row] = roles.get(row, 0) | r
            rows = sorted(roles, key=roles.__getitem__)
            codes = [roles[row] for row in rows]
            profiles = np.frombuffer(b"".join(rows), dtype=self._position_type).reshape(len(rows), W)
            keys = self._equiv_keys(profiles, codes) if any(c & 10 for c in codes) else profiles != 0
            self._firsts.setdefault(key, _first_equal_rows(keys.T))
        return self._firsts[key]

    def _equiv_keys(self, profiles: np.ndarray, codes: list[int]) -> np.ndarray:
        """Each word's compressed ranks in the profiles, ordered by role code,
        as a column of a profiles x words array (``partition_equiv``)."""
        P, W = profiles.shape
        runs = [i for i in range(P) if not i or codes[i] != codes[i - 1]]
        types = _TYPES16.take([codes[i] for i in runs])
        # each run's plane: the first whose last code it includes, so the
        # codes of a plane grow by inclusion in run order
        planes, lasts = [], []
        for i in runs:
            plane = 0
            while plane < len(lasts) and codes[i] & lasts[plane] != lasts[plane]:
                plane += 1
            lasts[plane:plane + 1] = [codes[i]]  # the plane's new last code, or a new plane
            planes.append(plane)
        runs.append(P)
        levels = self._maxlen + 1  # values 0 (undefined) .. maxlen
        rank = np.dtype(np.uint8 if levels <= 255 else np.uint16)  # ranks <= levels
        pair = np.dtype(f"u{2 * rank.itemsize}")  # a profile's ranks in X and Y
        keep = _KEEP[rank.itemsize - 1].view(pair).take(codes)[:, None]
        _check_fits(W * (2 * P * pair.itemsize + 48), f"signatures of {P} profiles need", RankerBudgetError)
        keys = np.empty((P, W), dtype=pair)
        step = max(1, (1 << 20) // (P + (len(lasts) + 2) * levels))
        for lo in range(0, W, step):
            vals = profiles[:, lo:lo + step]
            c = vals.shape[1]
            top = int(vals.max(initial=0)) + 1  # levels in this chunk
            cells = np.multiply(vals, c, dtype=np.intp)  # level-major cell of each value
            cells += np.arange(c)
            # per run of equal roles, its level types at its profiles' cells
            # in its plane, where a later run's types include an earlier's;
            # per cell its level's types in X and Y: 0 absent, 1 (2) pure
            # row- (column-)only, 3 mixed
            grid = np.zeros((len(lasts), top * c), dtype=np.uint16)
            for plane, t, a, b in zip(planes, types, runs, runs[1:]):
                grid[plane][cells[a:b]] = t
            grid = np.bitwise_or.reduce(grid, axis=0).view(np.uint8).reshape(top, c, 2)
            grid[0] = 3
            new = (grid != 0).astype(rank)  # present levels, narrowed to the new ones below
            last = np.arange(0, 4 * top, 4, dtype=np.min_scalar_type(4 * top))[:, None, None] + grid
            last *= new
            _accumulate_rows(np.maximum, last)
            last &= 3
            new[1:] &= (grid[1:] == 3) | (grid[1:] != last[:-1])
            ranks = _accumulate_rows(np.add, new).view(pair).ravel().take(cells)
            np.bitwise_and(ranks, keep, out=keys[:, lo:lo + c])
        return keys


# ---------------------------------------------------------------------------
# Morphism refinement oracle
# ---------------------------------------------------------------------------

def _oracle_table(monoid: FiniteMonoid, m: int, n: int, max_len: int) -> RankerTable:
    """A ``RankerTable`` over all words up to max_len over the generator
    names, which must be single letters.  The table's constructor makes the
    word, ranker and memory checks before it builds any word."""
    if monoid.gens is None:
        raise ValueError("oracle needs a monoid with a generator map")
    alphabet = tuple(monoid.gens)
    for a in alphabet:
        if len(a) != 1:
            raise ValueError(f"oracle needs one-letter generator names, not {a!r}")
    return RankerTable(alphabet, m, n, max_len)


def _word_images(monoid: FiniteMonoid, table: RankerTable) -> np.ndarray:
    """Images of the table's words under the generator morphism, read off
    the letter matrix at the table's word columns, full or restricted: per
    position one flat take from the monoid table's columns of the letter
    indices' generators (the identity for the padding), at image * letters
    + letter index, taking the letter matrix in slices of about 2**16
    cells.  The table's entries are kept multiplied by the letter count,
    so a take gives the next position's base index at once.  Every letter
    of the table is a generator of the monoid."""
    words = table.words
    gen = np.array([monoid.gens[a] for a in words.names] + [monoid.identity], dtype=np.intp)
    flat = monoid.table.take(gen, axis=1).astype(np.intp).reshape(-1)  # x * each letter's generator
    flat *= len(gen)
    images = np.full(len(words), monoid.identity * len(gen), dtype=np.intp)
    rows = max(1, (1 << 16) // max(len(words), 1))
    for x in range(0, len(words.letters), rows):
        for letter in words.letters[x:x + rows].take(words.cols, axis=1):
            images += letter
            images = flat.take(images)
    images //= len(gen)
    return images


def _mixed_words(rep: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """The increasing indices of the words whose class (the words sharing a
    first word in rep) holds a word where bad is set, by a mask over the
    first words."""
    mixed = np.zeros(len(rep), dtype=bool)
    mixed[rep[bad]] = True
    return np.flatnonzero(mixed[rep])


def least_oracle_n(monoid: FiniteMonoid, m: int, max_n: int, max_len: int
                   ) -> tuple[int | None, tuple[str, str] | None]:
    """Smallest n <= max_n at which ranker equivalence at (m, n) refines
    the word morphism on the words up to max_len (None when no n does), and
    the counterexample at the last n tried (None when it passes).

    The search refines a partition.  The rankers and comparison families of
    equivalence at (m, n) are among those at (m, n + 1), so each class at
    n + 1 lies in one class at n, and a class whose words share one image
    splits only into such classes.  After a failing n the search keeps the
    words of the classes that mix images, in list order, and goes on with
    the table restricted to them.  The first violating word at n + 1 and
    the first word of its class lie in one class at n that mixes images, so
    both are kept, and the partition of the kept words is the full one
    restricted to them (``RankerTable.restricted``).  So n and the
    counterexample are those of the check at one n on the full table (the
    tests' ``oracle_equiv_refines_morphism``) tried at n = 1, 2, ...,
    while the deeper depths fill and partition only the kept words.  The
    violations and the kept words are read off the first word of each
    word's class, which ``partition_equiv`` gives, so no depth numbers the
    classes.
    """
    table = _oracle_table(monoid, m, max_n, max_len)
    images = _word_images(monoid, table)
    words = pair = None  # the counterexample's indices among the words of the last n tried
    for n in range(1, max_n + 1):
        rep = table.partition_equiv(m, n)
        bad = images != images.take(rep)
        if not bad.any():
            return n, None
        j = int(np.argmax(bad))
        words, pair = table.words, (rep[j], j)
        keep = _mixed_words(rep, bad)
        table, images = table.restricted(keep), images.take(keep)
    return None, None if pair is None else tuple(map(words.word, pair))
