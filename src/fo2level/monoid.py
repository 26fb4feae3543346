"""Finite monoids as multiplication tables, with Green's relations.

A FiniteMonoid has elements 0..N-1, a product given by an N x N table, a
distinguished identity, and optionally a generator map sending alphabet
symbols to elements (the morphism from the free monoid restricted to
letters).  The transition monoid of a complete DFA is obtained by closing
the letter transformations under composition; taking the minimal DFA yields
the syntactic monoid of its language.

Instances are immutable after construction; derived structure (idempotents,
omega powers, Green's classes, DA membership, triviality flags) is computed
lazily and cached, and all operations are pure, so concurrent reads are
safe.

DA membership and R- and L-triviality are decided together, by one scan of
E[x, y] = (xy)^omega in row slices that checks the three identities that
define them (J-trivial is R- and L-trivial).  DA membership, once decided,
is passed on to the reverse monoid (and, by ``varieties.quotient``, to
quotients), since DA is closed under both.
"""

from __future__ import annotations

import os
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, islice

try:
    import resource
except ImportError:     # not on every platform
    resource = None

import numpy as np

from .automata import Dfa, _line_blocks


class MonoidFormatError(ValueError):
    """Malformed monoid description file or invalid table."""


class MonoidTooLargeError(ValueError):
    """Transition monoid exceeds the configured size cap."""


# Cells per slice of the transition monoid's row fill (its intp index, about
# 8 MB), of Light's associativity test, of the identities scan and of
# ``varieties.quotient``'s congruence gate.
_FILL_CELLS = 1 << 20

# Entries per slice of a monoid file's table read: its int64 read (1 MB)
# and its rows' text stay a small part of the file.
_READ_CELLS = 1 << 17

# ``_first_equal_rows`` weighs entry i of a row by the high half of this to the power i + 1
_HASH_BASE = np.uint64(0x9E3779B97F4A7C15)


@dataclass(frozen=True, eq=False)
class GreensData:
    """Green's class partitions.

    r_class, l_class and j_class label each element by its R-, L- and
    J-class; labels are numbered by smallest contained element.  The
    decision routes never ask for them: the identities scan answers
    triviality, and the congruences read the table.  The ``greens`` command
    prints them, and the corpus checks and tests use them as references.
    """

    j_class: np.ndarray
    r_class: np.ndarray
    l_class: np.ndarray

    @property
    def num_j(self) -> int:
        return int(self.j_class.max()) + 1

    @property
    def num_r(self) -> int:
        return int(self.r_class.max()) + 1

    @property
    def num_l(self) -> int:
        return int(self.l_class.max()) + 1


def _first_equal_rows(rows: np.ndarray) -> np.ndarray:
    """For each row of a 2-D integer array, the index of the first row equal to it.

    The rows are grouped by a 32-bit hash, the sum of their entries
    weighed by the high halves of the powers of ``_HASH_BASE``, taken in
    one pass down the columns of rows (fastest when rows is the transpose
    of a C-contiguous array), by one sort of hash and row index together,
    so each group begins with its first row; each row is compared with the
    first row of its group, and on a collision ``_fold_labels`` groups
    them."""
    cols = rows.T
    count = cols.shape[1]
    bits = max(count - 1, 1).bit_length()  # of a row index
    weights = (np.full(len(cols), _HASH_BASE).cumprod() >> np.uint64(32)).astype(np.uint32)
    h = np.einsum("ij,i->j", cols, weights).astype(np.uint64)
    h <<= np.uint64(bits)
    h |= np.arange(count, dtype=np.uint64)
    h.sort()  # by hash, then by row
    low = np.uint64((1 << bits) - 1)
    order = (h & low).view(np.intp)
    # each sorted place, zeroed where the hash equals the one before: the
    # running maximum is the place where its run of equal hashes starts
    head = np.arange(count)
    head[1:] *= np.greater(h[1:] ^ h[:-1], low)
    rep = np.empty(count, dtype=np.intp)
    rep[order] = order.take(np.maximum.accumulate(head, out=head))
    if (cols.take(rep, axis=1) == cols).all():
        return rep
    labels = _fold_labels(rows)
    return np.unique(labels, return_index=True)[1].take(labels)


def _fold_labels(rows: np.ndarray) -> np.ndarray:
    """First-seen labels of the rows of a 2-D array, through a dict keyed by
    the row bytes.

    The classes of ``_first_equal_rows(rows)``, numbered in the order of
    their first rows, but faster on few wide C-contiguous rows (19 x 11
    int64 rows: about 9 against 44 us; 1 771 x 778: 6.6 against 18 ms, one
    core of a 2-core x86 host); many narrow rows hash faster (2 036 x 17:
    0.39 against 0.18 ms).
    """
    rows = np.ascontiguousarray(rows)
    width = rows.shape[1] * rows.itemsize
    if not width:
        return np.zeros(rows.shape[0], dtype=np.int32)
    seen: dict = {}
    keys = rows.view(np.dtype((np.void, width))).ravel().tolist()
    return np.array([seen.setdefault(k, len(seen)) for k in keys], dtype=np.int32)


def _scc_labels(succ: list[list[int]]) -> list[int]:
    """Strongly connected components of a graph given by successor lists.

    Iterative Tarjan, O(vertices + edges); components are labelled in the
    order of their smallest vertex.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = n_comp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = n_comp
                        if w == v:
                            break
                    n_comp += 1
    relabel: dict[int, int] = {}
    return [relabel.setdefault(c, len(relabel)) for c in comp]


def _generated(table: np.ndarray, identity: int, gens: list[int]) -> bool:
    """Whether the identity and its right products by gens reach every element.

    A walk over the right Cayley graph, O(|M|*|A|); False also when a
    generator is out of range.
    """
    n = table.shape[0]
    if not all(0 <= g < n for g in gens):
        return False
    succ = table[:, gens].tolist()
    seen = [False] * n
    seen[identity] = True
    stack = [identity]
    reached = 1
    while stack:
        for y in succ[stack.pop()]:
            if not seen[y]:
                seen[y] = True
                reached += 1
                stack.append(y)
    return reached == n


def _row_slices(n: int) -> Iterator[slice]:
    """Consecutive row slices of an array of n columns, about _FILL_CELLS cells each."""
    step = max(1, _FILL_CELLS // n)
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _light_associative(table: np.ndarray, gens: Iterable[int]) -> bool:
    """Light's test: (x*a)*y == x*(a*y) for all x, y and each generator a.

    With every element as a generator this is associativity itself.  It is
    also exact when the identity law holds and gens generate the table: the
    elements s with (x*s)*y == x*(s*y) for all x, y contain 1 and are closed
    under products, since (x*st)*y = ((x*s)*t)*y = (x*s)*(t*y) =
    x*(s*(t*y)) = x*((s*t)*y).  Cost O(|M|^2*|A|), taken in slices of rows
    x of about _FILL_CELLS cells, so each comparison stays in cache.
    """
    gens = list(gens)
    for rows in _row_slices(len(table)):
        block = table[rows]
        for a in gens:
            if not np.array_equal(table.take(block[:, a], axis=0), block.take(table[a], axis=1)):
                return False
    return True


class FiniteMonoid:
    """Multiplication-table monoid with optional generator map.

    Shape and ranges are always checked.  validate=True (tables read from
    files) also checks the identity law, associativity (by Light's test when
    the generators reach every element) and that the generators generate;
    the package's own constructors pass validate=False, since their tables
    hold all three by construction.  in_da is a known DA membership (None:
    unknown), trusted like validate=False; the reverse and quotients of a
    monoid pass on what is known of it.
    """

    def __init__(self, table, identity: int, gens=None, words=None, validate: bool = True,
                 in_da: bool | None = None):
        try:
            table = np.ascontiguousarray(np.asarray(table, dtype=np.int32))
        except OverflowError:       # an entry outside int32 is outside the table too
            raise MonoidFormatError("table entry out of range") from None
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise MonoidFormatError("multiplication table must be square")
        n = table.shape[0]
        if n == 0:
            raise MonoidFormatError("a monoid needs at least one element")
        if table.min() < 0 or table.max() >= n:
            raise MonoidFormatError("table entry out of range")
        if not (0 <= identity < n):
            raise MonoidFormatError("identity out of range")
        gens = dict(gens) if gens is not None else None
        if validate:
            ar = np.arange(n, dtype=np.int32)
            if not (np.array_equal(table[identity], ar) and np.array_equal(table[:, identity], ar)):
                raise MonoidFormatError("identity law fails")
            images = list(gens.values()) if gens is not None else None
            generated = images is not None and _generated(table, identity, images)
            if not _light_associative(table, images if generated else range(n)):
                raise MonoidFormatError("table is not associative")
        table.setflags(write=False)
        self._table = table
        self.identity = int(identity)
        self.gens = gens
        self.words = tuple(words) if words is not None else None
        if gens is not None:
            for a, x in gens.items():
                if not (0 <= x < n):
                    raise MonoidFormatError(f"generator {a!r} out of range")
            # built monoids (validate=False) are generated by construction
            if validate and not generated:
                raise MonoidFormatError("generators do not generate the monoid")
        self._omega = None
        self._greens = None
        self._idempotents = None
        self._in_da = in_da
        self._scan = None
        self._reverse = None

    # -- basic structure ---------------------------------------------------

    @property
    def table(self) -> np.ndarray:
        return self._table

    @property
    def size(self) -> int:
        return self._table.shape[0]

    def mul(self, x: int, y: int) -> int:
        return int(self._table[x, y])

    def eval_word(self, word) -> int:
        """Image of a word under the generator morphism; the empty word maps to 1."""
        if self.gens is None:
            raise ValueError("monoid has no generator map")
        x = self.identity
        for ch in word:
            try:
                g = self.gens[ch]
            except KeyError:
                raise ValueError(f"unknown letter {ch!r}") from None
            x = int(self._table[x, g])
        return x

    @property
    def idempotent_array(self) -> np.ndarray:
        """The idempotents in increasing order, as a read-only int array."""
        if self._idempotents is None:
            self._idempotents = np.flatnonzero(self._table.diagonal() == np.arange(self.size))
            self._idempotents.setflags(write=False)
        return self._idempotents

    @property
    def omega_table(self) -> np.ndarray:
        """x^omega for every x, by raising all elements to their powers at once.

        p holds x^j after j steps; the first idempotent p is x^omega.  The
        powers beyond it cycle through the group of x^omega back to it,
        which is walked once more to check that it holds no other
        idempotent.  Both walks take at most |M| steps of one gather each.
        """
        if self._omega is None:
            T = self._table
            ar = np.arange(self.size, dtype=np.int32)
            out = np.full(self.size, -1, dtype=np.int32)
            p = ar
            for _ in range(self.size):
                hit = (out < 0) & (T[p, p] == p)
                out[hit] = p[hit]
                if out.min() >= 0:
                    break
                p = T[p, ar]
            q = T[out, ar]
            live = q != out
            for _ in range(self.size):
                if not live.any():
                    break
                assert not (live & (T[q, q] == q)).any(), \
                    "cyclic subsemigroup must have one idempotent"
                q = T[q, ar]
                live &= q != out
            assert out.min() >= 0 and not live.any(), "powers must reach x^omega"
            out.setflags(write=False)
            self._omega = out
        return self._omega

    def greens(self) -> GreensData:
        """R- and L-classes as strongly connected components, J from both.

        The R-class of x is its component in the right Cayley graph
        x -> x*g, the L-class its component in the left graph x -> g*x, g
        ranging over the generator images (over all elements when there is
        no generator map).  In a finite monoid J = D = R o L, and every
        R-class of a D-class meets each of its L-classes, so the least
        element of x's J-class is the least L-class minimum over the R-class
        of x: two passes over the elements, no third graph.  Cost O(|M|*|A|)
        with a generator map, O(|M|^2) without (its successor lists checked
        against the memory available before they are built).
        """
        if self._greens is None:
            T = self._table
            if self.gens is not None:
                gens = list(self.gens.values())
            else:  # |M| successor lists of |M| Python ints, about 37 bytes a cell
                _check_fits(37 * self.size ** 2, f"Green's classes of {self.size} elements with no "
                            "generator map need", MonoidTooLargeError)
                gens = slice(None)
            r_class = _scc_labels(T[:, gens].tolist())
            l_class = _scc_labels(T[gens, :].T.tolist())
            l_min = []                  # labels are numbered by least element
            for x, k in enumerate(l_class):
                if k == len(l_min):
                    l_min.append(x)
            d_min = [self.size] * (max(r_class) + 1)
            for k, lk in zip(r_class, l_class):
                d_min[k] = min(d_min[k], l_min[lk])
            relabel: dict[int, int] = {}    # a class's least element s first shows at x = s
            j_class = [relabel.setdefault(d_min[k], len(relabel)) for k in r_class]
            self._greens = GreensData(*(np.array(c, dtype=np.int32)
                                        for c in (j_class, r_class, l_class)))
        return self._greens

    # -- variety predicates --------------------------------------------------

    def _identities(self) -> tuple[bool, bool, bool]:
        """Whether the identities of DA, R and L hold, computed in one scan.

        With E[x, y] = (xy)^w they are E x E = E, E x = E and y E = E (Pin,
        "Varieties of Formal Languages", 1986; J-trivial is both).  y = 1
        (or x = 1) in each gives x^(w+1) = x^w, so a monoid that is not
        aperiodic is refused at once, and one whose DA membership is known
        is not checked for it again.  E is read in row slices of about
        _FILL_CELLS cells, up to the first slice outside DA, or, when DA is
        known, until R and L have both failed.
        """
        if self._scan is None:
            known = self._in_da
            da = r = l = self.is_aperiodic() if known is None else known
            T, ar = self._table, np.arange(self.size)
            for rows in _row_slices(self.size) if da else ():
                E = self.omega_table[T[rows]]
                Ex = T[E, ar[rows, None]]
                held = np.array_equal(Ex, E)    # then E x E = E E = E, as E is idempotent
                r = r and held
                l = l and np.array_equal(T[ar, E], E)
                if known is None and not held and not np.array_equal(T[Ex, E], E):
                    da = r = l = False
                if not (da and (known is None or r or l)):
                    break
            self._in_da = da
            self._scan = (da, r, l)
        return self._scan

    def is_j_trivial(self) -> bool:
        """Every J-class is a single element: R- and L-trivial, as J = R o L."""
        return self.is_r_trivial() and self.is_l_trivial()

    def is_r_trivial(self) -> bool:
        """Every R-class is a single element: (xy)^w x = (xy)^w."""
        return self._identities()[1]

    def is_l_trivial(self) -> bool:
        """Every L-class is a single element: y (xy)^w = (xy)^w."""
        return self._identities()[2]

    def is_aperiodic(self) -> bool:
        """x * x^omega == x^omega for every x."""
        ar = np.arange(self.size)
        om = self.omega_table
        return bool(np.array_equal(self._table[ar, om], om))

    def is_in_da(self) -> bool:
        """(xy)^w x (xy)^w = (xy)^w for all x, y; passed on at construction
        or decided with R- and L-triviality (``_identities``)."""
        return self._in_da if self._in_da is not None else self._identities()[0]

    # -- presentation --------------------------------------------------------

    def element_name(self, x: int) -> str:
        if self.words is not None:
            w = self.words[x]
            return w if w else "eps"
        return f"#{x}"

    def __repr__(self):
        return f"FiniteMonoid(size={self.size})"


try:  # physical memory, read once: it does not change while the process runs
    _PHYSICAL = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
except (AttributeError, ValueError, OSError):
    _PHYSICAL = None


def _physical_memory() -> int | None:
    """Bytes of memory this process may use: physical memory, or the soft
    address-space limit (``ulimit -v``) where that is lower; None where the
    platform says neither."""
    limits = [] if _PHYSICAL is None else [_PHYSICAL]
    if resource is not None:
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            limits.append(soft)
    return min(limits, default=None)


def _check_fits(need: int, what: str, error: type[Exception], have: int | None = None) -> None:
    """Refuse an allocation of need bytes larger than the memory available
    (have, read here unless given), before making it: raise error, whose
    message starts with what."""
    if have is None:
        have = _physical_memory()
    if have is not None and need > have:
        raise error(f"{what} {need / 2**30:.1f} GiB but {have / 2**30:.1f} GiB is available")


def transition_monoid(dfa: Dfa, max_size: int = 100_000) -> FiniteMonoid:
    """Close the letter transformations of a complete DFA under composition.

    Elements are discovered breadth-first from the identity transformation,
    extending by letters in alphabet order, which makes element indices (and
    the stored shortest generating words) reproducible.  The closure runs
    one BFS level at a time: the candidates x*a of a level are one gather
    of the letter maps in (element, letter) order, and each is looked up by
    its bytes, so an element costs O(|A|) dictionary lookups and no Python
    loop over states.  It records each element's parent, its last letter and
    the right Cayley graph R[x, a] = x*a.

    The left Cayley graph follows one level at a time: a*1 = a, and an
    element j = parent[j]*b gives a*j = R[a*parent[j], b].  The table is
    then filled by rows, one gather per level: j*x = parent[j]*(b*x), so
    row j is row parent[j] read at the left graph's row b, and a parent
    always lies on an earlier level.  A level is taken in row slices whose
    index holds about _FILL_CELLS cells.  Cost O(|M|*|A|*states) for the
    closure and O(|M|^2) for the fill.  Before each level the memory
    available, read once, must hold the level's candidate block twice (the
    gather and its contiguous copy) and the index's keys of every element
    the level may add; the table is checked the same way before allocation.
    """
    S, A = dfa.n_states, len(dfa.alphabet)
    letter_maps = np.array(dfa.delta, dtype=np.min_scalar_type(S - 1)).T.copy()
    frontier = np.arange(S, dtype=letter_maps.dtype)[None, :]
    key_type = np.dtype((np.void, frontier.nbytes))
    have = _physical_memory()
    index = {frontier.tobytes(): 0}
    words = [""]
    parent = [0]
    letter = [0]
    right = []
    starts = [0, 1]     # level k holds the elements starts[k] .. starts[k+1] - 1
    n = 1
    while starts[-1] > starts[-2]:
        grown = len(frontier) * A  # the level's candidates, and the most elements it adds
        need = (3 * grown + n) * key_type.itemsize  # the candidate block twice, then the index
        if have is not None and need > have:  # the message is made only to be raised
            _check_fits(need, f"transition monoid closure at {n} elements: {grown} candidates of "
                        f"{S} states need", MonoidTooLargeError, have)
        cands = np.ascontiguousarray(letter_maps[:, frontier].transpose(1, 0, 2)).reshape(-1, S)
        fresh = []
        for c, key in enumerate(cands.view(key_type).ravel().tolist()):
            j = index.get(key)
            if j is None:
                if n >= max_size:
                    raise MonoidTooLargeError(
                        f"transition monoid exceeds {max_size} elements; "
                        "raise the cap to proceed")
                j = index[key] = n
                n += 1
                fresh.append(key)
                p, ai = divmod(c, A)
                p += starts[-2]
                words.append(words[p] + dfa.alphabet[ai])
                parent.append(p)
                letter.append(ai)
            right.append(j)
        frontier = np.frombuffer(b"".join(fresh), dtype=letter_maps.dtype).reshape(-1, S)
        starts.append(n)
    _check_fits(n * n * np.dtype(np.int32).itemsize,
                f"transition monoid has {n} elements; its {n}x{n} table needs", MonoidTooLargeError, have)
    R = np.array(right, dtype=np.intp).reshape(n, A)
    parent = np.array(parent, dtype=np.intp)
    letter = np.array(letter, dtype=np.intp)
    levels = list(zip(starts[1:-2], starts[2:-1]))
    left = np.empty((A, n), dtype=np.intp)          # left[a, j] = a*j
    left[:, 0] = R[0]
    for lo, hi in levels:
        left[:, lo:hi] = R[left[:, parent[lo:hi]], letter[lo:hi]]
    table = np.empty((n, n), dtype=np.int32)        # row fill reads all of left
    table[0] = np.arange(n, dtype=np.int32)
    flat = table.reshape(-1)
    row_base = parent * n
    step = max(1, _FILL_CELLS // n)
    for lo, hi in levels:
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            at = left[letter[a:b]]
            at += row_base[a:b, None]
            flat.take(at, out=table[a:b])
    gens = {a: int(R[0, ai]) for ai, a in enumerate(dfa.alphabet)}
    return FiniteMonoid(table, 0, gens=gens, words=words, validate=False)


def reverse_monoid(m: FiniteMonoid) -> FiniteMonoid:
    """The monoid with the opposite product (x *' y = y * x).

    Generator images are preserved; they now evaluate mirror words, so the
    stored shortest-word names are dropped.  DA membership, where known, is
    passed on: DA is closed under reversal.  Built once per monoid and kept,
    like its other derived structure, so callers that mirror a monoid again
    and again (a loop over words that reads its L-classes as the reverse's
    R-classes, say) share one copy.  The two are each other's reverse.
    """
    if m._reverse is None:
        m._reverse = FiniteMonoid(m.table.T.copy(), m.identity, gens=m.gens, validate=False,
                                  in_da=m._in_da)
        m._reverse._reverse = m
    return m._reverse


# A sign not followed by a digit: numpy reads "-" alone as 0 and "- 1" as
# -1, where int() refuses both.
_LONE_SIGN = re.compile(r"[+-](?![0-9])")


def _read_ints(text: str) -> np.ndarray | None:
    """The whitespace-separated integers of text as int64, in one C-level
    read, or None where a token is not an ASCII decimal integer (digits
    after an optional sign).  A value past int64 reads as one of its
    bounds, so it stays out of any table's range.
    """
    if ("-" in text or "+" in text) and _LONE_SIGN.search(text):
        return None
    try:
        return np.fromstring(text, dtype=np.int64, sep=" ")
    except ValueError:      # a token it could not read
        return None


def _read_table(rows: Callable[[], Iterator[str]], n: int, step: int) -> np.ndarray:
    """The n table rows, which each call of rows gives from the first, as
    an n x n int32 array with entries in 0..n-1.

    The rows are taken a slice of step rows at a time, and each slice is
    read at once, every row followed by an n, which no entry may equal:
    when r rows give r * (n + 1) values and the first n of every n + 1 lie
    in 0..n-1, each row had n entries.  On any fault the rows are checked
    one by one, in file order, for the first: a wrong entry count, a token
    that is not an integer, else a range fault.
    """
    table = np.empty((n, n), dtype=np.int32)
    slices = rows()
    for lo in range(0, n, step):
        part = list(islice(slices, step))
        grid = _read_ints(f" {n}\n".join(part + [""]))
        if grid is None or grid.size != len(part) * (n + 1):
            break
        grid = grid.reshape(len(part), n + 1)[:, :n]
        if grid.min() < 0 or grid.max() >= n:
            break
        table[lo:lo + len(part)] = grid
        del part, grid  # before the next slice is read
    else:
        return table
    for row in rows():
        count = len(row.split())
        if count != n:
            raise MonoidFormatError(f"table row has {count} entries, expected {n}")
        values = _read_ints(row)
        if values is None or values.size != n:
            raise MonoidFormatError(f"malformed table row: {row!r}")
    raise MonoidFormatError("table entry out of range")


def parse_monoid_file(text: str) -> FiniteMonoid:
    """Parse the line-based monoid format and validate the axioms.

    Expected: ``size: N``, ``identity: i``, optional ``gen SYMBOL i`` lines
    (each symbol once), then ``table`` followed by N rows of N indices (row
    r, column c = r*c).  ``#`` starts a comment line.  Table entries are
    ASCII decimal integers with an optional sign, separated by spaces or
    tabs.  The lines are taken from the text a block at a time, never all
    together (``_line_blocks``).  The table is checked against the memory
    available, then read in slices of rows, each in one numpy pass,
    range-checked and written into the int32 table (``_read_table``); no
    entry becomes a Python string or int unless the table is refused.
    """
    # the first block of lines is kept for the table read, so a small file is split once
    blocks = _line_blocks(text)
    first, end = next(blocks, ([], 0))
    lines = chain(first, chain.from_iterable(block for block, _ in blocks))
    line = next(lines, "")
    if not line.startswith("size:"):
        raise MonoidFormatError("missing 'size:' line")
    try:
        n = int(line[5:].strip())
    except ValueError:
        raise MonoidFormatError("malformed 'size:' line") from None
    if n < 1:
        raise MonoidFormatError("size must be at least 1")
    line = next(lines, "")
    if not line.startswith("identity:"):
        raise MonoidFormatError("missing 'identity:' line")
    try:
        identity = int(line[9:].strip())
    except ValueError:
        raise MonoidFormatError("malformed 'identity:' line") from None
    gens = {}
    line = next(lines, "")
    while line.startswith("gen "):
        toks = line.split()
        if len(toks) != 3:
            raise MonoidFormatError(f"malformed gen line: {line!r}")
        if toks[1] in gens:
            raise MonoidFormatError(f"duplicate generator {toks[1]!r}")
        try:
            gens[toks[1]] = int(toks[2])
        except ValueError:
            raise MonoidFormatError(f"malformed gen line: {line!r}") from None
        line = next(lines, "")
    if line != "table":
        raise MonoidFormatError("missing 'table' line")
    found = sum(1 for _ in lines)  # the rest of the lines
    if found != n:
        raise MonoidFormatError(f"expected {n} table rows, found {found}")
    # equal slices of about _READ_CELLS entries; the int32 table and one slice's int64 read
    step = -(-n // -(-n * (n + 1) // _READ_CELLS))
    _check_fits(4 * n * n + 8 * (n + 1) * step,
                f"monoid file has {n} elements; reading its {n}x{n} table needs",
                MonoidTooLargeError)
    def rows():  # the lines after the size, identity, gen and table lines
        rest = chain.from_iterable(block for block, _ in _line_blocks(text, end))
        return islice(chain(first, rest), 3 + len(gens), None)
    return FiniteMonoid(_read_table(rows, n, step), identity, gens=gens or None, validate=True)
