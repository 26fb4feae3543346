"""The word-level lemma suites: facts about the ranker relations that the
paper's proof rests on, checked on all words up to a length.

None of these is called by the package; the acceptance suite and the
corpus tests run them.  The equivalence suites read the package's
``RankerTable.partition_equiv``, which the oracle also uses: two words are
related when they share a first class word.  The one-sided suites read
``OneSided``, which labels words by the right and left relations straight
from the definition (``rel_right``, ``rel_left`` in ``reference.py``),
through the scalar ``is_condensed``.  Each suite returns a
``CheckResult``.
"""

import random

import numpy as np

from fo2level.corpus import CheckResult
from fo2level.rankers import X, Y, RankerTable, is_condensed
from reference import reference_rankers, table_words

_MAX_MN = 3  # the block and depth bounds of the suites


class OneSided:
    """The right and left relations on a word list, as labels numbered by
    first appearance.  A word's label at (m, n) on the right is the
    tuple of ``is_condensed(r, w)`` over the X-starting rankers of depth
    <= n with <= m blocks and the Y-starting ones of depth <= n-1 with <=
    m-1 blocks; the left relation swaps X and Y.  Each ranker's column is
    computed once and each partition once."""

    def __init__(self, alphabet, words):
        self.alphabet, self.words = tuple(alphabet), list(words)
        self._columns = {}
        self._labels = {}

    def _partition(self, first: str, second: str, m: int, n: int) -> np.ndarray:
        key = (first, m, n)
        if key not in self._labels:
            rankers = (reference_rankers(self.alphabet, m, n, first)
                       + reference_rankers(self.alphabet, m - 1, n - 1, second))
            for r in rankers:
                if r not in self._columns:
                    self._columns[r] = [is_condensed(r, w) for w in self.words]
            keys = zip(*(self._columns[r] for r in rankers)) if rankers else [()] * len(self.words)
            seen = {}
            self._labels[key] = np.array([seen.setdefault(k, len(seen)) for k in keys], dtype=np.int32)
        return self._labels[key]

    def right(self, m: int, n: int) -> np.ndarray:
        return self._partition(X, Y, m, n)

    def left(self, m: int, n: int) -> np.ndarray:
        return self._partition(Y, X, m, n)


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


def _word_table(alphabet, max_len: int, max_m: int, table: RankerTable | None):
    """The alphabet, the given table (or one over all words up to max_len)
    and its two views, each a word list and an index of the words' rows: the
    table's words, and their mirror images, where the reverse of a word
    finds that word's row.  A clause run on a pair's mirror images through
    the mirror view reads the labels of the reversed factors of the pair."""
    alphabet = tuple(alphabet)
    if table is None:
        table = RankerTable(alphabet, max_m, _MAX_MN, max_len)
    words = table_words(table)
    views = [(view, {w: k for k, w in enumerate(view)}) for view in (words, [w[::-1] for w in words])]
    return alphabet, table, views


def _related_pairs(words, *labelings):
    """The index pairs i < j, in list order, of the words one of the
    labelings relates, each with whether each labeling relates them."""
    for i in range(len(words)):
        related = [labels[i + 1:] == labels[i] for labels in labelings]
        for j in np.flatnonzero(np.logical_or.reduce(related)).tolist():
            yield i, i + 1 + j, [bool(r[j]) for r in related]


def _agree(labels, index, p: str, q: str) -> bool:
    return labels[index[p]] == labels[index[q]]


# The right side's clause names, then the left side's, which are the right
# side's clauses on the mirror images (first and last a trade places)
_FACTOR_CLAUSES = (("right/left-factor", "right/last-prefix", "right/last-suffix"),
                   ("left/right-factor", "left/first-suffix", "left/first-prefix"))


def check_factor_compat(alphabet=("a", "b"), max_len: int = 6, include_suffix_clause: bool = False,
                        table: RankerTable | None = None) -> CheckResult:
    """Factor compatibility of the one-sided relations under first/last-letter
    factorizations, including the mirror-dual statements.

    Checked clauses: under u R_{m,n} v, first-a factors are R_{m,n-1}-related
    (both sides) and the last-a prefix factor is R_{m,n-1}-related; dually for
    the left relation.  The last-a suffix clause (claimed L_{m-1,n-1}) has
    known counterexamples and is only checked when include_suffix_clause is
    set.  Since u L_{m,n} v iff rev u R_{m,n} rev v, the left side is the
    right side's clause code on the mirror images, with R and L swapped.
    """
    alphabet, table, views = _word_table(alphabet, max_len, _MAX_MN, table)
    listed = views[0][0]
    relations = OneSided(table.alphabet, listed)
    checked = 0
    name = "factor-compat" + ("-with-suffix-clause" if include_suffix_clause else "")
    for m in range(2, _MAX_MN + 1):
        for n in range(2, _MAX_MN + 1):
            R, L = relations.right(m, n), relations.left(m, n)
            sides = ((_FACTOR_CLAUSES[0], *views[0], relations.right(m, n - 1),
                      relations.left(m - 1, n - 1)),
                     (_FACTOR_CLAUSES[1], *views[1], relations.left(m, n - 1),
                      relations.right(m - 1, n - 1)))
            for i, j, related in _related_pairs(listed, R, L):
                for a in alphabet:
                    for (clauses, words, index, near, far), rel in zip(sides, related):
                        x, y = words[i], words[j]
                        if not (rel and a in x and a in y):
                            continue
                        checked += 1
                        fx, fy = left_factorization(x, a), left_factorization(y, a)
                        failed = None
                        if not (_agree(near, index, fx[0], fy[0]) and _agree(near, index, fx[1], fy[1])):
                            failed = clauses[0]
                        else:
                            checked += 1
                            gx, gy = right_factorization(x, a), right_factorization(y, a)
                            if not _agree(near, index, gx[0], gy[0]):
                                failed = clauses[1]
                            elif include_suffix_clause and not _agree(far, index, gx[1], gy[1]):
                                failed = clauses[2]
                        if failed:
                            return CheckResult(name, False, checked, f"{failed} {listed[i]!r} "
                                               f"{listed[j]!r} a={a!r} (m={m},n={n})")
    return CheckResult(name, True, checked, f"words up to {max_len}, m,n <= {_MAX_MN},{_MAX_MN}")


def check_equiv_factor(alphabet=("a", "b"), max_len: int = 6,
                       table: RankerTable | None = None) -> CheckResult:
    """Equivalence factor compatibility: u ~ v at (m, n) with first-a factors
    gives prefixes at (m-1, n-1) and suffixes at (m, n-1); mirrored for
    last-a factors, which is the first-a clause on the mirror images."""
    alphabet, table, views = _word_table(alphabet, max_len, _MAX_MN, table)
    listed = views[0][0]
    checked = 0
    for m in range(2, _MAX_MN + 1):
        for n in range(2, _MAX_MN + 1):
            Edown = table.partition_equiv(m - 1, n - 1)
            Esame = table.partition_equiv(m, n - 1)
            for i, j, _ in _related_pairs(listed, table.partition_equiv(m, n)):
                for a in alphabet:
                    for clause, (words, index) in zip(("first-a", "last-a"), views):
                        x, y = words[i], words[j]
                        if a not in x or a not in y:
                            continue
                        checked += 1
                        fx, fy = left_factorization(x, a), left_factorization(y, a)
                        if not (_agree(Edown, index, fx[0], fy[0]) and _agree(Esame, index, fx[1], fy[1])):
                            return CheckResult("equiv-factor-compat", False, checked,
                                               f"{clause} {listed[i]!r} {listed[j]!r} "
                                               f"a={a!r} (m={m},n={n})")
    return CheckResult("equiv-factor-compat", True, checked,
                       f"words up to {max_len}, m,n <= {_MAX_MN},{_MAX_MN}")


def _double_factorization(w: str, a: str, b: str):
    # u_minus a u_0 b u_plus with no a from the marker on and no b up to it
    ia, ib = w.rfind(a), w.find(b)
    if ia < 0 or ib < 0 or ia >= ib:
        return None
    return w[:ia], w[ia + 1:ib], w[ib + 1:]


def check_inner_segment(alphabet=("a", "b"), max_len: int = 6,
                        table: RankerTable | None = None) -> CheckResult:
    """Crossed factorization: between the last a and the first b after it,
    equivalent words have (m-1, n-1)-equivalent middle segments."""
    alphabet, table, [(words, index), _] = _word_table(alphabet, max_len, _MAX_MN, table)
    checked = 0
    for m in range(2, _MAX_MN + 1):
        for n in range(2, _MAX_MN + 1):
            Edown = table.partition_equiv(m - 1, n - 1)
            for i, j, _ in _related_pairs(words, table.partition_equiv(m, n)):
                u, v = words[i], words[j]
                for a in alphabet:
                    for b in alphabet:
                        du, dv = _double_factorization(u, a, b), _double_factorization(v, a, b)
                        if du and dv:
                            checked += 1
                            if not _agree(Edown, index, du[1], dv[1]):
                                return CheckResult("inner-segment-equiv", False, checked,
                                                   f"{u!r} {v!r} a={a!r} b={b!r} (m={m},n={n})")
    return CheckResult("inner-segment-equiv", True, checked,
                       f"words up to {max_len}, m,n <= {_MAX_MN},{_MAX_MN}")


def check_relation_congruence(alphabet=("a", "b"), max_len: int = 6, samples: int = 1000,
                              seed: int = 0, table: RankerTable | None = None) -> CheckResult:
    """Sampled congruence property of the one-sided relations: related words
    stay related under prepending and appending a letter."""
    # extensions lengthen words by one, so a built table covers max_len + 1
    alphabet, table, [(words, wi), _] = _word_table(alphabet, max_len + 1, _MAX_MN, table)
    relations = OneSided(table.alphabet, words)
    short = [w for w in words if len(w) <= max_len]
    rng = random.Random(seed)
    checked = 0
    for _ in range(samples):
        m = rng.randint(1, _MAX_MN)
        n = rng.randint(1, _MAX_MN)
        kind = rng.choice("RL")
        labels = (relations.right if kind == "R" else relations.left)(m, n)
        u = rng.choice(short)
        mates = [w for w in short if labels[wi[w]] == labels[wi[u]]]
        v = rng.choice(mates)
        c = rng.choice(alphabet)
        checked += 1
        if not (_agree(labels, wi, c + u, c + v) and _agree(labels, wi, u + c, v + c)):
            return CheckResult("relation-congruence", False, checked,
                               f"{kind} (m={m},n={n}) {u!r} {v!r} extended by {c!r}")
    return CheckResult("relation-congruence", True, checked, f"{samples} sampled extensions")


def check_subword_direction(alphabet=("a", "b"), max_len: int = 5,
                            table: RankerTable | None = None) -> CheckResult:
    """One-block equivalence at depth n forces equal subword sets up to n."""
    _, table, [(words, _), _] = _word_table(alphabet, max_len, 1, table)
    checked = 0
    for n in range(1, _MAX_MN + 1):
        E = table.partition_equiv(1, n)
        subs = [subwords_upto(w, n) for w in words]
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                if E[i] == E[j]:
                    checked += 1
                    if subs[i] != subs[j]:
                        return CheckResult("subword-direction", False, checked,
                                           f"{words[i]!r} {words[j]!r} n={n}")
    return CheckResult("subword-direction", True, checked, f"words up to {max_len}, n <= {_MAX_MN}")
