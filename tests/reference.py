"""Direct definitions that the tests compare the fast paths against.

None of these is called by the package.  They follow the definitions word
by word and ranker by ranker, so they are slow but easy to check by eye.
The word-level lemma suites, which read some of them, are in ``lemmas.py``.

* ``reference_rankers(alphabet, m, n, start)``: the rankers of depth <= n
  with <= m blocks, filtered by the starting direction, grown one
  instruction at a time as tuples; ``RankerTable`` enumerates them as
  parent and instruction arrays.
* ``is_condensed_no_overrun(r, u)``: condensedness as a simulation, which
  fails when a move lands on or passes a visited position; the tests check
  it against the interval chain of ``is_condensed``, the only
  condensedness in the package.
* ``rel_right(u, v, m, n)``: the same rankers among the X-starting ones of
  depth <= n with <= m blocks, plus the Y-starting ones of depth <= n-1
  with <= m-1 blocks, are condensed on u and on v; ``rel_left`` is the
  mirror image.  ``lemmas.OneSided`` labels words by these relations.
* ``equiv_wi(u, v, m, n)``: the same rankers of depth <= n and <= m blocks
  are defined on both, and four families of ranker pairs induce identical
  order types on both words.  ``RankerTable.partition_equiv`` gives each
  word the first word of its class under it.
* ``labels(table, m, n)``: those classes numbered by first appearance
  (``labels_of_firsts``); ``positions(table)``: every ranker's position on
  every word, 0 where undefined, as one rankers x words array;
  ``table_words(table)``: the table's words as a list of strings.
* ``r_factorize`` and ``l_factorize``: a word split along the strict drops
  of its prefixes' R-classes (suffixes' L-classes); ``l_factorize`` reads
  the R-classes of the reverse monoid, built once per monoid
  (``memo_reverse``).
* ``regex_matches``: regex matching by symbolic derivatives, independent
  of the automaton pipeline.
* ``reference_minimize``: DFA minimization in two walks, the reachable
  states first, then Moore refinement over them and a BFS renumbering of
  the merged automaton.
* ``omega_power`` and ``eval_term``: x^omega by walking the powers of x,
  and omega terms evaluated node by node.
* ``reference_phi_search``: the phi-word search carrying every reachable
  value tuple to the next depth; ``identities._phi_search`` carries only
  the failing ones.
* ``oracle_equiv_refines_morphism``: the refinement oracle at one n, on
  the full table or one it is given; ``least_oracle_n`` gives the answers
  of trying it at n = 1, 2, ... while it restricts the table to the words
  still in doubt.  ``check_oracle_bounds``: a corpus check that every
  monoid at Level(m) passes ``least_oracle_n`` at some n <= max_n.
* ``first_class_words`` and ``mixed_class_words``: the sorting forms of
  the oracle's refinement bookkeeping (``np.unique`` and ``np.isin``).
* ``refines``: whether one congruence's classes lie inside another's,
  element by element, both given as label arrays.
* ``reference_sim_k``, ``reference_sim_d`` and ``reference_sim_li``: the
  congruences as n x n relations over Green's J-classes, on any finite
  monoid, ~LI over every J-equivalent pair of idempotents;
  ``reference_in_Rm``, ``reference_in_Lm`` and ``reference_level``: the
  Mal'cev recursion level by level over them, with J-triviality read off
  the count of Green's J-classes; ``reference_chain``: the chain they walk.
"""

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from fo2level import identities
from fo2level.automata import (Concat, Dfa, EmptyWord, Letter, Regex, RegexNode, Star, Union,
                               _concat)
from fo2level.identities import Prod, Term, Var
from fo2level.corpus import CheckResult
from fo2level.monoid import FiniteMonoid, reverse_monoid
from fo2level.rankers import (X, Y, Ranker, RankerTable, _oracle_table, _word_images,
                              eval_ranker, is_condensed, least_oracle_n, ranker_positions)
from fo2level.varieties import LevelResult, quotient


# ---------------------------------------------------------------------------
# Word relations (direct definitions)
# ---------------------------------------------------------------------------

def reference_rankers(alphabet, m: int, n: int, start: str = "either") -> list[Ranker]:
    """All rankers with depth <= n and <= m blocks, optionally filtered by the
    starting direction.  Order: depth-major, then lexicographic with X
    before Y and letters in alphabet order."""
    if m < 1 or n < 1:
        return []
    if start not in (X, Y, "either"):
        raise ValueError("start must be 'X', 'Y' or 'either'")
    instr = [(X, a) for a in alphabet] + [(Y, a) for a in alphabet]
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
    rankers = reference_rankers(alpha, m, n, X) + reference_rankers(alpha, m - 1, n - 1, Y)
    return all(is_condensed(r, u) == is_condensed(r, v) for r in rankers)


def rel_left(u: str, v: str, m: int, n: int, alphabet=None) -> bool:
    """Same condensed rankers among Y-start (m, n) and X-start (m-1, n-1).

    Reversal swaps X and Y, so this is ``rel_right`` on the reversed words.
    """
    return rel_right(u[::-1], v[::-1], m, n, alphabet)


def _ord(i: int, j: int) -> int:
    return (i > j) - (i < j)


def equiv_wi(u: str, v: str, m: int, n: int, alphabet=None) -> bool:
    """Ranker equivalence: same defined rankers of depth <= n with <= m
    blocks, and equal order types for the four comparison families."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    alpha = _infer_alphabet(u, v, alphabet)
    rankers = reference_rankers(alpha, m, n)
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


_REVERSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def memo_reverse(monoid: FiniteMonoid) -> FiniteMonoid:
    """``reverse_monoid(monoid)``, built once per monoid and kept while the
    monoid lives, so a loop over words that reads its L-classes as the
    reverse's R-classes builds one copy."""
    rev = _REVERSES.get(monoid)
    if rev is None:
        rev = _REVERSES[monoid] = reverse_monoid(monoid)
    return rev


def l_factorize(monoid: FiniteMonoid, u: str) -> tuple[list[str], list[str]]:
    """Right-to-left dual of ``r_factorize``, along strict drops in the L-order.

    Returns (segments, markers) with u = segments[0] markers[0] segments[1]
    ... markers[k-1] segments[k]; the last segment keeps the L-class of the
    identity.  L-classes are the R-classes of the reverse monoid, so this
    is ``r_factorize`` there on the reversed word, read back in reverse.
    """
    segments, markers = r_factorize(memo_reverse(monoid), u[::-1])
    return [s[::-1] for s in reversed(segments)], markers[::-1]


# ---------------------------------------------------------------------------
# Regex matching by derivatives
# ---------------------------------------------------------------------------

def _nullable(node: RegexNode) -> bool:
    if isinstance(node, EmptyWord):
        return True
    if isinstance(node, Letter):
        return False
    if isinstance(node, Concat):
        return all(_nullable(p) for p in node.parts)
    if isinstance(node, Union):
        return any(_nullable(p) for p in node.parts)
    return True  # Star


_NEVER = Union(())  # empty union: matches nothing


def _derive(node: RegexNode, ch: str) -> RegexNode:
    if isinstance(node, EmptyWord):
        return _NEVER
    if isinstance(node, Letter):
        return EmptyWord() if node.symbol == ch else _NEVER
    if isinstance(node, Union):
        return Union(tuple(_derive(p, ch) for p in node.parts))
    if isinstance(node, Star):
        return _concat([_derive(node.inner, ch), node])
    # Concat p1..pk: the sum over i, with p1..p(i-1) nullable, of
    # d(p_i).p(i+1)..pk; a loop, so long nullable prefixes do not recurse
    branches = []
    for i, part in enumerate(node.parts):
        branches.append(_concat([_derive(part, ch), *node.parts[i + 1:]]))
        if not _nullable(part):
            break
    return Union(tuple(branches))


def _matches_node(node: RegexNode, word: str) -> bool:
    for ch in word:
        node = _derive(node, ch)
    return _nullable(node)


def regex_matches(r: Regex, word: str) -> bool:
    """Match by symbolic derivatives; used as an oracle for the DFA pipeline."""
    for ch in word:
        if ch not in r.alphabet:
            raise ValueError(f"letter {ch!r} outside alphabet")
    return _matches_node(r.root, word)


# ---------------------------------------------------------------------------
# DFA minimization
# ---------------------------------------------------------------------------

def _bfs_renumbered(d: Dfa) -> Dfa:
    """Renumber states by BFS from the initial state, letters in alphabet
    order; every state must be reachable."""
    order = [d.initial]
    rank = {d.initial: 0}
    for s in order:
        for t in d.delta[s]:
            if t not in rank:
                rank[t] = len(order)
                order.append(t)
    assert len(order) == d.n_states, "unreachable states"
    delta = tuple(tuple(rank[t] for t in d.delta[s]) for s in order)
    return Dfa(d.alphabet, delta, 0, frozenset(rank[f] for f in d.finals))


def reference_minimize(d: Dfa) -> Dfa:
    """Minimal DFA: keep the reachable states, merge them by Moore
    refinement, renumber by BFS."""
    reach = [d.initial]
    for s in reach:
        for t in d.delta[s]:
            if t not in reach:
                reach.append(t)
    block = {s: (s in d.finals) for s in reach}
    while True:
        sig = {s: (block[s], tuple(block[t] for t in d.delta[s])) for s in reach}
        relabel = {}
        for s in reach:
            relabel.setdefault(sig[s], len(relabel))
        new_block = {s: relabel[sig[s]] for s in reach}
        done = len(relabel) == len(set(block.values()))
        block = new_block
        if done:
            break
    delta = [None] * len(set(block.values()))
    finals = set()
    for s in reach:
        delta[block[s]] = tuple(block[t] for t in d.delta[s])
        if s in d.finals:
            finals.add(block[s])
    return _bfs_renumbered(Dfa(d.alphabet, tuple(delta), block[d.initial], frozenset(finals)))


# ---------------------------------------------------------------------------
# Omega terms
# ---------------------------------------------------------------------------

def omega_power(m: FiniteMonoid, x: int) -> int:
    """The unique idempotent among the powers of x: the first power of x
    that is idempotent (an idempotent power lies in the cycle of powers,
    which holds exactly one)."""
    y = x
    while m.mul(y, y) != y:
        y = m.mul(y, x)
    return y


def eval_term(m: FiniteMonoid, t: Term, assignment) -> int:
    """Evaluate a term under {variable index: element}; omega nodes take
    the idempotent power of their child's value."""
    if isinstance(t, Var):
        try:
            return assignment[t.index]
        except KeyError:
            raise ValueError(f"assignment does not cover x{t.index}") from None
    if isinstance(t, Prod):
        x = m.identity
        for p in t.parts:
            x = m.mul(x, eval_term(m, p, assignment))
        return x
    return omega_power(m, eval_term(m, t.inner, assignment))


def reference_phi_search(m: FiniteMonoid, max_assignments: int = 10_000_000):
    """The phi-word search over every reachable value tuple, on any monoid:
    (k, R witness, L witness) for k = 2, 3, ...; a witness is None where
    phi(G_k) = phi(I_k) (R) or its mirror (L) holds.  Each depth keeps all
    distinct tuples (g, g~, i, i~) in first-seen order with the candidate
    that first reached each, so witnesses are the least failing prefixes.
    The budget caps reachable tuples x |E| per step."""
    T, om = m.table, m.omega_table
    n = m.size
    if n ** 4 > np.iinfo(np.int64).max:
        raise identities.IdentityBudgetError(
            f"identity search too large: tuples over {n} elements do not fit a 64-bit key")
    reps = identities._representatives(m)
    d = len(reps)
    idem = om[reps]
    links = []          # per depth >= 2: the candidate index that first reached each tuple
    state = None        # 4 x tuples: rows g, g~, i, i~

    def witness(bad):
        """The prefix stored for the first tuple in bad, or None if bad is empty."""
        if not len(bad):
            return None
        s, xs = int(bad[0]), []
        for cand in reversed(links):
            s, x = divmod(int(cand[s]), d)
            xs.append(x)
        xs.append(s)
        return {j: int(reps[x]) for j, x in enumerate(reversed(xs), start=1)}

    count = d           # before the first step, the choices of x1
    for k in itertools.count(2):
        total = count * d
        if total > max_assignments:
            raise identities.IdentityBudgetError(
                f"identity search too large: {count} reachable tuples x {d} idempotents "
                f"at depth {k} exceed the budget of {max_assignments}")
        if state is not None:
            gg = om[T[state[0], state[1]]]
        seen = np.empty(0, dtype=np.int64)
        cands, values = [], []
        for base in range(0, total, identities._CHUNK):
            c = np.arange(base, min(base + identities._CHUNK, total), dtype=np.int64)
            old, e = c // d, idem[c % d]
            if state is None:
                p1 = om[T[T[idem[old], e], idem[old]]]
                g, gt = T[e, p1], T[p1, e]
                i = it = T[g, e]
            else:
                g0, gt0, i0, it0 = state[:, old]
                phi = om[T[T[e, gg[old]], e]]
                g, gt = T[phi, gt0], T[g0, phi]
                i, it = T[T[g, phi], it0], T[T[i0, phi], gt]
            key = ((g.astype(np.int64) * n + gt) * n + i) * n + it
            uniq, first = np.unique(key, return_index=True)
            if len(seen):
                at = np.searchsorted(seen, uniq)
                fresh = seen[np.minimum(at, len(seen) - 1)] != uniq
                uniq, first = uniq[fresh], first[fresh]
                seen = np.insert(seen, at[fresh], uniq)
            else:
                seen = uniq
            first.sort()
            cands.append(c[first])
            values.append(np.stack((g[first], gt[first], i[first], it[first])))
        links.append(np.concatenate(cands))
        state = np.concatenate(values, axis=1)
        count = state.shape[1]
        yield (k, witness(np.flatnonzero(state[0] != state[2])),
               witness(np.flatnonzero(state[1] != state[3])))


# ---------------------------------------------------------------------------
# The refinement oracle at one n, and its bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleOutcome:
    holds: bool
    counterexample: tuple[str, str] | None
    num_classes: int


def oracle_equiv_refines_morphism(monoid: FiniteMonoid, m: int, n: int, max_len: int,
                                  table: RankerTable | None = None) -> OracleOutcome:
    """Check that ranker equivalence at (m, n) refines the word morphism.

    Enumerates all words up to max_len over the generator alphabet (or
    reads the given table, whatever max_len), partitions them by
    ranker-equivalence signature, and verifies the morphism image is
    constant on every class.  The first violating pair (in word list
    order) is returned as a counterexample.
    """
    if table is None:
        table = _oracle_table(monoid, m, n, max_len)
    rep = table.partition_equiv(m, n)
    images = _word_images(monoid, table)
    bad = images != images[rep]
    classes = int(np.count_nonzero(rep == np.arange(len(rep))))
    if bad.any():
        j = int(np.argmax(bad))
        return OracleOutcome(False, (table.words.word(rep[j]), table.words.word(j)), classes)
    return OracleOutcome(True, None, classes)


def check_oracle_bounds(entries, max_n: int = 8, max_len: int = 6) -> CheckResult:
    """Every corpus monoid at Level(m) admits n <= max_n with the
    equivalence-refines-morphism oracle passing on words up to max_len."""
    checked = 0
    for e in entries:
        if not e.level.is_level:
            continue
        m = e.level.m
        n, counterexample = least_oracle_n(e.monoid, m, max_n, max_len)
        checked += 1
        if n is None:
            return CheckResult("equivalence-oracle-bound", False, checked,
                               f"no n <= {max_n} at level {m}, size={e.monoid.size}, "
                               f"counterexample {counterexample}")
    return CheckResult("equivalence-oracle-bound", True, checked,
                       f"n <= {max_n}, words up to {max_len}")


def labels_of_firsts(rep: np.ndarray) -> np.ndarray:
    """Labels numbered by first appearance, from each row's first equal row:
    the rows that are their own first take 0, 1, ... in order."""
    first = np.flatnonzero(rep == np.arange(len(rep)))
    out = np.empty(len(rep), dtype=np.int32)
    out[first] = np.arange(len(first), dtype=np.int32)
    return out.take(rep)


def labels(table: RankerTable, m: int, n: int) -> np.ndarray:
    """The table's equivalence classes at (m, n), numbered by first appearance."""
    return labels_of_firsts(table.partition_equiv(m, n))


def positions(table: RankerTable) -> np.ndarray:
    """Position of each ranker (row) on each word (column), 0 where it is
    undefined; fills every depth of the table."""
    table._fill(table.max_depth)
    out = np.empty((table._ends[-1], len(table.words)), dtype=np.int16)
    for block, lo, hi in zip(table._value_blocks, table._ends, table._ends[1:]):
        out[lo:hi] = block
    return out


def table_words(table: RankerTable) -> list[str]:
    """The table's words, decoded one by one."""
    return [table.words.word(i) for i in range(len(table.words))]


def first_class_words(labels: np.ndarray) -> np.ndarray:
    """Per word, the index of the first word of its label class."""
    return np.unique(labels, return_index=True)[1][labels]


def mixed_class_words(labels: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """The increasing indices of the words whose class holds a word in bad."""
    return np.flatnonzero(np.isin(labels, labels[bad]))


# ---------------------------------------------------------------------------
# Congruences
# ---------------------------------------------------------------------------

def refines(fine: np.ndarray, coarse: np.ndarray) -> bool:
    """Every class of the labels `fine` lies inside a single class of `coarse`."""
    if len(fine) != len(coarse):
        raise ValueError("labels of different monoids")
    seen = {}
    for x in range(len(fine)):
        f, c = int(fine[x]), int(coarse[x])
        if seen.setdefault(f, c) != c:
            return False
    return True


def pairwise_labels(m, images):
    """Labels of the relation "both leave the anchor's J-class, or equal images",
    intersected over (anchor, images) pairs, numbered by smallest element."""
    jcls = m.greens().j_class
    n = m.size
    rel = np.ones((n, n), dtype=bool)
    for anchor, img in images:
        below = jcls[img] != jcls[anchor]
        rel &= (below[:, None] & below[None, :]) | (img[:, None] == img[None, :])
    assert np.array_equal(rel, rel.T) and not (rel @ rel & ~rel).any()
    labels = np.full(n, -1, dtype=np.int32)
    nxt = 0
    for i in range(n):
        if labels[i] < 0:
            labels[rel[i]] = nxt
            nxt += 1
    return labels


def reference_sim_k(m):
    return pairwise_labels(m, [(e, m.table[e, :]) for e in m.idempotent_array.tolist()])


def reference_sim_d(m):
    return pairwise_labels(m, [(f, m.table[:, f]) for f in m.idempotent_array.tolist()])


def reference_sim_li(m):
    T, jcls = m.table, m.greens().j_class
    return pairwise_labels(m, [(e, T[T[e, :], f]) for e in m.idempotent_array.tolist()
                               for f in m.idempotent_array.tolist() if jcls[e] == jcls[f]])


def reference_quotient(m, reference):
    return quotient(m, reference(m))


def reference_j_trivial(m):
    return m.greens().num_j == m.size


def reference_in_Rm(m, level):
    if level == 1:
        return reference_j_trivial(m)
    return reference_in_Lm(reference_quotient(m, reference_sim_k), level - 1)


def reference_in_Lm(m, level):
    if level == 1:
        return reference_j_trivial(m)
    return reference_in_Rm(reference_quotient(m, reference_sim_d), level - 1)


def reference_level(m, max_m):
    if not m.is_in_da():
        return LevelResult("not-fo2")
    for d in range(1, max(max_m, m.size + 1) + 1):
        if reference_in_Rm(m, d + 1) and reference_in_Lm(m, d + 1):
            return LevelResult("level", d) if d <= max_m else LevelResult("exceeded", max_m)
    raise AssertionError("no level up to size+1")


def reference_chain(m, side):
    """M, M/~K, (M/~K)/~D, ... (side "R", ~D first for "L") by the reference
    congruences, up to the first J-trivial member or two steps in a row
    that keep the size (after which every quotient is the same table)."""
    steps = (reference_sim_k, reference_sim_d) if side == "R" else (reference_sim_d,
                                                                    reference_sim_k)
    chain = [m]
    while not reference_j_trivial(chain[-1]) and (
            len(chain) < 3 or chain[-3].size > chain[-1].size):
        chain.append(reference_quotient(chain[-1], steps[(len(chain) - 1) % 2]))
    return chain
