"""Random-DFA corpus generation and the cross-validation property battery.

The corpus is a seeded stream of random complete DFAs (bounded state count,
fixed alphabet), minimized and analyzed.  Only a few hundred distinct
minimal DFAs exist at desk scale, so corpora deliberately keep duplicate
draws.  The checkers below exercise, at desk scale, the facts the decision
procedure rests on: agreement of the two membership routes, hierarchy
monotonicity, congruence verification, the element- and word-level
stability properties, factorization compatibility of the ranker relations,
and the ranker table's condensedness against its scalar definition.  Each
checker returns a CheckResult so the CLI and the acceptance suite can share
them.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .automata import Dfa, all_words, minimize
from .identities import (check_straubing, in_Lm_by_identities,
                         in_Rm_by_identities)
from .monoid import FiniteMonoid, reverse_monoid, transition_monoid
from .rankers import (RankerBudgetError, RankerTable, _all_words_size, _ranker_count, is_condensed,
                      left_factorization, right_factorization, subwords_upto)
from .varieties import LevelResult, fo2_level, in_Lm, in_Rm, quotient, sim_d, sim_k, sim_li


@dataclass(frozen=True)
class CorpusEntry:
    dfa: Dfa
    monoid: FiniteMonoid
    level: LevelResult


@dataclass
class CheckResult:
    name: str
    ok: bool
    checked: int
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"check {self.name}: {status} [{self.checked} checked]{extra}"


def random_dfa(rng: random.Random, max_states: int, alphabet) -> Dfa:
    ns = rng.randint(1, max_states)
    delta = tuple(tuple(rng.randrange(ns) for _ in alphabet) for _ in range(ns))
    finals = frozenset(s for s in range(ns) if rng.random() < 0.5)
    return Dfa(tuple(alphabet), delta, 0, finals)


def corpus_alphabet(letters: int) -> tuple[str, ...]:
    return tuple(string.ascii_lowercase[:letters])


def _draws(seed: int, max_states: int, letters: int, max_m: int):
    """The seeded stream of random DFAs, each minimized once and analyzed."""
    rng = random.Random(seed)
    alpha = corpus_alphabet(letters)
    while True:
        dfa = minimize(random_dfa(rng, max_states, alpha))
        mono = transition_monoid(dfa)
        yield CorpusEntry(dfa=dfa, monoid=mono, level=fo2_level(mono, max_m))


def make_entries(seed: int, count: int, max_states: int = 4, letters: int = 2) -> list[CorpusEntry]:
    """`count` random draws, each minimized and analyzed (duplicates kept)."""
    return list(islice(_draws(seed, max_states, letters, 6), count))


# ---------------------------------------------------------------------------
# Monoid-level checks
# ---------------------------------------------------------------------------

def check_dual_route(entries) -> CheckResult:
    """Quotient-recursion membership equals identity-checking membership at m = 2, 3."""
    checked = 0
    for e in entries:
        for m in (2, 3):
            checked += 2
            if in_Rm(e.monoid, m) != in_Rm_by_identities(e.monoid, m):
                return CheckResult("dual-route-agreement", False, checked,
                                   f"R disagreement at m={m}, size={e.monoid.size}")
            if in_Lm(e.monoid, m) != in_Lm_by_identities(e.monoid, m):
                return CheckResult("dual-route-agreement", False, checked,
                                   f"L disagreement at m={m}, size={e.monoid.size}")
    return CheckResult("dual-route-agreement", True, checked, "m in {2, 3}")


def check_level_anchors(entries) -> CheckResult:
    """Level 1 exactly for J-trivial; level-2 memberships match R/L-triviality."""
    checked = 0
    for e in entries:
        checked += 1
        mono = e.monoid
        if mono.is_in_da() and (e.level.is_level and e.level.m == 1) != mono.is_j_trivial():
            return CheckResult("level-anchors", False, checked, "level-1 vs J-trivial")
        if in_Rm(mono, 2) != mono.is_r_trivial():
            return CheckResult("level-anchors", False, checked, "R_2 vs R-trivial")
        if in_Lm(mono, 2) != mono.is_l_trivial():
            return CheckResult("level-anchors", False, checked, "L_2 vs L-trivial")
    return CheckResult("level-anchors", True, checked)


def check_monotonicity(entries) -> CheckResult:
    """R_m or L_m membership (m = 1, 2, 3) implies both one level up, and DA."""
    checked = 0
    for e in entries:
        for m in (1, 2, 3):
            checked += 1
            r, l = in_Rm(e.monoid, m), in_Lm(e.monoid, m)
            if (r or l) and not (in_Rm(e.monoid, m + 1) and in_Lm(e.monoid, m + 1)):
                return CheckResult("hierarchy-monotonicity", False, checked,
                                   f"m={m}, size={e.monoid.size}")
            if (r or l) and not e.monoid.is_in_da():
                return CheckResult("hierarchy-monotonicity", False, checked,
                                   f"member outside DA at m={m}")
    return CheckResult("hierarchy-monotonicity", True, checked, "m in {1, 2, 3}")


def check_congruence_quotients(entries) -> CheckResult:
    """quotient() accepts sim_k, sim_d and sim_li on every DA corpus monoid."""
    checked = 0
    for e in entries:
        for rel in (sim_k, sim_d, sim_li):
            checked += 1
            quotient(e.monoid, rel(e.monoid))  # raises NotACongruenceError on failure
    return CheckResult("congruence-quotients", True, checked)


def check_action_agreement(entries) -> CheckResult:
    """Exhaustive element check: s R s*x and x ~K y force s*x == s*y.  The
    dual (s L x*s and x ~D y force x*s == y*s) is the same check on the
    reverse monoid, whose R-classes are the L-classes and whose ~K is ~D;
    both run per pair (x, y), right before left."""
    checked = 0
    for e in entries:
        n = e.monoid.size
        sides = [(side, mono.table, mono.greens().r_class, sim_k(mono).class_of)
                 for side, mono in (("right", e.monoid), ("left", reverse_monoid(e.monoid)))]
        for x in range(n):
            for y in range(n):
                for side, T, rcls, ck in sides:
                    if ck[x] != ck[y]:
                        continue
                    bad = (rcls == rcls[T[:, x]]) & (T[:, x] != T[:, y])
                    if bad.any():
                        s = int(np.argmax(bad))
                        return CheckResult("stable-action-agreement", False, checked + s + 1,
                                           f"{side}: s={s} x={x} y={y} size={n}")
                    checked += n
    return CheckResult("stable-action-agreement", True, checked)


# Most word triples ``check_alphabet_stability`` may visit per monoid (5 letters: 156^3; 6: 259^3)
MAX_TRIPLES = 10_000_000


def check_alphabet_stability(entries, max_len: int = 4) -> CheckResult:
    """On DA monoids: phi(x) R phi(xy) and alph(z) within alph(y) force
    phi(x) R phi(xz), over all word triples up to max_len; RankerBudgetError
    past ``MAX_TRIPLES`` triples, counted before any word is built."""
    checked = 0
    for e in entries:
        mono = e.monoid
        if not mono.is_in_da():
            continue
        count = sum(len(mono.gens) ** length for length in range(max_len + 1))
        if count ** 3 > MAX_TRIPLES:
            raise RankerBudgetError(f"alphabet stability: {count}^3 word triples up to length "
                                    f"{max_len} exceed the budget of {MAX_TRIPLES}")
        rcls = mono.greens().r_class
        words = all_words(tuple(mono.gens), max_len)
        images = {w: mono.eval_word(w) for w in words}
        alphs = {w: frozenset(w) for w in words}
        for x in words:
            px = images[x]
            for y in words:
                if rcls[px] != rcls[mono.mul(px, images[y])]:
                    continue
                ay = alphs[y]
                for z in words:
                    if alphs[z] <= ay:
                        checked += 1
                        if rcls[px] != rcls[mono.mul(px, images[z])]:
                            return CheckResult("alphabet-stability", False, checked,
                                               f"x={x!r} y={y!r} z={z!r} size={mono.size}")
    return CheckResult("alphabet-stability", True, checked, f"words up to {max_len}")


# ---------------------------------------------------------------------------
# Word-level checks (monoid independent)
# ---------------------------------------------------------------------------

_MAX_MN = 3  # the block and depth bounds of the word-level checks


def _word_table(alphabet, max_len: int, max_m: int, table: RankerTable | None):
    """The alphabet, the given table (or one over all words up to max_len)
    and its two views, each a word list and an index of the words' rows: the
    table's words, and their mirror images, where the reverse of a word
    finds that word's row.  A clause run on a pair's mirror images through
    the mirror view reads the labels of the reversed factors of the pair."""
    alphabet = tuple(alphabet)
    if table is None:
        table = RankerTable(alphabet, max_m, _MAX_MN, max_len)
    words = list(table.words)
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
    checked = 0
    name = "factor-compat" + ("-with-suffix-clause" if include_suffix_clause else "")
    for m in range(2, _MAX_MN + 1):
        for n in range(2, _MAX_MN + 1):
            R, L = table.partition_right(m, n), table.partition_left(m, n)
            sides = ((_FACTOR_CLAUSES[0], *views[0], table.partition_right(m, n - 1),
                      table.partition_left(m - 1, n - 1)),
                     (_FACTOR_CLAUSES[1], *views[1], table.partition_left(m, n - 1),
                      table.partition_right(m - 1, n - 1)))
            for i, j, related in _related_pairs(table.words, R, L):
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
                            return CheckResult(name, False, checked, f"{failed} {table.words[i]!r} "
                                               f"{table.words[j]!r} a={a!r} (m={m},n={n})")
    return CheckResult(name, True, checked, f"words up to {max_len}, m,n <= {_MAX_MN},{_MAX_MN}")


def check_equiv_factor(alphabet=("a", "b"), max_len: int = 6,
                       table: RankerTable | None = None) -> CheckResult:
    """Equivalence factor compatibility: u ~ v at (m, n) with first-a factors
    gives prefixes at (m-1, n-1) and suffixes at (m, n-1); mirrored for
    last-a factors, which is the first-a clause on the mirror images."""
    alphabet, table, views = _word_table(alphabet, max_len, _MAX_MN, table)
    checked = 0
    for m in range(2, _MAX_MN + 1):
        for n in range(2, _MAX_MN + 1):
            Edown = table.partition_equiv(m - 1, n - 1)
            Esame = table.partition_equiv(m, n - 1)
            for i, j, _ in _related_pairs(table.words, table.partition_equiv(m, n)):
                for a in alphabet:
                    for clause, (words, index) in zip(("first-a", "last-a"), views):
                        x, y = words[i], words[j]
                        if a not in x or a not in y:
                            continue
                        checked += 1
                        fx, fy = left_factorization(x, a), left_factorization(y, a)
                        if not (_agree(Edown, index, fx[0], fy[0]) and _agree(Esame, index, fx[1], fy[1])):
                            return CheckResult("equiv-factor-compat", False, checked,
                                               f"{clause} {table.words[i]!r} {table.words[j]!r} "
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
    short = [w for w in words if len(w) <= max_len]
    rng = random.Random(seed)
    checked = 0
    for _ in range(samples):
        m = rng.randint(1, _MAX_MN)
        n = rng.randint(1, _MAX_MN)
        kind = rng.choice("RL")
        labels = (table.partition_right if kind == "R" else table.partition_left)(m, n)
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
    _, table, _ = _word_table(alphabet, max_len, 1, table)
    checked = 0
    for n in range(1, _MAX_MN + 1):
        E = table.partition_equiv(1, n)
        subs = [subwords_upto(w, n) for w in table.words]
        for i in range(len(table.words)):
            for j in range(i + 1, len(table.words)):
                if E[i] == E[j]:
                    checked += 1
                    if subs[i] != subs[j]:
                        return CheckResult("subword-direction", False, checked,
                                           f"{table.words[i]!r} {table.words[j]!r} n={n}")
    return CheckResult("subword-direction", True, checked, f"words up to {max_len}, n <= {_MAX_MN}")


# Most ranker x word cells ``check_condensed_semantics`` may compare (5 letters: 1110 x 3906; 6: 1884 x 9331)
MAX_CELLS = 10_000_000


def check_condensed_semantics(alphabet=("a", "b"), max_len: int = 6) -> CheckResult:
    """The condensedness rows of a ``RankerTable``, which the one-sided
    partitions read, agree with the scalar interval chain ``is_condensed``,
    cell by cell in ranker-major order, on all words up to max_len;
    RankerBudgetError past ``MAX_CELLS`` cells, counted before any word is
    built."""
    k = len(alphabet)
    rankers, words = _ranker_count(k, _MAX_MN, _MAX_MN), _all_words_size(k, max_len)[0]
    if rankers * words > MAX_CELLS:
        raise RankerBudgetError(f"condensed semantics: {rankers} rankers x {words} words up to length "
                                f"{max_len} exceed the budget of {MAX_CELLS} cells")
    table = RankerTable(alphabet, _MAX_MN, _MAX_MN, max_len)
    checked = 0
    for r, row in zip(table.rankers, table.condensed.tolist()):
        for w, cell in zip(table.words, row):
            checked += 1
            if cell != is_condensed(r, w):
                return CheckResult("condensed-semantics-agreement", False, checked,
                                   f"ranker {r} on {w!r}")
    return CheckResult("condensed-semantics-agreement", True, checked,
                       f"depth <= {_MAX_MN}, words up to {max_len}")


# ---------------------------------------------------------------------------
# Straubing tally (experimental, never gating)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TallyRow:
    m: int
    agree: int
    total: int

    def line(self) -> str:
        pct = 100.0 * self.agree / self.total if self.total else 100.0
        return (f"straubing tally m={self.m}: agree {self.agree}/{self.total} "
                f"({pct:.1f}%) [experimental, interpreted recursion]")


def straubing_tally(entries) -> list[TallyRow]:
    """Agreement between the conjectured identities and (aperiodic and level <= m), m = 1, 2."""
    rows = []
    for m in (1, 2):
        agree = 0
        total = 0
        for e in entries:
            total += 1
            conj = check_straubing(e.monoid, m)
            truth = e.monoid.is_aperiodic() and e.level.is_level and e.level.m <= m
            if conj == truth:
                agree += 1
        rows.append(TallyRow(m, agree, total))
    return rows
