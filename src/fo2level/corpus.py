"""Random-DFA corpus generation and the cross-validation property battery.

The corpus is a seeded stream of random complete DFAs (bounded state count,
fixed alphabet), minimized and analyzed.  Only a few hundred distinct
minimal DFAs exist at desk scale, so corpora deliberately keep duplicate
draws.  The checkers below exercise, at desk scale, the monoid-level facts
the decision procedure rests on: agreement of the two membership routes,
hierarchy monotonicity, congruence verification and the element-level
stability properties.  Each checker returns a CheckResult so the CLI and
the acceptance suite can share them.  The word-level lemma suites on the
ranker relations are test code (``tests/lemmas.py``).
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
from .rankers import RankerBudgetError
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
