"""Random-DFA corpus generation and the cross-validation property battery.

The corpus is a seeded stream of random complete DFAs (bounded state count,
fixed alphabet), minimized and analyzed.  Only a few hundred distinct
minimal DFAs exist at desk scale, so corpora deliberately keep duplicate
draws.  The checkers below exercise, at desk scale, the facts the decision
procedure rests on: agreement of the two membership routes, hierarchy
monotonicity, congruence verification, the element- and word-level
stability properties, factorization compatibility of the ranker relations,
and the refinement oracles.  Each checker returns a CheckResult so the CLI
and the acceptance suite can share them.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from .automata import Dfa, all_words, minimize
from .identities import (check_straubing, in_Lm_by_identities,
                         in_Rm_by_identities)
from .monoid import FiniteMonoid, transition_monoid
from .rankers import (RankerTable, is_condensed, is_condensed_no_overrun,
                      enumerate_rankers, least_oracle_n,
                      left_factorization, right_factorization,
                      oracle_right_refines_morphism, subwords_upto)
from .varieties import LevelResult, fo2_level, in_Lm, in_Rm, quotient, sim_d, sim_k, sim_li


@dataclass(frozen=True)
class CorpusEntry:
    dfa: Dfa
    monoid: FiniteMonoid
    aperiodic: bool
    in_da: bool
    j_trivial: bool
    r_trivial: bool
    l_trivial: bool
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


def analyze_dfa(dfa: Dfa, max_m: int = 6) -> CorpusEntry:
    mono = transition_monoid(minimize(dfa))
    return CorpusEntry(
        dfa=dfa,
        monoid=mono,
        aperiodic=mono.is_aperiodic(),
        in_da=mono.is_in_da(),
        j_trivial=mono.is_j_trivial(),
        r_trivial=mono.is_r_trivial(),
        l_trivial=mono.is_l_trivial(),
        level=fo2_level(mono, max_m),
    )


def make_entries(seed: int, count: int, max_states: int = 4, letters: int = 2,
                 max_m: int = 6) -> list[CorpusEntry]:
    """`count` random draws, each minimized and analyzed (duplicates kept)."""
    rng = random.Random(seed)
    alpha = corpus_alphabet(letters)
    return [analyze_dfa(minimize(random_dfa(rng, max_states, alpha)), max_m)
            for _ in range(count)]


def da_entries(seed: int, target: int, max_states: int = 4, letters: int = 2,
               max_m: int = 6, max_draws: int = 200_000) -> list[CorpusEntry]:
    """Rejection-sample random minimal DFAs until `target` have monoids in DA."""
    rng = random.Random(seed)
    alpha = corpus_alphabet(letters)
    out: list[CorpusEntry] = []
    for _ in range(max_draws):
        if len(out) >= target:
            break
        entry = analyze_dfa(minimize(random_dfa(rng, max_states, alpha)), max_m)
        if entry.in_da:
            out.append(entry)
    if len(out) < target:
        raise RuntimeError(f"could not collect {target} DA monoids in {max_draws} draws")
    return out


# ---------------------------------------------------------------------------
# Monoid-level checks
# ---------------------------------------------------------------------------

def check_dual_route(entries, ms=(2, 3)) -> CheckResult:
    """Quotient-recursion membership equals identity-checking membership."""
    checked = 0
    for e in entries:
        for m in ms:
            checked += 2
            if in_Rm(e.monoid, m) != in_Rm_by_identities(e.monoid, m):
                return CheckResult("dual-route-agreement", False, checked,
                                   f"R disagreement at m={m}, size={e.monoid.size}")
            if in_Lm(e.monoid, m) != in_Lm_by_identities(e.monoid, m):
                return CheckResult("dual-route-agreement", False, checked,
                                   f"L disagreement at m={m}, size={e.monoid.size}")
    return CheckResult("dual-route-agreement", True, checked, f"m in {set(ms)}")


def check_level_anchors(entries) -> CheckResult:
    """Level 1 exactly for J-trivial; level-2 memberships match R/L-triviality."""
    checked = 0
    for e in entries:
        checked += 1
        if e.in_da and (e.level.is_level and e.level.m == 1) != e.j_trivial:
            return CheckResult("level-anchors", False, checked, "level-1 vs J-trivial")
        if in_Rm(e.monoid, 2) != e.r_trivial:
            return CheckResult("level-anchors", False, checked, "R_2 vs R-trivial")
        if in_Lm(e.monoid, 2) != e.l_trivial:
            return CheckResult("level-anchors", False, checked, "L_2 vs L-trivial")
    return CheckResult("level-anchors", True, checked)


def check_monotonicity(entries, ms=(1, 2, 3)) -> CheckResult:
    """R_m or L_m membership implies both memberships one level up, and DA."""
    checked = 0
    for e in entries:
        for m in ms:
            checked += 1
            r, l = in_Rm(e.monoid, m), in_Lm(e.monoid, m)
            if (r or l) and not (in_Rm(e.monoid, m + 1) and in_Lm(e.monoid, m + 1)):
                return CheckResult("hierarchy-monotonicity", False, checked,
                                   f"m={m}, size={e.monoid.size}")
            if (r or l) and not e.in_da:
                return CheckResult("hierarchy-monotonicity", False, checked,
                                   f"member outside DA at m={m}")
    return CheckResult("hierarchy-monotonicity", True, checked, f"m in {set(ms)}")


def check_congruence_quotients(entries) -> CheckResult:
    """quotient() accepts sim_k, sim_d and sim_li on every DA corpus monoid."""
    checked = 0
    for e in entries:
        for rel in (sim_k, sim_d, sim_li):
            checked += 1
            quotient(e.monoid, rel(e.monoid))  # raises NotACongruenceError on failure
    return CheckResult("congruence-quotients", True, checked)


def check_action_agreement(entries) -> CheckResult:
    """Exhaustive element check: s R s*x and x ~K y force s*x == s*y (and dual)."""
    checked = 0
    for e in entries:
        mono = e.monoid
        T = mono.table
        g = mono.greens()
        rcls, lcls = g.r_class, g.l_class
        ck = sim_k(mono).class_of
        cd = sim_d(mono).class_of
        n = mono.size
        for x in range(n):
            for y in range(n):
                if ck[x] == ck[y]:
                    for s in range(n):
                        checked += 1
                        if rcls[s] == rcls[T[s, x]] and T[s, x] != T[s, y]:
                            return CheckResult("stable-action-agreement", False, checked,
                                               f"right: s={s} x={x} y={y} size={n}")
                if cd[x] == cd[y]:
                    for s in range(n):
                        checked += 1
                        if lcls[s] == lcls[T[x, s]] and T[x, s] != T[y, s]:
                            return CheckResult("stable-action-agreement", False, checked,
                                               f"left: s={s} x={x} y={y} size={n}")
    return CheckResult("stable-action-agreement", True, checked)


def check_alphabet_stability(entries, max_len: int = 4) -> CheckResult:
    """On DA monoids: phi(x) R phi(xy) and alph(z) within alph(y) force
    phi(x) R phi(xz), over all word triples up to max_len."""
    checked = 0
    for e in entries:
        if not e.in_da:
            continue
        mono = e.monoid
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


def check_oracle_bounds(entries, max_n: int = 8, max_len: int = 6) -> CheckResult:
    """Every corpus monoid at Level(m) admits n <= max_n with the
    equivalence-refines-morphism oracle passing on words up to max_len."""
    checked = 0
    tables: dict[tuple, RankerTable] = {}
    for e in entries:
        if not e.level.is_level:
            continue
        m = e.level.m
        alpha = tuple(e.monoid.gens)
        key = (alpha, m)
        if key not in tables:
            tables[key] = RankerTable(alpha, m, max_n, all_words(alpha, max_len))
        n, counterexample = least_oracle_n(e.monoid, m, max_n, max_len, table=tables[key])
        checked += 1
        if n is None:
            return CheckResult("equivalence-oracle-bound", False, checked,
                               f"no n <= {max_n} at level {m}, size={e.monoid.size}, "
                               f"counterexample {counterexample}")
    return CheckResult("equivalence-oracle-bound", True, checked,
                       f"n <= {max_n}, words up to {max_len}")


def check_right_oracle_bounds(entries, max_n: int = 8, max_len: int = 6,
                              max_level: int = 4) -> CheckResult:
    """R_m members admit n with the right-relation refining the morphism
    (and dually for L_m via the left relation on mirrored input)."""
    checked = 0
    tables: dict[tuple, RankerTable] = {}
    for e in entries:
        mono = e.monoid
        m_r = next((m for m in range(1, max_level + 1) if in_Rm(mono, m)), None)
        if m_r is None:
            continue
        alpha = tuple(mono.gens)
        key = (alpha, m_r, max_n)
        if key not in tables:
            tables[key] = RankerTable(alpha, m_r, max_n, all_words(alpha, max_len))
        ok = False
        for n in range(1, max_n + 1):
            checked += 1
            if oracle_right_refines_morphism(mono, m_r, n, max_len, table=tables[key]).holds:
                ok = True
                break
        if not ok:
            return CheckResult("right-relation-oracle-bound", False, checked,
                               f"R_{m_r} member, size={mono.size}, no n <= {max_n}")
    return CheckResult("right-relation-oracle-bound", True, checked,
                       f"n <= {max_n}, words up to {max_len}")


# ---------------------------------------------------------------------------
# Word-level checks (monoid independent)
# ---------------------------------------------------------------------------

def _partition(table: RankerTable, kind: str, m: int, n: int):
    if kind == "R":
        return table.partition_right(m, n)
    if kind == "L":
        return table.partition_left(m, n)
    return table.partition_equiv(m, n)


def check_factor_compat(alphabet=("a", "b"), max_len: int = 6, max_m: int = 3,
                        max_n: int = 3, include_suffix_clause: bool = False,
                        table: RankerTable | None = None) -> CheckResult:
    """Factor compatibility of the one-sided relations under first/last-letter
    factorizations, including the mirror-dual statements.

    Checked clauses: under u R_{m,n} v, first-a factors are R_{m,n-1}-related
    (both sides) and the last-a prefix factor is R_{m,n-1}-related; dually for
    the left relation.  The last-a suffix clause (claimed L_{m-1,n-1}) has
    known counterexamples and is only checked when include_suffix_clause is
    set.
    """
    alphabet = tuple(alphabet)
    if table is None:
        table = RankerTable(alphabet, max_m, max_n, all_words(alphabet, max_len))
    wi = {w: k for k, w in enumerate(table.words)}
    checked = 0
    name = "factor-compat" + ("-with-suffix-clause" if include_suffix_clause else "")
    for m in range(2, max_m + 1):
        for n in range(2, max_n + 1):
            R = table.partition_right(m, n)
            Rn1 = table.partition_right(m, n - 1)
            L = table.partition_left(m, n)
            Ln1 = table.partition_left(m, n - 1)
            Lsuf = table.partition_left(m - 1, n - 1) if (m - 1 >= 1 and n - 1 >= 1) else None
            Rsuf = table.partition_right(m - 1, n - 1) if (m - 1 >= 1 and n - 1 >= 1) else None
            for i, u in enumerate(table.words):
                for j in range(i + 1, len(table.words)):
                    v = table.words[j]
                    rel_r = R[i] == R[j]
                    rel_l = L[i] == L[j]
                    if not (rel_r or rel_l):
                        continue
                    for a in alphabet:
                        fu, fv = left_factorization(u, a), left_factorization(v, a)
                        gu, gv = right_factorization(u, a), right_factorization(v, a)
                        if rel_r:
                            if fu and fv:
                                checked += 1
                                if (Rn1[wi[fu[0]]] != Rn1[wi[fv[0]]]
                                        or Rn1[wi[fu[1]]] != Rn1[wi[fv[1]]]):
                                    return CheckResult(name, False, checked,
                                                       f"right/left-factor {u!r} {v!r} a={a!r} (m={m},n={n})")
                            if gu and gv:
                                checked += 1
                                if Rn1[wi[gu[0]]] != Rn1[wi[gv[0]]]:
                                    return CheckResult(name, False, checked,
                                                       f"right/last-prefix {u!r} {v!r} a={a!r} (m={m},n={n})")
                                if include_suffix_clause and Lsuf is not None:
                                    if Lsuf[wi[gu[1]]] != Lsuf[wi[gv[1]]]:
                                        return CheckResult(name, False, checked,
                                                           f"right/last-suffix {u!r} {v!r} a={a!r} (m={m},n={n})")
                        if rel_l:
                            if gu and gv:
                                checked += 1
                                if (Ln1[wi[gu[0]]] != Ln1[wi[gv[0]]]
                                        or Ln1[wi[gu[1]]] != Ln1[wi[gv[1]]]):
                                    return CheckResult(name, False, checked,
                                                       f"left/right-factor {u!r} {v!r} a={a!r} (m={m},n={n})")
                            if fu and fv:
                                checked += 1
                                if Ln1[wi[fu[1]]] != Ln1[wi[fv[1]]]:
                                    return CheckResult(name, False, checked,
                                                       f"left/first-suffix {u!r} {v!r} a={a!r} (m={m},n={n})")
                                if include_suffix_clause and Rsuf is not None:
                                    if Rsuf[wi[fu[0]]] != Rsuf[wi[fv[0]]]:
                                        return CheckResult(name, False, checked,
                                                           f"left/first-prefix {u!r} {v!r} a={a!r} (m={m},n={n})")
    return CheckResult(name, True, checked, f"words up to {max_len}, m,n <= {max_m},{max_n}")


def check_equiv_factor(alphabet=("a", "b"), max_len: int = 6, max_m: int = 3,
                       max_n: int = 3, table: RankerTable | None = None) -> CheckResult:
    """Equivalence factor compatibility: u ~ v at (m, n) with first-a factors
    gives prefixes at (m-1, n-1) and suffixes at (m, n-1); mirrored for
    last-a factors."""
    alphabet = tuple(alphabet)
    if table is None:
        table = RankerTable(alphabet, max_m, max_n, all_words(alphabet, max_len))
    wi = {w: k for k, w in enumerate(table.words)}
    checked = 0
    for m in range(2, max_m + 1):
        for n in range(2, max_n + 1):
            E = table.partition_equiv(m, n)
            Edown = table.partition_equiv(m - 1, n - 1)
            Esame = table.partition_equiv(m, n - 1)
            for i, u in enumerate(table.words):
                for j in range(i + 1, len(table.words)):
                    if E[i] != E[j]:
                        continue
                    v = table.words[j]
                    for a in alphabet:
                        fu, fv = left_factorization(u, a), left_factorization(v, a)
                        if fu and fv:
                            checked += 1
                            if (Edown[wi[fu[0]]] != Edown[wi[fv[0]]]
                                    or Esame[wi[fu[1]]] != Esame[wi[fv[1]]]):
                                return CheckResult("equiv-factor-compat", False, checked,
                                                   f"first-a {u!r} {v!r} a={a!r} (m={m},n={n})")
                        gu, gv = right_factorization(u, a), right_factorization(v, a)
                        if gu and gv:
                            checked += 1
                            if (Edown[wi[gu[1]]] != Edown[wi[gv[1]]]
                                    or Esame[wi[gu[0]]] != Esame[wi[gv[0]]]):
                                return CheckResult("equiv-factor-compat", False, checked,
                                                   f"last-a {u!r} {v!r} a={a!r} (m={m},n={n})")
    return CheckResult("equiv-factor-compat", True, checked,
                       f"words up to {max_len}, m,n <= {max_m},{max_n}")


def _double_factorization(w: str, a: str, b: str):
    # u_minus a u_0 b u_plus with no a from the marker on and no b up to it
    ia, ib = w.rfind(a), w.find(b)
    if ia < 0 or ib < 0 or ia >= ib:
        return None
    return w[:ia], w[ia + 1:ib], w[ib + 1:]


def check_inner_segment(alphabet=("a", "b"), max_len: int = 6, max_m: int = 3,
                        max_n: int = 3, table: RankerTable | None = None) -> CheckResult:
    """Crossed factorization: between the last a and the first b after it,
    equivalent words have (m-1, n-1)-equivalent middle segments."""
    alphabet = tuple(alphabet)
    if table is None:
        table = RankerTable(alphabet, max_m, max_n, all_words(alphabet, max_len))
    wi = {w: k for k, w in enumerate(table.words)}
    checked = 0
    for m in range(2, max_m + 1):
        for n in range(2, max_n + 1):
            E = table.partition_equiv(m, n)
            Edown = table.partition_equiv(m - 1, n - 1)
            for i, u in enumerate(table.words):
                for j in range(i + 1, len(table.words)):
                    if E[i] != E[j]:
                        continue
                    v = table.words[j]
                    for a in alphabet:
                        for b in alphabet:
                            du, dv = _double_factorization(u, a, b), _double_factorization(v, a, b)
                            if du and dv:
                                checked += 1
                                if Edown[wi[du[1]]] != Edown[wi[dv[1]]]:
                                    return CheckResult("inner-segment-equiv", False, checked,
                                                       f"{u!r} {v!r} a={a!r} b={b!r} (m={m},n={n})")
    return CheckResult("inner-segment-equiv", True, checked,
                       f"words up to {max_len}, m,n <= {max_m},{max_n}")


def check_relation_congruence(alphabet=("a", "b"), max_len: int = 6, samples: int = 1000,
                              seed: int = 0, max_m: int = 3, max_n: int = 3,
                              table: RankerTable | None = None) -> CheckResult:
    """Sampled congruence property of the one-sided relations: related words
    stay related under prepending and appending a letter."""
    alphabet = tuple(alphabet)
    if table is None:
        # extensions lengthen words by one, so the table covers max_len + 1
        table = RankerTable(alphabet, max_m, max_n, all_words(alphabet, max_len + 1))
    wi = {w: k for k, w in enumerate(table.words)}
    short = [w for w in table.words if len(w) <= max_len]
    rng = random.Random(seed)
    checked = 0
    for _ in range(samples):
        m = rng.randint(1, max_m)
        n = rng.randint(1, max_n)
        kind = rng.choice("RL")
        labels = _partition(table, kind, m, n)
        u = rng.choice(short)
        mates = [w for w in short if labels[wi[w]] == labels[wi[u]]]
        v = rng.choice(mates)
        c = rng.choice(alphabet)
        checked += 1
        if (labels[wi[c + u]] != labels[wi[c + v]]
                or labels[wi[u + c]] != labels[wi[v + c]]):
            return CheckResult("relation-congruence", False, checked,
                               f"{kind} (m={m},n={n}) {u!r} {v!r} extended by {c!r}")
    return CheckResult("relation-congruence", True, checked, f"{samples} sampled extensions")


def check_subword_direction(alphabet=("a", "b"), max_len: int = 5, max_n: int = 3,
                            table: RankerTable | None = None) -> CheckResult:
    """One-block equivalence at depth n forces equal subword sets up to n."""
    alphabet = tuple(alphabet)
    if table is None:
        table = RankerTable(alphabet, 1, max_n, all_words(alphabet, max_len))
    checked = 0
    for n in range(1, max_n + 1):
        E = table.partition_equiv(1, n)
        subs = [subwords_upto(w, n) for w in table.words]
        for i in range(len(table.words)):
            for j in range(i + 1, len(table.words)):
                if E[i] == E[j]:
                    checked += 1
                    if subs[i] != subs[j]:
                        return CheckResult("subword-direction", False, checked,
                                           f"{table.words[i]!r} {table.words[j]!r} n={n}")
    return CheckResult("subword-direction", True, checked, f"words up to {max_len}, n <= {max_n}")


def check_condensed_semantics(alphabet=("a", "b"), max_len: int = 6,
                              max_depth: int = 4) -> CheckResult:
    """The interval-chain and no-overrun condensed semantics coincide."""
    alphabet = tuple(alphabet)
    words = all_words(alphabet, max_len)
    rankers = enumerate_rankers(alphabet, max_depth, max_depth)
    checked = 0
    for r in rankers:
        for w in words:
            checked += 1
            if is_condensed(r, w) != is_condensed_no_overrun(r, w):
                return CheckResult("condensed-semantics-agreement", False, checked,
                                   f"ranker {r} on {w!r}")
    return CheckResult("condensed-semantics-agreement", True, checked,
                       f"depth <= {max_depth}, words up to {max_len}")


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


def straubing_tally(entries, ms=(1, 2)) -> list[TallyRow]:
    """Agreement between the conjectured identities and (aperiodic and level <= m)."""
    rows = []
    for m in ms:
        agree = 0
        total = 0
        for e in entries:
            total += 1
            conj = check_straubing(e.monoid, m)
            truth = e.aperiodic and e.level.is_level and e.level.m <= m
            if conj == truth:
                agree += 1
        rows.append(TallyRow(m, agree, total))
    return rows
