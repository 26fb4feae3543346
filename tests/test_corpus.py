import random
from types import SimpleNamespace

import numpy as np

import fo2level.corpus
from fo2level.automata import all_words
from fo2level.corpus import (check_action_agreement,
                             check_alphabet_stability,
                             check_congruence_quotients, check_dual_route,
                             check_level_anchors, check_monotonicity,
                             corpus_alphabet, make_entries, random_dfa,
                             straubing_tally)
from fo2level.monoid import reverse_monoid
from fo2level.rankers import RankerTable
from fo2level.varieties import in_Lm, in_Rm, sim_d, sim_k

from conftest import da_entries
from lemmas import (OneSided, check_equiv_factor, check_factor_compat, check_inner_segment,
                    check_relation_congruence, check_subword_direction)
from reference import check_oracle_bounds


def test_generation_deterministic():
    a = make_entries(3, 20)
    b = make_entries(3, 20)
    assert [e.dfa for e in a] == [e.dfa for e in b]
    assert [e.level for e in a] == [e.level for e in b]


def test_random_dfa_shape():
    rng = random.Random(0)
    for _ in range(50):
        d = random_dfa(rng, 4, ("a", "b"))
        assert 1 <= d.n_states <= 4
        assert all(len(row) == 2 for row in d.delta)


def test_da_entries_are_in_da(da_corpus):
    assert len(da_corpus) == 200
    assert all(e.monoid.is_in_da() for e in da_corpus)
    assert all(e.monoid.is_aperiodic() for e in da_corpus)
    assert all(e.level.is_level for e in da_corpus)


def test_monoid_level_checks_small():
    entries = make_entries(11, 40)
    da = [e for e in entries if e.monoid.is_in_da()]
    assert check_dual_route(da).ok
    assert check_level_anchors(entries).ok
    assert check_monotonicity(entries).ok
    assert check_congruence_quotients(da).ok
    assert check_action_agreement(da).ok
    assert check_alphabet_stability(da, max_len=3).ok


def test_word_level_checks_small():
    # the lemma suites at the parameters and verdicts the corpus command ran
    # them with, over two letters and seed 7
    alpha = corpus_alphabet(2)
    lines = [res.line() for res in (
        check_factor_compat(alpha, max_len=5),
        check_equiv_factor(alpha, max_len=5),
        check_inner_segment(alpha, max_len=5),
        check_relation_congruence(alpha, max_len=5, samples=300, seed=7),
        check_subword_direction(alpha, max_len=4),
        check_factor_compat(alpha, max_len=5, include_suffix_clause=True))]
    assert lines == [
        "check factor-compat: PASS [2480 checked] (words up to 5, m,n <= 3,3)",
        "check equiv-factor-compat: PASS [88 checked] (words up to 5, m,n <= 3,3)",
        "check inner-segment-equiv: PASS [8 checked] (words up to 5, m,n <= 3,3)",
        "check relation-congruence: PASS [300 checked] (300 sampled extensions)",
        "check subword-direction: PASS [245 checked] (words up to 4, n <= 3)",
        "check factor-compat-with-suffix-clause: FAIL [270 checked] "
        "(right/last-suffix 'abab' 'abba' a='a' (m=2,n=2))"]


def test_factor_suffix_clause_has_counterexample():
    # the full claim including the last-marker suffix clause fails, and the
    # first failure is the documented pair
    res = check_factor_compat(("a", "b"), max_len=5, include_suffix_clause=True)
    assert res.line() == ("check factor-compat-with-suffix-clause: FAIL [270 checked] "
                          "(right/last-suffix 'abab' 'abba' a='a' (m=2,n=2))")


def test_factor_suffix_clause_left_side_message():
    # without 'abab' the first failure is on the left side, which runs the
    # right side's clauses on the mirror images: its message names the
    # words themselves and the left side's clause
    table = RankerTable(("a", "b"), 3, 3, [w for w in all_words("ab", 4) if w != "abab"])
    res = check_factor_compat(("a", "b"), max_len=4, include_suffix_clause=True, table=table)
    assert res.line() == ("check factor-compat-with-suffix-clause: FAIL [98 checked] "
                          "(left/first-prefix 'abba' 'baba' a='a' (m=2,n=2))")


def test_mirror_facts_behind_the_left_side_checks(da_chain_members):
    # the reverse monoid's R-classes and ~K are the monoid's L-classes and
    # ~D, label for label, and L_k membership is R_k membership of the reverse
    for m in da_chain_members:
        rev = reverse_monoid(m)
        assert np.array_equal(rev.greens().r_class, m.greens().l_class)
        assert np.array_equal(sim_k(rev).class_of, sim_d(m).class_of)
        assert all(in_Lm(m, k) == in_Rm(rev, k) for k in range(1, 5))


def _action_agreement_loop(mono, ck, cd):
    """check_action_agreement's checked count and detail on one monoid,
    element by element on both sides of the monoid itself."""
    T, g = mono.table, mono.greens()
    checked, n = 0, mono.size
    for x in range(n):
        for y in range(n):
            for side, cls, rel, act in (("right", g.r_class, ck, lambda s, z: T[s, z]),
                                        ("left", g.l_class, cd, lambda s, z: T[z, s])):
                if rel[x] == rel[y]:
                    for s in range(n):
                        checked += 1
                        if cls[s] == cls[act(s, x)] and act(s, x) != act(s, y):
                            return checked, f"{side}: s={s} x={x} y={y} size={n}"
    return checked, ""


def test_action_agreement_failures_on_both_sides(monkeypatch):
    # stand-ins for ~K and ~D that are no congruences make the check fail:
    # the left side, run on the reverse monoid, fails where the loop over
    # the monoid's L-classes does
    entries = [e for e in make_entries(5, 80, 5) if e.monoid.is_in_da() and e.monoid.size > 2]
    rng = random.Random(3)
    sides = set()
    for e in entries:
        n = e.monoid.size
        ck, cd = (np.array([rng.randrange(2) for _ in range(n)]) for _ in "kd")
        monkeypatch.setattr(fo2level.corpus, "sim_k", lambda mono: SimpleNamespace(
            class_of=ck if mono is e.monoid else cd))
        res = check_action_agreement([e])
        assert (res.checked, res.detail) == _action_agreement_loop(e.monoid, ck, cd)
        sides.add(res.detail.split(":")[0])
    assert sides == {"right", "left"}


def _right_relation_refines(images, m: int, n: int, relations: OneSided) -> bool:
    """Whether the right relation at (m, n) on the words refines the word
    morphism with the given images, word by word."""
    image_of = {}
    return all(image_of.setdefault(lab, img) == img
               for lab, img in zip(relations.right(m, n).tolist(), images))


def test_oracle_bounds_small():
    entries = da_entries(19, 30)
    assert check_oracle_bounds(entries, max_n=8, max_len=5).ok
    # the right relation of an R_m member's least m refines its morphism at
    # some n <= 8
    relations = {}
    members = 0
    for e in entries:
        mono = e.monoid
        m = next((m for m in range(1, 5) if in_Rm(mono, m)), None)
        if m is None:
            continue
        alpha = tuple(mono.gens)
        rel = relations.setdefault(alpha, OneSided(alpha, all_words(alpha, 5)))
        images = [mono.eval_word(w) for w in rel.words]
        assert any(_right_relation_refines(images, m, n, rel) for n in range(1, 9))
        members += 1
    assert members >= 20


def test_straubing_tally_shape(da_corpus):
    rows = straubing_tally(da_corpus[:25])
    assert [r.m for r in rows] == [1, 2]
    assert all(r.total == 25 for r in rows)
    # level 1 of the conjecture is the classical J-triviality identity set,
    # so agreement there is exact
    assert rows[0].agree == rows[0].total
