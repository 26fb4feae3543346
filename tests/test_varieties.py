import numpy as np
import pytest

from conftest import cyclic_two, left_zero, right_zero, trivial, two_element_zero
from fo2level.automata import parse_regex, regex_to_min_dfa
from fo2level.identities import identities_level
from fo2level.monoid import FiniteMonoid, reverse_monoid, transition_monoid
from fo2level.varieties import (Congruence, InternalInconsistencyError,
                                LevelResult, NotACongruenceError,
                                _congruence_from_relation, fo2_level,
                                identity_congruence, in_Lm, in_Rm, join,
                                join_refines_check, quotient, refines, sim_d,
                                sim_k, sim_li, universal_congruence)


def monoid_of(text):
    return transition_monoid(regex_to_min_dfa(parse_regex(text)))


def classes_as_sets(c: Congruence):
    return {frozenset(cl) for cl in c.classes()}


def test_sim_k_examples():
    assert sim_k(trivial()).num_classes == 1
    assert classes_as_sets(sim_k(left_zero())) == {frozenset({0}), frozenset({1, 2})}
    assert classes_as_sets(sim_k(two_element_zero())) == {frozenset({0}), frozenset({1})}


def test_sim_d_examples():
    assert sim_d(trivial()).num_classes == 1
    assert sim_d(left_zero()).num_classes == 3
    assert classes_as_sets(sim_d(right_zero())) == {frozenset({0}), frozenset({1, 2})}


def test_sim_li_examples():
    assert sim_li(trivial()).num_classes == 1
    assert classes_as_sets(sim_li(two_element_zero())) == {frozenset({0}), frozenset({1})}


def test_sim_li_coarser_than_one_sided(da_corpus):
    for e in da_corpus[:60]:
        li = sim_li(e.monoid)
        assert refines(sim_k(e.monoid), li)
        assert refines(sim_d(e.monoid), li)


def test_quotient_basics():
    lz = left_zero()
    iso = quotient(lz, identity_congruence(lz))
    assert iso.size == lz.size and np.array_equal(iso.table, lz.table)
    assert quotient(lz, universal_congruence(lz)).size == 1
    q = quotient(lz, sim_k(lz))
    assert q.size == 2
    e = 1 - q.identity
    assert q.mul(e, e) == e


def test_quotient_rejects_non_congruence():
    m = monoid_of("(ab)*")
    # merge the identity with [a] only: not compatible with the product
    labels = np.arange(m.size, dtype=np.int32)
    labels[m.eval_word("a")] = m.identity
    labels = np.array([{m.eval_word("a"): m.identity}.get(x, x) for x in range(m.size)],
                      dtype=np.int32)
    # renumber to consecutive labels
    _, labels = np.unique(labels, return_inverse=True)
    bad = Congruence(m, labels.astype(np.int32), int(labels.max()) + 1)
    with pytest.raises(NotACongruenceError):
        quotient(m, bad)


def test_quotient_gens_and_words_remap():
    lz = left_zero()
    q = quotient(lz, sim_k(lz))
    assert q.gens == {"a": q.eval_word("a"), "b": q.eval_word("b")}
    assert q.eval_word("a") == q.eval_word("b")


def test_in_rm_in_lm_examples():
    assert in_Rm(two_element_zero(), 1)
    lz = left_zero()
    assert in_Rm(lz, 2)
    assert not in_Lm(lz, 2)
    assert in_Lm(lz, 3)
    m = monoid_of("(ab)*")
    for level in range(1, m.size + 2):
        assert not in_Rm(m, level)
        assert not in_Lm(m, level)


def test_level_two_membership_equals_one_sided_triviality(mixed_entries):
    for e in mixed_entries:
        assert in_Rm(e.monoid, 2) == e.monoid.is_r_trivial()
        assert in_Lm(e.monoid, 2) == e.monoid.is_l_trivial()


def test_membership_monotone(da_corpus):
    for e in da_corpus[:80]:
        for m in (1, 2, 3):
            if in_Rm(e.monoid, m) or in_Lm(e.monoid, m):
                assert in_Rm(e.monoid, m + 1) and in_Lm(e.monoid, m + 1)


def test_membership_implies_da(mixed_entries):
    for e in mixed_entries:
        for m in (1, 2, 3):
            if in_Rm(e.monoid, m) or in_Lm(e.monoid, m):
                assert e.monoid.is_in_da()


def test_mirror_duality(mixed_entries):
    for e in mixed_entries[:60]:
        rev = reverse_monoid(e.monoid)
        for m in (1, 2, 3):
            assert in_Rm(e.monoid, m) == in_Lm(rev, m)
            assert in_Lm(e.monoid, m) == in_Rm(rev, m)


def test_fo2_level_examples():
    assert fo2_level(trivial()) == LevelResult("level", 1)
    assert fo2_level(monoid_of("a(a|b)*")) == LevelResult("level", 2)
    assert fo2_level(monoid_of("(ab)*")).status == "not-fo2"
    assert str(fo2_level(monoid_of("(ab)*"))) == "NotFO2"


def test_fo2_level_exceeded_cap():
    m = monoid_of("a(a|b)*")  # level 2
    res = fo2_level(m, max_m=1)
    assert res == LevelResult("exceeded", 1)


def test_fo2_level_agrees_with_identities(da_corpus):
    for e in da_corpus[:80]:
        ident = identities_level(e.monoid, max_m=3)
        if e.level.is_level and e.level.m <= 3:
            assert ident.result == e.level


def test_join_examples():
    lz = left_zero()
    k = sim_k(lz)
    d = sim_d(lz)
    assert classes_as_sets(join(k, k)) == classes_as_sets(k)
    assert classes_as_sets(join(identity_congruence(lz), k)) == classes_as_sets(k)
    assert classes_as_sets(join(k, d)) == {frozenset({0}), frozenset({1, 2})}
    assert join_refines_check(k, d, universal_congruence(lz))
    assert not join_refines_check(k, d, identity_congruence(lz))


def test_join_quotient_descends_hierarchy(da_corpus):
    # a monoid at level d has its joint quotient in both memberships one
    # level down (quotients of the one-sided quotients)
    for e in da_corpus[:40]:
        if e.level.is_level and e.level.m >= 2:
            d = e.level.m
            q = quotient(e.monoid, join(sim_k(e.monoid), sim_d(e.monoid)))
            assert in_Rm(q, d) and in_Lm(q, d)


def test_congruences_verified_on_corpus(da_corpus):
    for e in da_corpus[:60]:
        for rel in (sim_k, sim_d, sim_li):
            quotient(e.monoid, rel(e.monoid))  # must not raise


def test_stable_action_agreement_zoo():
    # s R s*x with x ~K y forces s*x == s*y; dual for ~D
    for m in [trivial(), two_element_zero(), left_zero(), right_zero(),
              cyclic_two(), monoid_of("(ab)*"), monoid_of("a*b*")]:
        g = m.greens()
        req = g.rleq & g.rleq.T
        leq = g.lleq & g.lleq.T
        ck = sim_k(m).class_of
        cd = sim_d(m).class_of
        for x in range(m.size):
            for y in range(m.size):
                for s in range(m.size):
                    if ck[x] == ck[y] and req[s, m.mul(s, x)]:
                        assert m.mul(s, x) == m.mul(s, y)
                    if cd[x] == cd[y] and leq[s, m.mul(x, s)]:
                        assert m.mul(x, s) == m.mul(y, s)


def test_transitivity_check_survives_many_common_neighbours():
    # 0 and 1 are unrelated but share 256 neighbours 2..257, so a byte-wide
    # count of common neighbours wraps to 0 and would miss the failure
    n = 258
    table = np.ones((n, n), dtype=np.int32)     # a zero 1 below the identity 0
    table[0, :] = table[:, 0] = np.arange(n)
    m = FiniteMonoid(table, 0)
    rel = np.ones((n, n), dtype=bool)
    rel[0, 1] = rel[1, 0] = False
    with pytest.raises(InternalInconsistencyError, match="not transitive"):
        _congruence_from_relation(m, rel, "test")
