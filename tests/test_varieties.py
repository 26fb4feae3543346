import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import (cyclic_two, dfas, direct_product, left_zero, level_three, preorders,
                      rectangular_band_with_identity, right_zero, trivial, two_element_zero)
from fo2level import cli, varieties
from fo2level import monoid as monoid_module
from fo2level.automata import minimize, parse_regex, regex_to_min_dfa
from fo2level.identities import da_identity, identities_level, satisfies_identity
from fo2level.monoid import (FiniteMonoid, MonoidTooLargeError, reverse_monoid,
                             transition_monoid)
from fo2level.rankers import RankerTable
from fo2level.varieties import (Congruence, InternalInconsistencyError,
                                LevelResult, NotACongruenceError, fo2_level,
                                in_Lm, in_Rm, quotient, quotient_chain,
                                sim_d, sim_k, sim_li)
from reference import (reference_chain, reference_in_Lm, reference_in_Rm, reference_j_trivial,
                       reference_level, reference_sim_d, reference_sim_k, reference_sim_li,
                       refines)


def monoid_of(text):
    return transition_monoid(regex_to_min_dfa(parse_regex(text)))


def classes_as_sets(c: Congruence):
    return {frozenset(np.flatnonzero(c.class_of == k).tolist()) for k in range(c.num_classes)}


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


# -- the identities scan and the congruences against Green's classes ----------

def fresh(m, in_da=None):
    """The same table with no cached structure, DA membership given or unknown."""
    return FiniteMonoid(m.table, m.identity, gens=m.gens, validate=False, in_da=in_da)


def trivialities(m):
    return m.is_j_trivial(), m.is_r_trivial(), m.is_l_trivial()


def greens_flags(m):
    """J-, R- and L-triviality as the counts of Green's classes give them."""
    g = m.greens()
    return g.num_j == m.size, g.num_r == m.size, g.num_l == m.size


def test_da_path_matches_greens_path(da_chain_members):
    seen = np.zeros((3, 2), dtype=int)     # (J, R, L) x (not trivial, trivial)
    for q in da_chain_members:
        assert q._in_da is True
        table = fresh(q)
        want = greens_flags(q)
        assert trivialities(table) == want
        for rel, reference in ((sim_k, reference_sim_k), (sim_d, reference_sim_d),
                               (sim_li, reference_sim_li)):
            assert np.array_equal(rel(table).class_of, reference(q)), rel
        assert table._greens is None
        seen[[0, 1, 2], list(map(int, want))] += 1
    assert seen[0].min() >= 30 and seen.min() >= 10, seen


def test_passed_on_da_membership_holds(da_chain_members):
    for q in da_chain_members:
        for m in (q, reverse_monoid(q)):
            assert m._in_da is True and fresh(m).is_in_da()
            assert quotient(m, sim_k(m))._in_da is True     # passed on, not decided again


def test_da_path_is_never_taken_outside_da(distinct_monoids):
    outside = [cyclic_two(), monoid_of("(ab)*")]
    outside += [fresh(m) for m in distinct_monoids if m.size <= 60 and not m.is_in_da()]
    assert len(outside) >= 100
    for m in outside:
        assert not m.is_in_da() and reverse_monoid(m)._in_da is False
        assert trivialities(m) == greens_flags(m) == (False, False, False)
        for rel in (sim_k, sim_d, sim_li):
            with pytest.raises(ValueError, match="DA monoids only"):
                rel(m)
        assert [list(quotient_chain(m, side)) for side in "RL"] == [[m], [m]]
        assert not in_Rm(m, 5) and not in_Lm(m, 5)
        # the Green's-class chains, which need no DA, never reach a J-trivial monoid either
        assert not any(reference_j_trivial(reference_chain(m, side)[-1]) for side in "RL")


def test_da_path_memory_is_bounded():
    m = rectangular_band_with_identity(12)
    assert m.is_in_da() and m.idempotent_array.size
    tracemalloc.start()
    try:
        flags = trivialities(m)
        c = sim_li(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flags == (False, False, False) and m._greens is None
    assert c.num_classes == 2 and c.class_of[0] == 0 and (c.class_of[1:] == 1).all()
    assert peak < 16 * 2**20, peak


def test_identities_scan_in_small_slices(monkeypatch, distinct_monoids, da_chain_members):
    # each monoid read one row per slice, or a few rows: the flags still
    # match Green's classes and DA still matches satisfies_identity, with DA
    # unknown (in and outside DA, aperiodic or not) or passed on
    seen = Counter()
    outside = [monoid_of(r) for r in ("(ab)*", "(a|b)*aa(a|b)*")]   # aperiodic, not in DA
    outside += [direct_product(o, q) for o in outside for q in da_chain_members[:20]]
    cases = [(m, None) for m in distinct_monoids + outside]
    cases += [(q, True) for q in da_chain_members]
    for cells in (1, 50):
        monkeypatch.setattr(monoid_module, "_FILL_CELLS", cells)
        for m, known in cases:
            for mono in (m, reverse_monoid(m)):
                f = fresh(mono, in_da=known)
                assert (f.is_in_da(), *trivialities(f)) == (
                    satisfies_identity(mono, *da_identity()).holds, *greens_flags(mono))
                seen[known, f.is_aperiodic(), f.is_in_da()] += 1
    assert len(seen) == 4 and min(seen.values()) >= 40, seen  # counts each monoid 4 times


def test_identities_scan_stops(monkeypatch):
    # one row per slice: with DA unknown the scan stops at the first row
    # outside DA, and reads every row of a DA monoid; with DA known it stops
    # once R and L have both failed; outside the aperiodic monoids, or with
    # DA known to fail, it reads none
    read = []
    row_slices = monoid_module._row_slices

    def counted(n):
        for rows in row_slices(n):
            read.append(rows.start)
            yield rows

    monkeypatch.setattr(monoid_module, "_FILL_CELLS", 1)
    monkeypatch.setattr(monoid_module, "_row_slices", counted)
    ab = monoid_of("(ab)*")
    assert ab.eval_word("a") == 1      # (ab)^w a (ab)^w = abaab = 0 != ab: row 1 fails
    band = rectangular_band_with_identity(4)
    for m, known, rows, flags in [
            (ab, None, 2, (False, False, False)),
            (band, None, band.size, (True, False, False)),
            (band, True, 2, (True, False, False)),
            (left_zero(), True, 3, (True, True, False)),
            (two_element_zero(), None, 2, (True, True, True)),
            (cyclic_two(), None, 0, (False, False, False)),
            (band, False, 0, (False, False, False))]:
        read.clear()
        m = fresh(m, in_da=known)
        assert (m.is_in_da(), m.is_r_trivial(), m.is_l_trivial()) == flags
        assert read == list(range(rows)), (m, known)


def identity_congruence(m):
    return Congruence(m, np.arange(m.size, dtype=np.int32), m.size)


def test_quotient_basics():
    lz = left_zero()
    iso = quotient(lz, identity_congruence(lz))
    assert iso.size == lz.size and np.array_equal(iso.table, lz.table)
    assert quotient(lz, Congruence(lz, np.zeros(lz.size, dtype=np.int32), 1)).size == 1
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


def test_congruence_gate_names_the_first_split_pair_in_any_slices(monkeypatch, distinct_monoids):
    # random merges of two elements: the gate in slices of one row and in
    # one slice agree with the whole-table comparison, on congruences and
    # on non-congruences, and name its first split pair in row-major order
    rng = np.random.default_rng(11)
    outcomes = Counter()
    for m in (m for m in distinct_monoids if 3 <= m.size <= 80):
        u, v = rng.choice(m.size, size=2, replace=False)
        labels = np.unique(np.where(np.arange(m.size) == u, v, np.arange(m.size)),
                           return_inverse=True)[1].astype(np.int32)
        c = Congruence(m, labels, int(labels.max()) + 1)
        rep_of = np.unique(labels, return_index=True)[1].astype(np.int32)[labels]
        split = np.argwhere(labels[m.table] != labels[m.table[rep_of[:, None], rep_of]])
        got = []
        for cells in (1, 1 << 20):
            monkeypatch.setattr(monoid_module, "_FILL_CELLS", cells)
            try:
                got.append(quotient(m, c).table)
            except NotACongruenceError as exc:
                got.append(str(exc))
        if len(split):
            want = f"not a congruence: products of class-equal pairs split at {tuple(split[0].tolist())}"
            assert got == [want, want]
        else:
            assert np.array_equal(got[0], got[1])
        outcomes[bool(len(split))] += 1
    assert min(outcomes.values()) >= 10, outcomes


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


def test_congruences_verified_on_corpus(da_corpus):
    for e in da_corpus[:60]:
        for rel in (sim_k, sim_d, sim_li):
            quotient(e.monoid, rel(e.monoid))  # must not raise


def test_stable_action_agreement_zoo():
    # s R s*x with x ~K y forces s*x == s*y; dual for ~D
    for m in [trivial(), two_element_zero(), left_zero(), right_zero(), monoid_of("a*b*")]:
        p = preorders(m)
        req = p.rleq & p.rleq.T
        leq = p.lleq & p.lleq.T
        ck = sim_k(m).class_of
        cd = sim_d(m).class_of
        for x in range(m.size):
            for y in range(m.size):
                for s in range(m.size):
                    if ck[x] == ck[y] and req[s, m.mul(s, x)]:
                        assert m.mul(s, x) == m.mul(s, y)
                    if cd[x] == cd[y] and leq[s, m.mul(x, s)]:
                        assert m.mul(x, s) == m.mul(y, s)


def assert_matches_references(m):
    for fast, reference in ((sim_k, reference_sim_k), (sim_d, reference_sim_d),
                            (sim_li, reference_sim_li)):
        if not m.is_in_da():
            with pytest.raises(ValueError, match="DA monoids only"):
                fast(m)
            continue
        c = fast(m)
        assert np.array_equal(c.class_of, reference(m))
        assert c.num_classes == int(c.class_of.max()) + 1
    for level in range(1, 6):
        assert in_Rm(m, level) == reference_in_Rm(m, level)
        assert in_Lm(m, level) == reference_in_Lm(m, level)
    for cap in (1, 2, 6):
        assert fo2_level(m, cap) == reference_level(m, cap)


@settings(max_examples=150)
@given(dfas(), st.booleans(), st.booleans())
def test_signatures_and_chains_match_references(dfa, minimal, reverse):
    try:
        m = transition_monoid(minimize(dfa) if minimal else dfa, max_size=20)
    except MonoidTooLargeError:
        reject()
    assert_matches_references(reverse_monoid(m) if reverse else m)


LEVEL_THREE = level_three()


@pytest.mark.parametrize("m, r_chain, l_chain, level", [
    (LEVEL_THREE, [6, 6, 4, 3], [6, 4, 3], 3),
    (reverse_monoid(LEVEL_THREE), [6, 4, 3], [6, 6, 4, 3], 3),
    (direct_product(LEVEL_THREE, left_zero()), [18, 12, 8, 6], [18, 12, 6], 3),
    (direct_product(LEVEL_THREE, reverse_monoid(LEVEL_THREE)), [36, 24, 12, 9],
     [36, 24, 12, 9], 3),
    (direct_product(left_zero(), right_zero()), [9, 6, 4], [9, 6, 4], 2),
], ids=["level3", "level3-reversed", "level3-x-left-zero", "level3-x-reversed",
        "left-x-right-zero"])
def test_deeper_monoids_match_references(m, r_chain, l_chain, level):
    assert [q.size for q in quotient_chain(m, "R")] == r_chain
    assert [q.size for q in quotient_chain(m, "L")] == l_chain
    assert fo2_level(m) == LevelResult("level", level)
    assert_matches_references(m)


def test_chains_alternate_and_stop_at_j_trivial():
    lz = left_zero()
    # ~K merges a and b at once; ~D is trivial on the left-zero monoid, so
    # the D-first chain keeps the size for one step, which is not stuck
    assert [q.size for q in quotient_chain(lz, "R")] == [3, 2]
    assert [q.size for q in quotient_chain(lz, "L")] == [3, 3, 2]
    assert [q.size for q in quotient_chain(trivial(), "L")] == [1]


def stuck(monkeypatch):
    """~K and ~D both trivial: the chains of a non-J-trivial monoid cannot shrink."""
    monkeypatch.setattr(varieties, "sim_k", identity_congruence)
    monkeypatch.setattr(varieties, "sim_d", identity_congruence)


def test_stuck_chain_decides_no_membership(monkeypatch):
    stuck(monkeypatch)
    lz = left_zero()
    assert [q.size for q in quotient_chain(lz, "R")] == [3, 3]
    assert not in_Rm(lz, 2) and not in_Lm(lz, 5)


def test_stuck_chain_of_a_da_monoid_is_an_internal_inconsistency(monkeypatch, tmp_path, capsys):
    stuck(monkeypatch)
    with pytest.raises(InternalInconsistencyError, match="stuck at 3 elements"):
        fo2_level(left_zero())
    p = tmp_path / "leftzero.monoid"
    p.write_text("size: 3\nidentity: 0\ngen a 1\ngen b 2\ntable\n0 1 2\n1 1 1\n2 2 2\n")
    code = cli.main(["analyze", "--monoid", str(p), "--method", "quotient"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("internal inconsistency: ") and "Traceback" not in err


def test_benchmark_tracer_wraps_existing_functions(monkeypatch):
    # the traced benchmark run wraps package functions by name; a deleted or
    # renamed one fails here rather than in the benchmark
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import tracer
    original = varieties.fo2_level
    rec = tracer.Recorder()
    rec.install()
    try:
        assert varieties.fo2_level is not original
        assert cli.main(["analyze", "--regex", "a(a|b)*", "--method", "quotient"]) == 0
    finally:
        rec.remove()
    assert varieties.fo2_level is original
    assert rec.counts[(-1, "varieties.quotients_built")] == 3


def test_benchmark_tracer_wraps_the_ranker_layer(monkeypatch, capsys):
    # the traced ranker-oracle run wraps RankerTable methods and reads the
    # table's rankers and words by name; a renamed one fails here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import tracer
    original = RankerTable.partition_equiv
    rec = tracer.Recorder()
    rec.install()
    try:
        assert RankerTable.partition_equiv is not original
        assert cli.main(["oracle", "--regex", "(ab)*", "--m", "1", "--max-n", "6",
                         "--max-len", "8"]) == 0
    finally:
        rec.remove()
    assert RankerTable.partition_equiv is original
    assert capsys.readouterr().out.endswith("holds at n=3 (m=1, words up to length 8)\n")
    assert rec.counts[(-1, "rankers.partition_calls")] == 3
    assert rec.counts[(-1, "rankers.rankers")] == 252      # depth <= 6, one block, 2 letters
    assert rec.counts[(-1, "rankers.words")] == 511        # up to length 8
    names = {span[0] for span in rec.spans}
    assert {"rankers.oracle", "rankers.table_build", "rankers.partition_equiv"} <= names


def _package_bindings():
    """Every callable attribute of the package's modules and every member of
    its classes, by owner and name: what the tracer may replace."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "fo2level" or name.startswith("fo2level."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("fo2level"):
                    out.update(((value, member), inner) for member, inner in vars(value).items())
    return out


def test_benchmark_tracer_spans_every_layer_and_comes_off_again(monkeypatch, capsys):
    # the tracer binds satisfies_identity, term_num_vars, sim_d and others by
    # attribute: one analyze and one oracle call reach a span of each layer,
    # and remove() puts back every binding it replaced
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import tracer
    before = _package_bindings()
    rec = tracer.Recorder()
    rec.install()
    try:
        rec.input = 0
        assert cli.main(["analyze", "--regex", "a(a|b)*"]) == 0
        rec.input = 1
        assert cli.main(["oracle", "--regex", "(a|b)*a(a|b)*", "--m", "1",
                         "--max-n", "4", "--max-len", "6"]) == 0
    finally:
        rec.remove()
    capsys.readouterr()
    names = {span[0] for span in rec.spans}
    assert {"cli.main", "identities.level", "identities.check", "varieties.fo2_level",
            "varieties.congruence", "varieties.quotient", "rankers.table_build",
            "rankers.partition_equiv"} <= names
    assert {span[1] for span in rec.spans} == {0, 1}
    assert rec.counts[(0, "identities.checks")] > 0
    assert rec.counts[(1, "rankers.partition_calls")] > 0
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
