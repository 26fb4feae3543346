import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fo2level.automata
import fo2level.monoid
import fo2level.rankers
from conftest import left_zero, preorders, trivial, two_element_zero
from fo2level.automata import all_words, minimize, parse_regex, regex_to_min_dfa
from fo2level.cli import main
from fo2level.corpus import random_dfa
from fo2level.monoid import FiniteMonoid, _first_equal_rows, transition_monoid
from fo2level.rankers import (X, Y, Ranker, RankerBudgetError, RankerSyntaxError,
                              RankerTable, eval_ranker, is_condensed,
                              _mixed_words, _pack_rows, _word_images,
                              least_oracle_n, next_pos, parse_ranker,
                              prev_pos, subwords_upto)
from reference import (equiv_wi, first_class_words, is_condensed_no_overrun, l_factorize,
                       mixed_class_words, oracle_equiv_refines_morphism, r_factorize,
                       reference_rankers, rel_left, rel_right)

XYBXC = parse_ranker("Xa Yb Xc")


def monoid_of(text):
    return transition_monoid(regex_to_min_dfa(parse_regex(text)))


def test_parse_ranker():
    r = parse_ranker("Xa Yb Xc")
    assert r.depth == 3 and r.blocks == 3 and str(r) == "Xa Yb Xc"
    assert parse_ranker("Xa Xb Ya").blocks == 2
    for bad in ["", "Za", "X", "xa", "Xab", "Xa Xbc"]:
        with pytest.raises(RankerSyntaxError):
            parse_ranker(bad)
    # any character after the direction is a letter, whatever the word holds
    assert parse_ranker("Xd Yé").steps == (("X", "d"), ("Y", "é"))


def test_next_prev_pos():
    assert next_pos("bca", "a", 0) == 3
    assert prev_pos("bca", "b", 4) == 1
    assert next_pos("bca", "d", 0) is None
    assert prev_pos("bca", "a", 3) is None
    assert next_pos("bca", "a", 3) is None


def test_eval_ranker_reference_examples():
    assert eval_ranker(XYBXC, "bca") == 2
    assert eval_ranker(XYBXC, "bac") == 3
    assert eval_ranker(XYBXC, "cabc") is None
    assert eval_ranker(XYBXC, "bcba") is None


def test_condensed_reference_examples():
    assert is_condensed(XYBXC, "bca")
    assert not is_condensed(XYBXC, "bac")
    # depth-1 rankers are condensed wherever defined
    for w in ["a", "ba", "bca"]:
        for tok in ["Xa", "Ya", "Xb", "Yb"]:
            r = parse_ranker(tok)
            assert is_condensed(r, w) == (eval_ranker(r, w) is not None)


def test_condensed_rejects_revisits():
    # the run lands exactly on a previously visited position: not condensed
    r = parse_ranker("Xb Ya Xb")
    assert eval_ranker(r, "ab") == 2
    assert not is_condensed(r, "ab")
    r = parse_ranker("Xa Yb Xa Yd")
    assert eval_ranker(r, "bda") == 2
    assert not is_condensed(r, "bda")
    assert not is_condensed_no_overrun(r, "bda")


def test_condensed_implies_defined():
    rankers = RankerTable(("a", "b"), 3, 3, []).rankers
    for w in all_words(("a", "b"), 5):
        for r in rankers:
            if is_condensed(r, w):
                assert eval_ranker(r, w) is not None


def test_condensed_semantics_agree_two_letters():
    # normative interval chain vs the no-overrun simulation
    rankers = RankerTable(("a", "b"), 4, 4, []).rankers
    for w in all_words(("a", "b"), 7):
        for r in rankers:
            assert is_condensed(r, w) == is_condensed_no_overrun(r, w), (r, w)


def test_condensed_semantics_agree_three_letters():
    rankers = RankerTable(("a", "b", "c"), 4, 4, []).rankers
    for w in all_words(("a", "b", "c"), 5):
        for r in rankers:
            assert is_condensed(r, w) == is_condensed_no_overrun(r, w), (r, w)


def test_condensed_semantics_agree_deep_sample():
    rng = random.Random(3)
    for _ in range(2500):
        alpha = ("a", "b") if rng.random() < 0.5 else ("a", "b", "c")
        w = "".join(rng.choice(alpha) for _ in range(rng.randint(0, 7)))
        r = Ranker(tuple((rng.choice("XY"), rng.choice(alpha))
                         for _ in range(rng.randint(1, 7))))
        assert is_condensed(r, w) == is_condensed_no_overrun(r, w), (r, w)


def test_enumerate_rankers_counts_and_order():
    def x_start(m, n):
        return [r for r in RankerTable(("a", "b"), m, n, []).rankers if r.start == X]

    assert [str(r) for r in x_start(1, 1)] == ["Xa", "Xb"]
    assert len(x_start(1, 2)) == 6
    assert len(x_start(2, 2)) == 10
    rs = RankerTable(("a", "b"), 2, 2, []).rankers
    # depth-major, X before Y, letters in alphabet order
    assert [str(r) for r in rs[:4]] == ["Xa", "Xb", "Ya", "Yb"]
    assert all(r.depth == 2 for r in rs[4:])
    assert len(rs) == 4 + 16  # all depth-2 sequences have at most 2 blocks
    assert RankerTable(("a", "b"), 0, 3, []).rankers == []


def test_enumeration_matches_the_reference():
    # a table's rows over no word; filtered by the table's start
    # column they are the reference's rankers of each starting direction
    for alpha in ((), ("a",), ("a", "b"), ("b", "a", "c")):
        for m in range(5):
            for n in range(5):
                table = RankerTable(alpha, m, n, [])
                assert table.rankers == reference_rankers(alpha, m, n)
                for code, start in ((0, X), (1, Y)):
                    rows = [r for r, s in zip(table.rankers, table.start.tolist()) if s == code]
                    assert rows == reference_rankers(alpha, m, n, start)


def test_rel_right_examples():
    assert rel_right("ab", "ab", 2, 2)
    assert rel_right("ab", "ba", 1, 1)
    assert not rel_right("ab", "ba", 1, 2)
    assert rel_left("ab", "ba", 1, 1)
    assert not rel_left("ab", "ba", 1, 2)


def test_rel_left_is_mirrored_rel_right():
    rng = random.Random(23)
    for _ in range(300):
        u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        v = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        assert rel_left(u, v, m, n) == rel_right(u[::-1], v[::-1], m, n)


def test_equiv_examples():
    assert equiv_wi("ab", "ab", 3, 3)
    assert equiv_wi("ab", "ba", 1, 1)
    assert not equiv_wi("ab", "ba", 1, 2)
    assert not equiv_wi("ab", "ba", 2, 2)


def test_relations_are_equivalences_on_sample():
    words = all_words(("a", "b"), 4)
    for rel in (lambda u, v: rel_right(u, v, 2, 2, ("a", "b")),
                lambda u, v: equiv_wi(u, v, 2, 2, ("a", "b"))):
        for u in words[:12]:
            assert rel(u, u)
            for v in words[:12]:
                assert rel(u, v) == rel(v, u)
        # transitivity via the induced partition on a small slice
        slice_ = words[:16]
        for u in slice_:
            for v in slice_:
                for w in slice_:
                    if rel(u, v) and rel(v, w):
                        assert rel(u, w)


def test_refinement_in_parameters(table_ab6):
    words = table_ab6.words
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for kind, part in [("E", table_ab6.partition_equiv),
                           ("R", table_ab6.partition_right),
                           ("L", table_ab6.partition_left)]:
            coarse = part(m, n)
            for finer in [part(m + 1, n), part(m, n + 1)]:
                seen = {}
                for i in range(len(words)):
                    assert seen.setdefault(int(finer[i]), int(coarse[i])) == int(coarse[i])


def _shuffled_with_foreign_letter():
    """Words over a, b and c (c outside the table alphabet), "" included, shuffled."""
    words = all_words(("a", "b", "c"), 4)
    random.Random(17).shuffle(words)
    return RankerTable(("a", "b"), 3, 3, words)


def test_table_matches_scalar(table_ab6):
    for table in (table_ab6, _shuffled_with_foreign_letter()):
        assert "" in table.words
        for i, r in enumerate(table.rankers):
            for j, w in enumerate(table.words):
                pos = eval_ranker(r, w)
                assert int(table.values[i, j]) == (pos if pos is not None else 0), (r, w)
                assert bool(table.condensed[i, j]) == is_condensed(r, w), (r, w)


def test_partitions_match_scalar_definitions():
    words = all_words(("a", "b"), 4)
    tab = RankerTable(("a", "b"), 2, 2, words)
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        E = tab.partition_equiv(m, n)
        R = tab.partition_right(m, n)
        L = tab.partition_left(m, n)
        for i, u in enumerate(words):
            for j in range(i, len(words)):
                v = words[j]
                assert (E[i] == E[j]) == equiv_wi(u, v, m, n, ("a", "b"))
                assert (R[i] == R[j]) == rel_right(u, v, m, n, ("a", "b"))
                assert (L[i] == L[j]) == rel_left(u, v, m, n, ("a", "b"))


def test_subwords():
    assert subwords_upto("aba", 2) == frozenset({"a", "b", "ab", "ba", "aa"})
    assert subwords_upto("", 3) == frozenset()


def test_known_factor_suffix_counterexample():
    # the last-marker suffix clause of factor compatibility genuinely fails:
    # these words are right-related at (2, 2) yet their last-'a' suffixes
    # ("b" vs "") differ on left-relation depth-1 rankers
    assert rel_right("abab", "abba", 2, 2, ("a", "b"))
    assert not rel_left("b", "", 1, 1, ("a", "b"))
    assert rel_right("ababa", "ababaa", 2, 3, ("a", "b"))
    assert not rel_left("a", "aa", 1, 2, ("a", "b"))


def test_oracle_trivial_monoid():
    out = oracle_equiv_refines_morphism(trivial(), 1, 1, 4)
    assert out.holds and out.counterexample is None


def test_oracle_contains_a():
    assert least_oracle_n(monoid_of("(a|b)*a(a|b)*"), 1, 4, 6) == (1, None)


def test_oracle_level_two_language():
    lz = left_zero()  # syntactic monoid of a(a|b)*
    n, counterexample = least_oracle_n(lz, 2, 5, 6)
    assert n is not None and n <= 5 and counterexample is None


def test_oracle_needs_larger_depth():
    # exactly-length-3 words: images count length up to 4, so shallow
    # equivalences mix lengths 3 and 4 and the oracle must fail first
    m = monoid_of("(a|b)(a|b)(a|b)")
    assert m.is_j_trivial()
    out1 = oracle_equiv_refines_morphism(m, 1, 1, 6)
    assert not out1.holds and out1.counterexample is not None
    u, v = out1.counterexample
    assert m.eval_word(u) != m.eval_word(v)
    n, _ = least_oracle_n(m, 1, 8, 6)
    assert n == 3


# -- the per-word implementations the vectorized oracle path replaced ----------

def _first_seen(keys):
    lab = {}
    return np.array([lab.setdefault(k, len(lab)) for k in keys], dtype=np.int32)


def _per_word_equiv_labels(table, m, n):
    """One key per word: definedness bytes plus the P x P sign matrix, with
    sentinel 2 where no comparison is in force."""
    sub = np.nonzero(table._class_mask(None, m, n))[0]
    profiles, inv = np.unique(table.values[sub], axis=0, return_inverse=True)
    inv = inv.ravel()
    P = profiles.shape[0]

    def prof_mask(global_mask):
        out = np.zeros(P, dtype=bool)
        out[inv[global_mask[sub]]] = True
        return out

    is_x = prof_mask(table._class_mask(X, m, n))
    is_y = prof_mask(table._class_mask(Y, m, n))
    col_for_x = prof_mask(table._class_mask(Y, m, n - 1)) | prof_mask(table._class_mask(X, m - 1, n - 1))
    col_for_y = prof_mask(table._class_mask(X, m, n - 1)) | prof_mask(table._class_mask(Y, m - 1, n - 1))
    pair_mask = (is_x[:, None] & col_for_x[None, :]) | (is_y[:, None] & col_for_y[None, :])
    keys = []
    for j in range(len(table.words)):
        vals = profiles[:, j].astype(np.int16)
        defined = vals > 0
        sign = np.sign(vals[:, None] - vals[None, :]).astype(np.int8)
        sign[~(pair_mask & defined[:, None] & defined[None, :])] = 2
        keys.append(defined.tobytes() + sign.tobytes())
    return _first_seen(keys)


def _per_word_condensed_labels(table, mask):
    packed = np.packbits(table.condensed[mask], axis=0)
    return _first_seen(packed[:, j].tobytes() for j in range(packed.shape[1]))


def _equiv_tables():
    words = all_words(("a", "b"), 6)
    random.Random(4).shuffle(words)
    yield RankerTable(("a", "b"), 3, 3, words)
    yield RankerTable(("a", "b", "c"), 2, 3, all_words(("a", "b", "c"), 4))
    yield _shuffled_with_foreign_letter()


def test_partitions_match_per_word_signatures(table_ab6):
    for table in (table_ab6, *_equiv_tables()):
        for m in range(1, table.max_blocks + 1):
            for n in range(1, table.max_depth + 1):
                assert np.array_equal(table.partition_equiv(m, n),
                                      _per_word_equiv_labels(table, m, n)), (m, n)
                right = table._class_mask(X, m, n) | table._class_mask(Y, m - 1, n - 1)
                left = table._class_mask(Y, m, n) | table._class_mask(X, m - 1, n - 1)
                assert np.array_equal(table.partition_right(m, n),
                                      _per_word_condensed_labels(table, right))
                assert np.array_equal(table.partition_left(m, n),
                                      _per_word_condensed_labels(table, left))


@st.composite
def _shuffled_word_lists(draw):
    """A table alphabet of 1-3 letters and a shuffled random part of all
    words up to some length, "" included, sometimes with the foreign
    letter d among the letters.  The lengths stay near the largest the
    per-word reference checks quickly: words that only the deeper
    comparisons tell apart are long."""
    alpha = "abc"[:draw(st.integers(1, 3))]
    letters = alpha + ("d" if draw(st.booleans()) else "")
    longest = (10, 6, 4, 3)[len(letters) - 1]
    max_len = draw(st.integers(longest - 2, longest))
    rng = draw(st.randoms(use_true_random=False))
    keep = draw(st.floats(0.3, 1.0))
    words = [w for w in all_words(tuple(letters), max_len) if w == "" or rng.random() < keep]
    rng.shuffle(words)
    return tuple(alpha), words


@settings(max_examples=100)
@given(_shuffled_word_lists())
def test_equiv_partitions_match_per_word_signatures_on_random_lists(case):
    alpha, words = case
    table = RankerTable(alpha, 3, 4, words)
    for m in range(1, 4):
        for n in range(1, 5):
            assert np.array_equal(table.partition_equiv(m, n),
                                  _per_word_equiv_labels(table, m, n)), (alpha, words, m, n)


_PARTITIONS = ("partition_equiv", "partition_right", "partition_left")


@settings(max_examples=60)
@given(_shuffled_word_lists(), st.integers(0, 4), st.randoms(use_true_random=False))
def test_restricted_tables_partition_like_the_full_table(case, depth, rng):
    alpha, words = case
    full = RankerTable(alpha, 3, 4, words)
    full._fill(depth)
    keep = np.flatnonzero([rng.random() < 0.4 for _ in words])
    sub = full.restricted(keep)
    assert sub.words == [words[i] for i in keep] and sub.filled_depth == depth
    got = {(kind, m, n): getattr(sub, kind)(m, n)
           for kind in _PARTITIONS for m in range(1, 4) for n in range(1, 5)}
    assert full.filled_depth == depth  # filling the restricted table leaves this one alone
    assert np.array_equal(sub.values, full.values[:, keep])
    assert np.array_equal(sub.condensed, full.condensed[:, keep])
    for (kind, m, n), labels in got.items():
        expect = _first_seen(getattr(full, kind)(m, n)[keep].tolist())
        assert np.array_equal(labels, expect), (kind, m, n, depth)


@settings(max_examples=60)
@given(_shuffled_word_lists())
def test_deeper_partitions_refine_shallower_ones(case):
    alpha, words = case
    table = RankerTable(alpha, 3, 4, words)
    for kind in _PARTITIONS:
        for m in range(1, 4):
            for n in range(1, 4):
                coarse, fine = getattr(table, kind)(m, n), getattr(table, kind)(m, n + 1)
                # each class at n + 1 lies in one class at n
                assert len(set(zip(fine.tolist(), coarse.tolist()))) == int(fine.max()) + 1, (kind, m, n)
        # an empty class, asked for once the table is filled, relates every word
        for m, n in ((0, 2), (2, 0), (1, -1)):
            assert not getattr(table, kind)(m, n).any(), (kind, m, n)


@pytest.mark.parametrize("alpha,m,n,words", [((), 1, 1, ["", "a"]), (("a",), 1, 2, []),
                                             (("a", "b"), 2, 3, [""]),
                                             (("a", "bc"), 2, 2, ["", "a", "bc", "abc"])])
def test_partitions_of_degenerate_tables(alpha, m, n, words):
    # no rankers, no words, one word, and a letter no position matches
    table = RankerTable(alpha, m, n, words)
    for mm in range(1, m + 1):
        for nn in range(1, n + 1):
            for kind in _PARTITIONS:
                assert len(getattr(table, kind)(mm, nn)) == len(words)
            expect = (_per_word_equiv_labels(table, mm, nn) if alpha and words
                      else np.zeros(len(words), dtype=np.int32))
            assert np.array_equal(table.partition_equiv(mm, nn), expect), (mm, nn)


def test_equiv_partitions_on_words_longer_than_255_letters():
    # words longer than 254 letters have more than 255 levels, so the
    # compressed ranks take two bytes each
    words = all_words(("a",), 300)
    random.Random(6).shuffle(words)
    table = RankerTable(("a", "b"), 2, 3, words + ["b" * 280 + "a", "ab" * 140])
    for m in range(1, 3):
        for n in range(1, 4):
            assert np.array_equal(table.partition_equiv(m, n),
                                  _per_word_equiv_labels(table, m, n)), (m, n)
    # and the search's classes on them: one fails at every n, one holds
    for text in ("(aa|b)*", "(a|b)*b"):
        mono = monoid_of(text)
        for m in range(1, 3):
            assert least_oracle_n(mono, m, 3, 0, table=_fresh(table)) == \
                _per_n_search(mono, m, 3, 0, _fresh(table)), (text, m)


def test_equiv_partitions_survive_hash_collisions(monkeypatch):
    # a zero hash base makes every word's key hash alike: the labels, and
    # the first words of the classes the search reads, come from the dict of
    # the keys' bytes instead, and are the same
    monkeypatch.setattr(fo2level.monoid, "_HASH_BASE", np.uint64(0))
    table = RankerTable(("a", "b"), 2, 3, all_words(("a", "b"), 5))
    for m in range(1, 3):
        for n in range(1, 4):
            assert np.array_equal(table.partition_equiv(m, n),
                                  _per_word_equiv_labels(table, m, n)), (m, n)
    for text in ("(ab)*", "(a|b)*abb(a|b)*", "(aa|b)*"):  # the last fails at every n
        mono = monoid_of(text)
        for m in range(1, 3):
            assert least_oracle_n(mono, m, 3, 5, table=_fresh(table)) == \
                _per_n_search(mono, m, 3, 5, _fresh(table)), (text, m)


def test_equiv_partition_memory_is_linear_in_profiles():
    # W = 1 093 words and P = 673 profiles: keys of O(P) bytes a word stay
    # far below the bound, two key bits per profile pair in force do not
    table = RankerTable(("a", "b", "c"), 2, 4, all_words(("a", "b", "c"), 6))
    table._fill(4)
    tracemalloc.start()
    try:
        table.partition_equiv(2, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _per_word_oracle(monoid, labels, words):
    images = [monoid.eval_word(w) for w in words]
    first_word = {}
    for j in range(len(words)):
        lab = int(labels[j])
        if lab not in first_word:
            first_word[lab] = j
        elif images[j] != images[first_word[lab]]:
            return False, (words[first_word[lab]], words[j]), int(labels.max()) + 1
    return True, None, int(labels.max()) + 1


def _triple(outcome):
    return outcome.holds, outcome.counterexample, outcome.num_classes


@pytest.mark.parametrize("regex,m,ns", [("(a|b)(a|b)(a|b)", 1, (1, 2)),
                                        ("(abb)*", 1, (1, 2, 3)),
                                        ("(abb)*", 2, (1, 2, 3))])
def test_oracles_match_per_word_loop(regex, m, ns):
    mono = monoid_of(regex)
    table = RankerTable(("a", "b"), m, max(ns), all_words(("a", "b"), 7))
    failures = 0
    first_pass = None
    for n in ns:
        old_e = _per_word_oracle(mono, table.partition_equiv(m, n), table.words)
        assert _triple(oracle_equiv_refines_morphism(mono, m, n, 7)) == old_e
        assert _triple(oracle_equiv_refines_morphism(mono, m, n, 7, table=table)) == old_e
        failures += not old_e[0]
        if old_e[0] and first_pass is None:
            first_pass = n
    assert failures >= 2  # every case fails at n = 1 and n = 2
    # ns runs 1, 2, ..., so the search finds the first passing n, or no n
    # and the counterexample at the last one
    expect = (first_pass, None) if first_pass else (None, old_e[1])
    assert least_oracle_n(mono, m, max(ns), 7, table=_fresh(table)) == expect


def _per_n_search(monoid, m, max_n, max_len, table):
    """least_oracle_n as the plain loop over n of the fixed-n oracle."""
    for n in range(1, max_n + 1):
        outcome = oracle_equiv_refines_morphism(monoid, m, n, max_len, table=table)
        if outcome.holds:
            return n, None
    return None, outcome.counterexample


@settings(max_examples=60)
@given(_shuffled_word_lists(), st.integers(1, 3), st.randoms(use_true_random=False))
def test_least_oracle_n_matches_the_per_n_loop_on_random_lists(case, m, rng):
    # the monoid reads every letter of the words, the foreign d included,
    # while the rankers see only the table's alphabet
    alpha, words = case
    letters = tuple(sorted(set("".join(words)) | set(alpha)))
    mono = transition_monoid(minimize(random_dfa(rng, 4, letters)))
    max_len = max(map(len, words))
    table = RankerTable(alpha, m, 4, words)
    got = least_oracle_n(mono, m, 4, max_len, table=table)
    assert got == _per_n_search(mono, m, 4, max_len, table)
    # once more on the table the loop filled to every depth
    assert least_oracle_n(mono, m, 4, max_len, table=table) == got


def test_least_oracle_n_matches_the_per_n_loop_on_distinct_monoids(distinct_monoids):
    # one table per alphabet and m, shared by every monoid as in
    # check_oracle_bounds, so later searches start on a filled table
    tables = {}
    answers = []
    for mono in distinct_monoids[::2]:
        alpha = tuple(mono.gens)
        for m in (1, 2):
            max_len = 8 if len(alpha) == 2 else 5
            table = tables.setdefault((alpha, m), RankerTable(alpha, m, 4, all_words(alpha, max_len)))
            got = least_oracle_n(mono, m, 4, max_len, table=table)
            assert got == _per_n_search(mono, m, 4, max_len, table), (mono.size, alpha, m)
            assert least_oracle_n(mono, m, 4, max_len) == got
            answers.append(got[0])
    # both the passing path and the one where no n works are taken
    assert answers.count(None) >= 20 and len(answers) - answers.count(None) >= 20


def test_oracle_images_refuse_unknown_letters():
    # c is outside the monoid's generators, as eval_word reports
    table = _shuffled_with_foreign_letter()
    with pytest.raises(ValueError, match="unknown letter 'c'"):
        oracle_equiv_refines_morphism(monoid_of("(ab)*"), 1, 1, 4, table=table)


@settings(max_examples=80)
@given(st.integers(1, 3), st.integers(0, 6), st.randoms(use_true_random=False))
def test_word_matrices_decode_and_map_like_the_word_strings(k, max_len, rng):
    # the matrix of all words is built with no string, the same as encoding
    # the all_words list; restrictions decode their kept words; the word
    # images are eval_word's on full, restricted and string-built tables,
    # shuffled and with the foreign letter d, which the monoid also reads
    alpha = tuple("abc"[:k])
    words = all_words(alpha, max_len)
    direct, encoded = RankerTable(alpha, 1, 1, max_len), RankerTable(alpha, 1, 1, words)
    assert direct.words.names == encoded.words.names == alpha
    assert np.array_equal(direct.words.letters, encoded.words.letters)
    assert np.array_equal(direct.words.lens, encoded.words.lens)
    assert [direct.words.word(i) for i in range(len(words))] == words == direct.words
    with pytest.raises(ValueError, match="one character per letter"):
        RankerTable(alpha + ("de",), 1, 1, max_len)
    keep = np.flatnonzero([rng.random() < 0.4 for _ in words])
    sub = direct.restricted(keep)
    assert sub.words == [words[i] for i in keep] == [sub.words.word(i) for i in range(len(keep))]
    foreign = all_words(alpha + ("d",), min(max_len, 4))
    rng.shuffle(foreign)
    shuffled = RankerTable(alpha, 1, 1, foreign)
    assert shuffled.words == foreign and shuffled.words.names == alpha + (("d",) if max_len else ())
    built = transition_monoid(minimize(random_dfa(rng, 4, alpha + ("d",))))
    # relabelled so that the identity, which pads the words, is the last element
    perm = (np.arange(built.size) - 1) % built.size
    relabelled = np.empty_like(built.table)
    relabelled[np.ix_(perm, perm)] = perm[built.table]
    mono = FiniteMonoid(relabelled, int(perm[built.identity]),
                        {a: int(perm[g]) for a, g in built.gens.items()})
    for table in (direct, sub, encoded, shuffled, shuffled.restricted(keep[keep < len(foreign)])):
        assert _word_images(mono, table).tolist() == [mono.eval_word(w) for w in table.words]
    # a passed-in table with a letter the monoid lacks: eval_word's error on
    # the first word that holds one
    lacking = transition_monoid(minimize(random_dfa(rng, 4, alpha)))
    if "d" in shuffled.words.names:
        with pytest.raises(ValueError) as expect:
            [lacking.eval_word(w) for w in shuffled.words]
        with pytest.raises(ValueError, match=f"^{expect.value}$"):
            _word_images(lacking, shuffled)
        with pytest.raises(ValueError, match=f"^{expect.value}$"):
            oracle_equiv_refines_morphism(lacking, 1, 1, max_len, table=shuffled)


def test_oracle_budget_checked_before_enumerating(monkeypatch, capsys):
    def refuse(*_args, **_kwargs):
        raise AssertionError("words enumerated before the budget check")

    monkeypatch.setattr(fo2level.rankers, "_all_word_letters", refuse)
    monkeypatch.setattr(fo2level.automata, "all_words", refuse)
    assert main(["oracle", "--regex", "(a|b)*a", "--m", "1", "--max-len", "40"]) == 3
    assert "budget exceeded" in capsys.readouterr().err
    mono = monoid_of("(a|b)*a")
    with pytest.raises(RankerBudgetError):
        oracle_equiv_refines_morphism(mono, 1, 1, 40)


def test_a_passed_table_is_read_whatever_max_len(monkeypatch):
    # max_len over the word budget enumerates nothing when a table is given
    mono = monoid_of("(a|b)*abb(a|b)*")
    table = RankerTable(tuple(mono.gens), 1, 3, 5)
    expect = oracle_equiv_refines_morphism(mono, 1, 1, 5), least_oracle_n(mono, 1, 3, 5)
    assert not expect[0].holds and expect[1] == (2, None)

    def refuse(*_args, **_kwargs):
        raise AssertionError("words enumerated for a given table")

    monkeypatch.setattr(fo2level.rankers, "_all_word_letters", refuse)
    assert oracle_equiv_refines_morphism(mono, 1, 1, 40, table=table) == expect[0]
    assert least_oracle_n(mono, 1, 3, 40, table=table) == expect[1]


def test_oracle_word_tables_checked_before_enumerating(monkeypatch, capsys):
    def refuse(*_args, **_kwargs):
        raise AssertionError("words or letter tables built before the memory check")

    monkeypatch.setattr(fo2level.rankers, "_all_word_letters", refuse)
    monkeypatch.setattr(fo2level.automata, "all_words", refuse)
    monkeypatch.setattr(fo2level.rankers, "_letter_codes", refuse)
    # 30 001 unary words: the letter and occurrence tables alone take gigabytes
    monkeypatch.setattr(fo2level.monoid, "_physical_memory", lambda: 2**30)
    args = ["oracle", "--regex", "a*", "--m", "1", "--max-n", "2", "--max-len"]
    assert main(args + ["30000"]) == 3
    assert capsys.readouterr().err == ("budget exceeded: 4 rankers x 30001 words up to length "
                                       "30000 need 17.2 GiB but 1.0 GiB is available\n")
    # positions are int16, whatever the memory
    monkeypatch.setattr(fo2level.monoid, "_physical_memory", lambda: None)
    assert main(args + ["32767"]) == 3
    assert "longer than 32766 letters" in capsys.readouterr().err
    with pytest.raises(RankerBudgetError, match="longer than 32766"):
        RankerTable(("a",), 1, 1, ["a" * 32767])


def test_table_budgets_are_checked_before_any_row(monkeypatch):
    for alpha in (("a",), ("a", "b"), ("a", "b", "c")):
        for m in range(0, 4):
            for n in range(0, 5):
                count = len(reference_rankers(alpha, m, n))
                monkeypatch.setattr(fo2level.rankers, "MAX_RANKERS", count)
                table = RankerTable(alpha, m, n, ["", "ab", "ca"])
                assert len(table.rankers) == count == table.values.shape[0]
                if count:
                    monkeypatch.setattr(fo2level.rankers, "MAX_RANKERS", count - 1)
                    with pytest.raises(RankerBudgetError):
                        RankerTable(alpha, m, n, ["ab"])
    monkeypatch.undo()

    table = RankerTable(("a", "b"), 2, 2, all_words(("a", "b"), 2))

    def refuse(_words):
        raise AssertionError("table rows built before the budget checks")

    monkeypatch.setattr(fo2level.rankers, "_letter_codes", refuse)
    with pytest.raises(RankerBudgetError):
        RankerTable(("a", "b", "c"), 10, 40, all_words(("a", "b"), 8))
    # within the ranker budget but larger than memory: 20 rankers x 7 words x 3 bytes
    monkeypatch.setattr(fo2level.monoid, "_physical_memory", lambda: 419)
    with pytest.raises(RankerBudgetError, match="GiB"):
        RankerTable(("a", "b"), 2, 2, all_words(("a", "b"), 2))
    # the signature keys are checked the same way
    monkeypatch.setattr(fo2level.monoid, "_physical_memory", lambda: 6)
    with pytest.raises(RankerBudgetError, match="GiB"):
        table.partition_equiv(2, 2)


# -- on-demand depth filling ----------------------------------------------------

def _fresh(table):
    """An unfilled table over the same class and word list."""
    return RankerTable(table.alphabet, table.max_blocks, table.max_depth, table.words)


def _lazy_table_cases(table_ab6):
    yield table_ab6
    yield RankerTable(("a", "b", "c"), 2, 3, all_words(("a", "b", "c"), 4))
    yield _shuffled_with_foreign_letter()


def test_partitions_in_any_order_match_a_completed_table(table_ab6):
    rng = random.Random(5)
    for base in _lazy_table_cases(table_ab6):
        done, lazy = _fresh(base), _fresh(base)
        assert done.values.shape[0] == len(done.rankers) and done.filled_depth == done.max_depth
        order = [(kind, m, n) for kind in ("partition_equiv", "partition_right", "partition_left")
                 for m in range(1, base.max_blocks + 1) for n in range(1, base.max_depth + 1)]
        expect = {(kind, m, n): getattr(done, kind)(m, n) for kind, m, n in order}
        rng.shuffle(order)
        deepest = 0
        assert lazy.filled_depth == 0
        for kind, m, n in order:
            assert np.array_equal(getattr(lazy, kind)(m, n), expect[kind, m, n]), (kind, m, n)
            deepest = max(deepest, n)
            assert lazy.filled_depth == deepest
        assert np.array_equal(lazy.values, done.values)
        assert np.array_equal(lazy.condensed, done.condensed)


def _scalar_condensed(table):
    return np.array([[is_condensed(r, w) for w in table.words] for r in table.rankers], dtype=bool)


def test_condensedness_read_after_the_positions_matches_a_completed_table(table_ab6):
    # positions and condensedness are separate on-demand products: an
    # equivalence partition fills positions only, and condensedness read
    # afterwards, one depth at a time, is what a completed table holds
    for base in _lazy_table_cases(table_ab6):
        done, lazy = _fresh(base), _fresh(base)
        expect = done.condensed
        assert np.array_equal(expect, _scalar_condensed(done))
        lazy.partition_equiv(1, base.max_depth)
        assert lazy.filled_depth == base.max_depth and lazy._condensed_blocks == []
        m = base.max_blocks
        for n in range(1, base.max_depth + 1):
            for kind in ("partition_right", "partition_left"):
                assert np.array_equal(getattr(lazy, kind)(m, n), getattr(done, kind)(m, n)), (kind, n)
            assert len(lazy._condensed_blocks) == n
            lo, hi = lazy._ends[n - 1], lazy._ends[n]
            assert np.array_equal(lazy._condensed_blocks[-1], expect[lo:hi]), n
        assert np.array_equal(lazy.condensed, expect)


@settings(max_examples=60)
@given(_shuffled_word_lists(), st.integers(0, 4), st.integers(0, 4), st.randoms(use_true_random=False))
def test_condensedness_first_read_on_a_restricted_table(case, depth, condensed, rng):
    # the full table is filled to depth in positions and to at most that in
    # condensedness before it is restricted
    alpha, words = case
    full = RankerTable(alpha, 3, 4, words)
    full._fill(depth)
    full._fill_condensed(min(depth, condensed))
    keep = np.flatnonzero([rng.random() < 0.4 for _ in words])
    sub = full.restricted(keep)
    assert len(sub._condensed_blocks) == min(depth, condensed) and sub.filled_depth == depth
    got = sub.condensed
    assert np.array_equal(got, _scalar_condensed(sub))
    assert np.array_equal(got, _fresh(full).condensed[:, keep])
    assert full.filled_depth == depth and len(full._condensed_blocks) == min(depth, condensed)


def test_least_oracle_n_fills_only_the_depths_it_reads(monkeypatch):
    # n = 3 passes up to length 9; length 10 needs n = 4.  After each failing
    # n the search partitions only the words of classes that mix images.
    calls = []
    partition = RankerTable.partition_equiv

    def counting(self, m, n):
        calls.append((self, n, len(self.words)))
        return partition(self, m, n)

    monkeypatch.setattr(RankerTable, "partition_equiv", counting)
    table = RankerTable(("a", "b"), 1, 6, all_words(("a", "b"), 10))
    assert least_oracle_n(monoid_of("(ab)*"), 1, 6, 10, table=table) == (4, None)
    assert [n for _, n, _ in calls] == [1, 2, 3, 4]
    assert calls[0][2] == len(table.words) == 2047
    assert calls[3][2] <= 0.1 * len(table.words)
    assert table.filled_depth <= max(n for t, n, _ in calls if t is table)
    # the search reads positions only: no table builds a condensed block
    assert all(t._condensed_blocks == [] for t, _, _ in calls)


def test_least_oracle_n_encodes_its_words_once(monkeypatch):
    # a table over a word list is encoded when it is built
    words = all_words(("a", "b"), 8)
    table = RankerTable(("a", "b"), 1, 6, words)

    def refuse(*_args, **_kwargs):
        raise AssertionError("words spelled or encoded after the tables were built")

    restricted = []
    restrict = RankerTable.restricted

    def recording(self, keep):
        sub = restrict(self, keep)
        restricted.append((self, sub))
        return sub

    monkeypatch.setattr(fo2level.automata, "all_words", refuse)
    monkeypatch.setattr(fo2level.rankers, "_letter_codes", refuse)
    monkeypatch.setattr(RankerTable, "restricted", recording)
    mono = monoid_of("(a|b)*abb(a|b)*")
    # the oracle's own table builds its letter matrix with no word string,
    # and every restricted table reads its parent's matrix object
    got = least_oracle_n(mono, 1, 6, 8)
    assert got == (3, None) and len(restricted) == 2
    assert all(sub.words.letters is parent.words.letters for parent, sub in restricted)
    # a table passed in is read as it is
    restricted.clear()
    assert least_oracle_n(mono, 1, 6, 8, table=table) == got
    assert restricted[0][0] is table
    assert all(sub.words.letters is table.words.letters for _, sub in restricted)
    # a restricted table reads its words' images off the shared matrix
    sub = table.restricted(np.arange(0, len(words), 3))
    outcome = oracle_equiv_refines_morphism(mono, 1, 2, 8, table=sub)
    assert _triple(outcome) == _per_word_oracle(mono, sub.partition_equiv(1, 2), sub.words)


@settings(max_examples=30)
@given(_shuffled_word_lists(), st.integers(0, 2), st.randoms(use_true_random=False))
def test_occurrence_tables_match_scalar_next_and_prev(case, depth, rng):
    # positions x words per instruction, the words on the last axis; the
    # restricted table shares the tables and reads its words' columns
    # through its word-column index
    alpha, words = case
    table = RankerTable(alpha, 2, 3, words)
    table._fill(depth)
    keep = np.flatnonzero([rng.random() < 0.5 for _ in words])
    k, top = len(alpha), table._maxlen + 1
    for tab in (table, table.restricted(keep)):
        assert tab._occ is table._occ and tab._occ.shape == (2 * k, top + 1, len(words))
        assert len(tab.words.cols) == len(tab.words)
        for i, a in enumerate(alpha):
            for t, scalar in ((i, next_pos), (k + i, prev_pos)):
                # position 0 reads 0 (undefined) once depth 1 is built
                expect = [[0] + [scalar(w, a, x) or 0 for x in range(1, top + 1)] for w in tab.words]
                got = tab._occ[t][:, tab.words.cols].T
                assert np.array_equal(got, np.reshape(expect, (-1, top + 1))), (a, scalar)


@pytest.mark.parametrize("rows", [0, 1, 7, 8, 9, 53])
def test_pack_rows_matches_packbits(rows):
    bits = np.random.default_rng(rows).random((rows, 37)) < 0.5
    assert np.array_equal(_pack_rows(bits), np.packbits(bits, axis=0))


@settings(max_examples=200)
@given(st.lists(st.integers(0, 6), max_size=80),
       st.sampled_from(["drawn", "one class", "singletons"]), st.randoms(use_true_random=False))
def test_sort_free_bookkeeping_matches_the_sorting_reference(raw, shape, rng):
    labels = {"drawn": _first_seen(raw), "one class": np.zeros(len(raw), dtype=np.int32),
              "singletons": np.arange(len(raw), dtype=np.int32)}[shape]
    images = np.array([rng.randrange(3) for _ in raw], dtype=np.intp)
    rep = _first_equal_rows(labels[:, None])
    assert np.array_equal(rep, first_class_words(labels))
    bad = images != images[rep]
    assert np.array_equal(_mixed_words(rep, bad), mixed_class_words(labels, bad))


def test_construction_fills_no_row(monkeypatch):
    built = []
    monkeypatch.setattr(Ranker, "__post_init__", lambda self: built.append(self))
    for alpha, m, n in [(("a", "b"), 2, 6), (("a", "b", "c"), 3, 4)]:
        table = RankerTable(alpha, m, n, all_words(alpha, 3))
        assert built == []
        rankers = table.rankers
        assert table.filled_depth == 0
        assert rankers == reference_rankers(alpha, m, n)
        assert len(rankers) == fo2level.rankers._ranker_count(len(alpha), m, n)
        built.clear()


def test_concurrent_partitions_fill_each_depth_once(table_ab6):
    # positions and condensedness are filled under one lock, in either order
    requests = [(kind, m, n) for kind in ("partition_equiv", "partition_right")
                for m in range(1, 4) for n in range(1, 4)] * 2
    random.Random(8).shuffle(requests)
    expect = {r: getattr(table_ab6, r[0])(*r[1:]) for r in requests}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            lazy = _fresh(table_ab6)
            with ThreadPoolExecutor(max_workers=6) as pool:
                got = list(pool.map(lambda r: getattr(lazy, r[0])(*r[1:]), requests, timeout=60))
            assert np.array_equal(lazy.values, table_ab6.values)
            assert np.array_equal(lazy.condensed, table_ab6.condensed)
            for r, labels in zip(requests, got):
                assert np.array_equal(labels, expect[r]), r
    finally:
        sys.setswitchinterval(switch)


def test_concurrent_reads_decode_the_words_once(table_ab6):
    # every reader gets the one list the first read decoded, restricted
    # tables included
    keep = np.arange(0, len(table_ab6.words), 3)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            for words, expect in ((RankerTable(("a", "b"), 1, 1, 6).words, table_ab6.words),
                                  (table_ab6.restricted(keep).words, [table_ab6.words[i] for i in keep])):
                with ThreadPoolExecutor(max_workers=6) as pool:
                    got = list(pool.map(lambda _: words._decoded(), range(12), timeout=60))
                assert all(g is got[0] for g in got) and got[0] == expect
    finally:
        sys.setswitchinterval(switch)


def test_l_factorize_reuses_the_reverse_monoid(monkeypatch):
    mono = monoid_of("(a|b)*abb(a|b)*")
    words = ("babba", "abbab", "")
    expect = [l_factorize(mono, u) for u in words]
    built = []
    init = fo2level.monoid.FiniteMonoid.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(fo2level.monoid.FiniteMonoid, "__init__", counting)
    assert [l_factorize(mono, u) for u in words] == expect
    assert built == []


def test_r_factorize_examples():
    segs, marks = r_factorize(trivial(), "aaaa")
    assert segs == ["aaaa"] and marks == []
    segs, marks = r_factorize(left_zero(), "abab")
    assert segs == ["", "bab"] and marks == ["a"]
    segs, marks = r_factorize(two_element_zero(), "bab")
    assert segs == ["b", "b"] and marks == ["a"]


def test_l_factorize_examples():
    segs, marks = l_factorize(trivial(), "abab")
    assert segs == ["abab"] and marks == []
    segs, marks = l_factorize(two_element_zero(), "bab")
    assert segs == ["b", "b"] and marks == ["a"]


def _reassemble(segs, marks):
    out = segs[0]
    for mk, seg in zip(marks, segs[1:]):
        out += mk + seg
    return out


def test_factorization_postconditions(da_corpus):
    rng = random.Random(9)
    for e in da_corpus[:40]:
        mono = e.monoid
        p = preorders(mono)
        req = p.rleq & p.rleq.T
        leq = p.lleq & p.lleq.T
        for _ in range(10):
            u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
            segs, marks = r_factorize(mono, u)
            assert _reassemble(segs, marks) == u
            assert len(marks) < mono.size
            assert mono.eval_word(segs[0]) == mono.identity
            cur = mono.identity
            for seg, mk in zip(segs, marks + [None]):
                for ch in seg:
                    nxt = mono.mul(cur, mono.eval_word(ch))
                    assert req[cur, nxt]
                    cur = nxt
                if mk is not None:
                    nxt = mono.mul(cur, mono.eval_word(mk))
                    assert not req[cur, nxt]
                    cur = nxt
            segs, marks = l_factorize(mono, u)
            assert _reassemble(segs, marks) == u
            assert len(marks) < mono.size
            assert mono.eval_word(segs[-1]) == mono.identity
            # walk right to left: segments keep the L-class, markers drop it
            cur = mono.identity
            for ch in reversed(segs[-1]):
                nxt = mono.mul(mono.eval_word(ch), cur)
                assert leq[cur, nxt]
                cur = nxt
            for seg, mk in zip(reversed(segs[:-1]), reversed(marks)):
                nxt = mono.mul(mono.eval_word(mk), cur)
                assert not leq[cur, nxt]
                cur = nxt
                for ch in reversed(seg):
                    nxt = mono.mul(mono.eval_word(ch), cur)
                    assert leq[cur, nxt]
                    cur = nxt
