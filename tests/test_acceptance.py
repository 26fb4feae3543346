"""Acceptance criteria, one test (and one printed pass/fail line) each.

Criterion 6 is expected to fail on one sub-clause: the last-marker suffix
clause of the right-relation factor-compatibility property has genuine
counterexamples (see test_rankers.test_known_factor_suffix_counterexample,
which pins them); the remaining clauses and all other criteria pass.
"""

import time

from fo2level.automata import parse_regex, regex_to_min_dfa
from fo2level.cli import main as cli_main
from fo2level.corpus import (check_action_agreement, check_alphabet_stability,
                             check_congruence_quotients, check_dual_route,
                             check_level_anchors, check_monotonicity)
from fo2level.identities import identities_level
from fo2level.monoid import transition_monoid
from fo2level.rankers import eval_ranker, is_condensed, parse_ranker
from fo2level.varieties import fo2_level
from lemmas import (check_equiv_factor, check_factor_compat, check_inner_segment,
                    check_relation_congruence)
from reference import check_oracle_bounds


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def monoid_of(text):
    return transition_monoid(regex_to_min_dfa(parse_regex(text)))


def test_criterion_1_ranker_reference_examples():
    r = parse_ranker("Xa Yb Xc")
    # warm up, then time the six checks
    eval_ranker(r, "bca")
    t0 = time.perf_counter()
    ok = (eval_ranker(r, "bca") == 2
          and eval_ranker(r, "bac") == 3
          and eval_ranker(r, "cabc") is None
          and eval_ranker(r, "bcba") is None
          and is_condensed(r, "bca")
          and not is_condensed(r, "bac"))
    elapsed = time.perf_counter() - t0
    _report(1, "ranker-reference-examples", ok and elapsed < 1e-3,
            f"{elapsed * 1e6:.0f} us")


def test_criterion_2_dual_route_agreement(da_corpus):
    res = check_dual_route(da_corpus)
    _report(2, "dual-route-agreement", res.ok,
            f"{len(da_corpus)} DA monoids, {res.checked} memberships" +
            (f"; {res.detail}" if not res.ok else ""))


def test_criterion_3_level_anchors(da_corpus, mixed_entries):
    ok = True
    detail = ""
    for entries in (da_corpus, mixed_entries):
        res = check_level_anchors(entries)
        if not res.ok:
            ok, detail = False, res.detail
            break
    if ok:
        ok = fo2_level(monoid_of("a(a|b)*")).m == 2
        ok = ok and fo2_level(monoid_of("(ab)*")).status == "not-fo2"
        detail = "levels 1/2 anchored; a(a|b)* -> 2, (ab)* -> none"
    _report(3, "level-anchors", ok, detail)


def test_criterion_4_hierarchy_monotonicity(da_corpus, mixed_entries):
    res1 = check_monotonicity(da_corpus)
    res2 = check_monotonicity(mixed_entries)
    ok = res1.ok and res2.ok
    _report(4, "hierarchy-monotonicity", ok,
            f"{res1.checked + res2.checked} membership steps")


def test_criterion_5_equivalence_oracle_bound(da_corpus):
    res = check_oracle_bounds(da_corpus, max_n=8, max_len=6)
    _report(5, "equivalence-oracle-bound", res.ok,
            res.detail if not res.ok else f"{res.checked} monoids, n <= 8, words <= 6")


def test_criterion_6_lemma_property_suites(da_corpus, table_ab6):
    results = [
        check_action_agreement(da_corpus),
        check_alphabet_stability(da_corpus, max_len=4),
        check_factor_compat(("a", "b"), max_len=6, table=table_ab6,
                            include_suffix_clause=True),
        check_equiv_factor(("a", "b"), max_len=6, table=table_ab6),
        check_inner_segment(("a", "b"), max_len=6, table=table_ab6),
    ]
    failures = [r for r in results if not r.ok]
    detail = "; ".join(f"{r.name}: {r.detail}" for r in failures) or \
        f"{sum(r.checked for r in results)} instances"
    _report(6, "lemma-property-suites", not failures, detail)


def test_criterion_7_congruence_verification(da_corpus, table_ab7):
    res1 = check_congruence_quotients(da_corpus)
    res2 = check_relation_congruence(("a", "b"), max_len=6, samples=1000,
                                     seed=7, table=table_ab7)
    ok = res1.ok and res2.ok
    _report(7, "congruence-verification", ok,
            f"{res1.checked} quotients, {res2.checked} sampled extensions")


def test_criterion_8_straubing_tally(da_corpus, capsys):
    # the report must be produced; no percentage is asserted
    code = cli_main(["corpus", "--seed", "7", "--count", "40"])
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("straubing tally")]
    with capsys.disabled():
        ok = code in (0, 2) and len(lines) == 2 and all("agree" in ln for ln in lines)
        for ln in lines:
            print(f"  {ln}")
        _report(8, "straubing-tally-reported", ok)


def test_criterion_9_analysis_speed(da_corpus):
    worst = 0.0
    for e in da_corpus:
        t0 = time.perf_counter()
        mono = e.monoid
        mono.is_aperiodic(); mono.is_in_da()
        mono.is_j_trivial(); mono.is_r_trivial(); mono.is_l_trivial()
        quot = fo2_level(mono)
        ident = identities_level(mono)
        assert quot == ident.result
        worst = max(worst, time.perf_counter() - t0)
    _report(9, "analysis-speed", worst < 5.0, f"worst {worst * 1e3:.1f} ms")
