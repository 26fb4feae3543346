#!/usr/bin/env python3
"""Walkthrough: ranker equivalence refining the word morphism.

For a language of alternation depth m there is some depth n at which the
ranker-equivalence classes (m blocks, depth n) separate every pair of
words with different syntactic-monoid images.  The oracle enumerates all
short words, partitions them by equivalence signature, and searches the
least n at which the morphism is constant on each class, reporting the
last violating pair when no n up to the bound works.
"""

from fo2level import (RankerTable, fo2_level, least_oracle_n, parse_regex,
                      regex_to_min_dfa, transition_monoid)

for regex in ["(a|b)*a(a|b)*", "a(a|b)*", "(a|b)(a|b)(a|b)"]:
    monoid = transition_monoid(regex_to_min_dfa(parse_regex(regex)))
    level = fo2_level(monoid)
    m = level.m
    print(f"{regex}: monoid size {monoid.size}, depth {level}")
    least, counterexample = least_oracle_n(monoid, m, 6, 6)
    table = RankerTable(("a", "b"), m, 6, 6)  # all words up to length 6
    for n in range(1, (least or 6) + 1):
        # per word, the first word of its class: one word per class is its own
        first = table.partition_equiv(m, n)
        classes = sum(i == f for i, f in enumerate(first.tolist()))
        verdict = "refines the morphism" if n == least else "some class mixes images"
        print(f"    n={n}: {classes:4d} classes, {verdict}")
    if least is None:
        u, v = counterexample
        print(f"    last counterexample: {u!r} ~ {v!r} with different images")
    print()
