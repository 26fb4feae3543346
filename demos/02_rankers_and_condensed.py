#!/usr/bin/env python3
"""Walkthrough: ranker evaluation and the condensed (zooming) semantics.

A ranker is a sequence of instructions "Xa: go to the next a" and
"Ya: go to the previous a", executed left to right.  It is condensed on a
word when the run zooms monotonically inward, never landing on or beyond a
previously visited position.
"""

from fo2level import RankerTable, eval_ranker, is_condensed, parse_ranker
from fo2level.rankers import ranker_positions

r = parse_ranker("Xa Yb Xc")
for word in ["bca", "bac", "cabc", "bcba"]:
    pos = eval_ranker(r, word)
    trace = ranker_positions(r, word)
    print(f"{r} on {word!r}:")
    print(f"    visited positions: {trace}")
    if pos is None:
        print("    undefined (some instruction found nothing)")
    else:
        print(f"    defines position {pos}; condensed: {is_condensed(r, word)}")
    print()

# a run that lands exactly on an already-visited position is not condensed
r2 = parse_ranker("Xb Ya Xb")
print(f"{r2} on 'ab': trace {ranker_positions(r2, 'ab')}, "
      f"condensed: {is_condensed(r2, 'ab')} (revisits position 2)")

# a RankerTable computes condensedness for a whole ranker class over a word
# list at once; the one-sided relations read these rows, and they agree with
# is_condensed cell by cell
SAMPLES = ["ab", "abba", "bda", "abcabc", "bbaab"]
table = RankerTable(("a", "b", "c"), 3, 3, SAMPLES)
for rk, row in zip(table.rankers, table.condensed.tolist()):
    for word, cell in zip(table.words, row):
        assert cell == is_condensed(rk, word)
print(f"\ntable and interval chain agree on {len(table.rankers)} rankers "
      f"x {len(table.words)} words")
