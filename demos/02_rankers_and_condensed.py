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

# a RankerTable enumerates a whole ranker class (here depth <= 3, <= 3
# blocks); the one-sided relations compare which of them are condensed
SAMPLES = ["ab", "abba", "bda", "abcabc", "bbaab"]
rankers = RankerTable(("a", "b", "c"), 3, 3, []).rankers
print()
for word in SAMPLES:
    count = sum(is_condensed(rk, word) for rk in rankers)
    print(f"{word!r}: {count} of {len(rankers)} rankers condensed")
