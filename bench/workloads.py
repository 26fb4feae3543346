"""The four seeded workloads and the reference verdict for each input.

Every input is made from the seed by the benchmark's own code (random DFAs,
product-table closure, the transformation-closure count); no ``fo2level``
function runs during generation.  Each `Case` carries the answer the gate
expects, taken from that code or from pinned constants.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from automata_ref import (RefDfa, closure, has_nontrivial_cycle, is_idempotent,
                          minimal, random_dfa)
from products import draw_product, pinned_factors


@dataclass
class Case:
    """One CLI call and what its output must say."""

    name: str
    argv: list[str]
    expect: dict = field(default_factory=dict)   # report key -> value, or "stdout"
    sizes: dict = field(default_factory=dict)    # sizes known before the run


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _dfa_expectation(d: RefDfa) -> tuple[dict, dict]:
    """Reference report fields and row sizes of a DFA input, from own arithmetic."""
    m = minimal(d)
    elems = closure(m)
    aperiodic = not any(has_nontrivial_cycle(t) for t in elems)
    expect = {"dfa_states": m.n_states, "monoid_size": len(elems), "aperiodic": aperiodic}
    if not aperiodic:           # DA is a class of aperiodic monoids
        expect.update(in_da=False, fo2_level=None)
    sizes = {"states": m.n_states, "monoid": len(elems),
             "idempotents": sum(map(is_idempotent, elems))}
    return expect, sizes


# -- small-batch --------------------------------------------------------------

# Regexes whose levels the test suite asserts (None: not FO2-definable).
PINNED_REGEXES = (("a(a|b)*", 2), ("(ab)*", None), ("(a|b)*a(a|b)*", 1))

# Quotas of DFAs per window of |M| (own closure count of the minimal DFA):
# (lo, hi, count).  The few large non-DA monoids set p90 and much of the pass
# time, so how many there are and how large is fixed; the seed picks the DFAs.
SMALL_BATCH_WINDOWS = ((1, 19, 252), (20, 59, 29), (60, 69, 4), (70, 79, 2), (80, 89, 2),
                       (90, 99, 1), (100, 109, 2), (110, 119, 1), (120, 134, 1),
                       (140, 150, 1), (170, 180, 2))


def small_batch(seed: int, workdir: str) -> list[Case]:
    rng = random.Random(seed)
    room = [count for _lo, _hi, count in SMALL_BATCH_WINDOWS]
    cases = []
    draws = 0
    while any(room):
        alphabet = "ab" if draws % 2 == 0 else "abc"
        draws += 1
        d = random_dfa(rng, rng.randint(1, 4), alphabet)
        elems = closure(minimal(d), cap=SMALL_BATCH_WINDOWS[-1][1])
        if elems is None:
            continue
        w = next((i for i, (lo, hi, _c) in enumerate(SMALL_BATCH_WINDOWS)
                  if lo <= len(elems) <= hi), None)
        if w is None or not room[w]:
            continue
        room[w] -= 1
        expect, sizes = _dfa_expectation(d)
        i = len(cases)
        path = _write(workdir, f"small-{i:03d}.dfa", d.to_text())
        cases.append(Case(f"dfa-{i:03d}", ["analyze", "--dfa", path, "--json"], expect, sizes))
    for regex, level in PINNED_REGEXES:
        cases.append(Case(f"regex {regex}", ["analyze", "--regex", regex, "--json"],
                          {"fo2_level": level}))
    rng.shuffle(cases)
    return cases


# -- deep-products ------------------------------------------------------------

# Element counts of the product inputs, one input per entry.  Identity checking
# costs |M|^4 at depth 3, so a fixed size list keeps the work of a pass the
# same for every seed while the seed picks the factors and the labelling.
PRODUCT_SIZES = (14, 14, 15, 15, 16, 16, 17, 17, 18, 18, 19, 19, 20, 20, 21,
                 22, 23, 24, 25, 26)


def deep_products(seed: int, workdir: str) -> list[Case]:
    rng = random.Random(seed)
    factors = pinned_factors()
    cases = []
    for i, size in enumerate(PRODUCT_SIZES):
        chosen, mono = draw_product(rng, size, factors)
        path = _write(workdir, f"product-{i:02d}.monoid", mono.to_text())
        name = "x".join(f.name for f in chosen)
        cases.append(Case(f"product-{i:02d} {name}", ["analyze", "--monoid", path, "--json"],
                          {"monoid_size": size, "fo2_level": mono.level, "in_da": True},
                          {"monoid": size, "idempotents": mono.idempotents(),
                           "level": mono.level}))
    return cases


# -- large-monoids ------------------------------------------------------------

# Target |M| per input, at the low end of the non-DA range where the monoid
# layer does about 97% of the work.  Tables much larger than this spill out
# of the per-core cache, and their times then spread far more with the load
# on the host, so the inputs are the ones nearest |M| = 310; seven of them
# keep the median input steady from seed to seed.  A fixed number of draws
# (extended only when a target has no candidate within LARGE_SLACK) keeps
# generation time nearly the same for every seed.
LARGE_TARGETS = (310,) * 7
LARGE_SLACK = 15
LARGE_DRAWS = 10000


def _large_dfas(rng: random.Random) -> list[RefDfa]:
    """Minimal 5-state binary DFAs whose monoids hold a group, |M| near each target."""
    lo, hi = LARGE_TARGETS[0] - LARGE_SLACK, LARGE_TARGETS[-1] + LARGE_SLACK
    pool: list[tuple[int, RefDfa]] = []
    used: set[int] = set()
    chosen: list[RefDfa] = []
    draws = LARGE_DRAWS
    while True:
        for _ in range(draws):
            d = random_dfa(rng, 5, "ab")
            elems = closure(d, cap=hi)
            if elems is not None and len(elems) >= lo and any(map(has_nontrivial_cycle, elems)):
                pool.append((len(elems), d))
        for target in LARGE_TARGETS[len(chosen):]:
            near = sorted((abs(n - target), k) for k, (n, _d) in enumerate(pool)
                          if abs(n - target) <= LARGE_SLACK and k not in used)
            found = None
            for _dist, k in near:
                used.add(k)
                found = _with_minimal_finals(rng, pool[k][1])
                if found is not None:
                    break
            if found is None:
                break
            chosen.append(found)
        if len(chosen) == len(LARGE_TARGETS):
            return chosen
        draws = LARGE_DRAWS // 4


def _with_minimal_finals(rng: random.Random, d: RefDfa) -> RefDfa | None:
    """d with random final states making it minimal, if 20 tries find some."""
    for _ in range(20):
        candidate = RefDfa(d.alphabet, d.delta,
                           frozenset(s for s in range(d.n_states) if rng.random() < 0.5))
        if minimal(candidate).n_states == d.n_states:
            return candidate
    return None


def large_monoids(seed: int, workdir: str) -> list[Case]:
    cases = []
    for i, d in enumerate(_large_dfas(random.Random(seed))):
        expect, sizes = _dfa_expectation(d)
        path = _write(workdir, f"large-{i}.dfa", d.to_text())
        cases.append(Case(f"large-{i} |M|={sizes['monoid']}",
                          ["analyze", "--dfa", path, "--json"], expect, sizes))
    return cases


# -- ranker-oracle ------------------------------------------------------------

# (regex, --m, --max-len, frozen |M|, frozen least n); all use --max-n 6.
# Every call climbs to n=4, where partition_equiv dominates.  The five m=1,
# length-10 calls take about half as long as the other six; with an odd count
# the median input lies inside the slower group, not in the gap between them.
ORACLE_CALLS = (
    ("(ab)*", 1, 11, 6, 4),
    ("(a|b)*abb(a|b)*", 1, 10, 10, 4),
    ("(a|b)*abb(a|b)*", 2, 10, 10, 4),
    ("b(a|b)*a", 1, 10, 5, 4),
    ("(aab)*", 1, 10, 12, 4),
    ("(abb)*", 1, 10, 12, 4),
    ("(a|b)*b", 1, 10, 3, 4),
    ("(ab|b)*", 2, 10, 6, 4),
    ("(a|b)*aab(a|b)*", 2, 10, 10, 4),
    ("a(ba)*b", 2, 10, 6, 4),
    ("(abb)*", 2, 10, 12, 4),
)
SWAP = str.maketrans("ab", "ba")


def ranker_oracle(seed: int, workdir: str) -> list[Case]:
    """The pinned calls, each with letters a and b swapped or not by the seed.

    Renaming letters is a monoid isomorphism, so |M| and the least n are
    unchanged and the frozen lines still apply.
    """
    rng = random.Random(seed)
    cases = []
    for regex, m, max_len, size, n in ORACLE_CALLS:
        if rng.random() < 0.5:
            regex = regex.translate(SWAP)
        stdout = (f"input: regex {regex}\nmonoid_size: {size}\n"
                  f"oracle: holds at n={n} (m={m}, words up to length {max_len})\n")
        cases.append(Case(f"oracle {regex} m={m} len={max_len}",
                          ["oracle", "--regex", regex, "--m", str(m), "--max-n", "6",
                           "--max-len", str(max_len)],
                          {"stdout": stdout}, {"monoid": size}))
    rng.shuffle(cases)
    return cases


BUILDERS = {
    "small-batch": small_batch,
    "deep-products": deep_products,
    "large-monoids": large_monoids,
    "ranker-oracle": ranker_oracle,
}
