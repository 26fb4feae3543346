"""Submonoids of direct products of pinned factor monoids.

The submonoid of M1 x ... x Mk generated by the letter tuples
(g1(a), ..., gk(a)) maps onto every factor (projection), and it embeds in
the direct product.  Each R_m / L_m is a variety, closed under both, so the
least FO2 alternation depth of the product is exactly the maximum of the
factor depths.  That makes the expected verdict of every ``deep-products``
input known without running ``fo2level``.

The factor tables below were found once by a seeded search over random
3-letter DFAs with at most 6 states and are pinned here with their depths.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# (name, FO2 alternation depth, generator map, multiplication table rows)
FACTORS = (
    ("L3-6a", 3, "a1 b2 c3",
     "0 1 2 3 4 5; 1 1 1 3 4 5; 2 2 2 3 4 5; 3 4 5 3 4 5; 4 4 4 3 4 5; 5 5 5 "
     "3 4 5"),
    ("L3-6b", 3, "a1 b2 c3",
     "0 1 2 3 4 5; 1 1 4 5 4 5; 2 1 2 2 4 5; 3 1 3 3 4 5; 4 1 4 4 4 5; 5 1 5 "
     "5 4 5"),
    ("L1-3", 1, "a1 b2 c1",
     "0 1 2; 1 1 2; 2 2 2"),
    ("L1-4", 1, "a1 b2 c3",
     "0 1 2 3; 1 2 2 1; 2 2 2 2; 3 2 2 3"),
    ("L1-5", 1, "a1 b2 c3",
     "0 1 2 3 4; 1 1 4 4 4; 2 3 2 3 4; 3 3 4 4 4; 4 4 4 4 4"),
    ("L1-6", 1, "a1 b2 c3",
     "0 1 2 3 4 5; 1 4 1 4 4 1; 2 3 5 4 4 5; 3 4 3 4 4 3; 4 4 4 4 4 4; 5 4 5 "
     "4 4 5"),
    ("L1-7", 1, "a1 b2 c3",
     "0 1 2 3 4 5 6; 1 1 4 5 4 5 5; 2 5 5 5 5 5 5; 3 3 6 5 6 5 5; 4 5 5 5 5 "
     "5 5; 5 5 5 5 5 5 5; 6 5 5 5 5 5 5"),
    ("L1-9", 1, "a1 b2 c3",
     "0 1 2 3 4 5 6 7 8; 1 4 1 5 4 4 1 5 5; 2 4 6 7 4 4 6 8 8; 3 4 4 3 4 4 4 "
     "4 4; 4 4 4 4 4 4 4 4 4; 5 4 4 5 4 4 4 4 4; 6 4 6 8 4 4 6 8 8; 7 4 4 7 "
     "4 4 4 4 4; 8 4 4 8 4 4 4 4 4"),
    ("L1-11", 1, "a1 b2 c3",
     "0 1 2 3 4 5 6 7 8 9 10; 1 1 4 5 4 5 8 9 8 9 9; 2 2 4 6 4 6 8 9 8 9 9; "
     "3 3 7 5 7 5 10 9 10 9 9; 4 4 4 8 4 8 8 9 8 9 9; 5 5 9 5 9 5 9 9 9 9 9; "
     "6 6 9 6 9 6 9 9 9 9 9; 7 7 7 10 7 10 10 9 10 9 9; 8 8 9 8 9 8 9 9 9 9 "
     "9; 9 9 9 9 9 9 9 9 9 9 9; 10 10 9 10 9 10 9 9 9 9 9"),
    ("L2-4", 2, "a1 b2 c3",
     "0 1 2 3; 1 1 1 1; 2 1 2 3; 3 1 2 3"),
    ("L2-5", 2, "a0 b1 c2",
     "0 1 2 3 4; 1 3 2 3 4; 2 4 2 3 4; 3 3 2 3 4; 4 3 2 3 4"),
    ("L2-6", 2, "a1 b2 c3",
     "0 1 2 3 4 5; 1 1 2 4 4 5; 2 5 2 5 4 5; 3 3 2 4 4 5; 4 4 2 4 4 5; 5 5 2 "
     "4 4 5"),
    ("L2-7", 2, "a1 b2 c3",
     "0 1 2 3 4 5 6; 1 1 2 4 4 5 6; 2 2 2 5 5 5 6; 3 6 2 3 6 5 6; 4 6 2 4 6 "
     "5 6; 5 6 2 5 6 5 6; 6 6 2 6 6 5 6"),
    ("L2-8", 2, "a1 b2 c3",
     "0 1 2 3 4 5 6 7; 1 4 5 3 4 7 6 7; 2 6 7 3 4 3 6 7; 3 6 7 3 4 3 6 7; 4 "
     "4 7 3 4 7 6 7; 5 6 7 3 4 3 6 7; 6 4 3 3 4 7 6 7; 7 6 7 3 4 3 6 7"),
    ("L2-10", 2, "a1 b2 c3",
     "0 1 2 3 4 5 6 7 8 9; 1 1 4 3 4 8 9 8 8 9; 2 5 6 7 6 8 9 8 8 9; 3 8 9 8 "
     "9 8 9 8 8 9; 4 8 9 8 9 8 9 8 8 9; 5 5 6 7 6 8 9 8 8 9; 6 8 9 8 9 8 9 8 "
     "8 9; 7 8 9 8 9 8 9 8 8 9; 8 8 9 8 9 8 9 8 8 9; 9 8 9 8 9 8 9 8 8 9"),
)


@dataclass(frozen=True)
class Factor:
    name: str
    level: int
    table: tuple[tuple[int, ...], ...]
    gens: dict          # letter -> element; element 0 is the identity


def pinned_factors() -> list[Factor]:
    out = []
    for name, level, gens, rows in FACTORS:
        table = tuple(tuple(int(x) for x in row.split()) for row in rows.split(";"))
        out.append(Factor(name, level, table, {g[0]: int(g[1:]) for g in gens.split()}))
    return out


@dataclass(frozen=True)
class ProductMonoid:
    table: list[list[int]]
    identity: int
    gens: dict
    level: int          # max of the factor levels

    @property
    def size(self) -> int:
        return len(self.table)

    def idempotents(self) -> int:
        return sum(1 for x in range(self.size) if self.table[x][x] == x)

    def to_text(self) -> str:
        """The multiplication-table format read by ``analyze --monoid``."""
        lines = [f"size: {self.size}", f"identity: {self.identity}"]
        lines += [f"gen {a} {x}" for a, x in sorted(self.gens.items())]
        lines.append("table")
        lines += [" ".join(map(str, row)) for row in self.table]
        return "\n".join(lines) + "\n"


def _elements(factors: list[Factor], alphabet: str, cap: int | None = None):
    """Breadth-first closure of the letter tuples from the identity tuple.

    Returns the elements and the generator tuples, or None past `cap` elements.
    """
    gens = [tuple(f.gens[a] for f in factors) for a in alphabet]
    elems = [tuple(0 for _ in factors)]
    seen = set(elems)
    for x in elems:
        for g in gens:
            y = tuple(f.table[xi][gi] for f, xi, gi in zip(factors, x, g))
            if y not in seen:
                if cap is not None and len(elems) >= cap:
                    return None
                seen.add(y)
                elems.append(y)
    return elems, gens


def product(factors: list[Factor], alphabet: str = "abc") -> ProductMonoid:
    """The generated submonoid with its table; element 0 is the identity."""
    elems, gens = _elements(factors, alphabet)
    index = {x: i for i, x in enumerate(elems)}
    table = [[index[tuple(f.table[xi][yi] for f, xi, yi in zip(factors, x, y))]
              for y in elems] for x in elems]
    return ProductMonoid(table, 0, {a: index[g] for a, g in zip(alphabet, gens)},
                         max(f.level for f in factors))


def rename_letters(f: Factor, perm: tuple[str, ...], alphabet: str = "abc") -> Factor:
    """The same monoid with letter alphabet[i] sent where perm[i] was."""
    return Factor(f.name, f.level, f.table, {a: f.gens[b] for a, b in zip(alphabet, perm)})


def draw_product(rng: random.Random, size: int, factors: list[Factor],
                 max_draws: int = 20_000) -> tuple[list[Factor], ProductMonoid]:
    """A product of 2-3 factors, one of depth 3, whose submonoid has `size` elements.

    Factors are drawn with random letter renamings, so the pinned tables
    give many distinct products of each size.
    """
    deep = [f for f in factors if f.level == 3]
    rest = [f for f in factors if f.level < 3]
    perms = list(itertools.permutations("abc"))
    for _ in range(max_draws):
        chosen = [rng.choice(deep)] + rng.sample(rest, rng.randint(1, 2))
        chosen = [chosen[0]] + [rename_letters(f, rng.choice(perms)) for f in chosen[1:]]
        found = _elements(chosen, "abc", cap=size)
        if found is not None and len(found[0]) == size:
            return chosen, relabel(product(chosen), rng)
    raise RuntimeError(f"no product of size {size} in {max_draws} draws")


def relabel(m: ProductMonoid, rng: random.Random) -> ProductMonoid:
    """The same monoid with its elements renumbered by a random permutation."""
    perm = list(range(m.size))
    rng.shuffle(perm)
    table = [[0] * m.size for _ in range(m.size)]
    for x in range(m.size):
        for y in range(m.size):
            table[perm[x]][perm[y]] = perm[m.table[x][y]]
    return ProductMonoid(table, perm[m.identity],
                         {a: perm[x] for a, x in m.gens.items()}, m.level)
