"""Congruences on finite monoids and the R_m/L_m membership recursion.

The three congruences here relate elements of a DA monoid by how
idempotents absorb them:

* ``sim_k``: u ~ v when for every idempotent e, either both eu and ev fall
  strictly below e in the J-order, or eu == ev.
* ``sim_d``: the left-right dual (uf against f).
* ``sim_li``: the two-sided version over J-equivalent idempotent pairs.

Each labels u by its signature, the products eu (uf, eue) with -1 where one
leaves the J-class of its idempotent, in O(|E|·|M|) with no n×n relation.

They are defined on DA monoids only, and raise ``ValueError`` elsewhere:
every R_m and L_m lies in DA, so ``quotient_chain`` yields a monoid outside
DA alone and stops, and ``fo2_level`` answers NotFO2 before it walks one.
Inside DA the table answers every J-class question, because every regular
D-class of a DA monoid is a rectangular band (Tesson & Thérien, "Diamonds
are forever: the variety DA", 2002):

* for p = eu (or ue, or eue), p J e puts p in the regular D-class of e, so
  epe = e, and ep = p gives pe = e (for ue: ep = e).  Conversely pe = e
  gives e <=_J p, and p <=_J e holds anyway.  So the test is pe = e for ~K
  and ~LI, and ep = e for ~D;
* for e J f, the row of the pair (e, f) in the ~LI signature is a function
  of the row of (e, e), so the |E| diagonal pairs give the same classes as
  all |E|^2: euf <=_J eu <=_J e, and if eu J e then eu lies in e's row of
  the rectangular band, so euf = ef; and eu J e exactly when eue J e.

DA is closed under quotients and reversal, so ``quotient`` passes the fact
on, and a chain decides it once, on its first member.

Membership in R_m / L_m is decided by the Mal'cev recursion: R_1 = L_1 is
the J-trivial monoids, R_{m+1} holds when the quotient by sim_k lies in L_m,
and L_{m+1} holds when the quotient by sim_d lies in R_m.  Unrolled, M lies
in R_m when its K-first chain M, M/~K, (M/~K)/~D, ... is J-trivial within
m-1 steps, and in L_m by the mirrored D-first chain.  A language is
FO2-definable with alternation depth m exactly when its syntactic monoid
lies in R_{m+1} intersect L_{m+1}; ``fo2_level`` reads the least such m
off one walk of each chain.

Everything is pure over immutable inputs; quotients are fresh monoids.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from .monoid import FiniteMonoid, _fold_labels


class NotACongruenceError(ValueError):
    """The given partition is not compatible with the product."""


class InternalInconsistencyError(RuntimeError):
    """A theory-guaranteed invariant failed; indicates an implementation bug."""


@dataclass(frozen=True)
class Congruence:
    """A monoid congruence, stored as a class label per element.

    Classes are numbered by smallest contained element, so labelings are
    reproducible.  Compatibility with the product is verified by
    ``quotient``, not at construction.
    """

    monoid: FiniteMonoid
    class_of: np.ndarray
    num_classes: int


def _by_signature(m: FiniteMonoid, table: np.ndarray, products: np.ndarray) -> Congruence:
    """Classes of equal columns of products, one row per idempotent e.

    A product p stays in the J-class of its row's e exactly when
    table[p, e] = e (pe = e for eu and eue in m.table, ep = e for ue in its
    transpose: see the module docstring).  One that leaves it lies strictly
    below e and becomes -1, so "both below, or equal" is plain equality.
    First-seen labels number the classes by smallest element.
    """
    if not m.is_in_da():
        raise ValueError("the congruences are defined on DA monoids only")
    e = m.idempotent_array[:, None]
    labels = _fold_labels(np.where(table[products, e] == e, products, -1).T)
    labels.setflags(write=False)
    return Congruence(m, labels, int(labels.max()) + 1)


def sim_k(m: FiniteMonoid) -> Congruence:
    """u ~ v iff for all idempotents e: eu, ev both strictly below e, or eu == ev.

    eu lies J-below e, so it is strictly below exactly when it leaves the
    J-class of e; the same holds for uf against f and for eue against e.
    """
    return _by_signature(m, m.table, m.table[m.idempotent_array])


def sim_d(m: FiniteMonoid) -> Congruence:
    """u ~ v iff for all idempotents f: uf, vf both strictly below f, or uf == vf."""
    return _by_signature(m, m.table.T, m.table.T[m.idempotent_array])


def sim_li(m: FiniteMonoid) -> Congruence:
    """Two-sided variant over J-equivalent idempotent pairs (e, f), read off
    the diagonal pairs (e, e): the signature of eue, |E| x |M| like
    ``sim_k`` (the module docstring proves the other pairs add nothing)."""
    T = m.table
    idems = m.idempotent_array
    return _by_signature(m, T, T[T[idems], idems[:, None]])


def quotient(m: FiniteMonoid, c: Congruence) -> FiniteMonoid:
    """Monoid on the classes of c, after verifying c is a congruence.

    The compatibility check is exhaustive: the class of u*v must agree with
    the class of rep(u)*rep(v) for every pair, which is equivalent to full
    well-definedness.  Each class is represented by its least element.  A
    quotient of a DA monoid lies in DA.
    """
    if c.monoid is not m:
        raise ValueError("congruence belongs to a different monoid")
    cls = c.class_of
    reps = np.full(c.num_classes, m.size, dtype=np.int32)
    np.minimum.at(reps, cls, np.arange(m.size, dtype=np.int32))
    rep_of = reps[cls]
    via_reps = cls[m.table[rep_of[:, None], rep_of]]
    direct = cls[m.table]
    if not np.array_equal(direct, via_reps):
        u, v = map(int, np.argwhere(direct != via_reps)[0])
        raise NotACongruenceError(
            f"not a congruence: products of class-equal pairs split at ({u}, {v})")
    new_table = cls[m.table[reps[:, None], reps]]
    gens = None
    if m.gens is not None:
        gens = {a: int(cls[x]) for a, x in m.gens.items()}
    words = None
    if m.words is not None:
        words = [m.words[r] for r in reps.tolist()]
    return FiniteMonoid(new_table, int(cls[m.identity]), gens=gens, words=words,
                        validate=False, in_da=m.is_in_da() or None)


def quotient_chain(m: FiniteMonoid, side: str) -> Iterator[FiniteMonoid]:
    """Lazily yield M, M/~K, (M/~K)/~D, ... (side "R") or the mirror chain
    starting with ~D (side "L"), up to the first J-trivial monoid.

    A monoid outside DA is yielded alone: it lies in no R_m or L_m, and the
    congruences are not defined on it.  One step that keeps the size is
    normal (on a left-zero monoid ~D is trivial but ~K is not).  Two in a
    row mean ~K and ~D are both trivial: the chain is stuck and ends on a
    monoid that is not J-trivial.
    """
    steps = (sim_k, sim_d) if side == "R" else (sim_d, sim_k)
    stalled = 0
    for i in count():
        yield m
        if not m.is_in_da() or m.is_j_trivial():
            return
        q = quotient(m, steps[i % 2](m))
        stalled = stalled + 1 if q.size == m.size else 0
        if stalled == 2:
            return
        m = q


def _chain_member(m: FiniteMonoid, side: str, level: int) -> bool:
    if level < 1:
        raise ValueError("level must be >= 1")
    return any(q.is_j_trivial() for q in islice(quotient_chain(m, side), level))


def in_Rm(m: FiniteMonoid, level: int) -> bool:
    """Membership in R_level: the K-first chain is J-trivial within level-1 steps."""
    return _chain_member(m, "R", level)


def in_Lm(m: FiniteMonoid, level: int) -> bool:
    """Membership in L_level: the D-first chain is J-trivial within level-1 steps."""
    return _chain_member(m, "L", level)


@dataclass(frozen=True)
class LevelResult:
    """Outcome of the alternation-depth search.

    status is "level" (m holds the least depth), "not-fo2" (the monoid is
    outside DA, so no depth exists), or "exceeded" (a depth exists but is
    larger than the requested cap, which m echoes).
    """

    status: str
    m: int | None = None

    @property
    def is_level(self) -> bool:
        return self.status == "level"

    def __str__(self):
        if self.status == "level":
            return f"Level({self.m})"
        if self.status == "exceeded":
            return f"Exceeded({self.m})"
        return "NotFO2"


NOT_FO2 = LevelResult("not-fo2")


def fo2_level(m: FiniteMonoid, max_m: int = 6) -> LevelResult:
    """Least depth d with membership in both R_{d+1} and L_{d+1}.

    That is max(1, steps_R, steps_L), the steps each chain takes to reach a
    J-trivial monoid.  Returns NotFO2 outside DA.  A stuck chain of a DA
    monoid (impossible, since the hierarchy exhausts DA) raises
    InternalInconsistencyError.
    """
    if max_m < 1:
        raise ValueError("max_m must be >= 1")
    if not m.is_in_da():
        return NOT_FO2
    depth = 1
    for side in ("R", "L"):
        for steps, q in enumerate(quotient_chain(m, side)):
            pass
        if not q.is_j_trivial():
            raise InternalInconsistencyError(
                f"monoid lies in DA but its {side}-side quotient chain is stuck "
                f"at {q.size} elements before reaching a J-trivial monoid")
        depth = max(depth, steps)
    if depth <= max_m:
        return LevelResult("level", depth)
    return LevelResult("exceeded", max_m)
