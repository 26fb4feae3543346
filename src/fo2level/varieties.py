"""Congruences on finite monoids and the R_m/L_m membership recursion.

The three congruences here relate elements by how idempotents absorb them:

* ``sim_k``: u ~ v when for every idempotent e, either both eu and ev fall
  strictly below e in the J-order, or eu == ev.
* ``sim_d``: the left-right dual (uf against f).
* ``sim_li``: the two-sided version over J-equivalent idempotent pairs.

Membership in R_m / L_m is decided by the Mal'cev recursion: R_1 = L_1 is
the J-trivial monoids, R_{m+1} holds when the quotient by sim_k lies in L_m,
and L_{m+1} holds when the quotient by sim_d lies in R_m.  A language is
FO2-definable with alternation depth m exactly when its syntactic monoid
lies in R_{m+1} intersect L_{m+1}; ``fo2_level`` computes the least such m.

Everything is pure over immutable inputs; quotients are fresh monoids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .monoid import FiniteMonoid


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

    def relates(self, u: int, v: int) -> bool:
        return bool(self.class_of[u] == self.class_of[v])

    def classes(self) -> list[list[int]]:
        out = [[] for _ in range(self.num_classes)]
        for x, c in enumerate(self.class_of):
            out[int(c)].append(x)
        return out


def _congruence_from_relation(m: FiniteMonoid, rel: np.ndarray, what: str) -> Congruence:
    n = m.size
    if not np.array_equal(rel, rel.T) or not rel.diagonal().all():
        raise InternalInconsistencyError(f"{what}: relation not reflexive-symmetric")
    # the defining formulas yield equivalences; verify transitivity anyway
    closure = rel @ rel  # boolean product: no counts that could wrap
    if (closure & ~rel).any():
        raise InternalInconsistencyError(f"{what}: relation not transitive")
    labels = np.full(n, -1, dtype=np.int32)
    nxt = 0
    for i in range(n):
        if labels[i] < 0:
            labels[rel[i]] = nxt
            nxt += 1
    labels.setflags(write=False)
    return Congruence(m, labels, nxt)


def identity_congruence(m: FiniteMonoid) -> Congruence:
    labels = np.arange(m.size, dtype=np.int32)
    labels.setflags(write=False)
    return Congruence(m, labels, m.size)


def universal_congruence(m: FiniteMonoid) -> Congruence:
    labels = np.zeros(m.size, dtype=np.int32)
    labels.setflags(write=False)
    return Congruence(m, labels, 1)


def sim_k(m: FiniteMonoid) -> Congruence:
    """u ~ v iff for all idempotents e: eu, ev both strictly below e, or eu == ev.

    eu lies J-below e, so it is strictly below exactly when it leaves the
    J-class of e; the same holds for uf against f and for euf against e.
    """
    T = m.table
    jcls = m.greens().j_class
    n = m.size
    rel = np.ones((n, n), dtype=bool)
    for e in m.idempotents():
        eu = T[e, :]
        below = jcls[eu] != jcls[e]
        rel &= (below[:, None] & below[None, :]) | (eu[:, None] == eu[None, :])
    return _congruence_from_relation(m, rel, "sim_k")


def sim_d(m: FiniteMonoid) -> Congruence:
    """u ~ v iff for all idempotents f: uf, vf both strictly below f, or uf == vf."""
    T = m.table
    jcls = m.greens().j_class
    n = m.size
    rel = np.ones((n, n), dtype=bool)
    for f in m.idempotents():
        uf = T[:, f]
        below = jcls[uf] != jcls[f]
        rel &= (below[:, None] & below[None, :]) | (uf[:, None] == uf[None, :])
    return _congruence_from_relation(m, rel, "sim_d")


def sim_li(m: FiniteMonoid) -> Congruence:
    """Two-sided variant over J-equivalent idempotent pairs (e, f)."""
    T = m.table
    jcls = m.greens().j_class
    n = m.size
    rel = np.ones((n, n), dtype=bool)
    idems = m.idempotents()
    for e in idems:
        for f in idems:
            if jcls[e] != jcls[f]:
                continue
            euf = T[T[e, :], f]
            below = jcls[euf] != jcls[e]
            rel &= (below[:, None] & below[None, :]) | (euf[:, None] == euf[None, :])
    return _congruence_from_relation(m, rel, "sim_li")


def quotient(m: FiniteMonoid, c: Congruence) -> FiniteMonoid:
    """Monoid on the classes of c, after verifying c is a congruence.

    The compatibility check is exhaustive: the class of u*v must agree with
    the class of rep(u)*rep(v) for every pair, which is equivalent to full
    well-definedness.
    """
    if c.monoid is not m:
        raise ValueError("congruence belongs to a different monoid")
    cls = c.class_of
    k = c.num_classes
    reps = np.full(k, -1, dtype=np.int32)
    for x in range(m.size - 1, -1, -1):
        reps[cls[x]] = x
    via_reps = cls[m.table[np.ix_(reps[cls], reps[cls])]]
    direct = cls[m.table]
    if not np.array_equal(direct, via_reps):
        u, v = map(int, np.argwhere(direct != via_reps)[0])
        raise NotACongruenceError(
            f"not a congruence: products of class-equal pairs split at ({u}, {v})")
    new_table = cls[m.table[np.ix_(reps, reps)]]
    gens = None
    if m.gens is not None:
        gens = {a: int(cls[x]) for a, x in m.gens.items()}
    words = None
    if m.words is not None:
        words = [m.words[int(r)] for r in reps]
    return FiniteMonoid(new_table, int(cls[m.identity]), gens=gens, words=words, validate=False)


def join(c1: Congruence, c2: Congruence) -> Congruence:
    """Least congruence containing both, by union-find congruence closure."""
    if c1.monoid is not c2.monoid:
        raise ValueError("congruences on different monoids")
    m = c1.monoid
    T = m.table
    n = m.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pending = []

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            pending.append((a, b))

    for c in (c1, c2):
        first = {}
        for x in range(n):
            lab = int(c.class_of[x])
            if lab in first:
                union(first[lab], x)
            else:
                first[lab] = x
    while pending:
        a, b = pending.pop()
        for z in range(n):
            union(int(T[a, z]), int(T[b, z]))
            union(int(T[z, a]), int(T[z, b]))
    roots = np.array([find(x) for x in range(n)])
    rel = roots[:, None] == roots[None, :]
    return _congruence_from_relation(m, rel, "join")


def refines(fine: Congruence, coarse: Congruence) -> bool:
    """Every class of `fine` lies inside a single class of `coarse`."""
    if fine.monoid is not coarse.monoid:
        raise ValueError("congruences on different monoids")
    seen = {}
    for x in range(fine.monoid.size):
        f, c = int(fine.class_of[x]), int(coarse.class_of[x])
        if seen.setdefault(f, c) != c:
            return False
    return True


def join_refines_check(c1: Congruence, c2: Congruence, target: Congruence) -> bool:
    """Whether the join of c1 and c2 is contained in the target congruence."""
    return refines(join(c1, c2), target)


def in_Rm(m: FiniteMonoid, level: int) -> bool:
    """Membership in R_level: R_1 = J-trivial, R_{m+1} via the sim_k quotient."""
    if level < 1:
        raise ValueError("level must be >= 1")
    if level == 1:
        return m.is_j_trivial()
    return in_Lm(quotient(m, sim_k(m)), level - 1)


def in_Lm(m: FiniteMonoid, level: int) -> bool:
    """Membership in L_level: L_1 = J-trivial, L_{m+1} via the sim_d quotient."""
    if level < 1:
        raise ValueError("level must be >= 1")
    if level == 1:
        return m.is_j_trivial()
    return in_Rm(quotient(m, sim_d(m)), level - 1)


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

    Returns NotFO2 outside DA.  The search continues internally past max_m
    up to size+1 so that a DA monoid with no level at all (impossible by
    the hierarchy exhausting DA) is flagged as an internal inconsistency
    rather than silently reported as exceeding the cap.
    """
    if max_m < 1:
        raise ValueError("max_m must be >= 1")
    if not m.is_in_da():
        return NOT_FO2
    for d in range(1, max(max_m, m.size + 1) + 1):
        if in_Rm(m, d + 1) and in_Lm(m, d + 1):
            if d <= max_m:
                return LevelResult("level", d)
            return LevelResult("exceeded", max_m)
    raise InternalInconsistencyError(
        "monoid lies in DA but no alternation level was found up to size+1")
