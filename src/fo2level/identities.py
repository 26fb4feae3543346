"""Omega-term identities deciding R_m / L_m membership.

The words G_m and I_m over variables x1..xm are built by the mirror
recursion G_2 = x2 x1, I_2 = x2 x1 x2, G_{m+1} = x_{m+1} mirror(G_m),
I_{m+1} = G_{m+1} x_{m+1} mirror(I_m).  The substitution ``phi_of`` sends
each variable to a fixed omega term; a finite monoid lies in R_m exactly
when it satisfies the DA identity (xy)^w x (xy)^w = (xy)^w together with
phi(G_m) = phi(I_m), and in L_m with both words mirrored.  This gives a
decision route independent of the quotient recursion in ``varieties``.

``satisfies_identity`` checks any identity exhaustively (vectorized, in
steps that grow up to a fixed size) over a domain read off the terms: when
every variable occurs only as x^w, the terms depend on x only through x^w,
so each variable ranges over one representative per idempotent and the
cost is |E|^v; otherwise it ranges over all of M at cost |M|^v (the DA,
aperiodicity and Straubing terms).

The membership and depth functions decide the phi-word identities by a
forward search instead (``_phi_search``).  The values (phi G_k,
phi mirror G_k, phi I_k, phi mirror I_k) after choosing x1..xk determine
all later values, so each depth keeps only the distinct reachable tuples,
each with the least prefix that reaches it, and of those only the tuples
on which a side still fails: in DA a tuple on which both sides hold leads
only to such tuples.  One search serves both sides and every depth, at a
cost of the sum over depths of failing tuples x |E| instead of |E|^k, and
yields the same lexicographically least witnesses as the exhaustive scan.
Budgets cap the assignments of an exhaustive check and the failing tuples
x |E| of each search step, before either runs.
Everything here is pure and reentrant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .monoid import FiniteMonoid
from .varieties import LevelResult, NOT_FO2


class IdentityBudgetError(ValueError):
    """The assignment space, or a step of the phi-word search, exceeds the budget."""


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Prod:
    parts: tuple


@dataclass(frozen=True)
class Omega:
    inner: object


Term = Var | Prod | Omega


def format_term(t: Term) -> str:
    """Pretty-print: variables x1, x2, ..., '.' for products, (T)^w for powers."""
    if isinstance(t, Var):
        return f"x{t.index}"
    if isinstance(t, Prod):
        return ".".join(format_term(p) for p in t.parts)
    return f"({format_term(t.inner)})^w"


def term_num_vars(t: Term) -> int:
    if isinstance(t, Var):
        return t.index
    if isinstance(t, Prod):
        return max(term_num_vars(p) for p in t.parts)
    return term_num_vars(t.inner)


# ---------------------------------------------------------------------------
# Variable words
# ---------------------------------------------------------------------------

def mirror(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(reversed(word))


def build_G(m: int) -> tuple[int, ...]:
    """G_2 = (2, 1); G_{m+1} = (m+1,) + mirror(G_m).  Uses exactly x1..xm."""
    if m < 2:
        raise ValueError("G_m is defined for m >= 2")
    if m == 2:
        return (2, 1)
    return (m,) + mirror(build_G(m - 1))


def build_I(m: int) -> tuple[int, ...]:
    """I_2 = (2, 1, 2); I_{m+1} = G_{m+1} + (m+1,) + mirror(I_m)."""
    if m < 2:
        raise ValueError("I_m is defined for m >= 2")
    if m == 2:
        return (2, 1, 2)
    return build_G(m) + (m,) + mirror(build_I(m - 1))


@lru_cache(maxsize=None)
def phi_of(k: int) -> Term:
    """The omega term substituted for x_k.

    phi(x1) = (x1^w x2^w x1^w)^w, phi(x2) = x2^w, and for k >= 3
    phi(x_k) = (x_k^w phi(G_{k-1} mirror(G_{k-1}))^w x_k^w)^w.
    """
    if k < 1:
        raise ValueError("variable indices are 1-based")
    if k == 1:
        return Omega(Prod((Omega(Var(1)), Omega(Var(2)), Omega(Var(1)))))
    if k == 2:
        return Omega(Var(2))
    g = build_G(k - 1)
    return Omega(Prod((Omega(Var(k)), Omega(phi_word(g + mirror(g))), Omega(Var(k)))))


def phi_word(word: tuple[int, ...]) -> Term:
    """Apply the substitution to a variable word: the product of phi_of images."""
    if not word:
        raise ValueError("variable words are nonempty")
    return Prod(tuple(phi_of(k) for k in word))


# ---------------------------------------------------------------------------
# Exhaustive identity checking
# ---------------------------------------------------------------------------

class IdentityCheck(NamedTuple):
    holds: bool
    witness: dict[int, int] | None


# Assignments (or search candidates) per vectorized step, at most; an
# exhaustive check starts at a sixteenth of it.  Every subterm keeps one
# int32 array of this length until the step ends, so a step holds
# about 2 MB for the deepest phi-word identities, a search step about a
# dozen such arrays, and the memory does not depend on how large |E|^v,
# |M|^v or the failing tuples x |E| are; the arrays also stay
# cache-resident.
_CHUNK = 1 << 14


def _grid_eval(m: FiniteMonoid, t: Term, dom: np.ndarray, base: int, count: int,
               nvars: int, memo: dict) -> np.ndarray:
    """Evaluate t on assignments base..base+count-1 in mixed-radix order over
    the domain array dom (variable x1 is the most significant digit)."""
    key = id(t)
    if key in memo:
        return memo[key]
    T = m.table
    d = len(dom)
    if isinstance(t, Var):
        idx = np.arange(base, base + count, dtype=np.int64)
        out = dom[(idx // (d ** (nvars - t.index))) % d]
    elif isinstance(t, Prod):
        out = _grid_eval(m, t.parts[0], dom, base, count, nvars, memo)
        for p in t.parts[1:]:
            out = T[out, _grid_eval(m, p, dom, base, count, nvars, memo)]
    else:
        out = m.omega_table[_grid_eval(m, t.inner, dom, base, count, nvars, memo)]
    memo[key] = out
    return out


def _vars_under_omega(t: Term) -> bool:
    """True when every variable of t occurs as the direct child of an Omega."""
    if isinstance(t, Var):
        return False
    if isinstance(t, Omega):
        return isinstance(t.inner, Var) or _vars_under_omega(t.inner)
    return all(_vars_under_omega(p) for p in t.parts)


def _representatives(m: FiniteMonoid) -> np.ndarray:
    """rho(e) = min{x : x^w = e} for each idempotent e, ascending."""
    return np.sort(np.unique(m.omega_table, return_index=True)[1]).astype(np.int32)


def _assignment_domain(m: FiniteMonoid, lhs: Term, rhs: Term) -> np.ndarray:
    """The ascending elements each variable ranges over: all of M, or
    rho(e) = min{x : x^w = e} for each idempotent e when both terms read
    every variable x only as x^w."""
    if _vars_under_omega(lhs) and _vars_under_omega(rhs):
        return _representatives(m)
    return np.arange(m.size, dtype=np.int32)


def satisfies_identity(m: FiniteMonoid, lhs: Term, rhs: Term,
                       max_assignments: int = 10_000_000) -> IdentityCheck:
    """Check lhs == rhs under every assignment of elements to variables.

    Variables range over all of M, except when both terms read every
    variable x only as x^w (every phi-word identity does): then each ranges
    over rho(e) = min{x : x^w = e} for the idempotents e, which gives every
    value of x^w once, so |E|^v assignments decide the identity instead of
    |M|^v.  The budget caps that count.

    Returns the first failing assignment as a witness, scanning in
    mixed-radix order on ascending domain elements.  The witness is the
    lexicographically least failing tuple over all of M in either case: if
    x* is that tuple, replacing each x*_k by rho(x*_k^w) keeps it failing
    and lowers no coordinate, so x* already consists of representatives.

    The scan runs in vectorized steps that start at _CHUNK / 16 assignments
    and grow fourfold up to _CHUNK, so a witness in the first rows costs
    one small step, while a check that holds takes at most two steps more
    than fixed _CHUNK steps would.  The DA identity fails at (x, 1) for
    every x with x^(w+1) != x^w, so a monoid that is not aperiodic has its
    DA witness in the row of its first such x or earlier.  A space of at
    most _CHUNK / 16 assignments (|M| <= 32 for the DA identity) is one
    step.
    """
    nvars = max(term_num_vars(lhs), term_num_vars(rhs))
    dom = _assignment_domain(m, lhs, rhs)
    d = len(dom)
    total = d ** nvars
    if total > max_assignments:
        raise IdentityBudgetError(
            f"identity check too large: {d}^{nvars} assignments exceed the "
            f"budget of {max_assignments}")
    base, step = 0, max(1, _CHUNK >> 4)
    while base < total:
        count = min(step, total - base)
        memo: dict = {}
        lv = _grid_eval(m, lhs, dom, base, count, nvars, memo)
        rv = _grid_eval(m, rhs, dom, base, count, nvars, memo)
        bad = np.nonzero(lv != rv)[0]
        if len(bad):
            idx = base + int(bad[0])
            witness = {k: int(dom[(idx // (d ** (nvars - k))) % d])
                       for k in range(1, nvars + 1)}
            return IdentityCheck(False, witness)
        base += count
        step = min(4 * step, _CHUNK)
    return IdentityCheck(True, None)


def da_identity() -> tuple[Term, Term]:
    """(x1 x2)^w x1 (x1 x2)^w  =  (x1 x2)^w."""
    e = Omega(Prod((Var(1), Var(2))))
    return Prod((e, Var(1), e)), e


def aperiodicity_identity() -> tuple[Term, Term]:
    """x1^w x1 = x1^w."""
    return Prod((Omega(Var(1)), Var(1))), Omega(Var(1))


@lru_cache(maxsize=None)
def _identity_text(m: int, side: int) -> str:
    """'phi(G_m) = phi(I_m)' (side 0, R) or its mirror (side 1, L), printed."""
    g, i = build_G(m), build_I(m)
    if side:
        g, i = mirror(g), mirror(i)
    return f"{format_term(phi_word(g))} = {format_term(phi_word(i))}"


def _phi_search(m: FiniteMonoid, max_assignments: int):
    """Decide phi(G_k) = phi(I_k) and its mirror for k = 2, 3, ... in one
    forward search over a DA monoid, yielding (k, R witness, L witness) per
    depth; a witness is None where the identity holds.

    After x1..xk the four values (phi G_k, phi mirror G_k, phi I_k,
    phi mirror I_k) = (g, g~, i, i~) decide every later depth: appending
    x_{k+1} = e with phi = (e^w (g g~)^w e^w)^w gives g' = phi g~,
    g~' = g phi, i' = g' phi i~ and i~' = i phi g~'.  So the search keeps
    only the distinct reachable tuples, each with the least prefix reaching
    it, and a step costs tuples x |E| candidates instead of |E|^k.

    Only failing tuples, those with i != g or i~ != g~, are kept past the
    depth that finds them, since in DA a tuple with i = g and i~ = g~ has
    only such successors.  In DA an idempotent p with p <=_J x satisfies
    p x p = p (Tesson & Thérien, "Diamonds are forever"), and phi lies
    J-below both g and g~.  So i = g and i~ = g~ give
    i' = g' phi i~ = phi g~ phi g~ = phi g~ = g' and
    i~' = i phi g~' = g phi g phi = g phi = g~'.  Once no tuple fails,
    every later depth holds on both sides and costs nothing.

    Candidates are enumerated as (old tuple in first-seen order, x_{k+1}
    ascending) and new tuples are numbered by first appearance.  Since a
    tuple's successors depend on the tuple alone, the least prefix reaching
    a new tuple extends the least prefix of some old one; by induction
    first-seen order is the order of least prefixes, so the first failing
    tuple carries the lexicographically least failing assignment, the
    witness an exhaustive scan returns.  A failing tuple is reached only
    from failing ones, so dropping the others changes neither this order
    among failing tuples nor the witnesses.  The budget caps the
    candidates of each step, failing tuples x |E|, before it is taken, and
    a step runs in slices of _CHUNK candidates.
    """
    T, om = m.table, m.omega_table
    n = m.size
    if n ** 4 > np.iinfo(np.int64).max:
        raise IdentityBudgetError(
            f"identity search too large: tuples over {n} elements do not fit a 64-bit key")
    reps = _representatives(m)
    d = len(reps)
    idem = om[reps]
    links = []          # per depth >= 2: the candidate index that first reached each tuple
    state = None        # 4 x failing tuples: rows g, g~, i, i~

    def witness(bad):
        """The prefix stored for the first tuple in bad, or None if bad is empty."""
        if not len(bad):
            return None
        s, xs = int(bad[0]), []
        for cand in reversed(links):
            s, x = divmod(int(cand[s]), d)
            xs.append(x)
        xs.append(s)
        return {j: int(reps[x]) for j, x in enumerate(reversed(xs), start=1)}

    count = d           # before the first step, the choices of x1
    for k in itertools.count(2):
        if not count:
            yield k, None, None
            continue
        total = count * d
        if total > max_assignments:
            raise IdentityBudgetError(
                f"identity search too large: {count} failing tuples x {d} idempotents "
                f"at depth {k} exceed the budget of {max_assignments}")
        if state is not None:
            gg = om[T[state[0], state[1]]]
        seen = np.empty(0, dtype=np.int64)
        cands, values = [], []
        for base in range(0, total, _CHUNK):
            c = np.arange(base, min(base + _CHUNK, total), dtype=np.int64)
            old, e = c // d, idem[c % d]
            if state is None:
                p1 = om[T[T[idem[old], e], idem[old]]]
                g, gt = T[e, p1], T[p1, e]
                i = it = T[g, e]
            else:
                g0, gt0, i0, it0 = state[:, old]
                phi = om[T[T[e, gg[old]], e]]
                g, gt = T[phi, gt0], T[g0, phi]
                i, it = T[T[g, phi], it0], T[T[i0, phi], gt]
            key = ((g.astype(np.int64) * n + gt) * n + i) * n + it
            uniq, first = np.unique(key, return_index=True)
            if len(seen):
                at = np.searchsorted(seen, uniq)
                fresh = seen[np.minimum(at, len(seen) - 1)] != uniq
                uniq, first = uniq[fresh], first[fresh]
                seen = np.insert(seen, at[fresh], uniq)
            else:
                seen = uniq
            first.sort()
            cands.append(c[first])
            values.append(np.stack((g[first], gt[first], i[first], it[first])))
        links.append(np.concatenate(cands))
        state = np.concatenate(values, axis=1)
        r_bad, l_bad = state[0] != state[2], state[1] != state[3]
        yield k, witness(np.flatnonzero(r_bad)), witness(np.flatnonzero(l_bad))
        keep = np.flatnonzero(r_bad | l_bad)
        state, links[-1] = state.take(keep, axis=1), links[-1].take(keep)
        count = len(keep)


def _phi_holds(m: FiniteMonoid, level: int, side: int, max_assignments: int) -> bool:
    if level < 2:
        raise ValueError("the identities route needs level >= 2")
    if not satisfies_identity(m, *da_identity(), max_assignments=max_assignments).holds:
        return False
    for k, *witnesses in _phi_search(m, max_assignments):
        if k == level:
            return witnesses[side] is None


def in_Rm_by_identities(m: FiniteMonoid, level: int,
                        max_assignments: int = 10_000_000) -> bool:
    """R_level membership via identities: the DA identity and phi(G) = phi(I).

    Only defined for level >= 2; level 1 is J-triviality and is decided
    directly on the monoid.
    """
    return _phi_holds(m, level, 0, max_assignments)


def in_Lm_by_identities(m: FiniteMonoid, level: int,
                        max_assignments: int = 10_000_000) -> bool:
    """L_level membership: the DA identity and the mirrored word identity."""
    return _phi_holds(m, level, 1, max_assignments)


class IdentitiesLevel(NamedTuple):
    result: LevelResult
    witness_identity: str | None
    witness: dict[int, int] | None


def identities_level(m: FiniteMonoid, max_m: int = 6,
                     max_assignments: int = 10_000_000) -> IdentitiesLevel:
    """Alternation-depth search along the identities route.

    Mirrors ``varieties.fo2_level`` but decides each membership by identity
    checking alone: the DA identity exhaustively, then the R and L phi-word
    identities of every depth in one forward search over the value tuples
    on which a side still fails (``_phi_search``), whose cost is the sum
    over depths of failing tuples x |E| and whose budget caps that product
    at each depth.  The returned witness is the lexicographically least
    assignment refuting the last membership that failed before the answer
    (the DA identity for NotFO2, otherwise the identity separating depth
    m-1 from m, R before L).
    """
    if max_m < 1:
        raise ValueError("max_m must be >= 1")
    da = satisfies_identity(m, *da_identity(), max_assignments=max_assignments)
    if not da.holds:
        lhs, rhs = da_identity()
        return IdentitiesLevel(NOT_FO2, f"{format_term(lhs)} = {format_term(rhs)}", da.witness)
    last_witness = None
    last_identity = None
    search = _phi_search(m, max_assignments)
    for d in range(1, max_m + 1):
        _k, r_bad, l_bad = next(search)
        if r_bad is None and l_bad is None:
            return IdentitiesLevel(LevelResult("level", d), last_identity, last_witness)
        side = 0 if r_bad is not None else 1
        last_witness = (r_bad, l_bad)[side]
        last_identity = _identity_text(d + 1, side)
    return IdentitiesLevel(LevelResult("exceeded", max_m), last_identity, last_witness)


# ---------------------------------------------------------------------------
# The conjectured simpler terms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def straubing_terms(m: int) -> tuple[Term, Term]:
    """The conjectured term pair (u_m, v_m) over variables x1..x_{2m}.

    u_1 = (x1 x2)^w, v_1 = (x2 x1)^w, and each next pair wraps the previous
    one as (x1..x_{2p} x_{2p+1})^w u_p (x_{2p+2} x1..x_{2p})^w with p = m-1.
    The recursion index is read as the previous level; reports using these
    terms are experimental.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return Omega(Prod((Var(1), Var(2)))), Omega(Prod((Var(2), Var(1))))
    u_prev, v_prev = straubing_terms(m - 1)
    p = m - 1
    left = Omega(Prod(tuple(Var(i) for i in range(1, 2 * p + 2))))
    right = Omega(Prod((Var(2 * p + 2),) + tuple(Var(i) for i in range(1, 2 * p + 1))))
    return Prod((left, u_prev, right)), Prod((left, v_prev, right))


def check_straubing(m: FiniteMonoid, level: int,
                    max_assignments: int = 10_000_000) -> bool:
    """Aperiodicity plus u_level = v_level, checked exhaustively."""
    if not satisfies_identity(m, *aperiodicity_identity(),
                              max_assignments=max_assignments).holds:
        return False
    u, v = straubing_terms(level)
    return satisfies_identity(m, u, v, max_assignments=max_assignments).holds
