"""The benchmark's own automaton and transformation-monoid arithmetic.

Input generation and the verdict references use only this module, never
``fo2level``: a reference the code under test computed would check nothing.
Everything here is plain Python over tuples, sized for DFAs of a few states.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RefDfa:
    """Complete DFA with states 0..n-1, initial state 0."""

    alphabet: str
    delta: tuple[tuple[int, ...], ...]   # delta[state][letter index]
    finals: frozenset[int]

    @property
    def n_states(self) -> int:
        return len(self.delta)

    def to_text(self) -> str:
        """The line-based DFA file format read by ``analyze --dfa``."""
        names = [f"q{s}" for s in range(self.n_states)]
        lines = [f"alphabet: {' '.join(self.alphabet)}",
                 f"states: {' '.join(names)}",
                 "initial: q0",
                 f"final: {' '.join(names[s] for s in sorted(self.finals))}"]
        for s, row in enumerate(self.delta):
            for a, t in zip(self.alphabet, row):
                lines.append(f"{names[s]} {a} {names[t]}")
        return "\n".join(lines) + "\n"


def random_dfa(rng: random.Random, n_states: int, alphabet: str) -> RefDfa:
    delta = tuple(tuple(rng.randrange(n_states) for _ in alphabet) for _ in range(n_states))
    finals = frozenset(s for s in range(n_states) if rng.random() < 0.5)
    return RefDfa(alphabet, delta, finals)


def minimal(d: RefDfa) -> RefDfa:
    """Minimal complete DFA for L(d): the reachable part, then Moore refinement."""
    order = [0]
    seen = {0}
    for s in order:
        for t in d.delta[s]:
            if t not in seen:
                seen.add(t)
                order.append(t)
    # Moore refinement; blocks are numbered in BFS order, so state 0 stays 0
    block = {s: int(s in d.finals) for s in order}
    count = len(set(block.values()))
    while True:
        ids: dict = {}
        block = {s: ids.setdefault((block[s],) + tuple(block[t] for t in d.delta[s]), len(ids))
                 for s in order}
        if len(ids) == count:
            break
        count = len(ids)
    delta = [None] * count
    for s in order:
        delta[block[s]] = tuple(block[t] for t in d.delta[s])
    return RefDfa(d.alphabet, tuple(delta), frozenset(block[s] for s in order if s in d.finals))


def closure(d: RefDfa, cap: int | None = None) -> list[tuple[int, ...]] | None:
    """All transformations of the transition monoid, or None past `cap` elements."""
    n = d.n_states
    maps = [tuple(d.delta[s][a] for s in range(n)) for a in range(len(d.alphabet))]
    elems = [tuple(range(n))]
    seen = set(elems)
    for t in elems:
        for lm in maps:
            u = tuple(lm[x] for x in t)
            if u not in seen:
                if cap is not None and len(elems) >= cap:
                    return None
                seen.add(u)
                elems.append(u)
    return elems


def is_idempotent(t: tuple[int, ...]) -> bool:
    return all(t[x] == x for x in t)


def has_nontrivial_cycle(t: tuple[int, ...]) -> bool:
    """Some power-orbit of t is a cycle of length >= 2, so t generates a group.

    A monoid holding such an element is not aperiodic, hence outside DA.
    """
    n = len(t)
    for s in range(n):
        x = s
        for _ in range(n):          # after n steps x lies on its cycle
            x = t[x]
        if t[x] != x:
            return True
    return False
