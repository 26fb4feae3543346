import os
import random
import string
import subprocess
import sys
from itertools import islice
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from fo2level.automata import Dfa, all_words, minimize
from fo2level.corpus import _draws, corpus_alphabet, make_entries, random_dfa
from fo2level.monoid import FiniteMonoid, reverse_monoid, transition_monoid
from fo2level.rankers import RankerTable
from fo2level.varieties import quotient_chain

CORPUS_SEED = 7
ROOT = Path(__file__).resolve().parent.parent

# every property test draws the same examples on every run, and none has a
# deadline: a slow example on a loaded host is not a failure
settings.register_profile("fo2level", deadline=None, derandomize=True)
settings.load_profile("fo2level")

_MAX_DRAWS = 200_000


def da_entries(seed: int, target: int, max_states: int = 4, letters: int = 2,
               max_m: int = 6):
    """Rejection-sample random minimal DFAs until `target` have monoids in DA."""
    draws = islice(_draws(seed, max_states, letters, max_m), _MAX_DRAWS)
    out = list(islice((e for e in draws if e.monoid.is_in_da()), target))
    if len(out) < target:
        raise RuntimeError(f"could not collect {target} DA monoids in {_MAX_DRAWS} draws")
    return out


@pytest.fixture(scope="session")
def da_corpus():
    """200 random minimal DFAs (<= 4 states, 2 letters) with monoids in DA."""
    return da_entries(CORPUS_SEED, 200)


@pytest.fixture(scope="session")
def mixed_entries():
    """Random minimal DFAs without the DA filter (includes non-DA monoids)."""
    return make_entries(CORPUS_SEED + 1, 120)


@pytest.fixture(scope="session")
def distinct_monoids():
    """The distinct transition monoids (table and generator map) of 800 random
    minimal DFAs with <= 5 states over 2 or 3 letters, |M| <= 400: about 300,
    most of them not aperiodic and about 30 in DA."""
    rng = random.Random(CORPUS_SEED + 4)
    out = {}
    for _ in range(400):
        for letters in (2, 3):
            m = transition_monoid(minimize(random_dfa(rng, 5, corpus_alphabet(letters))))
            if m.size <= 400:
                out.setdefault((m.table.tobytes(), tuple(m.gens.items())), m)
    return list(out.values())


def _by_table(monoids):
    out = {}
    for m in monoids:
        out.setdefault((m.size, m.table.tobytes()), m)
    return list(out.values())


@pytest.fixture(scope="session")
def da_chain_members(distinct_monoids, da_corpus):
    """DA monoids of many shapes and every member of both of their quotient
    chains, one per table: the DA monoids of ``distinct_monoids`` and
    ``da_corpus`` and their reverses; ``level_three()``, its reverse and its
    products with each of those; their products with ``two_element_zero()``
    and with each other (consecutive pairs), which add J-trivial monoids;
    and rectangular bands with identity.  Each lies in DA, which each
    decides from its own table."""
    l3 = level_three()
    bases = [m for m in distinct_monoids if m.is_in_da()] + [e.monoid for e in da_corpus]
    bases = _by_table(bases + [reverse_monoid(m) for m in bases])
    bases += ([direct_product(l3, m) for m in bases]
              + [direct_product(m, two_element_zero()) for m in bases]
              + [direct_product(a, b) for a, b in zip(bases, bases[1:])]
              + [l3, reverse_monoid(l3), direct_product(l3, reverse_monoid(l3)),
                 direct_product(left_zero(), right_zero())]
              + [rectangular_band_with_identity(k, c) for k in (1, 2, 3, 5) for c in (1, 2, 4)])
    return _by_table(q for base in bases for side in ("R", "L")
                     for q in quotient_chain(base, side))


@pytest.fixture(scope="session")
def table_ab6():
    """Ranker table for m,n <= 3 over all 2-letter words of length <= 6."""
    return RankerTable(("a", "b"), 3, 3, all_words(("a", "b"), 6))


@pytest.fixture(scope="session")
def table_ab7():
    """Same but words up to length 7, for congruence extension sampling."""
    return RankerTable(("a", "b"), 3, 3, all_words(("a", "b"), 7))


# -- small hand-built monoids ------------------------------------------------

def left_zero():
    # {1, a, b} with x*y = x for x, y != 1
    return FiniteMonoid([[0, 1, 2], [1, 1, 1], [2, 2, 2]], 0,
                        gens={"a": 1, "b": 2}, words=["", "a", "b"])


def right_zero():
    # {1, a, b} with x*y = y for x, y != 1
    return FiniteMonoid([[0, 1, 2], [1, 1, 2], [2, 1, 2]], 0,
                        gens={"a": 1, "b": 2}, words=["", "a", "b"])


def two_element_zero():
    # {1, 0}; with these generators it is the syntactic monoid of "contains a"
    return FiniteMonoid([[0, 1], [1, 1]], 0, gens={"a": 1, "b": 0}, words=["", "a"])


def cyclic_two():
    # {1, g} with g*g = 1
    return FiniteMonoid([[0, 1], [1, 0]], 0, gens={"a": 1}, words=["", "a"])


def cyclic_group(k):
    # Z_k, generated by 1
    ar = np.arange(k, dtype=np.int32)
    return FiniteMonoid((ar[:, None] + ar) % k, 0, gens={"a": 1 % k}, validate=False)


def chain_monoid(n):
    # {0, ..., n-1} with x*y = min(x + y, n - 1), generated by 1: the monoid of a^n = a^(n-1)
    ar = np.arange(n, dtype=np.int32)
    return FiniteMonoid(np.minimum(ar[:, None] + ar, n - 1), 0, gens={"a": min(1, n - 1)},
                        validate=False)


def trivial():
    return FiniteMonoid([[0]], 0, gens={"a": 0, "b": 0}, words=[""])


def level_three():
    # a Level-3 monoid with |M| = |E| = 6
    return FiniteMonoid([[0, 1, 2, 3, 4, 5], [1, 1, 1, 3, 4, 5], [2, 2, 2, 3, 4, 5],
                         [3, 4, 5, 3, 4, 5], [4, 4, 4, 3, 4, 5], [5, 5, 5, 3, 4, 5]], 0,
                        gens={"a": 1, "b": 2, "c": 3})


def rectangular_band_with_identity(k, cols=None):
    """0 is the identity; 1 + i*cols + j is (i, j) for i < k, j < cols (cols
    defaults to k), with (i, j)(i', j') = (i, j').  All non-identity
    elements are idempotent and J-equivalent."""
    cols = k if cols is None else cols
    n = k * cols + 1
    ij = np.arange(k * cols)
    table = np.empty((n, n), dtype=np.int32)
    table[0, :] = table[:, 0] = np.arange(n)
    table[1:, 1:] = 1 + (ij // cols)[:, None] * cols + (ij % cols)[None, :]
    return FiniteMonoid(table, 0)


class Preorders(NamedTuple):
    jleq: np.ndarray
    rleq: np.ndarray
    lleq: np.ndarray


def preorders(m):
    """Green's preorders as n x n matrices read off the table: jleq[u, v]
    (u in MvM), rleq[u, v] (u in vM) and lleq[u, v] (u in Mv)."""
    T = m.table
    out = Preorders(*(np.zeros(T.shape, dtype=bool) for _ in range(3)))
    for v in range(m.size):
        out.rleq[T[v, :], v] = True
        out.lleq[T[:, v], v] = True
        out.jleq[T[:, T[v, :]].ravel(), v] = True
    return out



def associative(table):
    """(x*y)*z == x*(y*z) for all x, y, z: |M| row gathers of |M|^2 each."""
    return all(np.array_equal(table[table[x, :], :], table[x, table])
               for x in range(table.shape[0]))

def direct_product(a, b):
    """The product monoid, element x * b.size + y for (x, y).  When both
    factors have generator maps, the images (g, 1) and (1, h) of their
    generators generate it, under the letters a, b, c, ... in that order."""
    n = b.size
    table = (a.table[:, None, :, None] * n + b.table[None, :, None, :]).reshape(a.size * n, -1)
    gens = None
    if a.gens is not None and b.gens is not None:
        images = ([x * n + b.identity for x in a.gens.values()]
                  + [a.identity * n + y for y in b.gens.values()])
        gens = dict(zip(string.ascii_letters, images))
    return FiniteMonoid(table, a.identity * n + b.identity, gens=gens)


def large_dfa():
    """A minimal 5-state binary DFA whose transition monoid has 312 elements,
    spread over several breadth-first levels, and holds a group (so it is
    not aperiodic, hence not in DA)."""
    delta = ((1, 4), (3, 1), (0, 3), (2, 1), (0, 0))
    return Dfa(("a", "b"), delta, 0, frozenset({1, 3}))


# -- random automata ---------------------------------------------------------

@st.composite
def dfas(draw):
    """Complete DFAs with 1-5 states over 1-3 letters, not necessarily minimal."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    delta = tuple(tuple(draw(st.integers(0, n - 1)) for _ in range(k)) for _ in range(n))
    finals = frozenset(draw(st.sets(st.integers(0, n - 1))))
    return Dfa(tuple("abc"[:k]), delta, 0, finals)


def run_python(*args):
    """Run the interpreter on args from the repository root, with src/ importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def monoid_text(m):
    """The multiplication-table file format read by ``analyze --monoid``."""
    lines = [f"size: {m.size}", f"identity: {m.identity}"]
    lines += [f"gen {a} {x}" for a, x in (m.gens or {}).items()]
    lines.append("table")
    lines += [" ".join(map(str, row)) for row in m.table.tolist()]
    return "\n".join(lines) + "\n"
