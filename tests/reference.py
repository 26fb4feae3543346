"""Direct definitions that the tests compare the fast paths against.

None of these is called by the package.  They follow the definitions word
by word and ranker by ranker, so they are slow but easy to check by eye:

* ``rel_right(u, v, m, n)``: the same rankers among the X-starting ones of
  depth <= n with <= m blocks, plus the Y-starting ones of depth <= n-1
  with <= m-1 blocks, are condensed on u and on v; ``rel_left`` is the
  mirror image.  ``RankerTable.partition_right`` and ``partition_left``
  label words by these relations.
* ``equiv_wi(u, v, m, n)``: the same rankers of depth <= n and <= m blocks
  are defined on both, and four families of ranker pairs induce identical
  order types on both words.  ``RankerTable.partition_equiv`` labels words
  by it.
* ``r_factorize`` and ``l_factorize``: a word split along the strict drops
  of its prefixes' R-classes (suffixes' L-classes).
"""

from fo2level.monoid import FiniteMonoid, reverse_monoid
from fo2level.rankers import X, Y, enumerate_rankers, eval_ranker, is_condensed


# ---------------------------------------------------------------------------
# Word relations (direct definitions)
# ---------------------------------------------------------------------------

def _infer_alphabet(u: str, v: str, alphabet):
    if alphabet is not None:
        return tuple(alphabet)
    # rankers over letters absent from both words are never defined on
    # either, so inferring the joint alphabet is sound
    return tuple(sorted(set(u) | set(v)))


def rel_right(u: str, v: str, m: int, n: int, alphabet=None) -> bool:
    """Same condensed rankers among X-start (m, n) and Y-start (m-1, n-1)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    alpha = _infer_alphabet(u, v, alphabet)
    rankers = enumerate_rankers(alpha, m, n, X) + enumerate_rankers(alpha, m - 1, n - 1, Y)
    return all(is_condensed(r, u) == is_condensed(r, v) for r in rankers)


def rel_left(u: str, v: str, m: int, n: int, alphabet=None) -> bool:
    """Same condensed rankers among Y-start (m, n) and X-start (m-1, n-1).

    Reversal swaps X and Y, so this is ``rel_right`` on the reversed words.
    """
    return rel_right(u[::-1], v[::-1], m, n, alphabet)


def _ord(i: int, j: int) -> int:
    return (i > j) - (i < j)


def equiv_wi(u: str, v: str, m: int, n: int, alphabet=None) -> bool:
    """Ranker equivalence: same defined rankers of depth <= n with <= m
    blocks, and equal order types for the four comparison families."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    alpha = _infer_alphabet(u, v, alphabet)
    rankers = enumerate_rankers(alpha, m, n, "either")
    pu = {r: eval_ranker(r, u) for r in rankers}
    pv = {r: eval_ranker(r, v) for r in rankers}
    for r in rankers:
        if (pu[r] is None) != (pv[r] is None):
            return False
    x_mn = [r for r in rankers if r.start == X]
    y_mn = [r for r in rankers if r.start == Y]
    families = (
        (x_mn, [s for s in y_mn if s.depth <= n - 1]),
        (y_mn, [s for s in x_mn if s.depth <= n - 1]),
        (x_mn, [s for s in x_mn if s.depth <= n - 1 and s.blocks <= m - 1]),
        (y_mn, [s for s in y_mn if s.depth <= n - 1 and s.blocks <= m - 1]),
    )
    for rs, ss in families:
        for r in rs:
            ru, rv = pu[r], pv[r]
            if ru is None:
                continue
            for s in ss:
                su, sv = pu[s], pv[s]
                if su is None:
                    continue
                if _ord(ru, su) != _ord(rv, sv):
                    return False
    return True


# ---------------------------------------------------------------------------
# Greens-driven word factorizations
# ---------------------------------------------------------------------------

def r_factorize(monoid: FiniteMonoid, u: str) -> tuple[list[str], list[str]]:
    """Split u = s1 a1 s2 a2 ... ak s_{k+1} along strict drops in the R-order.

    Reading left to right, a letter that keeps the image of the prefix in
    the same R-class extends the current segment; a letter that drops the
    R-class becomes the next marker a_i.  Returns (segments, markers) with
    len(segments) == len(markers) + 1.
    """
    if monoid.gens is None:
        raise ValueError("factorization needs a monoid with a generator map")
    rcls = monoid.greens().r_class
    segments: list[str] = []
    markers: list[str] = []
    cur = monoid.identity
    seg: list[str] = []
    for ch in u:
        nxt = monoid.mul(cur, monoid.eval_word(ch))
        if rcls[nxt] == rcls[cur]:
            seg.append(ch)
        else:
            segments.append("".join(seg))
            markers.append(ch)
            seg = []
        cur = nxt
    segments.append("".join(seg))
    return segments, markers


def l_factorize(monoid: FiniteMonoid, u: str) -> tuple[list[str], list[str]]:
    """Right-to-left dual of ``r_factorize``, along strict drops in the L-order.

    Returns (segments, markers) with u = segments[0] markers[0] segments[1]
    ... markers[k-1] segments[k]; the last segment keeps the L-class of the
    identity.  L-classes are the R-classes of the reverse monoid, so this
    is ``r_factorize`` there on the reversed word, read back in reverse.
    """
    segments, markers = r_factorize(reverse_monoid(monoid), u[::-1])
    return [s[::-1] for s in reversed(segments)], markers[::-1]
