import itertools
import random

import pytest

from fo2level.automata import (Concat, Dfa, DfaFormatError, EmptyWord, Letter,
                               RegexSyntaxError, Star, Union, all_words,
                               minimize, parse_dfa_file,
                               parse_regex, regex_to_min_dfa)
from reference import reference_minimize, regex_matches


def test_parse_shapes():
    assert parse_regex("(ab)*").root == Star(Concat((Letter("a"), Letter("b"))))
    assert parse_regex("~", alphabet=["a"]).root == EmptyWord()
    assert parse_regex("a(a|b)*").root == Concat(
        (Letter("a"), Star(Union((Letter("a"), Letter("b"))))))


def test_parse_normalization():
    # concat flattening and epsilon removal
    assert parse_regex("~a~b").root == Concat((Letter("a"), Letter("b")))
    assert parse_regex("((a))").root == Letter("a")
    assert parse_regex("a**").root == Star(Letter("a"))
    assert parse_regex("(~)*").root == EmptyWord()
    u = parse_regex("a|b|c").root
    assert isinstance(u, Union) and len(u.parts) == 3


def test_parse_alphabet_inference_and_declaration():
    assert parse_regex("ba").alphabet == ("a", "b")
    assert parse_regex("a", alphabet=["b", "a"]).alphabet == ("b", "a")
    with pytest.raises(RegexSyntaxError) as exc:
        parse_regex("ac", alphabet=["a", "b"])
    assert exc.value.position == 1
    with pytest.raises(RegexSyntaxError):
        parse_regex("a", alphabet=[])


@pytest.mark.parametrize("text,pos", [
    ("", 0),
    ("a|", 2),
    ("(ab", 0),
    ("ab)", 2),
    ("*a", 0),
])
def test_parse_errors_carry_position(text, pos):
    with pytest.raises(RegexSyntaxError) as exc:
        parse_regex(text)
    assert exc.value.position == pos


def test_min_dfa_sizes():
    assert regex_to_min_dfa(parse_regex("(a|b)*")).n_states == 1
    d = regex_to_min_dfa(parse_regex("(a|b)*"))
    assert d.initial in d.finals
    assert regex_to_min_dfa(parse_regex("(ab)*")).n_states == 3
    assert regex_to_min_dfa(parse_regex("a(a|b)*")).n_states == 3


def test_min_dfa_residual_count_oracle():
    # independent minimality count: number of distinct residual languages,
    # sampled on all words up to length 8
    for text, expected in [("(ab)*", 3), ("a(a|b)*", 3)]:
        r = parse_regex(text)
        d = regex_to_min_dfa(r)
        words = all_words(r.alphabet, 4)
        probe = all_words(r.alphabet, 4)
        residuals = {tuple(regex_matches(r, w + p) for p in probe) for w in words}
        assert d.n_states == len(residuals) == expected


def test_accepts_basic():
    d = regex_to_min_dfa(parse_regex("(ab)*"))
    assert d.accepts("abab")
    assert not d.accepts("aba")
    assert d.accepts("")  # empty word iff initial is final
    with pytest.raises(ValueError):
        d.accepts("abc")


def test_minimize_idempotent_and_unreachable():
    d = regex_to_min_dfa(parse_regex("(ab)*"))
    assert minimize(d) == d
    # add an unreachable state
    bigger = Dfa(d.alphabet, d.delta + ((0, 0),), d.initial, d.finals)
    assert minimize(bigger) == d


def test_minimize_matches_the_two_walk_reference():
    # random complete DFAs with unreachable states and any initial state
    rng = random.Random(20)
    unreachable = moved_initial = 0
    for _ in range(3000):
        ns, k = rng.randint(1, 9), rng.randint(1, 3)
        d = Dfa(tuple("abc"[:k]), tuple(tuple(rng.randrange(ns) for _ in range(k)) for _ in range(ns)),
                rng.randrange(ns), frozenset(s for s in range(ns) if rng.random() < 0.5))
        got, want = minimize(d), reference_minimize(d)
        assert (got.delta, got.initial, got.finals) == (want.delta, want.initial, want.finals), d
        unreachable += any(s != d.initial and all(s not in row for row in d.delta) for s in range(ns))
        moved_initial += d.initial != 0
    assert unreachable > 500 and moved_initial > 1000


def _distinguishable_pairs(d: Dfa) -> bool:
    # independent table-filling check that no two states are equivalent
    n = d.n_states
    marked = {(p, q): (p in d.finals) != (q in d.finals)
              for p in range(n) for q in range(n) if p < q}
    changed = True
    while changed:
        changed = False
        for (p, q), m in marked.items():
            if m:
                continue
            for a in range(len(d.alphabet)):
                pp, qq = sorted((d.delta[p][a], d.delta[q][a]))
                if pp != qq and marked[(pp, qq)]:
                    marked[(p, q)] = True
                    changed = True
    return all(marked.values()) if marked else True


def test_minimize_states_pairwise_distinguishable():
    for text in ["(ab)*", "a(a|b)*", "(a|b)*a", "a*b*", "(a|b)(a|b)(a|b)"]:
        d = regex_to_min_dfa(parse_regex(text))
        assert _distinguishable_pairs(d)


DFA_AB_STAR = """\
# (ab)* as a two-line automaton
alphabet: a b
states: q0 q1
initial: q0
final: q0
q0 a q1
q1 b q0
"""


def test_dfa_file_roundtrip_with_sink():
    d = parse_dfa_file(DFA_AB_STAR)
    assert d.n_states == 3  # sink appended
    assert d.delta[0][1] == 2 and d.delta[2] == (2, 2)
    assert d.accepts("abab") and not d.accepts("aab")
    m = minimize(regex_to_min_dfa(parse_regex("(ab)*")))
    assert minimize(d) == m


def test_dfa_file_no_finals_is_empty_language():
    text = "alphabet: a\nstates: q0\ninitial: q0\nfinal:\nq0 a q0\n"
    d = parse_dfa_file(text)
    assert not any(d.accepts(w) for w in all_words(("a",), 4))


@pytest.mark.parametrize("text,msg", [
    ("alphabet: a\nstates: q0\ninitial: q0\nfinal:\nq0 a q0\nq0 a q0\n", "duplicate transition"),
    ("alphabet: a\nstates: q0\ninitial: q1\nfinal:\n", "unknown state"),
    ("alphabet: a\nstates: q0\ninitial: q0\nfinal:\nq0 b q0\n", "unknown symbol"),
    ("states: q0\ninitial: q0\nfinal:\n", "missing header"),
    ("alphabet:\nstates: q0\ninitial: q0\nfinal:\n", "empty alphabet"),
])
def test_dfa_file_errors(text, msg):
    with pytest.raises(DfaFormatError, match=msg):
        parse_dfa_file(text)


def _random_regex(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["a", "b", "~"])
    op = rng.choice(["cat", "alt", "star"])
    if op == "star":
        return "(" + _random_regex(rng, depth - 1) + ")*"
    return "(" + _random_regex(rng, depth - 1) + ("" if op == "cat" else "|") \
        + _random_regex(rng, depth - 1) + ")"


def test_pipeline_agrees_with_derivative_matcher():
    rng = random.Random(20240817)
    short = all_words(("a", "b"), 5)
    for _ in range(60):
        r = parse_regex(_random_regex(rng, 3), alphabet=["a", "b"])
        d = regex_to_min_dfa(r)
        for w in short:
            assert d.accepts(w) == regex_matches(r, w), (r, w)
        for _ in range(30):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(6, 10)))
            assert d.accepts(w) == regex_matches(r, w), (r, w)


def test_derivative_matcher_long_nullable_concat():
    # 2000 nullable parts once recursed one level per part
    assert regex_matches(parse_regex("a*" * 2000), "a")


def test_empty_and_epsilon_languages():
    # the empty-word regex over an explicit alphabet
    d = regex_to_min_dfa(parse_regex("~", alphabet=["a", "b"]))
    assert d.accepts("") and not d.accepts("a")
    assert d.n_states == 2


@pytest.mark.parametrize("alphabet,max_len,min_len", [
    ((), 0, 0), ((), 3, 0), ((), 3, 1), (("a",), 0, 0), (("a",), 5, 0), (("a",), 5, 3),
    (("a", "b"), 6, 0), (("a", "b"), 6, 4), (("b", "a", "c"), 4, 2), (("a", "b"), 2, 3),
    (("xy", "z"), 3, 1),
])
def test_all_words_matches_the_product_enumeration(alphabet, max_len, min_len):
    # all words come in product order, so those of min_len letters and more
    # are the list's tail after the shorter ones
    expect = ["".join(t) for length in range(min_len, max_len + 1)
              for t in itertools.product(alphabet, repeat=length)]
    words = all_words(alphabet, max_len)
    shorter = sum(len(alphabet) ** length for length in range(min(min_len, max_len + 1)))
    assert words[shorter:] == expect
    assert words[:shorter] == ["".join(t) for length in range(min(min_len, max_len + 1))
                               for t in itertools.product(alphabet, repeat=length)]
