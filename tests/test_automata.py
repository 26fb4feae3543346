import itertools
import random

import pytest
from hypothesis import given, strategies as st

from conftest import monoid_text
from fo2level import automata
from fo2level.automata import (Concat, Dfa, DfaFormatError, EmptyWord, Letter,
                               RegexSyntaxError, Star, Union, all_words,
                               minimize, parse_dfa_file,
                               parse_regex, regex_to_min_dfa)
from fo2level.monoid import parse_monoid_file, transition_monoid
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


# ASCII and Unicode whitespace, which the parser skips, and letters that
# are not ASCII, not alphanumeric or not printable (a zero-width space is
# no whitespace to str.isspace)
_SPACES = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2003",
           "\u2028", "\u3000"]
_LETTERS = ["a", "b", "Z", "0", "#", "+", ".", "é", "ß", "Ω", "字", "\u200b", "\U0001d538"]

_regex_texts = st.recursive(
    st.sampled_from(_LETTERS + ["~"]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map("".join),
        st.tuples(inner, inner).map("|".join),
        inner.map(lambda t: t + "*"),
        inner.map(lambda t: f"({t})"),
        inner.map(lambda t: f"({t})*")),
    max_leaves=12)


def _ast_letters(node) -> set:
    """The letters of a parsed regex, walked node by node."""
    if isinstance(node, Letter):
        return {node.symbol}
    if isinstance(node, (Concat, Union)):
        return set().union(*map(_ast_letters, node.parts))
    if isinstance(node, Star):
        return _ast_letters(node.inner)
    return set()


@given(_regex_texts, st.data())
def test_inferred_alphabet_is_the_letters_of_the_parsed_regex(text, data):
    # whitespace may stand before, between and after any two characters
    spaces = data.draw(st.lists(st.text(st.sampled_from(_SPACES), max_size=2),
                                min_size=len(text) + 1, max_size=len(text) + 1))
    spaced = spaces[0] + "".join(c + sp for c, sp in zip(text, spaces[1:]))
    r = parse_regex(spaced)
    assert r.alphabet == tuple(sorted(_ast_letters(r.root)))
    assert r.root == parse_regex(text).root


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


# every boundary str.splitlines splits at, "\r\n" among them
_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _kept_lines(text: str) -> list[str]:
    """The lines the file readers keep, filtered one line at a time."""
    return [s for s in (raw.strip() for raw in text.splitlines()) if s and not s.startswith("#")]


def _with_breaks(lines: list[str], rng: random.Random) -> str:
    """lines, padded with spaces and tabs, with blank and comment lines
    among them and after them, ended by every kind of line boundary."""
    out = []
    for i, line in enumerate(lines):
        out += [" \t", line, "  ", _BREAKS[i % len(_BREAKS)],
                rng.choice(["", " ", "\t", "#", "  # note"]), rng.choice(_BREAKS)]
    return "".join(out + [f"# {i}{b}" for i, b in enumerate(_BREAKS)])


@given(st.lists(st.sampled_from(_BREAKS + ["a", "b c", "#", " # x", " ", "\t", "\xa0"]),
                max_size=40))
def test_line_blocks_keep_the_lines_of_the_one_line_filter(pieces):
    text = "".join(pieces)
    for chars in (1, 2, 5, 1 << 18):
        automata._LINE_CHARS = chars
        try:
            assert [s for block, _ in automata._line_blocks(text) for s in block] == _kept_lines(text)
        finally:
            automata._LINE_CHARS = 1 << 18


def test_both_file_formats_share_the_line_filter(monkeypatch):
    # small blocks end inside every file; each format reads its text as
    # it reads the lines the one-line filter keeps, one to a line
    rng = random.Random(4)
    dfa_text = _with_breaks(DFA_AB_STAR.splitlines(), rng)
    mono = transition_monoid(regex_to_min_dfa(parse_regex("(ab)*a(a|b)")))
    mono_text = _with_breaks(monoid_text(mono).splitlines(), rng)
    assert all(b in dfa_text and b in mono_text for b in _BREAKS)
    plain_dfa = parse_dfa_file("\n".join(_kept_lines(dfa_text)))
    plain_mono = parse_monoid_file("\n".join(_kept_lines(mono_text)))
    assert plain_dfa == parse_dfa_file(DFA_AB_STAR)
    assert plain_mono.table.tolist() == mono.table.tolist() and plain_mono.gens == mono.gens
    for chars in (1, 3, 16, 1 << 18):
        monkeypatch.setattr(automata, "_LINE_CHARS", chars)
        assert parse_dfa_file(dfa_text) == plain_dfa
        got = parse_monoid_file(mono_text)
        assert got.table.tolist() == mono.table.tolist()
        assert (got.identity, got.gens) == (mono.identity, mono.gens)
