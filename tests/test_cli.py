import functools
import json
import os
import subprocess
import sys
import time

import pytest

from conftest import level_three, monoid_text
from fo2level import cli
from fo2level import identities as identities_module
from fo2level import monoid as monoid_module
from fo2level import rankers as rankers_module
from fo2level.cli import main
from fo2level.monoid import reverse_monoid

AB_STAR_DFA = """\
alphabet: a b
states: q0 q1
initial: q0
final: q0
q0 a q1
q1 b q0
"""

LEFT_ZERO_MONOID = """\
size: 3
identity: 0
gen a 1
gen b 2
table
0 1 2
1 1 1
2 2 2
"""

JSON_FIELDS = ["input", "dfa_states", "monoid_size", "aperiodic", "in_da",
               "j_trivial", "r_trivial", "l_trivial", "fo2_level",
               "method_quotient", "method_identities", "agreement", "witness"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_level_two(capsys):
    code, out, _ = run(capsys, "analyze", "--regex", "a(a|b)*")
    assert code == 0
    assert "fo2_level: 2" in out
    assert "monoid_size: 3" in out
    assert "agreement: true" in out


def test_analyze_not_fo2(capsys):
    code, out, _ = run(capsys, "analyze", "--regex", "(ab)*")
    assert code == 0
    assert "fo2_level: none" in out
    assert "in_da: false" in out


def test_analyze_level_one(capsys):
    code, out, _ = run(capsys, "analyze", "--regex", "(a|b)*a(a|b)*")
    assert code == 0
    assert "fo2_level: 1" in out
    assert "monoid_size: 2" in out


def test_analyze_json_schema(capsys):
    code, out, _ = run(capsys, "analyze", "--regex", "a(a|b)*", "--json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc.keys()) == JSON_FIELDS
    assert doc["fo2_level"] == 2
    assert doc["agreement"] is True
    code, out, _ = run(capsys, "analyze", "--regex", "(ab)*", "--json")
    doc = json.loads(out)
    assert doc["fo2_level"] is None and doc["in_da"] is False
    assert doc["witness"]["assignment"] == {"x1": "a", "x2": "b"}


def test_analyze_json_matches_human_fields(capsys):
    _, human, _ = run(capsys, "analyze", "--regex", "a*b*")
    _, js, _ = run(capsys, "analyze", "--regex", "a*b*", "--json")
    doc = json.loads(js)
    for key in doc:
        assert f"{key}:" in human or key == "witness"
    assert "witness:" in human


def test_analyze_deterministic(capsys):
    _, out1, _ = run(capsys, "analyze", "--regex", "a(a|b)*", "--json")
    _, out2, _ = run(capsys, "analyze", "--regex", "a(a|b)*", "--json")
    assert out1 == out2


def test_analyze_dfa_file(tmp_path, capsys):
    p = tmp_path / "abstar.dfa"
    p.write_text(AB_STAR_DFA)
    code, out, _ = run(capsys, "analyze", "--dfa", str(p))
    assert code == 0
    assert "monoid_size: 6" in out and "fo2_level: none" in out


def test_analyze_monoid_file(tmp_path, capsys):
    p = tmp_path / "leftzero.monoid"
    p.write_text(LEFT_ZERO_MONOID)
    code, out, _ = run(capsys, "analyze", "--monoid", str(p))
    assert code == 0
    assert "dfa_states: none" in out
    assert "fo2_level: 2" in out


def test_analyze_method_selection(capsys):
    code, out, _ = run(capsys, "analyze", "--regex", "a(a|b)*", "--method", "quotient")
    assert code == 0
    assert "method_identities: none" in out
    code, out, _ = run(capsys, "analyze", "--regex", "a(a|b)*", "--method", "identities")
    assert code == 0
    assert "method_quotient: none" in out and "fo2_level: 2" in out


def test_usage_errors(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 1
    code, _, err = run(capsys, "analyze", "--regex", "a", "--dfa", "x")
    assert code == 1
    code, _, err = run(capsys, "analyze", "--regex", "a(")
    assert code == 1
    code, _, err = run(capsys, "nosuch")
    assert code == 1
    code, _, err = run(capsys, "analyze", "--dfa", "/nonexistent/file")
    assert code == 1


def test_monoid_cap_below_one_is_a_usage_error(capsys):
    for cap in ("0", "-5"):
        code, out, err = run(capsys, "analyze", "--regex", "a", "--monoid-cap", cap)
        assert code == 1 and out == ""
        assert err == "usage error: --monoid-cap must be >= 1\n"


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "--regex", "(a|b)*a(a|b)(a|b)(a|b)",
                       "--monoid-cap", "4")
    assert code == 3
    assert "budget" in err


def test_table_larger_than_memory_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(monoid_module, "_physical_memory", lambda: 100)
    code, _, err = run(capsys, "analyze", "--regex", "(ab)*")   # 6x6 table: 144 bytes
    assert code == 3
    assert "budget exceeded" in err and "GiB" in err


def test_deep_regex_nesting_is_a_parse_error(capsys):
    code, out, err = run(capsys, "analyze", "--regex", "(" * 3000 + "a" + ")" * 3000)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "nested" in err
    assert "Traceback" not in err
    code, out, _ = run(capsys, "analyze", "--regex", "(" * 100 + "a" + ")" * 100)
    assert code == 0 and "fo2_level: 1" in out


@pytest.fixture
def greens_calls(monkeypatch):
    """The sizes of the monoids whose Green's classes are asked for, in order."""
    calls = []
    greens = monoid_module.FiniteMonoid.greens

    def counting_greens(self):
        calls.append(self.size)
        return greens(self)

    monkeypatch.setattr(monoid_module.FiniteMonoid, "greens", counting_greens)
    return calls


def test_not_fo2_analyze_builds_no_greens_classes(capsys, greens_calls):
    calls = greens_calls
    # (aa)* is not aperiodic, (ab)* is aperiodic but outside DA
    for regex in ("(aa)*", "(ab)*"):
        for method in ("both", "quotient", "identities"):
            for fmt in ([], ["--json"]):
                code, out, _ = run(capsys, "analyze", "--regex", regex, "--method", method, *fmt)
                assert code == 0 and "in_da" in out and "fo2_level" in out
                assert calls == [], (regex, method, fmt)
    # the counter sees the classes the greens command prints
    code, out, _ = run(capsys, "greens", "--regex", "a(a|b)*")
    assert code == 0 and calls == [3]


def test_da_analyze_builds_no_greens_classes(tmp_path, capsys, greens_calls):
    # a DA input and its chain members answer every J-class question, and
    # the report's triviality flags, from their tables
    p = tmp_path / "level3.monoid"
    p.write_text(monoid_text(level_three()))
    # (level, j_trivial, r_trivial, l_trivial) as Green's classes give them
    cases = [(["--regex", "(a|b)*a(a|b)*"], (1, True, True, True)),
             (["--regex", "a(a|b)*"], (2, False, True, False)),
             (["--monoid", str(p)], (3, False, False, False))]
    for argv, want in cases:
        for method in ("both", "quotient", "identities"):
            code, out, _ = run(capsys, "analyze", *argv, "--method", method, "--json")
            doc = json.loads(out)
            assert code == 0 and want == tuple(
                doc[k] for k in ("fo2_level", "j_trivial", "r_trivial", "l_trivial"))
            code, out, _ = run(capsys, "analyze", *argv, "--method", method)
            assert code == 0 and f"fo2_level: {want[0]}\n" in out
            assert greens_calls == [], (argv, method)


def test_out_of_int32_table_entry_is_a_format_error(tmp_path, capsys):
    for entry in ("99999999999", "-99999999999999999999"):
        p = tmp_path / "overflow.monoid"
        p.write_text(f"size: 2\nidentity: 0\ntable\n0 1\n1 {entry}\n")
        code, out, err = run(capsys, "analyze", "--monoid", str(p))
        assert code == 1 and out == ""
        assert err == "error: table entry out of range\n"


def test_monoid_file_refusals_exit_codes(tmp_path, capsys, monkeypatch):
    p = tmp_path / "two.monoid"
    for row, msg in (("1 0x", "malformed table row: '1 0x'"),
                     ("1 1.5", "malformed table row: '1 1.5'"),
                     ("1 2147483648", "table entry out of range"),
                     ("1 9223372036854775808", "table entry out of range")):
        p.write_text(f"size: 2\nidentity: 0\ntable\n0 1\n{row}\n")
        code, out, err = run(capsys, "analyze", "--monoid", str(p))
        assert (code, out, err) == (1, "", f"error: {msg}\n")
    p.write_text("size: 2\nidentity: 0\ngen a 1\ngen a 0\ntable\n0 1\n1 0\n")
    code, out, err = run(capsys, "analyze", "--monoid", str(p))
    assert (code, out, err) == (1, "", "error: duplicate generator 'a'\n")
    # signs, tabs and runs of spaces are read
    p.write_text("size: 2\nidentity: 0\ngen a 1\ntable\n+0\t 1\n1    +0\n")
    code, out, _ = run(capsys, "analyze", "--monoid", str(p))
    assert code == 0 and "monoid_size: 2" in out
    # a table larger than memory: exit 3 before it is read
    monkeypatch.setattr(monoid_module, "_physical_memory", lambda: 63)
    code, out, err = run(capsys, "analyze", "--monoid", str(p))
    assert (code, out) == (3, "")
    assert err == ("budget exceeded: monoid file has 2 elements; reading its 2x2 table needs "
                   "0.0 GiB but 0.0 GiB is available\n")


def test_report_flags_match_ungated_predicates(distinct_monoids, tmp_path, capsys):
    # the report's triviality flags, read off the table inside DA and false
    # outside it, must equal the counts of Green's classes, on each monoid
    # and its reverse (read back from a file, so the file checks run too)
    seen = {"in_da": 0, "aperiodic_not_da": 0, "not_aperiodic": 0, "j_trivial": 0}
    p = tmp_path / "m.monoid"
    for m in (m for m in distinct_monoids if m.size <= 100):
        for mono in (m, reverse_monoid(m)):
            p.write_text(monoid_text(mono))
            code, out, _ = run(capsys, "analyze", "--monoid", str(p), "--json",
                               "--method", "quotient")
            assert code == 0
            doc = json.loads(out)
            g = mono.greens()
            assert (doc["j_trivial"], doc["r_trivial"], doc["l_trivial"]) == (
                g.num_j == mono.size, g.num_r == mono.size, g.num_l == mono.size)
            in_da, aperiodic = mono.is_in_da(), mono.is_aperiodic()
            seen["in_da"] += in_da
            seen["aperiodic_not_da"] += aperiodic and not in_da
            seen["not_aperiodic"] += not aperiodic
            seen["j_trivial"] += doc["j_trivial"]
    assert min(seen.values()) >= 10, seen


def test_input_flags_are_chosen_by_presence(tmp_path, capsys):
    # an empty value still counts as given
    code, out, err = run(capsys, "analyze", "--regex", "")
    assert code == 1 and out == ""
    assert err.startswith("error: empty regex")
    p = tmp_path / "abstar.dfa"
    p.write_text(AB_STAR_DFA)
    for argv in (["--regex", "", "--dfa", str(p)], ["--dfa", "", "--regex", "a"],
                 ["--monoid", "", "--dfa", str(p)]):
        code, out, err = run(capsys, "analyze", *argv)
        assert code == 1 and out == "", argv
        assert "exactly one of --regex / --dfa / --monoid" in err


def test_rankers_command(capsys):
    code, out, _ = run(capsys, "rankers", "--word", "bca", "--ranker", "Xa Yb Xc")
    assert code == 0
    assert "position: 2" in out and "condensed: true" in out
    code, out, _ = run(capsys, "rankers", "--word", "bac", "--ranker", "Xa Yb Xc")
    assert "position: 3" in out and "condensed: false" in out
    code, out, _ = run(capsys, "rankers", "--word", "bcba", "--ranker", "Xa Yb Xc")
    assert "position: undefined" in out
    code, _, err = run(capsys, "rankers", "--word", "abc", "--ranker", "Qa")
    assert code == 1
    # words spell one character per letter, so a two-character letter never lands
    code, out, err = run(capsys, "rankers", "--word", "abab", "--ranker", "Xab Ya")
    assert code == 1 and out == "" and "bad ranker token 'Xab'" in err


def test_greens_command(capsys):
    code, out, _ = run(capsys, "greens", "--regex", "(ab)*")
    assert code == 0
    assert "monoid_size: 6" in out and "j_classes: 3" in out
    code, js, _ = run(capsys, "greens", "--regex", "(ab)*", "--json")
    doc = json.loads(js)
    assert doc["monoid_size"] == 6 and doc["j_classes"] == 3
    assert len(doc["elements"]) == 6
    idem = {e["name"] for e in doc["elements"] if e["idempotent"]}
    assert idem == {"eps", "aa", "ab", "ba"}


def test_greens_without_generators_checked_against_memory(tmp_path, capsys, monkeypatch):
    # 100 elements: the table is read in 40 kB, the successor lists of its
    # Green's classes with no generator map take about 37 bytes a cell
    n = 100
    rows = "\n".join(" ".join(str((i + j) % n) for j in range(n)) for i in range(n))
    p = tmp_path / "cyclic.monoid"
    p.write_text(f"size: {n}\nidentity: 0\ntable\n{rows}\n")
    monkeypatch.setattr(monoid_module, "_physical_memory", lambda: 200_000)
    code, out, err = run(capsys, "greens", "--monoid", str(p))
    assert (code, out) == (3, "")
    assert err == ("budget exceeded: Green's classes of 100 elements with no generator map need "
                   "0.0 GiB but 0.0 GiB is available\n")
    # the same table with a generator map walks |M| x |A| edges, unchecked
    p.write_text(f"size: {n}\nidentity: 0\ngen a 1\ntable\n{rows}\n")
    code, out, _ = run(capsys, "greens", "--monoid", str(p))
    assert code == 0 and "monoid_size: 100" in out and "j_classes: 1" in out


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--regex", "(a|b)*a(a|b)*",
                       "--m", "1", "--max-n", "4", "--max-len", "6")
    assert code == 0
    assert "holds at n=1" in out


def test_oracle_needs_gens(tmp_path, capsys):
    p = tmp_path / "nogen.monoid"
    p.write_text("size: 2\nidentity: 0\ntable\n0 1\n1 1\n")
    code, _, err = run(capsys, "oracle", "--monoid", str(p), "--m", "1")
    assert code == 1
    assert "generator" in err


@pytest.mark.parametrize("flag,text", [
    ("--monoid", "size: 2\nidentity: 0\ngen ab 1\ntable\n0 1\n1 1\n"),
    ("--dfa", "alphabet: ab c\nstates: q0 q1\ninitial: q0\nfinal: q1\n"
              "q0 ab q1\nq0 c q0\nq1 ab q1\nq1 c q1\n"),
    # the words of a and b would spell ab again
    ("--monoid", "size: 2\nidentity: 0\ngen a 1\ngen b 1\ngen ab 1\ntable\n0 1\n1 1\n"),
])
def test_oracle_refuses_multi_letter_generators(flag, text, tmp_path, capsys, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("words enumerated before the generator names were checked")

    monkeypatch.setattr(rankers_module, "_all_word_letters", refuse)
    p = tmp_path / "input"
    p.write_text(text)
    code, _, err = run(capsys, "oracle", flag, str(p), "--m", "1", "--max-len", "3")
    assert code == 1
    assert err == "error: oracle needs one-letter generator names, not 'ab'\n"


CORPUS_SEED_7_COUNT_12 = """\
corpus: seed=7 count=12 max_states=4 letters=2
generated: 12
in_da: 7
  Level(1): 7
distinct: 7
check dual-route-agreement: PASS [28 checked] (m in {2, 3})
check level-anchors: PASS [12 checked]
check hierarchy-monotonicity: PASS [36 checked] (m in {1, 2, 3})
check congruence-quotients: PASS [21 checked]
check stable-action-agreement: PASS [20 checked]
check alphabet-stability: PASS [15081 checked] (words up to 3)
straubing tally m=1: agree 7/7 (100.0%) [experimental, interpreted recursion]
straubing tally m=2: agree 7/7 (100.0%) [experimental, interpreted recursion]
result: PASS
"""


def test_corpus_command(capsys):
    code, out, _ = run(capsys, "corpus", "--seed", "7", "--count", "12")
    assert code == 0
    assert out == CORPUS_SEED_7_COUNT_12
    code, out2, _ = run(capsys, "corpus", "--seed", "7", "--count", "12")
    assert out == out2  # byte-identical for the same seed


def test_corpus_refuses_an_alphabet_too_large_for_its_word_triples(capsys):
    # 26 letters give 18 279 words up to length 3: the alphabet-stability
    # triples are counted and refused before any word is built
    code, out, err = run(capsys, "corpus", "--count", "1", "--max-states", "1", "--letters", "26")
    assert code == 3
    assert err == ("budget exceeded: alphabet stability: 18279^3 word triples up to length 3 "
                   "exceed the budget of 10000000\n")
    assert out.startswith("corpus: seed=0 count=1 max_states=1 letters=26\n")


CORPUS_SIX_LETTERS = """\
corpus: seed=5 count=1 max_states=3 letters=6
generated: 1
in_da: 0
distinct: 1
check dual-route-agreement: PASS [0 checked] (m in {2, 3})
check level-anchors: PASS [1 checked]
check hierarchy-monotonicity: PASS [3 checked] (m in {1, 2, 3})
check congruence-quotients: PASS [0 checked]
check stable-action-agreement: PASS [0 checked]
check alphabet-stability: PASS [0 checked] (words up to 3)
straubing tally m=1: agree 0/0 (100.0%) [experimental, interpreted recursion]
straubing tally m=2: agree 0/0 (100.0%) [experimental, interpreted recursion]
result: PASS
"""


def test_corpus_runs_a_six_letter_alphabet_at_once(capsys):
    # one non-DA draw over 6 letters: corpus runs monoid-level checks only,
    # and this draw gives the DA-only ones nothing to check
    start = time.perf_counter()
    code, out, err = run(capsys, "corpus", "--seed", "5", "--count", "1", "--max-states", "3",
                         "--letters", "6")
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (0, CORPUS_SIX_LETTERS, "")


def test_corpus_closure_checked_against_memory_before_each_level(capsys, monkeypatch):
    # the first draw's minimal DFA has 40384 states: with 64 MiB the closure
    # refuses the level whose candidate block and index growth exceed it,
    # before allocating them
    monkeypatch.setattr(monoid_module, "_physical_memory", lambda: 64 * 2**20)
    code, out, err = run(capsys, "corpus", "--count", "1", "--max-states", "100000")
    assert code == 3
    assert err.startswith("budget exceeded: transition monoid closure at ")
    assert "candidates of 40384 states need" in err and "0.1 GiB is available" in err
    assert out == "corpus: seed=0 count=1 max_states=100000 letters=2\n"


def test_corpus_empty(capsys):
    code, out, _ = run(capsys, "corpus", "--count", "0")
    assert code == 0
    assert "PASS" in out


def test_back_to_back_calls_share_no_state(capsys):
    _, first_json, _ = run(capsys, "analyze", "--regex", "a*b*", "--json")
    code, plain, _ = run(capsys, "analyze", "--regex", "a*b*")
    assert code == 0 and not plain.startswith("{") and "fo2_level: " in plain
    code, _, err = run(capsys, "analyze", "--regex", "a", "--method", "nosuch")
    assert code == 1 and err.startswith("usage error: ")
    code, out, _ = run(capsys, "analyze", "--regex", "a(a|b)*", "--method", "quotient")
    assert code == 0 and "method_identities: none" in out
    code, out, _ = run(capsys, "greens", "--regex", "(ab)*")
    assert code == 0 and "j_classes: 3" in out
    # defaults come back after every call that overrode them
    code, again_json, _ = run(capsys, "analyze", "--regex", "a*b*", "--json")
    assert again_json == first_json
    doc = json.loads(again_json)
    assert doc["method_quotient"] is not None and doc["method_identities"] is not None


def test_identity_search_over_budget_exit_code(tmp_path, capsys, monkeypatch):
    # |M| = |E| = 6: the DA check needs 36 assignments, the search 6 x 6, then
    # 8 failing tuples x 6 at depth 3
    p = tmp_path / "level3.monoid"
    p.write_text("size: 6\nidentity: 0\ntable\n0 1 2 3 4 5\n1 1 1 3 4 5\n2 2 2 3 4 5\n"
                 "3 4 5 3 4 5\n4 4 4 3 4 5\n5 5 5 3 4 5\n")
    code, out, _ = run(capsys, "analyze", "--monoid", str(p), "--method", "identities")
    assert code == 0 and "fo2_level: 3" in out
    monkeypatch.setattr(cli, "identities_level", functools.partial(
        identities_module.identities_level, max_assignments=47))
    code, out, err = run(capsys, "analyze", "--monoid", str(p), "--method", "identities")
    assert code == 3 and out == ""
    assert err == ("budget exceeded: identity search too large: 8 failing tuples x 6 "
                   "idempotents at depth 3 exceed the budget of 47\n")
    assert "Traceback" not in err


def test_identities_budget_refusal_comes_before_the_quotient_route(tmp_path, capsys,
                                                                   monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the quotient route ran before the identities route")

    p = tmp_path / "level3.monoid"
    p.write_text(monoid_text(level_three()))
    monkeypatch.setattr(cli, "fo2_level", refuse)
    # the DA check reads all 6^2 pairs, one more than the budget
    monkeypatch.setattr(cli, "identities_level", functools.partial(
        identities_module.identities_level, max_assignments=35))
    code, out, err = run(capsys, "analyze", "--monoid", str(p))
    assert code == 3 and out == ""
    assert err == ("budget exceeded: identity check too large: 6^2 assignments exceed "
                   "the budget of 35\n")


def test_oracle_arguments_are_checked_before_the_input_is_loaded(capsys):
    # a cap of one element would refuse the monoid, but --m 0 is refused first
    code, out, err = run(capsys, "oracle", "--regex", "(a|b)*abb(a|b)*", "--monoid-cap", "1",
                         "--m", "0")
    assert code == 1 and out == ""
    assert err == "usage error: --m and --max-n must be >= 1, --max-len >= 0\n"


def test_analyze_max_m_below_one_is_a_usage_error(capsys, monkeypatch):
    def refuse(_args):
        raise AssertionError("input loaded before --max-m was checked")

    monkeypatch.setattr(cli, "_load_monoid", refuse)
    for max_m in ("0", "-2"):
        code, out, err = run(capsys, "analyze", "--regex", "a", "--max-m", max_m)
        assert code == 1 and out == ""
        assert err == "usage error: --max-m must be >= 1\n"


# (regex, --m, --max-len, monoid size) of the calls of the ranker-oracle
# benchmark workload; each holds at n = 4, also with a and b swapped
ORACLE_GOLDEN = (
    ("(ab)*", 1, 11, 6),
    ("(a|b)*abb(a|b)*", 1, 10, 10),
    ("(a|b)*abb(a|b)*", 2, 10, 10),
    ("b(a|b)*a", 1, 10, 5),
    ("(aab)*", 1, 10, 12),
    ("(abb)*", 1, 10, 12),
    ("(a|b)*b", 1, 10, 3),
    ("(ab|b)*", 2, 10, 6),
    ("(a|b)*aab(a|b)*", 2, 10, 10),
    ("a(ba)*b", 2, 10, 6),
    ("(abb)*", 2, 10, 12),
)


@pytest.mark.parametrize("regex,m,max_len,size", ORACLE_GOLDEN)
def test_oracle_golden_outputs(regex, m, max_len, size, capsys):
    for r in (regex, regex.translate(str.maketrans("ab", "ba"))):
        code, out, err = run(capsys, "oracle", "--regex", r, "--m", str(m), "--max-n", "6",
                             "--max-len", str(max_len))
        assert code == 0 and err == ""
        assert out == (f"input: regex {r}\nmonoid_size: {size}\n"
                       f"oracle: holds at n=4 (m={m}, words up to length {max_len})\n")


# (regex, monoid size, last counterexample as written, with a and b swapped)
# of failing searches at --m 2 --max-n 3 --max-len 10
ORACLE_FAILING = (
    ("(ab)*", 6, "'ababababa' vs 'ababaababa'", "'ababababa' vs 'ababaababa'"),
    ("(a|b)*abb(a|b)*", 10, "'ababababab' vs 'ababbaabab'", "'ababababa' vs 'ababaababa'"),
    ("(abb)*", 12, "'abbabbab' vs 'abbabbbab'", "'abaabaab' vs 'abaaabaab'"),
)


@pytest.mark.parametrize("regex,size,pair,swapped", ORACLE_FAILING)
def test_oracle_failing_search_outputs(regex, size, pair, swapped, capsys):
    for r, p in ((regex, pair), (regex.translate(str.maketrans("ab", "ba")), swapped)):
        code, out, err = run(capsys, "oracle", "--regex", r, "--m", "2", "--max-n", "3",
                             "--max-len", "10")
        assert code == 0 and err == ""
        assert out == (f"input: regex {r}\nmonoid_size: {size}\n"
                       f"oracle: no n <= 3 works (m=2); last counterexample: {p}\n")


def test_module_entry_point_runs_from_a_checkout():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "fo2level", "analyze", "--regex", "a(a|b)*"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "fo2_level: 2" in proc.stdout and "agreement: true" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "fo2level", "analyze"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1 and proc.stderr.startswith("usage error: ")


def test_address_space_limit_bounds_the_memory_checks(capsys, monkeypatch):
    # a soft address-space limit (`ulimit -v`) below physical memory is what counts
    limit = 2**30
    monkeypatch.setattr(monoid_module.resource, "getrlimit",
                        lambda _res: (limit, monoid_module.resource.RLIM_INFINITY))
    assert monoid_module._physical_memory() == limit
    # the 15001 x 15000 int16 occurrence tables alone would take about 3.6 GB
    code, out, err = run(capsys, "oracle", "--regex", "a*", "--m", "1", "--max-n", "2",
                         "--max-len", "15000")
    assert code == 3
    assert err.startswith("budget exceeded: ") and "1.0 GiB is available" in err
    assert "Traceback" not in err
    monkeypatch.setattr(monoid_module.resource, "getrlimit", lambda _res: (100, 200))
    code, _, err = run(capsys, "analyze", "--regex", "(ab)*")   # 6x6 table: 144 bytes
    assert code == 3 and err.startswith("budget exceeded: ")


def test_failed_allocation_exit_code(capsys, monkeypatch):
    def exhausted(*_args, **_kwargs):
        raise MemoryError("Unable to allocate 429. MiB for an array")

    monkeypatch.setattr(cli, "transition_monoid", exhausted)
    code, out, err = run(capsys, "analyze", "--regex", "(ab)*")
    assert code == 3 and out == ""
    assert err == "budget exceeded: Unable to allocate 429. MiB for an array\n"


def test_quotient_route_prints_the_identities_route_da_witness(capsys):
    for regex in ("(ab)*", "(aa)*", "(abc)*"):
        _, by_quotient, _ = run(capsys, "analyze", "--regex", regex, "--method", "quotient")
        _, by_identities, _ = run(capsys, "analyze", "--regex", regex, "--method", "identities")
        witness = [line for line in by_quotient.splitlines() if line.startswith("witness: ")]
        assert witness == [line for line in by_identities.splitlines()
                           if line.startswith("witness: ")]
        assert witness[0].startswith("witness: (x1.x2)^w.x1.(x1.x2)^w = (x1.x2)^w fails at x1=")
