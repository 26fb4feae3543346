import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import (associative, cyclic_two, dfas, large_dfa, left_zero, preorders, right_zero,
                      trivial, two_element_zero)
from fo2level import monoid as monoid_module
from fo2level.automata import all_words, minimize, parse_regex, regex_to_min_dfa
from fo2level.identities import da_identity, satisfies_identity
from fo2level.monoid import (FiniteMonoid, MonoidFormatError,
                             MonoidTooLargeError, parse_monoid_file,
                             reverse_monoid, transition_monoid)
from fo2level.varieties import quotient_chain
from reference import labels_of_firsts, omega_power


def monoid_of(text: str) -> FiniteMonoid:
    return transition_monoid(regex_to_min_dfa(parse_regex(text)))


def test_transition_monoid_sizes():
    assert monoid_of("(a|b)*").size == 1
    assert monoid_of("(ab)*").size == 6
    assert monoid_of("(a|b)*a(a|b)*").size == 2
    assert monoid_of("~").size == 1                 # no letters at all


def test_eval_word():
    m = monoid_of("(ab)*")
    assert m.eval_word("") == m.identity
    ab = m.eval_word("ab")
    assert m.mul(ab, ab) == ab
    zero = m.eval_word("aa")
    assert m.eval_word("bb") == zero
    assert all(m.mul(zero, x) == zero and m.mul(x, zero) == zero for x in range(m.size))
    with pytest.raises(ValueError):
        m.eval_word("ax")


def test_idempotents():
    assert tuple(trivial().idempotent_array.tolist()) == (0,)
    assert tuple(two_element_zero().idempotent_array.tolist()) == (0, 1)
    m = monoid_of("(ab)*")
    expected = {m.identity, m.eval_word("ab"), m.eval_word("ba"), m.eval_word("aa")}
    assert set(m.idempotent_array.tolist()) == expected


def test_omega_power():
    m = monoid_of("(ab)*")
    for x in range(m.size):
        w = omega_power(m, x)
        assert m.mul(w, w) == w and m.omega_table[x] == w
        # w is a power of x
        powers = set()
        y = x
        while y not in powers:
            powers.add(y)
            y = m.mul(y, x)
        assert w in powers
    assert omega_power(m, m.eval_word("a")) == m.eval_word("aa")
    assert omega_power(m, m.identity) == m.identity


def test_greens_examples():
    g = two_element_zero().greens()
    p = preorders(two_element_zero())
    assert g.num_j == 2 and p.jleq[1, 0] and not p.jleq[0, 1]

    lz = left_zero()
    g = lz.greens()
    assert g.j_class[1] == g.j_class[2]            # a J b
    assert g.num_r == 3                            # R-classes all singletons
    assert g.l_class[1] == g.l_class[2]            # one L-class {a, b}

    m = monoid_of("(ab)*")
    g = m.greens()
    assert g.num_j == 3
    sizes = sorted(np.bincount(g.j_class).tolist())
    assert sizes == [1, 1, 4]


def test_greens_preorder_refinement():
    for m in [left_zero(), right_zero(), monoid_of("(ab)*"), monoid_of("a*b*")]:
        p = preorders(m)
        assert not (p.rleq & ~p.jleq).any()
        assert not (p.lleq & ~p.jleq).any()


def test_trivialities():
    assert all([two_element_zero().is_j_trivial(),
                two_element_zero().is_r_trivial(),
                two_element_zero().is_l_trivial()])
    lz = left_zero()
    assert lz.is_r_trivial() and not lz.is_l_trivial() and not lz.is_j_trivial()
    m = monoid_of("(ab)*")
    assert not m.is_j_trivial() and not m.is_r_trivial() and not m.is_l_trivial()


def test_j_trivial_iff_r_and_l(mixed_entries):
    for e in mixed_entries:
        m = e.monoid
        assert m.is_j_trivial() == (m.is_r_trivial() and m.is_l_trivial())


def test_aperiodic():
    assert two_element_zero().is_aperiodic()
    assert not cyclic_two().is_aperiodic()
    assert monoid_of("(ab)*").is_aperiodic()


def test_da_membership():
    assert two_element_zero().is_in_da()
    assert left_zero().is_in_da()
    m = monoid_of("(ab)*")
    assert not m.is_in_da()
    check = satisfies_identity(m, *da_identity())
    assert not check.holds
    assert set(check.witness.values()) == {m.eval_word("a"), m.eval_word("b")}


def test_is_in_da_is_computed_once(monkeypatch):
    m = monoid_of("(ab)*")
    assert not m.is_in_da()
    monkeypatch.setattr(m, "_table", None)  # any table work now raises
    assert not m.is_in_da()


def test_non_aperiodic_monoid_skips_the_da_gathers():
    # Z_1000: one |M|^2 int32 gather alone would take 4 MB
    n = 1000
    z = FiniteMonoid((np.arange(n)[:, None] + np.arange(n)) % n, 0, validate=False)
    assert not z.is_aperiodic()
    tracemalloc.start()
    try:
        assert not z.is_in_da()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n


def test_identities_scan_memory_is_below_the_table():
    # x*y = min(x + y, n - 1) is J-trivial, so the scan reads every row slice
    n = 2000
    ar = np.arange(n)
    m = FiniteMonoid(np.minimum(ar[:, None] + ar, n - 1), 0, gens={"a": 1}, validate=False)
    tracemalloc.start()
    try:
        flags = m.is_in_da(), m.is_j_trivial(), m.is_r_trivial(), m.is_l_trivial()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flags == (True, True, True, True)
    assert peak < m.table.nbytes, (peak, m.table.nbytes)


def test_hierarchy_inclusions(mixed_entries):
    for e in mixed_entries:
        m = e.monoid
        if m.is_in_da():
            assert m.is_aperiodic()


def test_recognition():
    # the syntactic monoid recognizes the language: acceptance is a function
    # of the transformation image
    for text in ["(ab)*", "a(a|b)*", "(a|b)*a(a|b)*", "a*b*"]:
        d = minimize(regex_to_min_dfa(parse_regex(text)))
        m = transition_monoid(d)
        images = {}
        for w in all_words(d.alphabet, 8):
            x = m.eval_word(w)
            acc = d.accepts(w)
            assert images.setdefault(x, acc) == acc, (text, w)


def test_reverse_monoid():
    lz = left_zero()
    rz = reverse_monoid(lz)
    assert rz.is_l_trivial() and not rz.is_r_trivial()
    assert np.array_equal(rz.table, right_zero().table)


LEFT_ZERO_FILE = """\
# left-zero adjoined identity
size: 3
identity: 0
gen a 1
gen b 2
table
0 1 2
1 1 1
2 2 2
"""


def test_parse_monoid_file():
    m = parse_monoid_file(LEFT_ZERO_FILE)
    assert m.size == 3 and m.identity == 0
    assert m.gens == {"a": 1, "b": 2}
    assert m.is_r_trivial() and not m.is_l_trivial()
    one = parse_monoid_file("size: 1\nidentity: 0\ntable\n0\n")
    assert one.size == 1


TWO = "size: 2\nidentity: 0\ngen a 1\ntable\n"


@pytest.mark.parametrize("text,msg", [
    ("size: 2\nidentity: 0\ntable\n0 1\n1\n", "entries"),
    ("size: 2\nidentity: 1\ntable\n0 1\n1 0\n", "identity law"),
    ("size: 2\nidentity: 5\ntable\n0 1\n1 0\n", "identity out of range"),
    ("size: 3\nidentity: 0\ntable\n0 1 2\n1 2 1\n2 1 1\n", "associative"),
    ("identity: 0\ntable\n0\n", "size"),
    ("size: 2\nidentity: 0\ngen a 1\ntable\n0 1\n1 0\n", None),  # ok: generates
    ("size: 3\nidentity: 0\ngen a 1\ntable\n0 1 2\n1 1 1\n2 2 2\n", "generate"),
    # a generates: Light's test finds the failure
    ("size: 3\nidentity: 0\ngen a 1\ntable\n0 1 2\n1 2 1\n2 1 1\n", "associative"),
    # a does not generate, or is out of range: the exhaustive check reports first
    ("size: 3\nidentity: 0\ngen a 1\ntable\n0 1 2\n1 0 0\n2 0 0\n", "associative"),
    ("size: 3\nidentity: 0\ngen a 7\ntable\n0 1 2\n1 2 1\n2 1 1\n", "associative"),
    ("size: 3\nidentity: 0\ngen a 7\ntable\n0 1 2\n1 1 1\n2 2 2\n", "out of range"),
    # entries outside int32 (and outside C long) are out of range, not an overflow
    ("size: 2\nidentity: 0\ntable\n0 1\n1 99999999999\n", "table entry out of range"),
    ("size: 2\nidentity: 0\ntable\n0 1\n1 -99999999999999999999\n",
     "table entry out of range"),
    # a generator symbol given twice, with another element or the same one
    ("size: 2\nidentity: 0\ngen a 1\ngen a 0\ntable\n0 1\n1 0\n", "duplicate generator 'a'"),
    ("size: 2\nidentity: 0\ngen a 1\ngen a 1\ntable\n0 1\n1 0\n", "duplicate generator 'a'"),
    # table entries: signs, tabs and runs of spaces are read
    (TWO + "+0 +1\n1 0\n", None),
    (TWO + "0\t1\n1 \t 0\n", None),
    (TWO + "0    1\n01  -0\n", None),
    (TWO + "0 1\n1 0x\n", "malformed table row: '1 0x'"),
    (TWO + "0 1\n1 1.5\n", "malformed table row: '1 1.5'"),
    (TWO + "0 1\n1 2147483648\n", "table entry out of range"),
    (TWO + "0 1\n1 9223372036854775808\n", "table entry out of range"),
    (TWO + "0 1\n1 -9223372036854775809\n", "table entry out of range"),
    (TWO + "0 1\n1 -1\n", "table entry out of range"),
    # int32 would wrap these to 0 and 1
    (TWO + "0 1\n1 -4294967296\n", "table entry out of range"),
    (TWO + "0 1\n1 4294967297\n", "table entry out of range"),
    # a sign alone is no entry, though numpy reads "-" as 0 and "- 1" as -1
    (TWO + "0 1\n1 -\n", "malformed table row: '1 -'"),
    (TWO + "0 +\n1 0\n", "malformed table row: '0 \\+'"),
    (TWO + "- 1\n1 0\n", "malformed table row: '- 1'"),
    # tokens int() read, refused by the table reader: non-ASCII digits,
    # underscores between digits, and non-ASCII spaces
    (TWO + "0 1\n1 \u0660\n", "malformed table row"),
    (TWO + "0 1\n1 0_0\n", "malformed table row: '1 0_0'"),
    (TWO + "0 1\n1\u00a00\n", "malformed table row"),
    # the first faulty row decides, and a wrong count before a bad token
    (TWO + "0 x\n1\n", "malformed table row: '0 x'"),
    (TWO + "0 -1\n1\n", "table row has 1 entries, expected 2"),
    (TWO + "0 1 x\n1 0\n", "table row has 3 entries, expected 2"),
])
def test_parse_monoid_file_errors(text, msg):
    if msg is None:
        parse_monoid_file(text)
    else:
        with pytest.raises(MonoidFormatError, match=msg):
            parse_monoid_file(text)


def _int_reader_outcome(rows, n):
    """What a reader that splits each row and calls int() on every token
    makes of the rows: the table's list form or the refusal message."""
    table = []
    for row in rows:
        toks = row.split()
        if len(toks) != n:
            return f"table row has {len(toks)} entries, expected {n}"
        try:
            table.append([int(t) for t in toks])
        except ValueError:
            return f"malformed table row: {row!r}"
    try:
        return FiniteMonoid(table, 0).table.tolist()
    except MonoidFormatError as exc:
        return str(exc)


def test_table_reader_matches_int_on_random_rows():
    # ASCII tokens with and without faults, in rows of 1 to 3 entries
    rng = random.Random(5)
    tokens = ["0", "1", "+1", "-0", "01", "2", "-1", "x", "1.0", "-", "+", "0x1", "1-",
              "9223372036854775808", "-99999999999999999999"]
    for _ in range(3000):
        rows = ["0 1"] + ["".join(rng.choice(tokens) + rng.choice([" ", "\t", "  "])
                                  for _ in range(rng.randint(1, 3))).strip()
                          for _ in range(rng.randint(1, 2))]
        text = "size: 2\nidentity: 0\ntable\n" + "\n".join(rows) + "\n"
        want = _int_reader_outcome(rows, 2) if len(rows) == 2 else "expected 2 table rows, found 3"
        try:
            got = parse_monoid_file(text).table.tolist()
        except MonoidFormatError as exc:
            got = str(exc)
        assert got == want, rows


def _cyclic_rows(n):
    """The table rows of Z_n as text, each a rotation of the first."""
    first = " ".join(map(str, range(n)))
    twice = first + " " + first
    starts = [0] + [j + 1 for j, ch in enumerate(first) if ch == " "]
    return [twice[i:i + len(first)] for i in starts]


def test_monoid_file_table_is_read_in_slices(monkeypatch):
    # 1 500 elements, a 9.6 MB file: the lines are taken from the text a
    # block at a time and the rows read in slices of 84 into the 8.6 MiB
    # int32 table, so the peak is the table and about 2.2 MiB, far below
    # the text
    n = 1500
    text = f"size: {n}\nidentity: 0\ntable\n" + "\n".join(_cyclic_rows(n)) + "\n"
    monkeypatch.setattr(monoid_module, "FiniteMonoid", lambda table, *_args, **_kwargs: table)
    tracemalloc.start()
    try:
        table = parse_monoid_file(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * n + len(text) // 2
    assert table.dtype == np.int32
    assert np.array_equal(table, (np.arange(n)[:, None] + np.arange(n)) % n)


def test_an_entry_count_fault_outranks_an_earlier_range_fault_across_slices():
    # 1 100 elements are read in ten slices of 110 rows: the out-of-range
    # entry stops the first slice, and the short row of the ninth is the
    # fault reported, as when the rows are checked one by one
    n = 1100
    rows = _cyclic_rows(n)
    rows[3] = rows[3].replace(" 7 ", f" {n} ", 1)
    rows[900] = rows[900].rsplit(" ", 1)[0]
    text = f"size: {n}\nidentity: 0\ntable\n" + "\n".join(rows) + "\n"
    with pytest.raises(MonoidFormatError, match=f"table row has {n - 1} entries, expected {n}"):
        parse_monoid_file(text)
    rows[900] = _cyclic_rows(n)[900]
    text = f"size: {n}\nidentity: 0\ntable\n" + "\n".join(rows) + "\n"
    with pytest.raises(MonoidFormatError, match="table entry out of range"):
        parse_monoid_file(text)


def test_monoid_file_table_checked_against_memory_before_reading(monkeypatch):
    # 2 elements: the int64 read with its end column takes 48 bytes, the
    # int32 table 16
    text = TWO + "0 1\n1 0\n"
    monkeypatch.setattr(monoid_module, "_physical_memory", lambda: 63)
    monkeypatch.setattr(monoid_module, "_read_table", None)     # never reached
    with pytest.raises(MonoidTooLargeError, match="monoid file has 2 elements; reading its "
                                                  "2x2 table needs 0.0 GiB but 0.0 GiB"):
        parse_monoid_file(text)
    monkeypatch.undo()
    monkeypatch.setattr(monoid_module, "_physical_memory", lambda: 64)
    assert parse_monoid_file(text).size == 2


def test_monoid_size_cap():
    d = regex_to_min_dfa(parse_regex("(ab)*"))
    with pytest.raises(MonoidTooLargeError):
        transition_monoid(d, max_size=3)


def test_syntactic_monoid_minimizes_first():
    d = regex_to_min_dfa(parse_regex("(ab)*"))
    bigger = type(d)(d.alphabet, d.delta + ((0, 0),), d.initial, d.finals)
    assert transition_monoid(minimize(bigger)).size == 6


def test_element_names_are_shortest_words():
    m = monoid_of("(ab)*")
    assert m.words[m.identity] == ""
    assert m.element_name(m.eval_word("ab")) == "ab"
    assert m.element_name(m.identity) == "eps"


def test_closure_checked_against_memory_before_each_level(monkeypatch):
    # (ab)*: 3 one-byte states; the first level's 2 candidates need twice
    # their 6 bytes and the keys of up to 3 elements, 21 bytes; the memory
    # is read once per closure
    d = regex_to_min_dfa(parse_regex("(ab)*"))
    reads = []
    monkeypatch.setattr(monoid_module, "_physical_memory", lambda: reads.append(20) or 20)
    with pytest.raises(MonoidTooLargeError, match="closure at 1 elements: 2 candidates of 3 states need"):
        transition_monoid(d)
    reads.clear()
    monkeypatch.setattr(monoid_module, "_physical_memory", lambda: reads.append(144) or 144)
    assert transition_monoid(d).size == 6
    assert reads == [144]
    # a closure refused at a deeper level: (a|b)*a(a|b)(a|b) has 8 states
    d = regex_to_min_dfa(parse_regex("(a|b)*a(a|b)(a|b)"))
    monkeypatch.setattr(monoid_module, "_physical_memory", lambda: 200)
    with pytest.raises(MonoidTooLargeError, match="closure at [1-9][0-9]* elements"):
        transition_monoid(d)


def test_table_checked_against_memory_before_allocation(monkeypatch):
    # 2**24 elements need a 1 PiB table; the check refuses it without allocating
    with pytest.raises(MonoidTooLargeError, match="GiB"):
        monoid_module._check_fits(4 * 2**48, "a 2**24 x 2**24 table needs", MonoidTooLargeError)
    d = regex_to_min_dfa(parse_regex("(ab)*"))       # 6 elements: 144 bytes
    monkeypatch.setattr(monoid_module, "_physical_memory", lambda: 143)
    with pytest.raises(MonoidTooLargeError):
        transition_monoid(d)
    monkeypatch.setattr(monoid_module, "_physical_memory", lambda: 144)
    assert transition_monoid(d).size == 6


# -- the Cayley-graph monoid layer against direct references -----------------

def reference_transition_monoid(dfa):
    """Breadth-first closure with every product composed as a transformation."""
    letter_maps = [tuple(row[ai] for row in dfa.delta) for ai in range(len(dfa.alphabet))]
    ident = tuple(range(dfa.n_states))
    index, elems, words = {ident: 0}, [ident], [""]
    qi = 0
    while qi < len(elems):
        for lm, a in zip(letter_maps, dfa.alphabet):
            u = tuple(lm[x] for x in elems[qi])
            if u not in index:
                index[u] = len(elems)
                elems.append(u)
                words.append(words[qi] + a)
        qi += 1
    table = [[index[tuple(ej[x] for x in ei)] for ej in elems] for ei in elems]
    gens = {a: index[lm] for lm, a in zip(letter_maps, dfa.alphabet)}
    return np.array(table, dtype=np.int32), words, gens


def labels_of(eq):
    """Class labels of an equivalence matrix, numbered by smallest element."""
    labels = np.full(eq.shape[0], -1, dtype=np.int32)
    nxt = 0
    for i in range(eq.shape[0]):
        if labels[i] < 0:
            labels[eq[i]] = nxt
            nxt += 1
    return labels


# the references cost O(|M|^2 * states) and O(|M|^3); larger draws are rejected
PROPERTY_CAP = 300


def capped_monoid(dfa):
    try:
        return transition_monoid(dfa, max_size=PROPERTY_CAP)
    except MonoidTooLargeError:
        reject()


@settings(max_examples=150)
@given(dfas(), st.booleans())
def test_transition_monoid_matches_direct_composition(dfa, minimal):
    if minimal:
        dfa = minimize(dfa)
    m = capped_monoid(dfa)
    table, words, gens = reference_transition_monoid(dfa)
    assert np.array_equal(m.table, table)
    assert list(m.words) == words
    assert m.gens == gens


@settings(max_examples=150)
@given(dfas(), st.booleans())
def test_greens_classes_match_preorders(dfa, with_gens):
    m = capped_monoid(dfa)
    if not with_gens:
        m = FiniteMonoid(m.table, m.identity, validate=False)
    g, p = m.greens(), preorders(m)
    assert np.array_equal(g.j_class, labels_of(p.jleq & p.jleq.T))
    assert np.array_equal(g.r_class, labels_of(p.rleq & p.rleq.T))
    assert np.array_equal(g.l_class, labels_of(p.lleq & p.lleq.T))


def union_graph_j_classes(m):
    """J-classes as the strongly connected components of the two-sided
    Cayley graph x -> x*g, x -> g*x, by boolean reachability closure."""
    T = m.table
    gens = list(m.gens.values()) if m.gens is not None else range(m.size)
    n = m.size
    reach = np.eye(n, dtype=bool)
    for g in gens:
        reach[np.arange(n), T[:, g]] = True
        reach[np.arange(n), T[g, :]] = True
    while True:
        step = (reach.astype(np.float32) @ reach.astype(np.float32)) > 0
        if np.array_equal(step, reach):
            return labels_of(reach & reach.T)
        reach = step


@settings(max_examples=150)
@given(dfas(), st.booleans())
def test_j_classes_match_two_sided_cayley_components(dfa, with_gens):
    m = capped_monoid(dfa)
    if not with_gens:
        m = FiniteMonoid(m.table, m.identity, validate=False)
    assert np.array_equal(m.greens().j_class, union_graph_j_classes(m))


def test_large_monoid_matches_direct_composition():
    # 312 elements over many breadth-first levels: every level boundary of
    # the closure and of the row fill is crossed
    dfa = large_dfa()
    m = transition_monoid(dfa)
    table, words, gens = reference_transition_monoid(dfa)
    assert m.size == 312 and len(set(map(len, words))) > 5
    assert np.array_equal(m.table, table)
    assert list(m.words) == words
    assert m.gens == gens
    g = m.greens()
    assert np.array_equal(g.j_class, union_graph_j_classes(m))
    assert not m.is_aperiodic()


def test_row_fill_slices_match_one_gather(monkeypatch):
    # a level in slices of one or a few rows gives the same table
    dfa = large_dfa()
    whole = transition_monoid(dfa).table
    for cells in (1, 312 * 7):
        monkeypatch.setattr(monoid_module, "_FILL_CELLS", cells)
        assert np.array_equal(transition_monoid(dfa).table, whole)


def test_monoid_size_cap_is_exact():
    regexes = ("(ab)*", "a*b*", "(a|b)*a(a|b)(a|b)")
    for d in [regex_to_min_dfa(parse_regex(r)) for r in regexes] + [large_dfa()]:
        n = transition_monoid(d).size
        assert transition_monoid(d, max_size=n).size == n
        with pytest.raises(MonoidTooLargeError, match=f"exceeds {n - 1} elements"):
            transition_monoid(d, max_size=n - 1)


def reference_omega(m):
    """x^omega by walking the powers of each x one product at a time."""
    T = m.table.tolist()
    out = []
    for x in range(m.size):
        y = x
        while T[y][y] != y:
            y = T[y][x]
        out.append(y)
    return out


@settings(max_examples=150)
@given(dfas(), st.booleans())
def test_omega_table_and_da_match_scalar_references(dfa, minimal):
    try:
        m = transition_monoid(minimize(dfa) if minimal else dfa, max_size=60)
    except MonoidTooLargeError:
        reject()
    om = reference_omega(m)
    assert m.omega_table.tolist() == om
    T = m.table.tolist()
    da = all(T[T[om[T[x][y]]][x]][om[T[x][y]]] == om[T[x][y]]
             for x in range(m.size) for y in range(m.size))
    assert m.is_in_da() == da
    assert m.is_aperiodic() == all(T[om[x]][x] == om[x] for x in range(m.size))


def test_reverse_monoid_passes_greens_classes_on(distinct_monoids, da_chain_members):
    # a monoid and its reverse are each other's reverse; whichever computes
    # its Green's classes first, each has its own, label for label
    def greens_arrays(g):
        return g.j_class, g.r_class, g.l_class

    for m in distinct_monoids + da_chain_members:
        own = greens_arrays(FiniteMonoid(m.table, m.identity, gens=m.gens, validate=False).greens())
        opposite = greens_arrays(
            FiniteMonoid(m.table.T.copy(), m.identity, gens=m.gens, validate=False).greens())
        for first in ("monoid", "reverse"):
            mono = FiniteMonoid(m.table, m.identity, gens=m.gens, validate=False)
            rev = reverse_monoid(mono)
            assert reverse_monoid(rev) is mono
            ahead, behind = (mono, rev) if first == "monoid" else (rev, mono)
            ahead.greens()
            behind.greens()
            for got, expect in ((mono.greens(), own), (rev.greens(), opposite)):
                assert all(np.array_equal(a, b) for a, b in zip(greens_arrays(got), expect)), first


# -- checks that only file inputs run -----------------------------------------

def test_built_monoids_pass_the_generation_walk(distinct_monoids, da_chain_members):
    # transition_monoid, quotient and reverse_monoid skip the walk because
    # their generators reach every element by construction; this checks it.
    # Outside DA a chain is the monoid alone, so the quotients come from the
    # DA chain members (among them every da_corpus table)
    def walked(m):
        return monoid_module._generated(m.table, m.identity, list(m.gens.values()))

    built = distinct_monoids + [transition_monoid(large_dfa())]
    built += [q for q in da_chain_members if q.gens is not None]
    checked = 0
    for m in built:
        for q in [reverse_monoid(m), *quotient_chain(m, "R"), *quotient_chain(m, "L")]:
            assert walked(q), q
            checked += 1
    assert checked > 4 * len(built)
    # a generator map that misses an element is still refused when validating
    assert not walked(FiniteMonoid(left_zero().table, 0, gens={"a": 1}, validate=False))
    with pytest.raises(MonoidFormatError, match="generate"):
        FiniteMonoid(left_zero().table, 0, gens={"a": 1})


def test_light_associativity_matches_exhaustive_check(mixed_entries, monkeypatch):
    # random tables obeying the identity law, and built tables with one entry
    # changed; Light's test over every element is the exhaustive check, and
    # over the generators it agrees whenever they reach every element, in
    # slices of one row, of a few rows and of the whole table
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(3000):
        n = int(rng.integers(1, 6))
        t = rng.integers(0, n, size=(n, n)).astype(np.int32)
        t[0] = t[:, 0] = np.arange(n)
        cases.append((t, [int(g) for g in rng.integers(0, n, size=rng.integers(1, 4))]))
    for e in mixed_entries:
        m = e.monoid
        for _ in range(10):
            t = m.table.copy()
            if m.size > 1:
                x, y = rng.integers(1, m.size, size=2)
                t[x, y] = rng.integers(0, m.size)
            cases.append((t, list(m.gens.values())))
    outcomes = {True: 0, False: 0}
    for t, gens in cases:
        exhaustive = associative(t)
        generated = monoid_module._generated(t, 0, gens)
        for cells in (1, 7, 1 << 20):
            monkeypatch.setattr(monoid_module, "_FILL_CELLS", cells)
            assert monoid_module._light_associative(t, range(len(t))) == exhaustive, t
            if generated:
                assert monoid_module._light_associative(t, gens) == exhaustive, (t, gens)
        outcomes[exhaustive] += generated
        gen_map = {f"g{i}": g for i, g in enumerate(gens)}
        if exhaustive:
            assert FiniteMonoid(t, 0, validate=True).size == len(t)
        else:
            with pytest.raises(MonoidFormatError, match="associative"):
                FiniteMonoid(t, 0, gens=gen_map, validate=True)
    assert min(outcomes.values()) >= 200, outcomes


def test_folded_labels_match_one_sort_of_the_whole_rows():
    rng = np.random.default_rng(5)
    for count, width in ((0, 3), (1, 4), (6, 0), (40, 1), (300, 19), (64, 34)):
        for distinct in (1, 3, 1000):
            for dt in (np.int32, np.uint8, np.int16):
                rows = rng.integers(0, distinct, size=(count, width)).astype(dt)
                got = monoid_module._fold_labels(rows)
                hashed = labels_of_firsts(monoid_module._first_equal_rows(rows))
                assert got.dtype == np.int32 and np.array_equal(got, hashed), (count, width, distinct, dt)


def test_hashed_labels_fall_back_to_the_dict_on_a_collision(monkeypatch):
    # with a zero hash base every row hashes alike, so wherever two rows
    # differ they are labelled through the dict of their bytes instead
    monkeypatch.setattr(monoid_module, "_HASH_BASE", np.uint64(0))
    rng = np.random.default_rng(6)
    for count, width in ((0, 3), (6, 0), (40, 1), (300, 19), (64, 34)):
        for distinct in (1, 3, 1000):
            rows = rng.integers(0, distinct, size=(count, width)).astype(np.int16)
            first: dict = {}
            want = [first.setdefault(row.tobytes(), len(first)) for row in rows]
            got = labels_of_firsts(monoid_module._first_equal_rows(rows))
            assert got.dtype == np.int32 and got.tolist() == want, (count, width, distinct)
