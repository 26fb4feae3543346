import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import (cyclic_two, dfas, direct_product, large_dfa, left_zero, level_three,
                      right_zero, trivial, two_element_zero)
from fo2level.automata import minimize, parse_regex, regex_to_min_dfa
from fo2level import identities
from fo2level.identities import (IdentitiesLevel, IdentityBudgetError, IdentityCheck,
                                 Omega, Prod, Var, build_G, build_I, check_straubing,
                                 da_identity, format_term,
                                 identities_level, in_Lm_by_identities,
                                 in_Rm_by_identities, mirror, phi_of,
                                 phi_word, satisfies_identity,
                                 straubing_terms, term_num_vars)
from fo2level.monoid import MonoidTooLargeError, reverse_monoid, transition_monoid
from fo2level.varieties import NOT_FO2, LevelResult
from reference import eval_term, reference_phi_search


def monoid_of(text):
    return transition_monoid(regex_to_min_dfa(parse_regex(text)))


def test_mirror():
    assert mirror((2, 1)) == (1, 2)
    assert mirror((2, 1, 2)) == (2, 1, 2)
    assert mirror((3,)) == (3,)


def test_word_recursion():
    assert build_G(2) == (2, 1)
    assert build_I(2) == (2, 1, 2)
    assert build_G(3) == (3, 1, 2)
    assert build_I(3) == (3, 1, 2, 3, 2, 1, 2)
    with pytest.raises(ValueError):
        build_G(1)
    for m in range(2, 8):
        assert len(build_G(m)) == m
        assert max(build_G(m)) == m
        if m > 2:
            assert len(build_I(m)) == len(build_G(m)) + 1 + len(build_I(m - 1))


def test_phi_structure():
    assert phi_of(1) == Omega(Prod((Omega(Var(1)), Omega(Var(2)), Omega(Var(1)))))
    assert phi_of(2) == Omega(Var(2))
    g2g2m = phi_word((2, 1, 1, 2))
    assert phi_of(3) == Omega(Prod((Omega(Var(3)), Omega(g2g2m), Omega(Var(3)))))


def test_format_term():
    assert format_term(phi_of(1)) == "((x1)^w.(x2)^w.(x1)^w)^w"
    assert format_term(Var(4)) == "x4"
    assert format_term(Prod((Var(1), Omega(Var(2))))) == "x1.(x2)^w"


def test_eval_term_basics():
    m = monoid_of("(ab)*")
    a, b = m.eval_word("a"), m.eval_word("b")
    assert eval_term(m, Var(1), {1: a}) == a
    assert eval_term(m, Omega(Var(1)), {1: m.eval_word("ab")}) == m.eval_word("ab")
    assert eval_term(m, Omega(Prod((Var(1), Var(2)))), {1: a, 2: b}) == m.eval_word("ab")
    with pytest.raises(ValueError):
        eval_term(m, Var(2), {1: a})


def test_omega_eval_is_idempotent():
    rng = random.Random(5)
    for mono in [monoid_of("(ab)*"), monoid_of("a*b*"), left_zero(), cyclic_two()]:
        for _ in range(50):
            t = Omega(Prod(tuple(Var(rng.randint(1, 2)) for _ in range(rng.randint(1, 3)))))
            assg = {1: rng.randrange(mono.size), 2: rng.randrange(mono.size)}
            v = eval_term(mono, t, assg)
            assert mono.mul(v, v) == v


def test_satisfies_identity():
    lhs, rhs = da_identity()
    ok = satisfies_identity(two_element_zero(), lhs, rhs)
    assert ok.holds and ok.witness is None

    m = monoid_of("(ab)*")
    res = satisfies_identity(m, lhs, rhs)
    assert not res.holds
    # the witness really falsifies the identity
    assert eval_term(m, lhs, res.witness) != eval_term(m, rhs, res.witness)
    assert res.witness == {1: m.eval_word("a"), 2: m.eval_word("b")}

    t = phi_word(build_G(2))
    same = satisfies_identity(m, t, t)
    assert same.holds


def test_satisfies_identity_matches_bruteforce():
    # scalar enumeration as an independent oracle for the vectorized check
    lhs, rhs = da_identity()
    for mono in [trivial(), two_element_zero(), left_zero(), right_zero(), cyclic_two()]:
        brute = all(eval_term(mono, lhs, {1: x, 2: y}) == eval_term(mono, rhs, {1: x, 2: y})
                    for x, y in itertools.product(range(mono.size), repeat=2))
        assert satisfies_identity(mono, lhs, rhs).holds == brute


def aperiodicity_identity():
    """x1^w x1 = x1^w, the identity of the aperiodic monoids."""
    return Prod((Omega(Var(1)), Var(1))), Omega(Var(1))


def test_aperiodicity_identity():
    lhs, rhs = aperiodicity_identity()
    assert satisfies_identity(two_element_zero(), lhs, rhs).holds
    # x1 is raw, so it ranges over the non-idempotent generator too
    assert satisfies_identity(cyclic_two(), lhs, rhs) == IdentityCheck(False, {1: 1})


def test_identity_budget():
    m = monoid_of("(ab)*")
    with pytest.raises(IdentityBudgetError, match="too large"):
        satisfies_identity(m, *da_identity(), max_assignments=10)


def test_phi_identity_budget_counts_idempotents():
    # |M| = 6 and |E| = 4: the search's first step takes |E| x |E| = 16
    # candidates, within a budget of 16 that refuses the |M|^2 = 36 of an
    # exhaustive check
    m = monoid_of("(ab)*")
    assert (m.size, len(m.idempotent_array)) == (6, 4)
    first = next(identities._phi_search(m, 10_000_000))
    assert next(identities._phi_search(m, 16)) == first
    with pytest.raises(IdentityBudgetError, match="4 failing tuples x 4 idempotents at depth 2 "):
        next(identities._phi_search(m, 15))
    with pytest.raises(IdentityBudgetError, match="too large: 6\\^2"):
        satisfies_identity(m, *da_identity(), max_assignments=16)


def reference_check(m, lhs, rhs):
    """All |M|^v tuples at once in lexicographic order, evaluated node by node."""
    v = max(term_num_vars(lhs), term_num_vars(rhs))
    grid = np.indices((m.size,) * v).reshape(v, -1)

    def ev(t):
        if isinstance(t, Var):
            return grid[t.index - 1]
        if isinstance(t, Omega):
            return m.omega_table[ev(t.inner)]
        out = ev(t.parts[0])
        for p in t.parts[1:]:
            out = m.table[out, ev(p)]
        return out

    bad = np.nonzero(ev(lhs) != ev(rhs))[0]
    if len(bad) == 0:
        return IdentityCheck(True, None)
    return IdentityCheck(False, {k + 1: int(grid[k, bad[0]]) for k in range(v)})


@settings(max_examples=150)
@given(dfas(), st.booleans())
def test_identity_domains_match_full_enumeration(dfa, minimal):
    try:
        m = transition_monoid(minimize(dfa) if minimal else dfa, max_size=20)
    except MonoidTooLargeError:
        reject()
    n = m.size
    # every identity ranges over all of M, phi words ...
    for level in (2, 3):
        for lhs, rhs in ((phi_word(build_G(level)), phi_word(build_I(level))),
                         (phi_word(mirror(build_G(level))), phi_word(mirror(build_I(level))))):
            assert satisfies_identity(m, lhs, rhs) == reference_check(m, lhs, rhs)
            with pytest.raises(IdentityBudgetError, match=f": {n}\\^{level} "):
                satisfies_identity(m, lhs, rhs, max_assignments=0)
    # ... and terms with raw variables
    for lhs, rhs in (aperiodicity_identity(), straubing_terms(1)):
        assert satisfies_identity(m, lhs, rhs) == reference_check(m, lhs, rhs)
        with pytest.raises(IdentityBudgetError, match=f": {n}\\^"):
            satisfies_identity(m, lhs, rhs, max_assignments=0)



def recorded_steps(monkeypatch):
    """Patch _grid_eval to record the (base, count) of every step it is
    asked for, refusing empty steps (a scan of those would never end)."""
    steps = []
    grid_eval = identities._grid_eval

    def recording(m, t, dom, base, count, nvars, memo):
        assert count > 0, "empty step"
        if not steps or steps[-1] != (base, count):
            steps.append((base, count))
        return grid_eval(m, t, dom, base, count, nvars, memo)

    monkeypatch.setattr(identities, "_grid_eval", recording)
    return steps


def test_witness_does_not_depend_on_chunk_size(monkeypatch):
    # small chunks put step boundaries inside every scan of these checks,
    # and a chunk of 7 makes the first step a single assignment
    steps = recorded_steps(monkeypatch)
    for chunk in (7, 64):
        monkeypatch.setattr(identities, "_CHUNK", chunk)
        steps.clear()
        for m in (cyclic_two(), left_zero(), monoid_of("(ab)*"), monoid_of("a(ba)*b+b*")):
            for lhs, rhs in (da_identity(), straubing_terms(1),
                             (phi_word(build_G(3)), phi_word(build_I(3)))):
                assert satisfies_identity(m, lhs, rhs) == reference_check(m, lhs, rhs)
        assert max(count for _base, count in steps) == chunk


def test_steps_grow_fourfold_up_to_the_chunk(monkeypatch):
    # associativity holds, so the scan reads all 312^2 assignments
    m = transition_monoid(large_dfa())
    x1, x2 = Var(1), Var(2)
    steps = recorded_steps(monkeypatch)
    assert satisfies_identity(m, Prod((Prod((x1, x2)), x1)), Prod((x1, Prod((x2, x1))))).holds
    counts = [count for _base, count in steps]
    assert counts == [1024, 4096] + [16384] * 5 + [312 ** 2 - 1024 - 4096 - 5 * 16384]
    assert [base for base, _count in steps] == [sum(counts[:i]) for i in range(len(counts))]
    # a space of at most _CHUNK / 16 assignments is one step
    steps.clear()
    assert not satisfies_identity(monoid_of("(ab)*"), *da_identity()).holds
    assert steps == [(0, 36)]


def test_da_witness_of_a_group_is_found_in_the_first_step(monkeypatch):
    m = transition_monoid(large_dfa())
    assert m.size == 312 and not m.is_aperiodic()
    expected = reference_check(m, *da_identity())
    steps = recorded_steps(monkeypatch)
    assert satisfies_identity(m, *da_identity()) == expected
    assert not expected.holds
    assert steps == [(0, 1024)]


def test_identity_check_memory_is_bounded_by_the_chunk():
    # Z_21 satisfies u_2 = v_2 (every omega power is 1), so the check scans
    # all 21^4 = 194481 assignments, about twelve chunks
    m = monoid_of("(" + "a" * 21 + ")*")
    assert m.size == 21
    lhs, rhs = straubing_terms(2)
    tracemalloc.start()
    try:
        assert satisfies_identity(m, lhs, rhs).holds
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one chunk-long array per subterm plus the int64 index: nowhere near
    # the 194481 * 4 bytes of a single array over the whole space
    assert peak < 40 * identities._CHUNK * 4

def test_membership_by_identities_examples():
    lz = left_zero()
    assert in_Rm_by_identities(lz, 2)
    assert not in_Lm_by_identities(lz, 2)
    assert in_Lm_by_identities(lz, 3)
    assert in_Rm_by_identities(two_element_zero(), 2)
    with pytest.raises(ValueError):
        in_Rm_by_identities(lz, 1)


def test_membership_mirror_duality():
    for mono in [left_zero(), right_zero(), two_element_zero(), monoid_of("a*b*")]:
        rev = reverse_monoid(mono)
        for m in (2, 3):
            assert in_Lm_by_identities(mono, m) == in_Rm_by_identities(rev, m)


def test_straubing_terms():
    u1, v1 = straubing_terms(1)
    assert u1 == Omega(Prod((Var(1), Var(2))))
    assert v1 == Omega(Prod((Var(2), Var(1))))
    u2, v2 = straubing_terms(2)
    assert term_num_vars(u2) == 4 and term_num_vars(v2) == 4
    assert format_term(u2).startswith("(x1.x2.x3)^w")


def test_check_straubing():
    for m in (1, 2):
        assert check_straubing(trivial(), m)
    assert not check_straubing(cyclic_two(), 1)  # not aperiodic
    # at level 1 the conjectured identities characterize J-triviality
    for mono in [two_element_zero(), left_zero(), right_zero(), monoid_of("(ab)*")]:
        assert check_straubing(mono, 1) == mono.is_j_trivial()


def test_check_straubing_matches_the_identity_definition(monkeypatch, distinct_monoids,
                                                         da_chain_members):
    # check_straubing reads aperiodicity off the omega table where it once
    # checked x^w x = x^w exhaustively before u_k = v_k.  satisfies_identity
    # is pure, so its answers are kept: check_straubing's u_k = v_k is then
    # answered by the definition's own call, and only the aperiodicity test
    # differs between the two
    answers = {}
    check = identities.satisfies_identity

    def kept(m, lhs, rhs):
        key = (id(m), id(lhs), id(rhs))
        if key not in answers:
            answers[key] = check(m, lhs, rhs)
        return answers[key]

    monkeypatch.setattr(identities, "satisfies_identity", kept)
    aperiodicity = aperiodicity_identity()
    monoids = distinct_monoids + da_chain_members
    outcomes = set()
    for m in monoids:
        for k in (1, 2):
            old = kept(m, *aperiodicity).holds and kept(m, *straubing_terms(k)).holds
            assert check_straubing(m, k) == old, (k, m.table.tolist())
            outcomes.add((m.is_aperiodic(), old))
    # not aperiodic, aperiodic and failing u_k = v_k, and holding, all occur
    assert outcomes == {(False, False), (True, False), (True, True)}


# -- the forward search behind the phi-word identities ----------------------

# level_three() (|M| = |E| = 6): carrying every tuple, its search reaches 14,
# 16 and 14 tuples at depths 2, 3 and 4; 8, 2 and 0 of them fail


def phi_identity(level, side):
    g, i = build_G(level), build_I(level)
    if side == "L":
        g, i = mirror(g), mirror(i)
    return phi_word(g), phi_word(i)


def exhaustive_level(m, max_m):
    """The identities route as one exhaustive scan per identity."""
    da = satisfies_identity(m, *da_identity())
    if not da.holds:
        lhs, rhs = da_identity()
        return IdentitiesLevel(NOT_FO2, f"{format_term(lhs)} = {format_term(rhs)}", da.witness)
    identity = witness = None
    for d in range(1, max_m + 1):
        failed = None
        for side in ("R", "L"):
            lhs, rhs = phi_identity(d + 1, side)
            chk = satisfies_identity(m, lhs, rhs)
            if not chk.holds:
                failed = (f"{format_term(lhs)} = {format_term(rhs)}", chk.witness)
                break
        if failed is None:
            return IdentitiesLevel(LevelResult("level", d), identity, witness)
        identity, witness = failed
    return IdentitiesLevel(LevelResult("exceeded", max_m), identity, witness)


@settings(max_examples=150)
@given(dfas(), st.booleans(), st.booleans())
def test_forward_search_matches_exhaustive_scan(dfa, minimal, reverse):
    try:
        m = transition_monoid(minimize(dfa) if minimal else dfa, max_size=20)
    except MonoidTooLargeError:
        reject()
    if reverse:
        m = reverse_monoid(m)
    assert identities_level(m, max_m=3) == exhaustive_level(m, 3)
    da = satisfies_identity(m, *da_identity()).holds
    for level in (2, 3, 4):
        assert in_Rm_by_identities(m, level) == (
            da and satisfies_identity(m, *phi_identity(level, "R")).holds)
        assert in_Lm_by_identities(m, level) == (
            da and satisfies_identity(m, *phi_identity(level, "L")).holds)


def test_forward_search_witness_does_not_depend_on_chunk_size(monkeypatch):
    both_fail = direct_product(left_zero(), right_zero())
    monoids = (level_three(), reverse_monoid(level_three()), left_zero(), right_zero(),
               both_fail, monoid_of("a(a|b)*"), monoid_of("a*b*"), monoid_of("(a|b)*ab(a|b)*"))
    expected = [exhaustive_level(m, 4) for m in monoids]
    assert expected[0].result == LevelResult("level", 3) and expected[0].witness
    # R and L both fail at depth 2, so the witness shows which is checked first
    assert not in_Rm_by_identities(both_fail, 2) and not in_Lm_by_identities(both_fail, 2)
    # a chunk of 7 splits every step into several slices, so tuples first
    # seen in one slice come back in later ones
    monkeypatch.setattr(identities, "_CHUNK", 7)
    for m, exp in zip(monoids, expected):
        assert identities_level(m, max_m=4) == exp


def test_forward_search_budget_counts_failing_tuples():
    m = level_three()
    assert len(m.idempotent_array) == 6
    # DA needs 6^2 = 36, the search 6 x 6, then 8 failing tuples x 6 = 48 < 6^3
    answer = identities_level(m)
    assert answer.result == LevelResult("level", 3)
    assert identities_level(m, max_assignments=48) == answer
    assert in_Rm_by_identities(m, 4, max_assignments=48)
    with pytest.raises(IdentityBudgetError, match="8 failing tuples x 6 idempotents at depth 3"):
        identities_level(m, max_assignments=47)
    with pytest.raises(IdentityBudgetError, match="8 failing tuples"):
        in_Lm_by_identities(m, 4, max_assignments=47)
    # depths below the one that needs the budget are still answered
    assert not in_Rm_by_identities(m, 2, max_assignments=47)


def test_search_keeps_only_failing_tuples(monkeypatch):
    # from the failing tuples alone, level_three() reaches 14, 15 and 3
    # tuples at depths 2, 3 and 4, of which 8, 2 and 0 fail
    m = level_three()
    steps = []          # one entry per slice the search computes
    unique = np.unique

    def counted(*args, **kwargs):
        steps.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(identities.np, "unique", counted)
    search = identities._phi_search(m, 10_000_000)
    assert next(search) == (2, {1: 1, 2: 3}, {1: 1, 2: 2})
    del steps[:]
    assert next(search) == (3, {1: 1, 2: 2, 3: 3}, None)
    assert next(search) == (4, None, None)
    assert len(steps) == 2
    # no failing tuple is left: every later depth holds and costs nothing
    assert [next(search) for _ in range(20)] == [(k, None, None) for k in range(5, 25)]
    assert len(steps) == 2
    # the budget names the failing tuples a step starts from, before the step
    search = identities._phi_search(m, 47)
    next(search)
    del steps[:]
    with pytest.raises(IdentityBudgetError, match="8 failing tuples x 6 idempotents at depth 3 "):
        next(search)
    assert steps == []
    # the mirror monoid fails on the other side, from as many tuples
    search = identities._phi_search(reverse_monoid(m), 47)
    assert next(search) == (2, {1: 1, 2: 2}, {1: 1, 2: 3})
    with pytest.raises(IdentityBudgetError, match="8 failing tuples"):
        next(search)


def test_search_matches_the_unpruned_reference(distinct_monoids, da_chain_members):
    # pruning relies on DA, where the search runs; checked on both orders
    monoids = [m for m in distinct_monoids if m.is_in_da()] + da_chain_members
    assert len(monoids) > 100
    for m in monoids + [reverse_monoid(m) for m in monoids]:
        got = list(itertools.islice(identities._phi_search(m, 10_000_000), 5))
        assert got == list(itertools.islice(reference_phi_search(m), 5)), m.table.tolist()
