import random

from hypothesis import given, settings, strategies as st

from dedmin import oracle, preprocess
from dedmin.core import DeductionSystem, DirectedRule, SymmetricRule
from helpers import random_system


def names(*ns):
    return list(ns)


def test_expand_three_member_rule():
    s = DeductionSystem.from_names(names("x", "y", "z"),
                                   [SymmetricRule((0, 1, 2))])
    out = preprocess.expand_rules(s)
    assert out.symmetric_rules == ()
    assert set(out.directed_rules) == {
        DirectedRule((1, 2), 0), DirectedRule((0, 2), 1), DirectedRule((0, 1), 2)}


def test_expand_directed_only_is_identity(toy):
    assert preprocess.expand_rules(toy) == toy


def test_expand_deduplicates():
    s = DeductionSystem.from_names(
        names("x", "y"),
        [SymmetricRule((0, 1)), SymmetricRule((1, 0))],
        [DirectedRule((0,), 1)])
    out = preprocess.expand_rules(s)
    assert sorted(out.directed_rules, key=lambda r: r.sort_key()) == [
        DirectedRule((1,), 0), DirectedRule((0,), 1)]


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_expansion_preserves_closure(seed):
    rng = random.Random(seed)
    system = random_system(rng)
    expanded = preprocess.expand_rules(system)
    guess = set(rng.sample(range(system.n), rng.randint(0, system.n)))
    assert oracle.closure(system, guess).known \
        == oracle.closure(expanded, guess).known


def test_merge_chain_collapses_to_one_class():
    s = DeductionSystem.from_names(
        names("a", "b", "c"),
        [SymmetricRule((0, 1)), SymmetricRule((1, 2))])
    merged, mm = preprocess.merge_equalities(s)
    assert merged.n == 1
    assert merged.names() == ("a",)
    assert mm.resolve("b") == "a" and mm.resolve("c") == "a"
    assert set(mm.removed) == {"b", "c"}
    assert mm.rules_removed == 2


def test_merge_leaves_toy_alone(toy):
    merged, mm = preprocess.merge_equalities(toy)
    assert merged == toy
    assert mm.removed == ()


def test_merge_rewrites_bigger_rules():
    # [a, b, c] with b = c degenerates into deducing a from the pair
    s = DeductionSystem.from_names(
        names("a", "b", "c"),
        [SymmetricRule((0, 1, 2)), SymmetricRule((1, 2))])
    merged, mm = preprocess.merge_equalities(s)
    assert merged.n == 2
    assert merged.symmetric_rules == ()
    assert merged.directed_rules == (DirectedRule((1,), 0),)


def test_merge_keeps_duplicate_class_as_premise():
    # [a, b, c, d] with a = b: the readings concluding the merged class
    # still need the class itself, so only c and d gain rules
    s = DeductionSystem.from_names(
        names("a", "b", "c", "d"),
        [SymmetricRule((0, 1, 2, 3)), SymmetricRule((0, 1))])
    merged, mm = preprocess.merge_equalities(s)
    assert merged.names() == ("a", "c", "d")
    assert set(merged.directed_rules) == {
        DirectedRule((0, 2), 1),   # c from a, d
        DirectedRule((0, 1), 2),   # d from a, c
    }
    # and nothing lets a alone follow from c, d
    base = oracle.brute_force_min(s).k_min
    assert base == oracle.brute_force_min(merged).k_min


def test_eliminate_symmetric_member():
    # x only occurs in [x, y, z]; y and z occur again elsewhere
    s = DeductionSystem.from_names(
        names("x", "y", "z", "w"),
        [SymmetricRule((0, 1, 2)), SymmetricRule((1, 2, 3))])
    reduced, eliminated = preprocess.eliminate_independent(s)
    assert [e.name for e in eliminated] == ["x"]
    assert eliminated[0].kind == "derived_member"
    assert "x" not in reduced.names()
    assert oracle.brute_force_min(s).k_min == oracle.brute_force_min(reduced).k_min


def test_eliminate_conclusion_case():
    s = DeductionSystem.from_names(
        names("a", "b", "c"),
        [SymmetricRule((0, 1))],
        [DirectedRule((0, 1), 2)])
    reduced, eliminated = preprocess.eliminate_independent(s)
    assert [(e.name, e.kind) for e in eliminated] == [("c", "derived_conclusion")]
    assert reduced.n == 2
    assert oracle.brute_force_min(s).k_min \
        == oracle.brute_force_min(reduced).k_min


def test_eliminate_premise_records_must_guess():
    # g appears once, as a premise; full coverage always needs g guessed
    s = DeductionSystem.from_names(
        names("g", "a", "c"),
        [SymmetricRule((1, 2))],
        [DirectedRule((0, 1), 2)])
    reduced, eliminated = preprocess.eliminate_independent(s)
    assert [(e.name, e.kind) for e in eliminated] == [("g", "must_guess")]
    # the rule survives without the guessed premise
    assert DirectedRule((0,), 1) in reduced.directed_rules
    original = oracle.brute_force_min(s).k_min
    after = oracle.brute_force_min(reduced).k_min
    assert original == after + 1


def test_eliminate_leaves_toy_alone(toy):
    reduced, eliminated = preprocess.eliminate_independent(toy)
    assert eliminated == []
    assert reduced == toy


def test_eliminate_skips_rules_with_two_independents():
    s = DeductionSystem.from_names(names("x", "y"), [SymmetricRule((0, 1))])
    reduced, eliminated = preprocess.eliminate_independent(s)
    assert eliminated == []
    assert reduced == s


def test_eliminate_counts_duplicate_rules_once():
    # v2 concludes two copies of the same rule; it is independent all the
    # same, and one pass must already see that
    s = DeductionSystem.from_names(
        names("v0", "v1", "v2"),
        [SymmetricRule((0, 1))],
        [DirectedRule((0, 1), 2), DirectedRule((1, 0), 2)])
    reduced, eliminated = preprocess.eliminate_independent(s)
    assert [(e.name, e.kind) for e in eliminated] == [("v2", "derived_conclusion")]
    again, more = preprocess.eliminate_independent(reduced)
    assert again == reduced and more == []


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=20_000))
def test_simplification_preserves_minimum(seed):
    rng = random.Random(seed)
    system = random_system(rng, max_n=8, max_m=12)
    result = preprocess.simplify(system)
    baseline = oracle.brute_force_min(system).k_min
    reduced_min = oracle.brute_force_min(result.system).k_min
    must_guess = len(preprocess.must_guess_names(result.eliminated))
    assert baseline == reduced_min + must_guess

    # the reduced witness, reinstated, really is a witness for the original
    found = oracle.brute_force_min(result.system)
    witness_names = {result.system.name_of(v) for v in found.witness}
    lifted = preprocess.extend_guess(witness_names, result.eliminated)
    guess = {system.index_of(n) for n in lifted}
    assert len(guess) == len(lifted) == baseline
    assert oracle.closure(system, guess).known == frozenset(range(system.n))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_operations_idempotent(seed):
    rng = random.Random(seed)
    system = random_system(rng)
    expanded = preprocess.expand_rules(system)
    assert preprocess.expand_rules(expanded) == expanded
    merged, _ = preprocess.merge_equalities(system)
    again, mm2 = preprocess.merge_equalities(merged)
    assert again == merged and mm2.removed == ()
    reduced, _ = preprocess.eliminate_independent(system)
    reduced2, e2 = preprocess.eliminate_independent(reduced)
    assert reduced2 == reduced and e2 == []


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=20_000))
def test_one_pass_leaves_no_two_member_rule(seed):
    # the invariant that lets merge_equalities and simplify stop after one
    # pass: nothing they output can be merged again
    rng = random.Random(seed)
    system = random_system(rng, max_n=12, max_m=20)
    merged, _ = preprocess.merge_equalities(system)
    result = preprocess.simplify(system)
    for out in (merged, result.system):
        assert all(len(r.members) != 2 for r in out.symmetric_rules)
    again = preprocess.simplify(result.system)
    assert again.system == result.system and again.eliminated == ()
    assert again.merge_map.removed == ()
