import random

import pytest
from hypothesis import given, settings, strategies as st

from dedmin import encoder, milp, oracle, preprocess
from dedmin.core import DeductionSystem, DirectedRule, SymmetricRule
from helpers import random_system, reference_sweeps


def test_toy_closure_from_p2(toy):
    result = oracle.closure(toy, [toy.index_of("p2")])
    assert result.known == frozenset(range(4))
    steps = [(s.rule + 1, toy.name_of(s.deduced)) for s in result.trace]
    assert steps == [(1, "p1"), (5, "p4"), (4, "p3")]
    assert result.rounds == 3


def test_closure_rule_ids_on_unexpanded_system():
    # ids: the directed block as declared, duplicates included, then the
    # readings of each symmetric rule in member order
    a, b, c, d = range(4)
    system = DeductionSystem.from_names(
        ["a", "b", "c", "d"], [SymmetricRule((d, a, b))],
        [DirectedRule((a,), b), DirectedRule((a,), b),
         DirectedRule((b, d), c)])
    assert oracle.deduction_options(system) == [
        ((a,), b), ((a,), b), ((b, d), c),
        ((a, b), d), ((b, d), a), ((a, d), b)]
    steps = [(s.rule, s.deduced) for s in oracle.closure(system, [a]).trace]
    assert steps == [(0, b), (3, d), (2, c)]
    steps = [(s.rule, s.deduced) for s in oracle.closure(system, [b, d]).trace]
    assert steps == [(2, c), (4, a)]


def test_closure_of_empty_guess_is_empty(toy):
    result = oracle.closure(toy, [])
    assert result.known == frozenset()
    assert result.trace == ()
    assert result.rounds == 0


def test_closure_rejects_unknown_proposition(toy):
    with pytest.raises(oracle.UnknownProposition):
        oracle.closure(toy, [99])


def test_brute_force_toy(toy):
    found = oracle.brute_force_min(toy, 4)
    assert found.k_min == 1
    assert [toy.name_of(v) for v in found.witness] == ["p2"]


def test_brute_force_no_rules():
    from dedmin.core import DeductionSystem
    s = DeductionSystem.from_names(["a", "b", "c"])
    found = oracle.brute_force_min(s, 3)
    assert found.k_min == 3
    assert found.witness == (0, 1, 2)


def test_brute_force_respects_max_k(toy):
    found = oracle.brute_force_min(toy, 0)
    assert not found.found
    assert found.max_k == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.data())
def test_closure_monotone_and_idempotent(seed, data):
    rng = random.Random(seed)
    system = random_system(rng)
    n = system.n
    small = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    extra = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    big = small | extra
    ks = oracle.closure(system, small).known
    kb = oracle.closure(system, big).known
    assert ks <= kb
    assert oracle.closure(system, ks).known == ks
    assert oracle.closure(system, ks).trace == ()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_trace_replay_reproduces_known(seed):
    rng = random.Random(seed)
    system = preprocess.expand_rules(random_system(rng))
    guess = set(rng.sample(range(system.n), rng.randint(0, system.n)))
    result = oracle.closure(system, guess)
    known = set(guess)
    for step in result.trace:
        assert all(p in known for p in step.premises)
        assert step.deduced not in known
        rule = system.directed_rules[step.rule]
        assert rule.premises == step.premises
        assert rule.conclusion == step.deduced
        known.add(step.deduced)
    assert known == set(result.known)
    assert result.rounds <= system.n


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans(), st.data())
def test_sweeps_agree_with_reference(seed, expand, data):
    # later sweeps test only the options a newly learned premise feeds;
    # the rounds must be those of testing every option in every sweep
    system = random_system(random.Random(seed), max_n=12, max_m=20)
    if expand:
        system = preprocess.expand_rules(system)
    n = system.n
    options = oracle.option_masks(system)
    for p, listed in enumerate(options.by_premise):
        assert listed == tuple(m for m in options.masks if m[0] >> p & 1)
        assert options.rules_by_premise[p] == tuple(
            r for r in options.rules if p in r[0])
    assert options.masks == tuple((oracle.mask_of(premises), 1 << q)
                                  for premises, q in options.rules)
    known = oracle.mask_of(data.draw(st.sets(st.integers(0, n - 1))))
    limit = data.draw(st.sampled_from([None, *range(n + 2)]))
    assert oracle.sweeps(options, known, limit) == \
        reference_sweeps(options.masks, known, limit)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans(), st.data())
def test_coverages_agree_with_reference(seed, expand, data):
    # one bit-sliced pass over every candidate must give each the count of
    # sweeping its own known set from scratch, whether the candidate is
    # new, already known or listed twice
    system = random_system(random.Random(seed), max_n=12, max_m=20)
    if expand:
        system = preprocess.expand_rules(system)
    n = system.n
    options = oracle.option_masks(system)
    known = oracle.mask_of(data.draw(st.sets(st.integers(0, n - 1))))
    candidates = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 2))
    limit = data.draw(st.sampled_from([None, *range(n + 2)]))
    assert oracle.coverages(options, known, candidates, limit) == [
        reference_sweeps(options.masks, known | 1 << c, limit)[-1].bit_count()
        for c in candidates]
    assert oracle.coverages(options, known, [], limit) == []
    inside = [p for p in range(n) if known >> p & 1]
    alone = reference_sweeps(options.masks, known, limit)[-1].bit_count()
    assert oracle.coverages(options, known, inside, limit) == \
        [alone] * len(inside)


def test_closure_rounds_bound(toy):
    result = oracle.closure(toy, [toy.index_of("p2")])
    assert result.rounds <= toy.n


def test_extract_trace_roundtrip(toy):
    cfg = encoder.EncodeConfig(nu=4, budget_k=1, mode=encoder.PLAIN)
    instance = encoder.encode(toy, cfg)
    solution = milp.solve(instance)
    assert solution.objective == 4
    result = oracle.extract_trace(toy, solution, cfg)
    assert result.known == frozenset(range(4))


def test_extract_trace_all_guessed(toy):
    cfg = encoder.EncodeConfig(nu=2, budget_k=4, mode=encoder.PLAIN)
    instance = encoder.encode(toy, cfg)
    solution = milp.solve(instance)
    assert solution.objective == 4
    result = oracle.extract_trace(toy, solution, cfg)
    # everything was known from the start, so nothing is deduced
    assert result.trace == ()


def test_extract_trace_flags_unjustified_knowledge(toy):
    cfg = encoder.EncodeConfig(nu=4, budget_k=1, mode=encoder.PLAIN)
    instance = encoder.encode(toy, cfg)
    solution = milp.solve(instance)
    corrupt = dict(solution.assignment)
    # claim p3 is known immediately, which one step cannot justify
    assert corrupt[encoder.state_var_name(2, 1)] == 0
    corrupt[encoder.state_var_name(2, 1)] = 1
    bad = milp.Solution(milp.FEASIBLE, corrupt, None)
    with pytest.raises(oracle.TraceMismatch):
        oracle.extract_trace(toy, bad, cfg)


def test_render_trace_table(toy):
    result = oracle.closure(toy, [toy.index_of("p2")])
    text = oracle.render_trace(toy, result)
    lines = text.strip().splitlines()
    assert lines[0].startswith("| No. |")
    assert len(lines) == 2 + 3
    assert "| 1 | p2 | r1 | p1 |" in text
