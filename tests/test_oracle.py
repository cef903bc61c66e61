import random

import pytest
from hypothesis import given, settings, strategies as st

from dedmin import encoder, milp, oracle, preprocess
from dedmin.core import DeductionSystem, DirectedRule, SymmetricRule
from helpers import (prefix_words, random_system, reference_sweeps,
                     reference_word_coverages)


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
    # no propositions: the empty guess set covers them all
    empty = oracle.brute_force_min(DeductionSystem.from_names([]))
    assert (empty.k_min, empty.witness) == (0, ())


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
            r for r, (pmask, _) in zip(options.rules, options.masks)
            if pmask >> p & 1)
    # a packed rule names its premises as first, second and rest, a lone
    # premise twice
    assert options.masks == tuple(
        (oracle.mask_of((first, second, *rest)), 1 << q)
        for q, first, second, rest in options.rules)
    known = oracle.mask_of(data.draw(st.sets(st.integers(0, n - 1))))
    limit = data.draw(st.sampled_from([None, *range(n + 2)]))
    assert oracle.sweeps(options, known, limit) == \
        reference_sweeps(options.masks, known, limit)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans(), st.data())
def test_coverages_agree_with_reference(seed, expand, data):
    # one bit-sliced pass over several bases and every candidate must give
    # each (base, candidate) pair the count of sweeping its own known set
    # from scratch, whether the candidate is new, already in its base or
    # listed twice, and whether or not the other bases hold what it lacks
    system = random_system(random.Random(seed), max_n=12, max_m=20)
    if expand:
        system = preprocess.expand_rules(system)
    n = system.n
    options = oracle.option_masks(system)
    known = oracle.mask_of(data.draw(st.sets(st.integers(0, n - 1))))
    inside = [p for p in range(n) if known >> p & 1]
    # the swaps of a climb: the known set less one of its members each
    dropped = data.draw(st.lists(st.sampled_from(inside), max_size=3)
                        if inside else st.just([]))
    others = data.draw(st.lists(st.sets(st.integers(0, n - 1)), max_size=2))
    bases = [known, *(known ^ 1 << p for p in dropped),
             *map(oracle.mask_of, others)]
    candidates = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 2))
    candidates += inside[:1] + candidates[:1]  # one in its base, a duplicate
    limit = data.draw(st.sampled_from([None, *range(n + 2)]))

    def reference(base, c):
        return reference_sweeps(options.masks, base | 1 << c,
                                limit)[-1].bit_count()

    assert oracle.coverages(options, bases, candidates, limit) == [
        reference(base, c) for base in bases for c in candidates]
    assert oracle.coverages(options, bases, [], limit) == []
    assert oracle.coverages(options, [], candidates, limit) == []
    alone = reference_sweeps(options.masks, known, limit)[-1].bit_count()
    assert oracle.coverages(options, [known], inside, limit) == \
        [alone] * len(inside)

    # the sweep core alone: a bottom-level walk's prefix layout from the
    # known set over the other propositions, and random words, each at
    # widths on both sides of oracle._NARROW
    order = data.draw(st.permutations(
        [p for p in range(n) if not known >> p & 1]))
    bits = data.draw(st.integers(0, 2 * oracle._NARROW + 2))
    for knows, width in ((prefix_words(n, known, order), 2 * len(order)),
                         ([data.draw(st.integers(0, (1 << bits) - 1))
                           for _ in range(n)], bits)):
        assert oracle.word_coverages(options, knows, width, limit) == \
            reference_word_coverages(options.masks, knows, width, limit)


def test_coverages_read_out_narrow_and_wide_batches():
    # a batch of at most oracle._NARROW sets reads its counts bit by bit and
    # a wider one in byte lanes; each must give every (base, candidate)
    # pair, and every set the sweep core's words describe, its own sweeps'
    # count, on both sides of that width, over thousands of sets, and where
    # a count passes 255
    def check(options, bases, candidates, limit):
        assert oracle.coverages(options, bases, candidates, limit) == [
            reference_sweeps(options.masks, base | 1 << c,
                             limit)[-1].bit_count()
            for base in bases for c in candidates]

    def check_words(options, knows, width, limit):
        assert oracle.word_coverages(options, knows, width, limit) == \
            reference_word_coverages(options.masks, knows, width, limit)

    rng = random.Random(31)
    system = preprocess.expand_rules(random_system(random.Random(116), 12, 20))
    assert (system.n, len(system.directed_rules)) == (12, 30)
    options = oracle.option_masks(system)
    for width in (oracle._NARROW, oracle._NARROW + 1):
        check(options, [rng.getrandbits(12) for _ in range(width)],
              [rng.randrange(12)], None)
        check_words(options, [rng.getrandbits(width) for _ in range(12)],
                    width, None)
    for half in (oracle._NARROW // 2, oracle._NARROW // 2 + 1):
        order = list(range(12 - half, 12))
        check_words(options, prefix_words(12, 1 << 1, order), 2 * half, 3)
    check_words(options, [rng.getrandbits(2568) for _ in range(12)], 2568, 2)
    bases = [rng.getrandbits(12) for _ in range(214)]  # 2,568 pairs
    for limit in (None, 2):
        check(options, bases, list(range(12)), limit)

    # v0 concludes every other proposition, so one sweep takes any set
    # holding v0 to all 300; v1 starts a short chain
    n = 300
    hub = DeductionSystem.from_names(
        [f"v{i}" for i in range(n)], [],
        [DirectedRule((0,), p) for p in range(1, n)]
        + [DirectedRule((p,), p + 1) for p in range(1, 9)]
        + [DirectedRule((5, 250), 251)])
    options = oracle.option_masks(hub)
    candidates = [0, *range(1, n, 13)]
    for limit in (None, 1):
        check(options, [0, 1 << 1, 1 << 5 | 1 << 250], candidates, limit)
        check(options, [0], candidates[:oracle._NARROW], limit)
        for ones in (1 << 1, 1 << 5 | 1 << 250):
            outside = [c for c in candidates if not ones >> c & 1]
            for order in (outside[:oracle._NARROW // 2], outside):
                check_words(options, prefix_words(n, ones, order),
                            2 * len(order), limit)


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


def test_extract_trace_needs_an_assignment(toy):
    solution = milp.Solution(milp.TIME_LIMIT, None, None)
    with pytest.raises(oracle.TraceMismatch, match="no assignment"):
        oracle.extract_trace(toy, solution, encoder.EncodeConfig(nu=4))


def reference_trace_verdict(system, assignment, nu):
    """The mismatch message of checking every (copy, proposition) pair up
    to ``nu`` in turn, or None."""
    guess = [p for p in range(system.n)
             if assignment.get(encoder.state_var_name(p, 0)) == 1]
    rounds = oracle.sweeps(oracle.option_masks(system), oracle.mask_of(guess))
    for copy in range(nu + 1):
        justified = rounds[min(copy, len(rounds) - 1)]
        for p in range(system.n):
            if (assignment.get(encoder.state_var_name(p, copy)) == 1
                    and not justified >> p & 1):
                return (f"assignment marks {system.name_of(p)} known at "
                        f"step {copy} but closure cannot derive it yet")
    return None


def test_extract_trace_verdicts_are_those_of_every_pair(toy):
    # marks past nu, of no proposition, or spelled other than the encoder
    # spells them are not read; the rest give the earliest step's mismatch
    rng = random.Random(29)
    for _ in range(300):
        nu = rng.randrange(1, 5)
        assignment = {}
        for _ in range(rng.randrange(12)):
            p, copy = rng.randrange(toy.n + 1), rng.randrange(nu + 2)
            name = rng.choice([encoder.state_var_name(p, copy),
                               f"x0{p}_c{copy}", f"x{p}_c{copy}\n",
                               encoder.path_var_name(p, 0, copy)])
            assignment[name] = rng.choice([0, 1, 1])
        solution = milp.Solution(milp.FEASIBLE, assignment, None)
        cfg = encoder.EncodeConfig(nu=nu)
        expected = reference_trace_verdict(toy, assignment, nu)
        if expected is None:
            oracle.extract_trace(toy, solution, cfg)
        else:
            with pytest.raises(oracle.TraceMismatch) as raised:
                oracle.extract_trace(toy, solution, cfg)
            assert str(raised.value) == expected


def test_extract_trace_reads_a_far_copy_at_once(toy):
    # an assignment that names copy 10**9 is checked in one pass over it,
    # not step by step up to that copy
    far = 10**9
    p1, p2, p3 = (toy.index_of(name) for name in ("p1", "p2", "p3"))
    assignment = {encoder.state_var_name(p2, 0): 1,
                  encoder.state_var_name(p3, far): 1,
                  encoder.state_var_name(p1, far + 1): 0}
    solution = milp.Solution(milp.FEASIBLE, assignment, None)
    result = oracle.extract_trace(toy, solution, encoder.EncodeConfig(nu=far))
    assert result == oracle.closure(toy, [p2])
    assignment[encoder.state_var_name(p3, 1)] = 1  # derived at step 3 only
    with pytest.raises(oracle.TraceMismatch, match="p3 known at step 1"):
        oracle.extract_trace(toy, solution, encoder.EncodeConfig(nu=far))


def test_render_trace_table(toy):
    result = oracle.closure(toy, [toy.index_of("p2")])
    text = oracle.render_trace(toy, result)
    lines = text.strip().splitlines()
    assert lines[0].startswith("| No. |")
    assert len(lines) == 2 + 3
    assert "| 1 | p2 | r1 | p1 |" in text


def test_a_system_builds_its_option_masks_once(monkeypatch):
    # the masks live in the system, so a solve and its trace, the two
    # readers of a .rules solve op, share one build
    from dedmin import ciphers

    built = []
    options = oracle.deduction_options

    def counted(system):
        built.append(system)
        return options(system)

    monkeypatch.setattr(oracle, "deduction_options", counted)
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    cfg = encoder.EncodeConfig(nu=12, budget_k=9)
    solution = milp.solve(encoder.encode(system, cfg),
                          milp.SolveLimits(node_budget=1000))
    assert len(oracle.extract_trace(system, solution, cfg).known) == system.n
    assert len(built) == 1 and built[0] is system
    assert oracle.option_masks(system) is oracle.option_masks(system)
    assert len(built) == 1
    # a system stays read-only to its callers
    with pytest.raises(AttributeError):
        system._option_masks = None
