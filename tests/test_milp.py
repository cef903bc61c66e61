import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from dedmin import ciphers, encoder, milp, oracle, preprocess
from dedmin.milp import (Constraint, MilpInstance, SolveLimits, Variable,
                         evaluate, propagate, solve)
from helpers import (ReferenceEngine, encoding_cases, perfbench_workloads,
                     random_system, reference_solve_encoding,
                     reference_sweeps, reference_word_coverages,
                     refutation_cases, with_full_cover, without_heuristic)


def simple_instance(constraints, names=("x",), objective=((0, 1),),
                    sense=milp.MAXIMIZE):
    return MilpInstance([Variable(n) for n in names], constraints,
                        objective, sense)


def test_trivial_bounded_maximization():
    inst = simple_instance([Constraint(((0, 1),), "<=", 0)])
    solution = solve(inst)
    assert solution.status == milp.OPTIMAL
    assert solution.objective == 0
    assert solution.assignment == {"x": 0}


def test_toy_max_coverage(toy):
    cfg = encoder.EncodeConfig(nu=4, budget_k=1, mode=encoder.PLAIN)
    solution = solve(encoder.encode(toy, cfg))
    assert solution.status == milp.OPTIMAL
    assert solution.objective == 4
    ones = [p.name for p in toy.propositions
            if solution.assignment[encoder.state_var_name(p.index, 0)] == 1]
    assert ones == ["p2"]  # the unique working single guess


def test_toy_min_guesses(toy):
    cfg = encoder.EncodeConfig(nu=4, budget_k=0, mode=encoder.COMPACT,
                               sense=encoder.MIN_GUESSES)
    solution = solve(encoder.encode(toy, cfg))
    assert solution.status == milp.OPTIMAL
    assert solution.objective == 1


def test_infeasible_with_proof():
    inst = simple_instance([Constraint(((0, 1),), "=", 1),
                            Constraint(((0, 1),), "=", 0)])
    solution = solve(inst)
    assert solution.status == milp.INFEASIBLE
    assert solution.assignment is None


def test_empty_instance():
    inst = MilpInstance([], [], [])
    solution = solve(inst)
    assert solution.status == milp.OPTIMAL
    assert solution.objective == 0


def test_malformed_instance_rejected():
    with pytest.raises(milp.MalformedInstance):
        MilpInstance([Variable("x")], [Constraint(((1, 1),), "<=", 0)], [])
    with pytest.raises(milp.MalformedInstance):
        MilpInstance([Variable("x")],
                     [Constraint(((0, 1.5),), "<=", 0)], [])  # type: ignore
    # a bool is an int to isinstance, but write_lp would write it as
    # "True", which read_lp rejects
    with pytest.raises(milp.MalformedInstance, match="coefficient True"):
        MilpInstance([Variable("x")], [Constraint(((0, True),), "<=", 0)], [])
    with pytest.raises(milp.MalformedInstance, match="rhs True"):
        MilpInstance([Variable("x")], [Constraint(((0, 1),), "<=", True)], [])
    with pytest.raises(milp.MalformedInstance,
                       match="objective: non-integer coefficient False"):
        MilpInstance([Variable("x")], [], [(0, False)])


def test_built_instance_is_read_only():
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    instance = encoder.encode(system, encoder.EncodeConfig(nu=2, budget_k=9))
    variables = instance.variables
    for name, value in (("variables", variables[:5]), ("encoding", None),
                        ("sense", milp.MINIMIZE)):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(instance, name, value)
    with pytest.raises(AttributeError, match="read-only"):
        del instance.constraints
    assert instance.variables == variables and instance.has_variable("x41_c2")
    assert instance.encoding is not None
    solution = solve(instance, SolveLimits(node_budget=10))
    assert solution.assignment is not None
    assert len(solution.assignment) == len(variables)


@pytest.mark.parametrize("build, message", [
    (lambda: simple_instance([], sense="maximize"), "bad sense"),
    (lambda: simple_instance([], names=("x", "x")), "duplicate variable"),
    (lambda: simple_instance([Constraint(((0, 1),), "<", 0)]),
     "bad relation"),
    (lambda: simple_instance([Constraint(((0, 1),), "<=", 0.5)]),
     "non-integer rhs"),
    (lambda: simple_instance([], objective=((1, 1),)),
     "objective: undeclared variable id 1"),
    (lambda: simple_instance([], objective=((0, 0.5),)),
     "objective: non-integer coefficient"),
])
def test_malformed_instance_names_its_fault(build, message):
    with pytest.raises(milp.MalformedInstance, match=message):
        build()


# --- propagate --------------------------------------------------------------

def conjunction_pair(kappa):
    # path variable l (id 0) driven by kappa premises (ids 1..kappa)
    names = ["l"] + [f"x{i}" for i in range(1, kappa + 1)]
    premises = list(range(1, kappa + 1))
    c1 = Constraint(((0, 1),) + tuple((p, -1) for p in premises),
                    ">=", 1 - kappa)
    c2 = Constraint(((0, -kappa),) + tuple((p, 1) for p in premises),
                    ">=", 0)
    return MilpInstance([Variable(n) for n in names], [c1, c2], [])


def test_propagate_forces_path_when_premises_known():
    inst = conjunction_pair(2)
    result = propagate(inst, {"x1": 1, "x2": 1})
    assert result.status == milp.FIXPOINT
    assert result.fixed == {"l": 1}


def test_propagate_forces_state_down_when_paths_dead():
    tau = 3
    names = ["x"] + [f"l{i}" for i in range(1, tau + 1)]
    paths = list(range(1, tau + 1))
    c1 = Constraint(((0, -2),) + tuple((l, 1) for l in paths), ">=", -1)
    c2 = Constraint(((0, tau),) + tuple((l, -1) for l in paths), ">=", 0)
    inst = MilpInstance([Variable(n) for n in names], [c1, c2], [])
    result = propagate(inst, {f"l{i}": 0 for i in range(1, tau + 1)})
    assert result.status == milp.FIXPOINT
    assert result.fixed == {"x": 0}


def test_propagate_empty_partial_no_constraints():
    inst = MilpInstance([Variable("a"), Variable("b")], [], [])
    result = propagate(inst, {})
    assert result.status == milp.FIXPOINT
    assert result.fixed == {}


def test_propagate_reports_conflict():
    inst = conjunction_pair(2)
    result = propagate(inst, {"l": 1, "x1": 0})
    assert result.status == milp.CONFLICT
    assert result.conflict is not None


def test_propagate_rejects_unknown_and_nonbinary():
    inst = conjunction_pair(2)
    with pytest.raises(milp.MalformedInstance):
        propagate(inst, {"zz": 1})
    with pytest.raises(milp.MalformedInstance):
        propagate(inst, {"l": 2})


# --- evaluate ---------------------------------------------------------------

def test_evaluate_reports_eq15_violation():
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    cfg = encoder.EncodeConfig(nu=1, budget_k=9, mode=encoder.PLAIN)
    instance = encoder.encode(system, cfg)
    assignment = {v.name: 0 for v in instance.variables}
    s11_new = encoder.state_var_name(system.index_of("s_11"), 1)
    assignment[s11_new] = 1
    report = evaluate(instance, assignment)
    assert len(report.violations) == 1
    violated = instance.constraints[report.violations[0].constraint]
    # the violated row is "known implies some path fired": -2x + sum(l) + 1 >= 0
    assert violated.rel == ">="
    assert violated.rhs == -1
    assert report.violations[0].lhs == -2
    assert dict(violated.terms)[instance.index_of(s11_new)] == -2


def test_evaluate_all_zero_is_feasible(toy):
    cfg = encoder.EncodeConfig(nu=2, budget_k=1, mode=encoder.PLAIN)
    instance = encoder.encode(toy, cfg)
    report = evaluate(instance, {v.name: 0 for v in instance.variables})
    assert report.feasible
    assert report.objective == 0


def test_evaluate_closure_built_snow_solution():
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    guess = [system.index_of(f"R_{i}") for i in range(4, 13)]
    for mode in (encoder.PLAIN, encoder.COMPACT):
        cfg = encoder.EncodeConfig(nu=12, budget_k=9, mode=mode)
        instance = encoder.encode(system, cfg)
        assignment = encoder.assignment_of(instance, system, guess)
        assert list(assignment) == [v.name for v in instance.variables]
        report = evaluate(instance, assignment)
        assert report.feasible
        assert report.objective == 42


def test_evaluate_requires_full_assignment(toy):
    cfg = encoder.EncodeConfig(nu=1, budget_k=1, mode=encoder.PLAIN)
    instance = encoder.encode(toy, cfg)
    with pytest.raises(milp.IncompleteAssignment):
        evaluate(instance, {})


# --- solver properties ------------------------------------------------------

def test_solutions_pass_evaluate():
    rng = random.Random(7)
    for _ in range(25):
        system = preprocess.expand_rules(random_system(rng, max_n=8, max_m=12))
        nu = encoder.default_nu(system)
        k = rng.randint(0, system.n)
        instance = encoder.encode(
            system, encoder.EncodeConfig(nu=nu, budget_k=k,
                                         mode=encoder.COMPACT))
        solution = solve(instance, SolveLimits(time_budget=60))
        assert solution.status == milp.OPTIMAL
        report = evaluate(instance, solution.assignment)
        assert report.feasible
        assert report.objective == solution.objective


def test_deterministic_given_seed():
    rng = random.Random(11)
    system = preprocess.expand_rules(random_system(rng, max_n=9, max_m=14))
    instance = encoder.encode(
        system, encoder.EncodeConfig(nu=encoder.default_nu(system),
                                     budget_k=max(1, system.n // 2)))
    a = solve(instance, SolveLimits(seed=3))
    b = solve(instance, SolveLimits(seed=3))
    assert a.status == b.status
    assert a.objective == b.objective
    assert a.assignment == b.assignment
    assert a.stats.nodes == b.stats.nodes
    assert a.stats.propagations == b.stats.propagations


def test_time_limit_reports_incumbent():
    # a hard instance: prove no 8-guess full cover for the big cipher model
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    cfg = encoder.EncodeConfig(nu=12, budget_k=8, mode=encoder.COMPACT)
    instance = encoder.encode(system, cfg)
    solution = solve(instance, SolveLimits(time_budget=3.0))
    assert solution.status in (milp.TIME_LIMIT, milp.OPTIMAL)
    if solution.status == milp.TIME_LIMIT:
        assert solution.assignment is not None
        assert evaluate(instance, solution.assignment).feasible


@pytest.mark.parametrize("sense", [encoder.MAX_COVERAGE,
                                   encoder.MIN_GUESSES])
def test_zero_time_budget_stops_before_the_first_evaluation(sense):
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    instance = encoder.encode(system, encoder.EncodeConfig(
        nu=12, budget_k=9 if sense == encoder.MAX_COVERAGE else 0,
        sense=sense))
    solution = solve(instance, SolveLimits(time_budget=0))
    assert solution.status == milp.TIME_LIMIT
    assert solution.assignment is None
    assert solution.stats.heuristic_evals == 0


def test_node_budget_halts_search(toy):
    cfg = encoder.EncodeConfig(nu=4, budget_k=1, mode=encoder.PLAIN)
    instance = encoder.encode(toy, cfg)
    solution = solve(without_heuristic(instance), SolveLimits(node_budget=1))
    assert solution.status == milp.TIME_LIMIT


def test_node_budget_counts_decisions(toy):
    # the toy's full tree is two decisions, so a budget of two completes it
    cfg = encoder.EncodeConfig(nu=4, budget_k=1, mode=encoder.PLAIN)
    instance = without_heuristic(encoder.encode(toy, cfg))
    full = solve(instance)
    assert (full.status, full.stats.nodes) == (milp.OPTIMAL, 2)
    assert solve(instance, SolveLimits(node_budget=2)).status == milp.OPTIMAL
    stopped = solve(instance, SolveLimits(node_budget=0))
    assert (stopped.status, stopped.stats.nodes) == (milp.TIME_LIMIT, 0)


def test_solution_json_round_trip(toy):
    cfg = encoder.EncodeConfig(nu=4, budget_k=1, mode=encoder.PLAIN)
    solution = solve(encoder.encode(toy, cfg))
    payload = solution.to_json()
    assert payload["status"] == "optimal"
    assert payload["objective"] == 4
    assert set(payload["assignment"]) == {
        v.name for v in encoder.encode(toy, cfg).variables}


def test_enocoro_heuristic_keeps_its_best_selection():
    # the evaluation budget runs out inside the local search; the best
    # selection found by then must still become the incumbent
    system = preprocess.expand_rules(ciphers.build_enocoro(16))
    cfg = encoder.EncodeConfig(nu=18, budget_k=18, mode=encoder.COMPACT)
    instance = encoder.encode(system, cfg)
    solution = solve(instance, SolveLimits(time_budget=1e9, node_budget=0))
    assert solution.assignment is not None
    assert evaluate(instance, solution.assignment).feasible
    guesses = sum(solution.assignment[encoder.state_var_name(v, 0)]
                  for v in range(system.n))
    assert guesses <= 18
    assert solution.objective == 92  # the README's Enocoro incumbent


@pytest.mark.parametrize("k", [0, 42])
def test_a_budget_with_one_guess_set_scores_it_once(k):
    # no guess, or every one of SNOW's 42: one set has size k, so the
    # heuristic scores it once and the search decides nothing
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    instance = encoder.encode(system, encoder.EncodeConfig(nu=12, budget_k=k))
    solution = solve(instance, SolveLimits(time_budget=1e9))
    assert (solution.status, solution.objective, solution.stats.nodes,
            solution.stats.heuristic_evals) == (milp.OPTIMAL, k, 0, 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_snow_minimize_climb_reaches_nine_guesses(seed):
    # the heuristic alone: the climb descends size by size to a 9-guess cover
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    instance = encoder.encode(system, encoder.EncodeConfig(
        nu=12, budget_k=0, mode=encoder.COMPACT, sense=encoder.MIN_GUESSES))
    solution = solve(instance, SolveLimits(time_budget=1e9, node_budget=0,
                                           seed=seed))
    assert solution.objective == 9
    assert evaluate(instance, solution.assignment).feasible
    guess = [v for v in range(system.n)
             if solution.assignment[encoder.state_var_name(v, 0)] == 1]
    assert len(guess) == 9
    assert len(oracle.closure(system, guess).known) == system.n


def test_heuristic_skips_instances_that_are_not_encodings(toy):
    cfg = encoder.EncodeConfig(nu=4, budget_k=1)
    instance = encoder.encode(toy, cfg)
    assert solve(instance).stats.heuristic_evals > 0
    solution = solve(without_heuristic(instance))
    assert solution.stats.heuristic_evals == 0
    assert solution.status == milp.OPTIMAL and solution.objective == 4


def test_search_time_is_part_of_wall_time():
    system = preprocess.expand_rules(random_system(random.Random(5), 9, 14))
    instance = encoder.encode(system, encoder.EncodeConfig(
        nu=encoder.default_nu(system), budget_k=max(1, system.n // 3)))
    stats = solve(without_heuristic(instance)).stats
    assert stats.nodes > 0
    assert 0 < stats.search_time <= stats.wall_time
    assert stats.to_json()["search_time"] == round(stats.search_time, 6)
    assert stats.heuristic_time == 0
    # a hand-built copy is the encoding too, searched over guess sets
    stats = solve(MilpInstance(instance.variables, instance.constraints,
                               instance.objective, instance.sense)).stats
    assert stats.heuristic_evals > 0 and stats.heuristic_time > 0
    assert stats.check_time > 0
    assert (stats.heuristic_time + stats.search_time + stats.check_time
            <= stats.wall_time)
    assert stats.to_json()["heuristic_time"] == round(stats.heuristic_time, 6)
    assert stats.to_json()["check_time"] == round(stats.check_time, 6)
    assert "decode_time" not in stats.to_json()
    # an instance that is no encoding is searched over its rows, and its
    # answer is checked like any other
    stats = solve(MilpInstance(instance.variables, instance.constraints[1:],
                               instance.objective, instance.sense)).stats
    assert stats.propagations > 0 and stats.check_time > 0
    assert stats.search_time + stats.check_time <= stats.wall_time


# --- the engine against its reference ---------------------------------------

@st.composite
def engine_runs(draw):
    """A small instance and a sequence of fixings and backtracks on it."""
    n = draw(st.integers(3, 12))
    term = st.tuples(st.integers(0, n - 1), st.integers(-3, 3))
    row = st.builds(Constraint,
                    st.lists(term, max_size=n,
                             unique_by=lambda t: t[0]).map(tuple),
                    st.sampled_from([milp.LESS_EQUAL, milp.GREATER_EQUAL,
                                     milp.EQUAL]),
                    st.integers(-4, 4))
    rows = draw(st.lists(row, max_size=10))
    instance = MilpInstance([Variable(f"v{i}") for i in range(n)], rows, [])
    fixing = st.tuples(st.just("fix"), st.integers(0, n - 1),
                       st.integers(0, 1))
    backtrack = st.tuples(st.just("undo"), st.integers(0, 30))
    moves = draw(st.lists(st.one_of(fixing, fixing, backtrack), max_size=25))
    return instance, moves


@settings(max_examples=300, deadline=None)
@given(engine_runs())
def test_engine_agrees_with_reference(run):
    instance, moves = run
    engines = (milp._Engine(instance), ReferenceEngine(instance))

    def propagate_both():
        conflicts = [engine.propagate() is not None for engine in engines]
        assert conflicts[0] == conflicts[1]
        if not conflicts[0]:
            assert engines[0].val == engines[1].val
        return conflicts[0]

    if propagate_both():
        return
    marks = []
    for move in moves:
        if move[0] == "fix":
            _, var, value = move
            marks.append(engines[0].mark())
            assert len({engine.fix(var, value) for engine in engines}) == 1
            if propagate_both():
                mark = marks.pop()
                for engine in engines:
                    engine.undo_to(mark)
        elif marks:
            mark = marks[move[1] % len(marks)]
            del marks[marks.index(mark):]
            for engine in engines:
                engine.undo_to(mark)
        # between conflicts both trails hold the same fixpoint
        assert engines[0].val == engines[1].val
        assert engines[0].mark() == engines[1].mark()


def solve_both(instance, limits, monkeypatch):
    got = solve(instance, limits)
    with monkeypatch.context() as patched:
        patched.setattr(milp, "_Engine", ReferenceEngine)
        want = solve(instance, limits)
    assert (got.status, got.objective, got.assignment, got.stats.nodes) == \
        (want.status, want.objective, want.assignment, want.stats.nodes)
    return got


def test_solve_agrees_with_reference_engine(monkeypatch):
    # an encoding is searched over guess sets, without an engine, so only
    # the without_heuristic instances below reach _Engine
    rng = random.Random(23)
    for _ in range(12):
        system = preprocess.expand_rules(random_system(rng, max_n=8, max_m=12))
        for mode, sense in product((encoder.PLAIN, encoder.COMPACT),
                                   (encoder.MAX_COVERAGE, encoder.MIN_GUESSES)):
            budget = (rng.randint(0, system.n)
                      if sense == encoder.MAX_COVERAGE else 0)
            instance = encoder.encode(system, encoder.EncodeConfig(
                encoder.default_nu(system), budget, mode, sense))
            for candidate in (instance, without_heuristic(instance)):
                solve_both(candidate, SolveLimits(
                    time_budget=1e9, seed=rng.randrange(100)), monkeypatch)


def test_refutation_search_agrees_with_reference_engine(monkeypatch):
    # SNOW k=8 with the row demanding every proposition at the last step:
    # the conflict-heavy search of acceptance criterion 4, kept on the row
    # engine by one more row
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    cfg = encoder.EncodeConfig(nu=12, budget_k=8, mode=encoder.COMPACT)
    refute = with_full_cover(encoder.encode(system, cfg), system.n, cfg.nu)
    solution = solve_both(without_heuristic(refute),
                          SolveLimits(time_budget=1e9, node_budget=50),
                          monkeypatch)
    assert solution.status == milp.TIME_LIMIT
    assert solution.stats.nodes == 50


# --- the closure sweep against its reference --------------------------------

def use_reference_sweeps(patched):
    # the reference scores each batched (base, candidate) pair, and each
    # set a batch's words describe, by its own sweeps from scratch, so
    # every batch score is compared with them: the heuristic's greedy
    # additions and its swaps, scored a chunk of outs per batch, and the
    # leaves and skip checks of the search's bottom-level walks
    patched.setattr(oracle, "sweeps",
                    lambda options, known, limit=None:
                    reference_sweeps(options.masks, known, limit))
    patched.setattr(oracle, "coverages",
                    lambda options, bases, candidates, limit=None: [
                        reference_sweeps(options.masks, known | 1 << c,
                                         limit)[-1].bit_count()
                        for known in bases for c in candidates])
    patched.setattr(oracle, "word_coverages",
                    lambda options, knows, width, limit=None:
                    reference_word_coverages(options.masks, knows, width,
                                             limit))


def solve_with_both_sweeps(instance, limits, monkeypatch):
    got = solve(instance, limits)
    with monkeypatch.context() as patched:
        use_reference_sweeps(patched)
        want = solve(instance, limits)
    assert want.stats.heuristic_evals > 0
    assert (got.status, got.objective, got.assignment, got.stats.nodes,
            got.stats.heuristic_evals) == \
        (want.status, want.objective, want.assignment, want.stats.nodes,
         want.stats.heuristic_evals)
    return got


def test_heuristic_agrees_with_reference_sweeps(monkeypatch):
    rng = random.Random(31)
    for _ in range(12):
        system = preprocess.expand_rules(random_system(rng, max_n=8, max_m=12))
        for sense in (encoder.MAX_COVERAGE, encoder.MIN_GUESSES):
            budget = (rng.randint(0, system.n)
                      if sense == encoder.MAX_COVERAGE else 0)
            instance = encoder.encode(system, encoder.EncodeConfig(
                encoder.default_nu(system), budget, encoder.COMPACT, sense))
            solve_with_both_sweeps(instance, SolveLimits(
                time_budget=1e9, seed=rng.randrange(100)), monkeypatch)


@pytest.mark.parametrize("seed", [0, 7])
def test_snow_solve_agrees_with_reference_sweeps(seed, monkeypatch):
    # the node budget makes a kernel that misses a deduction fail here
    # rather than leave branch-and-bound searching without a good incumbent
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    instance = encoder.encode(system, encoder.EncodeConfig(
        nu=12, budget_k=9, mode=encoder.COMPACT))
    solve_with_both_sweeps(instance, SolveLimits(time_budget=1e9,
                                                 node_budget=1000, seed=seed),
                           monkeypatch)


def test_enocoro_heuristic_agrees_with_reference_sweeps(monkeypatch):
    # the largest batches: 90 swaps under each removed guess, and chunks of
    # 1, 2, 4, ... removed guesses per batch, which take at most 55 batches
    # where one batch per removed guess took 92 for the same evaluations
    system = preprocess.expand_rules(ciphers.build_enocoro(16))
    instance = encoder.encode(system, encoder.EncodeConfig(
        nu=18, budget_k=18, mode=encoder.COMPACT))
    coverages, calls = oracle.coverages, 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return coverages(*args)

    monkeypatch.setattr(oracle, "coverages", counted)
    got = solve_with_both_sweeps(instance, SolveLimits(
        time_budget=1e9, node_budget=0, seed=0), monkeypatch)
    assert (got.stats.heuristic_evals, got.objective) == (7716, 92)
    assert calls <= 55  # counts the kernel's solve alone


def test_benchmark_ops_keep_their_work():
    # the first pair of the benchmark's SNOW k=9 and Enocoro k=18 runs at
    # its default seed: how climb passes are batched must change no
    # evaluation, node or answer of either route
    workloads = perfbench_workloads()
    layers, got = workloads.Layers(), {}
    for name in ("snow-k9", "enocoro-k18"):
        for op in workloads.WORKLOADS[name].plan(1, 1.0):
            solution = workloads.run_op(layers, op).solution
            got[name, op.route] = (solution.status, solution.objective,
                                   solution.stats.nodes,
                                   solution.stats.heuristic_evals)
    assert got == {
        ("snow-k9", workloads.RULES): (milp.OPTIMAL, 42, 0, 489),
        ("snow-k9", workloads.LP): (milp.OPTIMAL, 42, 0, 829),
        ("enocoro-k18", workloads.RULES): (milp.TIME_LIMIT, 92, 200, 7716),
        ("enocoro-k18", workloads.LP): (milp.TIME_LIMIT, 92, 200, 7716)}


# --- the guess-set search of encodings --------------------------------------

def random_encodings(rng, count, max_n, random_nu):
    """``(system, cfg, instance)`` over plain/compact x max/min."""
    for _ in range(count):
        system = preprocess.expand_rules(random_system(rng, max_n=max_n,
                                                       max_m=12))
        for mode, sense in product((encoder.PLAIN, encoder.COMPACT),
                                   (encoder.MAX_COVERAGE, encoder.MIN_GUESSES)):
            nu = (rng.randint(1, system.n) if random_nu
                  else encoder.default_nu(system))
            budget = (rng.randint(0, system.n)
                      if sense == encoder.MAX_COVERAGE else 0)
            cfg = encoder.EncodeConfig(nu, budget, mode, sense)
            yield system, cfg, encoder.encode(system, cfg)


def test_guess_layer_forces_the_closure_assignment():
    # the fact the guess-set search rests on: once the guess layer is
    # fixed, the rows force every other variable to its closure value, or
    # conflict exactly when the guesses break the budget or the coverage;
    # with the full-cover row, when they break either
    rng = random.Random(41)
    for system, cfg, instance in random_encodings(rng, 10, 7, True):
        options = oracle.option_masks(system)
        n = system.n
        variants = [(instance, cfg.sense == encoder.MAX_COVERAGE,
                     cfg.sense == encoder.MIN_GUESSES)]
        if cfg.sense == encoder.MAX_COVERAGE:
            variants.append((with_full_cover(instance, n, cfg.nu), True, True))
        for variant, budgeted, covering in variants:
            names = [v.name for v in variant.variables]
            for mask in range(1 << n):
                guesses = [v for v in range(n) if mask >> v & 1]
                layer = {encoder.state_var_name(v, 0): mask >> v & 1
                         for v in range(n)}
                result = propagate(variant, layer)
                broken = (budgeted and len(guesses) > cfg.budget_k) or (
                    covering and oracle.sweeps(options, mask, cfg.nu)[-1]
                    != (1 << n) - 1)
                assert (result.status == milp.CONFLICT) == broken
                assignment = encoder.assignment_of(variant, system, guesses)
                # the search's own build of the same values, step by step
                assert dict(zip(names, encoder.step_values(
                    variant, mask))) == assignment
                if not broken:
                    assert {**layer, **result.fixed} == assignment


def exhaustive_coverage(system, cfg):
    """The most propositions ``nu`` sweeps from at most ``k`` guesses know."""
    options = oracle.option_masks(system)
    return max(oracle.sweeps(options, oracle.mask_of(guess),
                             cfg.nu)[-1].bit_count()
               for size in range(cfg.budget_k + 1)
               for guess in combinations(range(system.n), size))


def solve_with_both_loops(instance, monkeypatch, limits=None):
    # a check a child wrongly inherits, or a walk that ends at the wrong
    # node, prunes nothing or misses a cover, so the nodes are pinned as
    # well as the answer
    got = solve(instance, limits)
    with monkeypatch.context() as patched:
        patched.setattr(milp, "_solve_encoding", reference_solve_encoding)
        want = solve(instance, limits)
    assert (got.status, got.objective, got.stats.nodes,
            got.stats.heuristic_evals, got.assignment) == \
        (want.status, want.objective, want.stats.nodes,
         want.stats.heuristic_evals, want.assignment)
    return got


@pytest.mark.parametrize("heuristic", [True, False])
def test_guess_search_agrees_with_references(heuristic, monkeypatch):
    # without the heuristic's incumbent the search alone finds the optimum
    if not heuristic:
        monkeypatch.setattr(milp, "_heuristic_incumbent",
                            lambda *args: None)
    rng = random.Random(43)
    for random_nu in (False, True):
        for system, cfg, instance in random_encodings(rng, 8, 8, random_nu):
            solution = solve_with_both_loops(instance, monkeypatch)
            if cfg.sense == encoder.MAX_COVERAGE:
                solve_with_both_loops(with_full_cover(instance, system.n,
                                                      cfg.nu), monkeypatch)
            assert solution.status == milp.OPTIMAL
            assert solution.stats.propagations == 0
            guesses = [v for v in range(system.n) if solution.assignment[
                encoder.state_var_name(v, 0)]]
            assert solution.assignment == \
                encoder.assignment_of(instance, system, guesses)
            assert evaluate(instance, solution.assignment).objective == \
                solution.objective
            rows = solve(without_heuristic(instance))
            assert (rows.status, rows.objective) == \
                (solution.status, solution.objective)
            if cfg.sense == encoder.MAX_COVERAGE:
                assert solution.objective == exhaustive_coverage(system, cfg)
            elif not random_nu:
                assert solution.objective == \
                    oracle.brute_force_min(system).k_min


def test_guess_search_stops_at_its_node_budget(monkeypatch):
    monkeypatch.setattr(milp, "_heuristic_incumbent", lambda *args: None)
    rng = random.Random(47)
    for system, cfg, instance in random_encodings(rng, 6, 8, False):
        full = solve(instance)
        for budget in range(full.stats.nodes):
            stopped = solve(instance, SolveLimits(node_budget=budget))
            assert stopped.status == milp.TIME_LIMIT
            assert stopped.stats.nodes == budget
            if stopped.assignment is not None:
                assert evaluate(instance, stopped.assignment).feasible
        again = solve(instance, SolveLimits(node_budget=full.stats.nodes))
        assert (again.status, again.objective) == (milp.OPTIMAL,
                                                   full.objective)


@pytest.mark.parametrize("heuristic", [True, False])
def test_bottom_level_walks_agree_with_reference_at_every_budget(
        heuristic, monkeypatch):
    # a node budget can cut a walk at any decision; the cut must fall where
    # the per-node search stops, with the same incumbent
    if not heuristic:
        monkeypatch.setattr(milp, "_heuristic_incumbent",
                            lambda *args: None)
    rng = random.Random(59)
    for system, cfg, instance in random_encodings(rng, 5, 10, False):
        variants = [instance]
        if cfg.sense == encoder.MAX_COVERAGE:
            variants.append(with_full_cover(instance, system.n, cfg.nu))
        for variant in variants:
            full = solve_with_both_loops(variant, monkeypatch)
            for budget in range(full.stats.nodes + 1):
                solve_with_both_loops(variant, monkeypatch, SolveLimits(
                    node_budget=budget))


def snow(k):
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    cfg = encoder.EncodeConfig(nu=12, budget_k=k, mode=encoder.COMPACT)
    return system, cfg, encoder.encode(system, cfg)


@pytest.mark.parametrize("budget", [1, 2, 63, 64, 65, 1000])
def test_refutation_walks_agree_with_reference(budget, monkeypatch):
    # the clock is read every 64 decisions, so the budgets straddle one read
    system, cfg, instance = snow(8)
    refute = with_full_cover(instance, system.n, cfg.nu)
    solution = solve_with_both_loops(refute, monkeypatch, SolveLimits(
        time_budget=1e9, node_budget=budget))
    assert (solution.status, solution.stats.nodes) == (milp.TIME_LIMIT,
                                                       budget)


def test_cipher_walks_agree_with_reference(monkeypatch):
    limits = SolveLimits(time_budget=1e9, node_budget=2000)
    solution = solve_with_both_loops(snow(8)[2], monkeypatch, limits)
    assert (solution.objective, solution.stats.nodes) == (19, 2000)
    system = preprocess.expand_rules(ciphers.build_enocoro(16))
    instance = encoder.encode(system, encoder.EncodeConfig(
        nu=18, budget_k=18, mode=encoder.COMPACT))
    solution = solve_with_both_loops(instance, monkeypatch, SolveLimits(
        time_budget=1e9, node_budget=200, seed=0))
    assert (solution.objective, solution.stats.nodes) == (92, 200)
    monkeypatch.setattr(milp, "_heuristic_incumbent", lambda *args: None)
    solution = solve_with_both_loops(snow(9)[2], monkeypatch, limits)
    assert solution.stats.nodes == 2000


@pytest.mark.parametrize("full_cover", [True, False])
def test_bottom_level_walks_sweep_less_than_once_per_decision(full_cover,
                                                              monkeypatch):
    # a search that fell back to checking its bottom level node by node
    # would sweep about twice per decision; a walk sweeps no set alone but
    # scores its leaves and skip checks in one batch of the sweep core, and
    # the reference kernels score the walks' batches one set at a time
    system, cfg, instance = snow(8)
    budget, most = 2000, 135
    if full_cover:
        instance = with_full_cover(instance, system.n, cfg.nu)
        budget, most = 1000, 127
    limits = SolveLimits(time_budget=1e9, node_budget=budget)
    sweeps, coverages = oracle.sweeps, oracle.coverages
    word_coverages = oracle.word_coverages
    calls, batches, in_heuristic = 0, [], False

    def counted(options, known, limit=None):
        nonlocal calls
        calls += 1
        return sweeps(options, known, limit)

    def heuristic_batch(*args):
        nonlocal in_heuristic
        in_heuristic = True
        try:
            return coverages(*args)
        finally:
            in_heuristic = False

    def walk_batch(options, knows, width, limit=None):
        if not in_heuristic:
            batches.append((list(knows), width))
        return word_coverages(options, knows, width, limit)

    with monkeypatch.context() as patched:
        patched.setattr(oracle, "sweeps", counted)
        patched.setattr(oracle, "coverages", heuristic_batch)
        patched.setattr(oracle, "word_coverages", walk_batch)
        got = solve(instance, limits)
    assert got.stats.nodes == budget and calls < budget and calls <= most
    # each batch holds every leaf and skip check of its walk's chain: set
    # t is ones plus leaf t's guess, set w + t ones plus the guesses of the
    # leaves after t, and set 2w - 1 ones alone
    walks = set()
    for knows, width in batches:
        w = width // 2
        sets = [frozenset(p for p, word in enumerate(knows) if word >> b & 1)
                for b in range(width)]
        ones = sets[-1]
        guesses = [leaf - ones for leaf in sets[:w]]
        assert width == 2 * w and all(len(g) == 1 for g in guesses)
        assert sets[w:] == [ones.union(*guesses[t + 1:]) for t in range(w)]
        walks.add(ones)
    # the nodes of one guess set form one chain of skip children, which
    # one walk expands: a walk that scored its chain in two batches would
    # repeat its guess set
    assert batches and len(walks) == len(batches)
    with monkeypatch.context() as patched:
        use_reference_sweeps(patched)
        want = solve(instance, limits)
    assert (got.status, got.objective, got.stats.nodes, got.assignment) == \
        (want.status, want.objective, want.stats.nodes, want.assignment)


def test_guess_search_rejects_an_assignment_that_breaks_a_row(toy,
                                                               monkeypatch):
    # the final incumbent is checked against the rows and the objective: a
    # failed check is an error, never an answer
    instance = encoder.encode(toy, encoder.EncodeConfig(nu=4, budget_k=1))
    assert solve(instance).objective == 4
    step_values = encoder.step_values

    def every_guess(*args):  # breaks the budget of one guess
        values = step_values(*args)
        values[:toy.n] = [1] * toy.n
        return values

    def nothing_known(*args):  # breaks no row, but covers nothing
        return [0] * len(step_values(*args))

    monkeypatch.setattr(encoder, "step_values", every_guess)
    with pytest.raises(RuntimeError, match=r"reads \d+ with [1-9]\d* broken"):
        solve(instance)
    assert not evaluate(instance, dict.fromkeys(
        (v.name for v in instance.variables), 0)).violations
    monkeypatch.setattr(encoder, "step_values", nothing_known)
    with pytest.raises(RuntimeError, match="scored 4 but its encoding reads "
                                           "0 with 0 broken rows"):
        solve(instance)


def test_row_search_rejects_a_leaf_that_breaks_a_row(monkeypatch):
    # the row search's answer is checked as the guess-set search's is: an
    # engine that sees no row hands back the all-ones leaf, which breaks
    # x + y <= 1
    instance = simple_instance([Constraint(((0, 1), (1, 1)), "<=", 1)],
                               ("x", "y"), ((0, 1), (1, 1)))
    solution = solve(instance)
    assert (solution.status, solution.objective) == (milp.OPTIMAL, 1)

    class Blind(milp._Engine):
        def propagate(self):
            self.queue.clear()
            return None

    monkeypatch.setattr(milp, "_Engine", Blind)
    with pytest.raises(RuntimeError, match="scored 2 but its encoding reads "
                                           "2 with 1 broken rows"):
        solve(instance)


def test_repr_of_an_encoding_reads_its_step_block(monkeypatch):
    # printing an instance gives the counts of its unrolled variables and
    # rows, and printing an encoding builds none of them
    instances = [encoder.rebuild((system, cfg, full_cover))
                 for system, cfg in encoding_cases()
                 for full_cover in (False, True)
                 if not full_cover or cfg.sense == encoder.MAX_COVERAGE]
    instances += refutation_cases() + [without_heuristic(instances[0])]

    def no_unroll(instance):
        raise AssertionError("repr built the full rows")

    with monkeypatch.context() as patched:
        patched.setattr(encoder, "unroll", no_unroll)
        texts = [repr(instance) for instance in instances]
    assert texts == [f"MilpInstance(vars={len(instance.variables)}, "
                     f"constraints={len(instance.constraints)}, "
                     f"sense={instance.sense})" for instance in instances]


def test_the_step_window_check_flags_what_the_full_check_flags():
    # solve and evaluate check an encoding by step 0's rows on each step's
    # window of the values, then the closing rows: the rows flagged, with
    # their left sides, are those every unrolled row flags
    rng = random.Random(27)
    instances = [encoder.encode(system, cfg)
                 for system, cfg in encoding_cases()] + refutation_cases()
    for instance in instances:
        rows = instance.constraints
        _, cfg, full_cover = instance.encoding
        block = instance.block
        n, nu, stride, per_step = (block.n, block.nu, block.stride,
                                   len(block.rows))
        for _ in range(3):
            values = [rng.randint(0, 1) for _ in instance.names]
            assert milp._violated(instance, values) == \
                milp._broken_rows(rows, values)
        # the values of a guess set, and then one path variable of the last
        # step flipped: only rows of the last step break on top
        good = encoder.step_values(instance, rng.getrandbits(n))
        broken = milp._violated(instance, good)
        assert broken == milp._broken_rows(rows, good)
        if stride > n:
            bad = list(good)
            bad[n + (nu - 1) * stride] ^= 1
            flagged = milp._violated(instance, bad)
            assert flagged == milp._broken_rows(rows, bad)
            more = {ci for ci, _ in flagged} - {ci for ci, _ in broken}
            assert more
            assert all((nu - 1) * per_step <= ci < nu * per_step
                       for ci in more)
        # a broken closing row: every guess over a budget below n, or no
        # guess at all where every proposition must be covered
        maximize = cfg.sense == encoder.MAX_COVERAGE and not full_cover
        guesses = (1 << n) - 1 if maximize else 0
        values = encoder.step_values(instance, guesses)
        flagged = milp._violated(instance, values)
        assert flagged == milp._broken_rows(rows, values)
        closing = {ci for ci, _ in flagged if ci >= nu * per_step}
        if not maximize or cfg.budget_k < n:
            assert closing


def test_guess_layer_counts_are_the_occurrence_counts(monkeypatch):
    # the search ranks the guess layer by counts over step 0's and the
    # closing rows only, which are the counts over all rows
    occurrences, counted = milp._occurrences, []

    def recorded(rows, count):
        counted.append(occurrences(rows, count))
        return counted[-1]

    monkeypatch.setattr(milp, "_occurrences", recorded)
    instances = [encoder.encode(system, cfg)
                 for system, cfg in encoding_cases()] + refutation_cases()
    for instance in instances:
        n = instance.encoding[0].n
        counted.clear()
        solve(instance, SolveLimits(time_budget=1e9, node_budget=0))
        assert counted == [occurrences(
            instance.constraints, len(instance.variables))[:n]]


# --- the full-cover search --------------------------------------------------

def test_full_cover_search_agrees_with_references():
    # an encoding plus its full-cover row is searched over guess sets: it
    # has a cover within the budget exactly when brute force says so
    rng = random.Random(53)
    for _ in range(15):
        system = preprocess.expand_rules(random_system(rng, max_n=7,
                                                       max_m=12))
        k_min = oracle.brute_force_min(system).k_min
        for mode in (encoder.PLAIN, encoder.COMPACT):
            for budget in range(system.n + 1):
                cfg = encoder.EncodeConfig(encoder.default_nu(system), budget,
                                           mode)
                instance = with_full_cover(encoder.encode(system, cfg),
                                           system.n, cfg.nu)
                solution = solve(instance)
                rows = solve(without_heuristic(instance))
                assert (solution.status, solution.objective) == \
                    (rows.status, rows.objective)
                assert solution.stats.propagations == 0
                if budget < k_min:
                    assert solution.status == milp.INFEASIBLE
                    assert solution.assignment is None
                    continue
                assert (solution.status, solution.objective) == \
                    (milp.OPTIMAL, system.n)
                guesses = [v for v in range(system.n) if solution.assignment[
                    encoder.state_var_name(v, 0)]]
                assert len(guesses) <= budget
                assert oracle.covers_all(system, guesses)
                assert evaluate(instance, solution.assignment).feasible


def test_full_cover_search_builds_no_row_engine(monkeypatch):
    def no_engine(instance):
        raise AssertionError("the full-cover search built a row engine")

    monkeypatch.setattr(milp, "_Engine", no_engine)
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    cfg = encoder.EncodeConfig(nu=12, budget_k=8, mode=encoder.COMPACT)
    refute = with_full_cover(encoder.encode(system, cfg), system.n, cfg.nu)
    solution = solve(refute, SolveLimits(time_budget=1e9, node_budget=1000))
    assert (solution.status, solution.assignment) == (milp.TIME_LIMIT, None)
    assert solution.stats.nodes == 1000
    assert solution.stats.heuristic_evals == 0


# --- the incumbent rule -----------------------------------------------------

def test_incumbent_takes_only_a_strictly_better_objective():
    for maximize, worse, better in ((True, 4, 6), (False, 6, 4)):
        incumbent = milp._Incumbent(maximize)
        assert (incumbent.objective, incumbent.answer) == (None, None)
        assert incumbent.beats(-10 ** 9) and incumbent.beats(10 ** 9)
        assert incumbent.offer(5, "five") is True
        assert not incumbent.beats(5)
        assert incumbent.offer(5, "tie") is False
        assert incumbent.offer(worse, "worse") is False
        assert (incumbent.objective, incumbent.answer) == (5, "five")
        assert incumbent.beats(better)
        assert incumbent.offer(better, "better") is True
        assert (incumbent.objective, incumbent.answer) == (better, "better")
    # a starting bound with no answer, as the full-cover search's size limit
    bound = milp._Incumbent(False, 9)
    assert bound.offer(9, "at the bound") is False
    assert bound.offer(10, "past it") is False
    assert (bound.objective, bound.answer) == (9, None)
    assert bound.offer(8, "within") is True
    assert (bound.objective, bound.answer) == (8, "within")


def record_takes(monkeypatch) -> list[int]:
    """The objective of every answer an incumbent takes, in order."""
    offer, taken = milp._Incumbent.offer, []

    def recorded(self, objective, answer):
        took = offer(self, objective, answer)
        if took:
            taken.append(objective)
        return took

    monkeypatch.setattr(milp._Incumbent, "offer", recorded)
    return taken


def test_every_incumbent_passes_through_the_one_rule(monkeypatch):
    taken = record_takes(monkeypatch)
    # the heuristic's incumbents, maximizing: SNOW k=9 at no node
    root = SolveLimits(time_budget=1e9, node_budget=0)
    solution = solve(snow(9)[2], root)
    assert len(taken) > 1 and solution.objective == 42
    assert taken == sorted(set(taken)) and taken[-1] == solution.objective
    # minimizing: the descent to SNOW's 9-guess cover
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    taken.clear()
    solution = solve(encoder.encode(system, encoder.EncodeConfig(
        nu=12, budget_k=0, mode=encoder.COMPACT,
        sense=encoder.MIN_GUESSES)), root)
    assert len(taken) > 1 and solution.objective == 9
    assert taken == sorted(set(taken), reverse=True) and taken[-1] == 9
    # the row search
    rng = random.Random(67)
    for system, cfg, instance in random_encodings(rng, 3, 6, False):
        taken.clear()
        solution = solve(without_heuristic(instance))
        assert solution.status == milp.OPTIMAL
        assert taken and taken[-1] == solution.objective
        assert taken == sorted(set(taken), reverse=cfg.sense ==
                               encoder.MIN_GUESSES)


def test_full_cover_takes_one_cover_within_its_bound(monkeypatch):
    taken = record_takes(monkeypatch)
    rng = random.Random(71)
    checked = 0
    while checked < 5:
        system = preprocess.expand_rules(random_system(rng, max_n=7,
                                                       max_m=12))
        k = oracle.brute_force_min(system).k_min + rng.randint(0, 1)
        if k > system.n:
            continue
        cfg = encoder.EncodeConfig(encoder.default_nu(system), k)
        instance = with_full_cover(encoder.encode(system, cfg), system.n,
                                   cfg.nu)
        taken.clear()
        solution = solve(instance)
        guesses = sum(solution.assignment[encoder.state_var_name(v, 0)]
                      for v in range(system.n))
        assert (solution.status, solution.objective) == (milp.OPTIMAL,
                                                         system.n)
        assert taken == [guesses] and guesses <= k
        checked += 1
