import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from dedmin import ciphers, encoder, milp, oracle, preprocess
from dedmin.milp import (Constraint, MilpInstance, SolveLimits, Variable,
                         evaluate, propagate, solve)
from helpers import (ReferenceEngine, random_system,
                     reference_solve_encoding, reference_sweeps,
                     with_full_cover, without_heuristic)


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
    stats = solve(instance).stats
    assert stats.heuristic_evals > 0 and stats.heuristic_time > 0
    assert stats.heuristic_time + stats.search_time <= stats.wall_time
    assert stats.to_json()["heuristic_time"] == round(stats.heuristic_time, 6)


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

def solve_with_both_sweeps(instance, limits, monkeypatch):
    # the reference scores each batched candidate by its own sweeps from
    # scratch, so the heuristic's batch scores are compared with them
    got = solve(instance, limits)
    with monkeypatch.context() as patched:
        patched.setattr(oracle, "sweeps",
                        lambda options, known, limit=None:
                        reference_sweeps(options.masks, known, limit))
        patched.setattr(oracle, "coverages",
                        lambda options, known, candidates, limit=None: [
                            reference_sweeps(options.masks, known | 1 << c,
                                             limit)[-1].bit_count()
                            for c in candidates])
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
    # the largest batches: 90 swaps under each removed guess
    system = preprocess.expand_rules(ciphers.build_enocoro(16))
    instance = encoder.encode(system, encoder.EncodeConfig(
        nu=18, budget_k=18, mode=encoder.COMPACT))
    got = solve_with_both_sweeps(instance, SolveLimits(
        time_budget=1e9, node_budget=0, seed=0), monkeypatch)
    assert (got.stats.heuristic_evals, got.objective) == (7716, 92)


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
            for mask in range(1 << n):
                guesses = [v for v in range(n) if mask >> v & 1]
                layer = {encoder.state_var_name(v, 0): mask >> v & 1
                         for v in range(n)}
                result = propagate(variant, layer)
                broken = (budgeted and len(guesses) > cfg.budget_k) or (
                    covering and oracle.sweeps(options, mask, cfg.nu)[-1]
                    != (1 << n) - 1)
                assert (result.status == milp.CONFLICT) == broken
                if not broken:
                    assert {**layer, **result.fixed} == \
                        encoder.assignment_of(variant, system, guesses)


def exhaustive_coverage(system, cfg):
    """The most propositions ``nu`` sweeps from at most ``k`` guesses know."""
    options = oracle.option_masks(system)
    return max(oracle.sweeps(options, oracle.mask_of(guess),
                             cfg.nu)[-1].bit_count()
               for size in range(cfg.budget_k + 1)
               for guess in combinations(range(system.n), size))


def solve_with_both_loops(instance, monkeypatch):
    # a check a child wrongly inherits prunes nothing or misses a cover, so
    # the nodes are pinned as well as the answer
    got = solve(instance)
    with monkeypatch.context() as patched:
        patched.setattr(milp, "_solve_encoding", reference_solve_encoding)
        want = solve(instance)
    assert (got.status, got.objective, got.stats.nodes, got.assignment) == \
        (want.status, want.objective, want.stats.nodes, want.assignment)
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


def test_guess_search_rejects_an_assignment_that_breaks_a_row(toy,
                                                               monkeypatch):
    # the final incumbent is checked against the rows: a failed check is
    # an error, never an answer
    instance = encoder.encode(toy, encoder.EncodeConfig(nu=4, budget_k=1))
    monkeypatch.setattr(encoder, "assignment_of",
                        lambda instance, system, guesses:
                        {v.name: 0 for v in instance.variables})
    with pytest.raises(RuntimeError, match="broken rows"):
        solve(instance)


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
