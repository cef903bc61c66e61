import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from dedmin import ciphers, encoder, lpio, milp, preprocess
from dedmin.core import DeductionSystem, DirectedRule
from helpers import (encoding_cases, fields, perfbench_workloads,
                     random_system, refutation_cases, with_full_cover,
                     without_heuristic)


def single_state_system(premise_counts):
    """Prop 0 concluded by one rule per entry; entry = premise count."""
    total = 1 + sum(premise_counts)
    nms = [f"v{i}" for i in range(total)]
    rules = []
    nxt = 1
    for kappa in premise_counts:
        rules.append(DirectedRule.of(range(nxt, nxt + kappa), 0))
        nxt += kappa
    return DeductionSystem.from_names(nms, (), rules)


def rows_about(instance, var_name):
    vid = instance.index_of(var_name)
    return [c for c in instance.constraints
            if any(v == vid for v, _ in c.terms)]


def enumerate_group(instance, constraints):
    """All 0/1 assignments of the variables the constraints mention,
    split into satisfying / violating sets."""
    var_ids = sorted({v for c in constraints for v, _ in c.terms})
    sat, unsat = [], []
    for bits in product((0, 1), repeat=len(var_ids)):
        values = dict(zip(var_ids, bits))
        full = [values.get(i, 0) for i in range(len(instance.variables))]
        ok = not milp._broken_rows(constraints, full)
        (sat if ok else unsat).append(values)
    return var_ids, sat, unsat


# --- truth tables -----------------------------------------------------------

@pytest.mark.parametrize("tau", [1, 2, 3, 4])
def test_state_link_matches_disjunction_table(tau):
    system = single_state_system([1] * (tau - 1))
    cfg = encoder.EncodeConfig(nu=1, budget_k=system.n, mode=encoder.PLAIN)
    instance = encoder.encode(system, cfg)
    group = rows_about(instance, encoder.state_var_name(0, 1))
    assert len(group) == (1 if tau == 1 else 2)
    path_ids = [instance.index_of(encoder.path_var_name(0, j + 1, 0))
                for j in range(tau)]
    x_new = instance.index_of(encoder.state_var_name(0, 1))
    _, sat, unsat = enumerate_group(instance, group)
    for values in sat:
        assert values[x_new] == max(values[p] for p in path_ids)
    for values in unsat:
        assert values[x_new] != max(values[p] for p in path_ids)
    assert len(sat) + len(unsat) == 2 ** (tau + 1)


@pytest.mark.parametrize("kappa", [1, 2, 3, 4])
def test_path_firing_matches_conjunction_table(kappa):
    system = single_state_system([kappa])
    cfg = encoder.EncodeConfig(nu=1, budget_k=system.n, mode=encoder.PLAIN)
    instance = encoder.encode(system, cfg)
    lvar = encoder.path_var_name(0, 2, 0)  # path 1 is the carry-over
    group = rows_about(instance, lvar)
    group = [c for c in group
             if all(instance.variables[v].kind != milp.STATE
                    or instance.variables[v].copy == 0 for v, _ in c.terms)]
    assert len(group) == (1 if kappa == 1 else 2)
    lid = instance.index_of(lvar)
    premise_ids = [instance.index_of(encoder.state_var_name(p, 0))
                   for p in range(1, kappa + 1)]
    _, sat, unsat = enumerate_group(instance, group)
    for values in sat:
        assert values[lid] == min(values[p] for p in premise_ids)
    for values in unsat:
        assert values[lid] != min(values[p] for p in premise_ids)
    assert len(sat) + len(unsat) == 2 ** (kappa + 1)


@pytest.mark.parametrize("tau,kappa", [(t, k) for t in (2, 3, 4)
                                       for k in (2, 3, 4)])
def test_folded_link_matches_its_table(tau, kappa):
    # tau paths total: carry-over + (tau-2) single-premise + one folded
    system = single_state_system([1] * (tau - 2) + [kappa])
    cfg = encoder.EncodeConfig(nu=1, budget_k=system.n, mode=encoder.COMPACT)
    instance = encoder.encode(system, cfg)
    x_new_name = encoder.state_var_name(0, 1)
    group = rows_about(instance, x_new_name)
    assert len(group) == 2
    x_new = instance.index_of(x_new_name)
    carry = instance.index_of(encoder.state_var_name(0, 0))
    mids = [instance.index_of(encoder.path_var_name(0, j + 1, 0))
            for j in range(1, tau - 1)]
    premises = [instance.index_of(encoder.state_var_name(p, 0))
                for p in range(tau - 1, tau - 1 + kappa)]
    var_ids, sat, unsat = enumerate_group(instance, group)
    assert set(var_ids) == {x_new, carry, *mids, *premises}

    def expected(values):
        fired = any(values[g] for g in [carry] + mids) \
            or all(values[p] for p in premises)
        return values[x_new] == (1 if fired else 0)

    for values in sat:
        assert expected(values)
    for values in unsat:
        assert not expected(values)
    assert len(sat) + len(unsat) == 2 ** (tau + kappa)


# --- path enumeration -------------------------------------------------------

def test_paths_of_variable_without_rules():
    system = DeductionSystem.from_names(["a", "b"], (),
                                        [DirectedRule((0,), 1)])
    table = encoder.enumerate_paths(system)
    assert table == (((0,),), ((1,), (0,)))


def test_paths_require_expanded_system():
    from dedmin.core import SymmetricRule
    system = DeductionSystem.from_names(["a", "b"], [SymmetricRule((0, 1))])
    with pytest.raises(encoder.NotExpandedError):
        encoder.enumerate_paths(system)
    with pytest.raises(encoder.NotExpandedError):
        encoder.encode(system, encoder.EncodeConfig(nu=1, budget_k=0))


def test_snow_s11_paths():
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    table = encoder.enumerate_paths(system)
    v = system.index_of("s_11")
    row = table[v]
    got = {frozenset(system.name_of(p) for p in premises) for premises in row}
    assert got == {
        frozenset({"s_11"}),
        frozenset({"R_6", "R_8"}),
        frozenset({"s_13", "s_22", "s_27"}),
        frozenset({"R_11", "R_12", "s_26"}),
        frozenset({"s_9", "s_20", "s_25"}),
        frozenset({"s_0", "s_2", "s_16"}),
    }
    assert row[0] == (v,)


# --- instance shape ---------------------------------------------------------

def test_snow_eq15_style_block_for_s11():
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    cfg = encoder.EncodeConfig(nu=1, budget_k=9, mode=encoder.PLAIN)
    instance = encoder.encode(system, cfg)
    v = system.index_of("s_11")

    def x(name, copy=0):
        return instance.index_of(encoder.state_var_name(system.index_of(name), copy))

    def l(j):
        return instance.index_of(encoder.path_var_name(v, j, 0))

    block = {c for c in instance.constraints
             if any(vid == instance.index_of(encoder.state_var_name(v, 1))
                    for vid, _ in c.terms)
             or any(vid in {l(j) for j in range(1, 7)} for vid, _ in c.terms)}
    assert len(block) == 13

    def norm(c):
        return (tuple(sorted(c.terms)), c.rel, c.rhs)

    def ge(terms, rhs):
        return (tuple(sorted(terms)), ">=", rhs)

    def eq(terms, rhs):
        return (tuple(sorted(terms)), "=", rhs)

    paths = {
        2: ["s_16", "s_2", "s_0"],
        3: ["s_25", "s_20", "s_9"],
        4: ["s_27", "s_22", "s_13"],
        5: ["s_26", "R_12", "R_11"],
        6: ["R_6", "R_8"],
    }
    expected = {eq([(l(1), 1), (x("s_11"), -1)], 0)}
    for j, premises in paths.items():
        kappa = len(premises)
        expected.add(ge([(l(j), 1)] + [(x(p), -1) for p in premises], 1 - kappa))
        expected.add(ge([(l(j), -kappa)] + [(x(p), 1) for p in premises], 0))
    x_new = instance.index_of(encoder.state_var_name(v, 1))
    expected.add(ge([(x_new, -2)] + [(l(j), 1) for j in range(1, 7)], -1))
    expected.add(ge([(x_new, 6)] + [(l(j), -1) for j in range(1, 7)], 0))
    assert {norm(c) for c in block} == expected


def test_copy_only_variable_gets_single_equality_chain():
    system = DeductionSystem.from_names(["a", "b"], (), [DirectedRule((1,), 0)])
    cfg = encoder.EncodeConfig(nu=2, budget_k=2, mode=encoder.PLAIN)
    instance = encoder.encode(system, cfg)
    # b has only the carry-over path: l = x_old and x_new = l at each step
    for step in range(2):
        lid = instance.index_of(encoder.path_var_name(1, 1, step))
        rows = [c for c in instance.constraints
                if any(v == lid for v, _ in c.terms)]
        assert {c.rel for c in rows} == {"="}
        assert len(rows) == 2


def test_snow_counts_per_copy():
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    table = encoder.enumerate_paths(system)
    assert system.n == 42  # 2T+16 state variables per copy
    assert sum(map(len, table)) == 178
    cfg = encoder.EncodeConfig(nu=12, budget_k=9, mode=encoder.PLAIN)
    instance = encoder.encode(system, cfg)
    assert len(instance.variables) == 42 * 13 + 178 * 12
    path_vars = [v for v in instance.variables if v.kind == milp.PATH]
    assert len(path_vars) == 178 * 12


def test_min_guesses_instance_shape(toy):
    cfg = encoder.EncodeConfig(nu=2, budget_k=0, mode=encoder.PLAIN,
                               sense=encoder.MIN_GUESSES)
    instance = encoder.encode(toy, cfg)
    assert instance.sense == milp.MINIMIZE
    final = [c for c in instance.constraints
             if c.rel == "=" and len(c.terms) == 1 and c.rhs == 1]
    assert len(final) == toy.n
    assert not any(c.rel == "<=" for c in instance.constraints)


def test_config_validation(toy):
    with pytest.raises(encoder.ConfigError):
        encoder.encode(toy, encoder.EncodeConfig(nu=0, budget_k=1))
    with pytest.raises(encoder.ConfigError):
        encoder.encode(toy, encoder.EncodeConfig(nu=1, budget_k=5))
    with pytest.raises(encoder.ConfigError):
        encoder.encode(toy, encoder.EncodeConfig(nu=1, budget_k=1, mode="x"))
    with pytest.raises(encoder.ConfigError, match="unknown sense 'avg'"):
        encoder.EncodeConfig(nu=1, sense="avg").check(toy.n)
    with pytest.raises(encoder.ConfigError, match="budget must be >= 0"):
        encoder.EncodeConfig(nu=1, budget_k=-1).check(toy.n)
    # a budget beyond n is fine when minimizing guesses (it is ignored)
    encoder.encode(toy, encoder.EncodeConfig(
        nu=1, budget_k=5, sense=encoder.MIN_GUESSES))


def test_encode_deterministic(toy):
    cfg = encoder.EncodeConfig(nu=3, budget_k=2, mode=encoder.COMPACT)
    a = encoder.encode(toy, cfg)
    b = encoder.encode(toy, cfg)
    assert [v.name for v in a.variables] == [v.name for v in b.variables]
    assert a.constraints == b.constraints
    assert a.objective == b.objective


# the sha256 of the LP texts below, joined in order; any change to the order
# or the content of an encoding's variables or rows changes it
ENCODING_DIGEST = (
    "0b6aea2e4863c49ff6016c5ca8773611a6be8635263b2d30f5a93d6d5d34b39b")


def test_encodings_keep_their_lp_text_byte_for_byte():
    systems = [(preprocess.expand_rules(ciphers.build_snow2(13)), 12, 9),
               (preprocess.expand_rules(ciphers.build_enocoro(16)), 18, 18)]
    for seed in range(40):
        rng = random.Random(seed)
        system = preprocess.expand_rules(random_system(rng))
        systems.append((system, rng.randint(1, system.n + 1),
                        rng.randint(0, system.n)))
    digest = hashlib.sha256()
    for system, nu, k in systems:
        for mode in (encoder.PLAIN, encoder.COMPACT):
            for sense, budget in ((encoder.MAX_COVERAGE, k),
                                  (encoder.MIN_GUESSES, 0)):
                instance = encoder.encode(
                    system, encoder.EncodeConfig(nu, budget, mode, sense))
                digest.update(lpio.write_lp(instance).encode())
    assert digest.hexdigest() == ENCODING_DIGEST


# --- reduction accounting ---------------------------------------------------

def test_reduction_zero_when_nothing_to_fold():
    system = DeductionSystem.from_names(["a", "b"])
    report = encoder.count_reduction(
        system, encoder.EncodeConfig(nu=3, budget_k=1))
    assert report.variables_removed == 0
    assert report.constraints_removed == 0


def test_snow_reduction_counts():
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    nu = 12
    report = encoder.count_reduction(
        system, encoder.EncodeConfig(nu=nu, budget_k=9))
    assert report.variables_removed == (4 * 13 + 32) * nu
    assert report.constraints_removed == (6 * 13 + 48) * nu


def test_enocoro_reduction_counts():
    system = preprocess.expand_rules(ciphers.build_enocoro(16))
    nu = 3  # the per-copy saving is linear in nu; keep the instance small
    report = encoder.count_reduction(
        system, encoder.EncodeConfig(nu=nu, budget_k=18))
    assert report.variables_removed == (14 * 16 - 8) * nu
    assert report.constraints_removed == (21 * 16 - 12) * nu


def test_reduction_counts_unroll_nothing(monkeypatch):
    # the report reads both modes' step blocks: it gives the counts of the
    # unrolled encodings, in both senses, and unrolls neither
    cases = [(system, cfg) for system, cfg in encoding_cases()
             if cfg.mode == encoder.COMPACT]
    assert {cfg.sense for _, cfg in cases} == {encoder.MAX_COVERAGE,
                                               encoder.MIN_GUESSES}

    def unrolled(system, cfg):
        plain, compact = (encoder.encode(system, encoder.EncodeConfig(
            cfg.nu, cfg.budget_k, mode, cfg.sense))
            for mode in (encoder.PLAIN, encoder.COMPACT))
        return encoder.ReductionReport(
            len(plain.variables), len(compact.variables),
            len(plain.constraints), len(compact.constraints))

    want = [unrolled(system, cfg) for system, cfg in cases]

    def no_unroll(instance):
        raise AssertionError("count_reduction unrolled an encoding")

    with monkeypatch.context() as patched:
        patched.setattr(encoder, "unroll", no_unroll)
        got = [encoder.count_reduction(system, cfg) for system, cfg in cases]
    assert got == want


# --- properties -------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_modes_reach_equal_optima(seed):
    rng = random.Random(seed)
    system = preprocess.expand_rules(random_system(rng, max_n=7, max_m=10))
    nu = encoder.default_nu(system)
    k = rng.randint(0, system.n)
    results = []
    for mode in (encoder.PLAIN, encoder.COMPACT):
        instance = encoder.encode(
            system, encoder.EncodeConfig(nu=nu, budget_k=k, mode=mode))
        solution = milp.solve(instance, milp.SolveLimits(time_budget=60))
        assert solution.status == milp.OPTIMAL
        results.append(solution.objective)
    assert results[0] == results[1]


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_objective_monotone_in_unrolling_depth(seed):
    rng = random.Random(seed)
    system = preprocess.expand_rules(random_system(rng, max_n=6, max_m=10))
    k = rng.randint(0, system.n)
    values = []
    for nu in range(1, system.n + 3):
        instance = encoder.encode(
            system, encoder.EncodeConfig(nu=nu, budget_k=k,
                                         mode=encoder.COMPACT))
        solution = milp.solve(instance, milp.SolveLimits(time_budget=60))
        assert solution.status == milp.OPTIMAL
        values.append(solution.objective)
    assert all(a <= b for a, b in zip(values, values[1:]))
    stable = values[system.n - 1:]
    assert len(set(stable)) == 1


# --- decode -----------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_decode_inverts_encode_through_lp_text(seed):
    rng = random.Random(seed)
    system = preprocess.expand_rules(random_system(rng))
    folds = any(len(r.premises) >= 2 for r in system.directed_rules)
    for mode, sense in product((encoder.PLAIN, encoder.COMPACT),
                               (encoder.MAX_COVERAGE, encoder.MIN_GUESSES)):
        budget = rng.randint(0, system.n) if sense == encoder.MAX_COVERAGE else 0
        cfg = encoder.EncodeConfig(rng.randint(1, system.n + 1), budget, mode,
                                   sense)
        instance = encoder.encode(system, cfg)
        variants = [(instance, False)]
        if sense == encoder.MAX_COVERAGE:
            variants.append((with_full_cover(instance, system.n, cfg.nu),
                             True))
        for variant, full_cover in variants:
            decoded = encoder.decode(lpio.read_lp(lpio.write_lp(variant)))
            assert decoded is not None
            got_system, got_cfg, got_full_cover = decoded
            # without a multi-premise rule nothing folds: both modes coincide
            want_mode = mode if folds else encoder.PLAIN
            assert got_cfg == encoder.EncodeConfig(cfg.nu, budget, want_mode,
                                                   sense)
            assert got_full_cover == full_cover
            assert got_system.n == system.n
            assert sorted(r.sort_key() for r in got_system.directed_rules) == \
                sorted(r.sort_key() for r in system.directed_rules)


def test_decode_rejects_what_encode_cannot_make(toy, monkeypatch):
    cfg = encoder.EncodeConfig(nu=4, budget_k=1)
    instance = encoder.encode(toy, cfg)
    full_row = with_full_cover(instance, toy.n, cfg.nu).constraints[-1]
    short_row = milp.Constraint(full_row.terms, milp.GREATER_EQUAL, toy.n - 1)
    with monkeypatch.context() as patched:
        # a last row that is neither the budget nor the full-cover row
        # breaks the shape decode checks before it emits an encoding to
        # compare with the instance
        def no_emit(*args):
            raise AssertionError("decode emitted for a non-encoding")

        patched.setattr(encoder, "encode", no_emit)
        patched.setattr(encoder, "_emit", no_emit)
        assert encoder.decode(without_heuristic(instance)) is None
        assert encoder.decode(milp.MilpInstance(
            instance.variables, instance.constraints + (short_row,),
            instance.objective, instance.sense)) is None
    dropped = milp.MilpInstance(instance.variables, instance.constraints[1:],
                                instance.objective, instance.sense)
    assert encoder.decode(dropped) is None
    hand_built = milp.MilpInstance(
        [milp.Variable("a"), milp.Variable("b")],
        [milp.Constraint(((0, 1), (1, -1)), milp.GREATER_EQUAL, 0)], ((1, 1),))
    assert encoder.decode(hand_built) is None
    assert encoder.decode(milp.MilpInstance([], [], [])) is None
    # decode reads the rules from step 0 and compares every step's rows
    for mode in (encoder.PLAIN, encoder.COMPACT):
        cfg = encoder.EncodeConfig(nu=4, budget_k=1, mode=mode)
        instance = encoder.encode(toy, cfg)
        assert encoder.decode(instance) is not None
        rows = instance.constraints
        per_step = (len(rows) - 1) // cfg.nu  # the budget row closes it
        for step in (0, cfg.nu // 2, cfg.nu - 1):
            ci = step * per_step + per_step // 2
            (*kept, (var, coef)) = rows[ci].terms
            changed = milp.Constraint((*kept, (var, 2 * coef)), rows[ci].rel,
                                      rows[ci].rhs)
            assert encoder.decode(milp.MilpInstance(
                instance.variables, rows[:ci] + (changed,) + rows[ci + 1:],
                instance.objective, instance.sense)) is None
        renamed = list(instance.variables)
        first = len(renamed) - toy.n  # x0 at the last copy
        renamed[first] = milp.Variable(
            encoder.state_var_name(toy.n, cfg.nu), milp.STATE, toy.n, cfg.nu)
        assert encoder.decode(milp.MilpInstance(
            renamed, rows, instance.objective, instance.sense)) is None


def test_decode_reads_an_encoding_plus_its_full_cover_row(toy):
    for mode in (encoder.PLAIN, encoder.COMPACT):
        cfg = encoder.EncodeConfig(nu=3, budget_k=2, mode=mode)
        instance = encoder.encode(toy, cfg)
        refute = with_full_cover(instance, toy.n, cfg.nu)
        system, got_cfg, full_cover = encoder.decode(instance)
        assert not full_cover
        assert encoder.decode(refute) == (system, got_cfg, True)
        row = refute.constraints[-1]
        for changed in (
                milp.Constraint(row.terms, milp.GREATER_EQUAL, toy.n - 1),
                milp.Constraint(row.terms[1:], milp.GREATER_EQUAL, toy.n),
                milp.Constraint(row.terms, milp.EQUAL, toy.n)):
            wrong = milp.MilpInstance(instance.variables,
                                      instance.constraints + (changed,),
                                      instance.objective, instance.sense)
            assert encoder.decode(wrong) is None
        # only a max-sense encoding takes the row
        minimize = encoder.encode(toy, encoder.EncodeConfig(
            nu=3, mode=mode, sense=encoder.MIN_GUESSES))
        assert encoder.decode(with_full_cover(minimize, toy.n, 3)) is None
        # the rows before it must be an encoding
        dropped = milp.MilpInstance(refute.variables, refute.constraints[1:],
                                    refute.objective, refute.sense)
        assert encoder.decode(dropped) is None


def outcome(solution):
    """What a solve answers and how much work it took, timings aside."""
    return (solution.status, solution.objective, solution.stats.nodes,
            solution.stats.heuristic_evals, solution.assignment)


def test_an_instance_records_what_it_was_built_from():
    built = [(system, cfg, False) for system, cfg in encoding_cases()]
    instances = [encoder.encode(system, cfg) for system, cfg, _ in built]
    # read_lp records the full-cover row, which encode never emits
    for refute in refutation_cases():
        instances.append(lpio.read_lp(lpio.write_lp(refute)))
        built.append(instances[-1].encoding)
    limits = milp.SolveLimits(node_budget=100)
    for encoding, instance in zip(built, instances):
        assert instance.encoding == encoding
        rebuilt = encoder.rebuild(instance.encoding)
        assert fields(rebuilt) == fields(instance)
        assert rebuilt.encoding == instance.encoding
        # built by hand or parsed from its text, the instance is an
        # encoding all the same: it takes the triple decode reads
        copy = milp.MilpInstance(*fields(instance))
        parsed = lpio._parse(lpio.write_lp(instance))
        for same in (copy, parsed):
            assert same.encoding is not None
            assert same.encoding == encoder.decode(same)
            assert fields(encoder.rebuild(same.encoding)) == fields(instance)
        assert without_heuristic(instance).encoding is None
        solution = milp.solve(instance, limits)
        assert outcome(solution) == outcome(milp.solve(copy, limits))
    assert [i.encoding[2] for i in instances].count(True) == 2


def test_an_instance_built_by_hand_is_solved_as_its_encoding(monkeypatch):
    # the SNOW k=8 refutation, its full-cover row added by hand, is an
    # encoding from the moment it is built: solve reads no decode
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    cfg = encoder.EncodeConfig(12, 8)
    refute = with_full_cover(encoder.encode(system, cfg), system.n, cfg.nu)
    assert refute.encoding == encoder.decode(refute)
    assert refute.encoding[1:] == (cfg, True)

    def no_decode(instance):
        raise AssertionError("solve decoded an instance")

    monkeypatch.setattr(encoder, "decode", no_decode)
    limits = milp.SolveLimits(node_budget=1000)
    assert outcome(milp.solve(refute, limits)) == \
        outcome(milp.solve(encoder.rebuild(refute.encoding), limits))


def test_an_encoded_instance_is_never_read_back(toy, monkeypatch):
    def no_reading(*args):
        raise AssertionError("an encoded instance was read back")

    monkeypatch.setattr(encoder, "read_first_step", no_reading)
    monkeypatch.setattr(encoder, "decode", no_reading)
    limits = milp.SolveLimits(node_budget=50)
    for mode in (encoder.PLAIN, encoder.COMPACT):
        maximize = encoder.EncodeConfig(nu=3, budget_k=2, mode=mode)
        minimize = encoder.EncodeConfig(nu=3, mode=mode,
                                        sense=encoder.MIN_GUESSES)
        for instance in (encoder.encode(toy, maximize),
                         encoder.encode(toy, minimize),
                         encoder.rebuild((toy, maximize, True))):
            assert instance.encoding[0] is toy
            solution = milp.solve(instance, limits)
            assert solution.status in (milp.OPTIMAL, milp.INFEASIBLE)


def test_a_variable_is_read_from_its_name_only_as_it_is_written():
    state = encoder.variable_from_name(encoder.state_var_name(12, 3))
    path = encoder.variable_from_name(encoder.path_var_name(12, 0, 3))
    assert (state.kind, state.prop, state.copy) == (milp.STATE, 12, 3)
    assert (path.kind, path.prop, path.path, path.copy) == \
        (milp.PATH, 12, 0, 3)
    # other spellings of the same numbers name no state or path variable
    for name in ("x012_c3", "x12_c03", "x12_c3\n", "x\u0661_c3",
                 "l12_p00_c3", "l12_p0_c3 ", "x12_c"):
        assert encoder.variable_from_name(name).kind == milp.OTHER, name
    assert encoder.marked_states({"x12_c3": 1, "x2_c0": 0, "x012_c3": 1,
                                  "l1_p0_c0": 1, "p": 1}) == [(3, 12)]


def test_a_claimed_depth_the_variables_cannot_hold_is_never_emitted(
        toy, monkeypatch):
    # the last variable names copy 10**9: decode and read_lp must see from
    # the variable count that no encoding fits, not unroll 10**9 steps
    instance = encoder.encode(toy, encoder.EncodeConfig(nu=3, budget_k=1))
    deep = encoder.state_var_name(toy.n - 1, 10**9)
    variables = instance.variables[:-1] + (encoder.variable_from_name(deep),)
    claimed = milp.MilpInstance(variables, instance.constraints,
                                instance.objective, instance.sense)
    text = lpio.write_lp(claimed)

    def no_emit(*args):
        raise AssertionError("an encoding was emitted")

    monkeypatch.setattr(encoder, "_emit", no_emit)
    assert encoder.decode(claimed) is None
    read = lpio.read_lp(text)
    assert read.encoding is None
    assert read.variables[-1].name == deep


def test_a_system_without_propositions_records_no_encoding():
    instance = encoder.encode(DeductionSystem.from_names([]),
                              encoder.EncodeConfig(nu=1))
    assert instance.encoding is None
    assert encoder.decode(instance) is None


def test_decode_rejects_a_lone_full_cover_row_and_an_empty_row(toy):
    cfg = encoder.EncodeConfig(nu=1, budget_k=1)
    instance = encoder.encode(toy, cfg)
    row = with_full_cover(instance, toy.n, cfg.nu).constraints[-1]
    alone = milp.MilpInstance(instance.variables, (row,),
                              instance.objective, instance.sense)
    assert encoder.decode(alone) is None
    # step 0's row 0 with no terms left
    empty = milp.Constraint((), milp.GREATER_EQUAL, 0)
    emptied = milp.MilpInstance(instance.variables,
                                (empty,) + instance.constraints[1:],
                                instance.objective, instance.sense)
    assert encoder.decode(emptied) is None


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_an_unrolled_instance_is_what_decode_accepts(seed):
    # an instance built from its triple holds its step block; the variables
    # and rows it unrolls on first read are those decode accepts in a copy
    # built by hand, whose block is the same
    rng = random.Random(seed)
    system = preprocess.expand_rules(random_system(rng))
    for mode, sense in product((encoder.PLAIN, encoder.COMPACT),
                               (encoder.MAX_COVERAGE, encoder.MIN_GUESSES)):
        budget = rng.randint(0, system.n) if sense == encoder.MAX_COVERAGE else 0
        cfg = encoder.EncodeConfig(rng.randint(1, system.n + 1), budget, mode,
                                   sense)
        for full_cover in ((False, True) if sense == encoder.MAX_COVERAGE
                           else (False,)):
            built = encoder.rebuild((system, cfg, full_cover))
            block = built.block
            variables, rows = built.variables, built.constraints
            assert (block.n, block.nu) == (system.n, cfg.nu)
            assert len(variables) == block.size == \
                block.n + block.nu * block.stride
            assert len(rows) == block.nu * len(block.rows) + len(block.closing)
            assert built.names == tuple(v.name for v in variables)
            assert list(map(encoder.variable_from_name, built.names)) == \
                list(variables)
            copy = milp.MilpInstance(variables, rows, built.objective,
                                     built.sense)
            assert copy.encoding is not None
            assert copy.encoding[1].nu == block.nu
            assert copy.encoding[2] == full_cover
            assert copy.block == built.block
            assert fields(encoder.rebuild(copy.encoding)) == fields(built)


def test_a_solve_op_never_builds_the_full_rows(monkeypatch):
    # both routes of the benchmark's SNOW k=9 and Enocoro k=18 ops, at its
    # default seed and node budgets: encode or read_lp, solve and the trace
    # read the step block alone
    workloads = perfbench_workloads()
    layers, done = workloads.Layers(), []

    def no_unroll(instance):
        raise AssertionError("an op built the full rows")

    with monkeypatch.context() as patched:
        patched.setattr(encoder, "unroll", no_unroll)
        for name in ("snow-k9", "enocoro-k18"):
            workload = workloads.WORKLOADS[name]
            ops = workload.plan(1, 1.0)
            assert sorted(op.route for op in ops) == sorted(
                [workloads.LP, workloads.RULES])
            for op in ops:
                result = workloads.run_op(layers, op)
                assert result.instance.block is not None
                assert result.solution.assignment is not None
                done.append((workload, op, result))
    for workload, op, result in done:
        assert workload.check(op.case, result) is None
