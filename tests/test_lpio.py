import json

import pytest

from dedmin import ciphers, encoder, lpio, milp, preprocess
from dedmin.milp import Constraint, MilpInstance
from helpers import assignment_from_closure


def state_link_instance():
    names = ["x0_c1", "l0_p1_c0", "l0_p2_c0", "l0_p3_c0"]
    variables = [encoder.variable_from_name(n) for n in names]
    c = Constraint(((0, 3), (1, -1), (2, -1), (3, -1)), ">=", 0)
    return MilpInstance(variables, [c], ((0, 1),))


def test_write_lp_state_link_line():
    text = lpio.write_lp(state_link_instance())
    assert " c0: 3 x0_c1 - l0_p1_c0 - l0_p2_c0 - l0_p3_c0 >= 0" in text.splitlines()


def test_write_lp_empty_instance():
    text = lpio.write_lp(MilpInstance([], [], []))
    assert text == "Maximize\n obj:\nSubject To\nBinary\nEnd\n"


def test_round_trip_structural_equality(toy):
    cfg = encoder.EncodeConfig(nu=4, budget_k=1, mode=encoder.PLAIN)
    instance = encoder.encode(toy, cfg)
    text = lpio.write_lp(instance)
    again = lpio.read_lp(text)
    assert [v.name for v in again.variables] == [v.name for v in instance.variables]
    assert [v.kind for v in again.variables] == [v.kind for v in instance.variables]
    assert again.constraints == instance.constraints
    assert again.objective == instance.objective
    assert again.sense == instance.sense
    assert lpio.write_lp(again) == text


def test_write_lp_byte_deterministic(toy):
    cfg = encoder.EncodeConfig(nu=3, budget_k=2, mode=encoder.COMPACT)
    a = lpio.write_lp(encoder.encode(toy, cfg))
    b = lpio.write_lp(encoder.encode(toy, cfg))
    assert a == b


def test_constraint_text_is_the_lp_line(toy):
    for mode in (encoder.PLAIN, encoder.COMPACT):
        instance = encoder.encode(toy, encoder.EncodeConfig(
            nu=2, budget_k=1, mode=mode))
        lines = [line.strip() for line in lpio.write_lp(instance).splitlines()]
        for ci in range(len(instance.constraints)):
            assert instance.constraint_text(ci) in lines


def test_long_objective_wraps_and_parses():
    system = preprocess.expand_rules(ciphers.build_enocoro(16))
    cfg = encoder.EncodeConfig(nu=1, budget_k=18, mode=encoder.COMPACT)
    instance = encoder.encode(system, cfg)
    text = lpio.write_lp(instance)
    assert max(len(line) for line in text.splitlines()) <= 250
    again = lpio.read_lp(text)
    assert again.objective == instance.objective
    assert again.constraints == instance.constraints


def test_read_solution_accepts_closure_assignment(toy):
    cfg = encoder.EncodeConfig(nu=4, budget_k=1, mode=encoder.PLAIN)
    instance = encoder.encode(toy, cfg)
    assignment = assignment_from_closure(toy, cfg, [toy.index_of("p2")])
    solution = lpio.read_solution(json.dumps(assignment), instance)
    assert solution.objective == 4
    assert solution.status == milp.FEASIBLE


def test_read_solution_name_value_lines_and_sparseness(toy):
    cfg = encoder.EncodeConfig(nu=4, budget_k=1, mode=encoder.PLAIN)
    instance = encoder.encode(toy, cfg)
    # all-zero is feasible; mentioning nothing means all zeros
    solution = lpio.read_solution("# nothing set\n", instance)
    assert solution.objective == 0
    text = "\n".join(f"{name} 0" for name in sorted(
        v.name for v in instance.variables))
    assert lpio.read_solution(text, instance).objective == 0


def test_read_solution_rejects_nonbinary(toy):
    cfg = encoder.EncodeConfig(nu=2, budget_k=1, mode=encoder.PLAIN)
    instance = encoder.encode(toy, cfg)
    with pytest.raises(lpio.NonBinaryValue):
        lpio.read_solution(json.dumps({"x0_c0": 2}), instance)
    with pytest.raises(lpio.NonBinaryValue):  # too large for a float
        lpio.read_solution('{"x0_c0": 1%s}' % ("0" * 400), instance)


def test_read_solution_rejects_unknown_variable(toy):
    cfg = encoder.EncodeConfig(nu=2, budget_k=1, mode=encoder.PLAIN)
    instance = encoder.encode(toy, cfg)
    with pytest.raises(lpio.UnknownVariable):
        lpio.read_solution(json.dumps({"nope": 1}), instance)


def test_read_solution_budget_violation_names_constraint():
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    cfg = encoder.EncodeConfig(nu=1, budget_k=9, mode=encoder.PLAIN)
    instance = encoder.encode(system, cfg)
    # ten initial guesses against a budget of nine
    bad = {encoder.state_var_name(v, 0): 1 for v in range(10)}
    with pytest.raises(lpio.InfeasibleImport) as err:
        lpio.read_solution(json.dumps(bad), instance)
    budget_rows = [viol for viol in err.value.violations
                   if "<= 9" in viol.text]
    assert budget_rows, [v.text for v in err.value.violations]


def test_read_lp_rejects_garbage():
    with pytest.raises(lpio.LpParseError):
        lpio.read_lp("Hello\n")
    with pytest.raises(lpio.LpParseError):
        lpio.read_lp("Maximize\n obj: x\nSubject To\n c0: x + >= 1\nBinary\n x\nEnd\n")
    with pytest.raises(lpio.LpParseError):
        lpio.read_lp("Maximize\n obj: y\nSubject To\nBinary\n x\nEnd\n")
    with pytest.raises(lpio.LpParseError, match="'x' declared Binary twice"):
        lpio.read_lp("Maximize\n obj: x\nSubject To\n c0: x <= 1\n"
                     "Binary\n x\n x\nEnd\n")
