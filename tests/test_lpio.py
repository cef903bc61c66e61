import json
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dedmin import ciphers, cli, encoder, lpio, milp, preprocess
from dedmin.core import DeductionSystem, DirectedRule
from dedmin.milp import Constraint, MilpInstance
from helpers import (encoding_cases, fields, random_system,
                     refutation_cases, with_full_cover, without_heuristic)

TOY = Path(__file__).parent / "data" / "toy.rules"


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
    assignment = encoder.assignment_of(instance, toy, [toy.index_of("p2")])
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


def assert_round_trip(instance):
    text = lpio.write_lp(instance)
    again = lpio.read_lp(text)
    assert fields(again) == fields(instance)
    assert lpio.write_lp(again) == text


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_read_lp_inverts_write_lp(seed):
    # up to 40 propositions, so that the objective and budget rows wrap
    rng = random.Random(seed)
    system = preprocess.expand_rules(random_system(rng, max_n=40, max_m=60))
    for mode, sense in product((encoder.PLAIN, encoder.COMPACT),
                               (encoder.MAX_COVERAGE, encoder.MIN_GUESSES)):
        budget = rng.randint(0, system.n) if sense == encoder.MAX_COVERAGE else 0
        cfg = encoder.EncodeConfig(rng.randint(1, 3), budget, mode, sense)
        instance = encoder.encode(system, cfg)
        for case in (instance, with_full_cover(instance, system.n, cfg.nu),
                     without_heuristic(instance)):
            assert_round_trip(case)


@pytest.mark.parametrize("build, cfg", [
    (lambda: ciphers.build_snow2(13), encoder.EncodeConfig(nu=12, budget_k=9)),
    (lambda: ciphers.build_enocoro(16), encoder.EncodeConfig(nu=18, budget_k=18)),
], ids=["snow-k9", "enocoro-k18"])
def test_read_lp_inverts_write_lp_on_ciphers(build, cfg):
    assert_round_trip(encoder.encode(preprocess.expand_rules(build()), cfg))


LP = "Maximize\n obj: x\nSubject To\n c0: x + 2 y >= 1\nBinary\n x\n y\nEnd\n"
LONG = "1" * 5000  # more digits than int() converts


@pytest.mark.parametrize("old, new, message", [
    ("Maximize", "Maximise", "header"),
    ("Subject To\n", "", "'Subject To'"),
    ("End\n", "", "'End'"),
    (" obj: x", " x", "expected ' obj:'"),
    (" c0:", " c1:", "expected ' c0:'"),
    (" y\n", " 2y\n", "' 2y' is not one variable name"),
    (" x\n y", " x y", "' x y' is not one variable name"),
    (" y\n", " x\n", "'x' declared Binary twice"),
    (">= 1", "1", "c0: missing relation"),
    (">= 1", ">= 1.5", "c0: '1.5' is not an integer"),
    (">= 1", ">= " + LONG, "c0: '1+' is not an integer"),
    ("2 y", LONG + " y", "c0: '1+' is not an integer"),
    (">= 1", ">= \u0663", "c0: '\u0663' is not an integer"),
    ("2 y", "\u0662 y", "c0: '\u0662' is not an integer"),
    ("x + 2 y", "x 2 y", "c0: no sign before '2'"),
    ("x + 2 y", "x + 2", "c0: dangling sign or coefficient"),
    ("obj: x", "obj: z", "objective: 'z' is not declared Binary"),
], ids=["header", "no-subject-to", "no-end", "objective-label", "row-label",
        "binary-name", "binary-line", "binary-twice", "relation", "rhs",
        "rhs-digits", "coefficient-digits", "rhs-non-ascii",
        "coefficient-non-ascii", "sign", "dangling", "undeclared"])
def test_each_rejection_exits_1(tmp_path, capsys, old, new, message):
    assert lpio.read_lp(LP).sense == milp.MAXIMIZE
    text = LP.replace(old, new, 1)
    with pytest.raises(lpio.LpParseError, match=message):
        lpio.read_lp(text)
    path = tmp_path / "bad.lp"
    path.write_text(text)
    assert cli.main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dedmin: ") and len(err.splitlines()) == 1, err


def test_read_solution_reads_solve_json(toy, capsys):
    assert cli.main(["solve", str(TOY), "--nu", "4", "--k", "1", "--mode",
                     "plain", "--json"]) == 0
    instance = encoder.encode(toy, encoder.EncodeConfig(
        nu=4, budget_k=1, mode=encoder.PLAIN))
    solution = lpio.read_solution(capsys.readouterr().out, instance)
    assert solution.objective == 4


# --- the two ways of reading ------------------------------------------------

@pytest.fixture(scope="module")
def encoding_texts():
    """The LP text of every encoding case and of the SNOW refutation."""
    instances = [encoder.encode(system, cfg) for system, cfg in
                 encoding_cases()] + refutation_cases()
    return [lpio.write_lp(instance) for instance in instances]


def test_an_encoding_is_read_as_the_generic_parser_reads_it(encoding_texts):
    for text in encoding_texts:
        instance = lpio.read_lp(text)
        parsed = lpio._parse(text)
        assert fields(instance) == fields(parsed)
        assert instance.encoding is not None
        assert instance.encoding == parsed.encoding == encoder.decode(parsed)
    full_cover = [lpio.read_lp(text).encoding[2] for text in encoding_texts]
    assert full_cover.count(True) == 2  # the refutation, in both modes


def variants(text):
    """Texts :func:`lpio.write_lp` does not write, each with what makes it
    one: the generic parser reads each as the parent commit did.  The
    first three change only spacing and line ends, so the instance is
    still the encoding; the rest are no encoding."""
    lines = text.splitlines(keepends=True)
    binary = lines.index("Binary\n")
    rows = binary - 3
    swapped = lines[:binary + 1] + [lines[binary + 2], lines[binary + 1]] + \
        lines[binary + 3:]
    extra = lines[:binary] + [f" c{rows}: x0_c0 >= 0\n"] + lines[binary:]
    return {"extra spaces": text.replace(" c0: ", " c0:  ", 1),
            "trailing space": text.replace("\nBinary", " \nBinary"),
            "CRLF": text.replace("\n", "\r\n"),
            "extra row": "".join(extra),
            "Binary lines swapped": "".join(swapped),
            "header": " " + text}


SPACING = ("extra spaces", "trailing space", "CRLF")


def test_any_other_text_takes_the_generic_path(encoding_texts):
    # every text of a random system, and both ciphers' first texts
    for text in encoding_texts[8:] + encoding_texts[:1] + encoding_texts[4:5]:
        for what, variant in variants(text).items():
            assert variant != text, what
            try:
                want = lpio._parse(variant)
            except lpio.LpParseError as err:
                with pytest.raises(lpio.LpParseError) as got:
                    lpio.read_lp(variant)
                assert str(got.value) == str(err), what
                continue
            assert lpio._read_encoding(variant) is None, what
            instance = lpio.read_lp(variant)
            assert fields(instance) == fields(want), what
            assert instance.encoding == want.encoding, what
            assert (instance.encoding is None) == (what not in SPACING), what
    # the spacing and line ends change nothing the generic parser keeps
    text = encoding_texts[0]
    for what in SPACING:
        read = lpio.read_lp(variants(text)[what])
        assert fields(read) == fields(lpio.read_lp(text)), what
        assert read.encoding == lpio.read_lp(text).encoding, what
    with pytest.raises(lpio.LpParseError, match="header"):
        lpio.read_lp(variants(text)["header"])


# --- the two writers ---------------------------------------------------------

def link_row_steps(tau):
    """A system whose proposition ``p0`` is concluded by ``tau`` one-premise
    rules, at nu 11, and the unrolling steps at which its state link row,
    ``tau`` path terms long, wraps in the text."""
    system = DeductionSystem.from_names(
        [f"p{i}" for i in range(tau + 1)],
        directed_rules=[DirectedRule.of([i], 0) for i in range(1, tau + 1)])
    instance = encoder.encode(system, encoder.EncodeConfig(11, 1,
                                                           encoder.PLAIN))
    per_step = len(instance.block.rows)
    lines = lpio.write_lp(instance).splitlines()
    wrapped = set()
    for i, line in enumerate(lines):
        if line.startswith(" c") and lines[i + 1].startswith("   "):
            row = int(line.split(":")[0][2:])
            if row < instance.block.nu * per_step:
                wrapped.add(row // per_step)
    return instance, wrapped


def per_term_text(instance):
    """:func:`lpio.write_lp` of ``instance`` with every row written term by
    term, as an instance that is no encoding is written, with the names of
    its unrolled variables."""
    names = [v.name for v in instance.variables]
    sense = "Maximize" if instance.sense == milp.MAXIMIZE else "Minimize"
    return "".join([
        f"{sense}\n", lpio._line("obj", milp.term_tokens(instance.objective,
                                                          names)),
        "Subject To\n",
        *(lpio._line(f"c{ci}", milp.term_tokens(c.terms, names),
                     f"{c.rel} {c.rhs}")
          for ci, c in enumerate(instance.constraints)),
        "Binary\n", *(f" {name}\n" for name in names), "End\n"])


def test_the_step_block_writer_writes_what_the_per_term_writer_does():
    wraps_at_every_step, wrapped = link_row_steps(20)
    assert wrapped == set(range(11))
    wraps_later, wrapped = link_row_steps(17)
    assert wrapped and 0 not in wrapped
    instances = [encoder.encode(system, cfg) for system, cfg in
                 encoding_cases()]
    instances += refutation_cases() + [wraps_at_every_step, wraps_later]
    for instance in instances:
        assert instance.encoding is not None
        text = lpio.write_lp(instance)
        assert text == per_term_text(instance)
        assert text == lpio.write_lp(MilpInstance(*fields(instance)))
        again = lpio.read_lp(text)
        assert again.encoding is not None
        assert fields(again) == fields(instance)
    assert [instance.encoding[2] for instance in instances].count(True) == 2
