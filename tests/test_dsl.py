import random

import pytest
from hypothesis import given, settings, strategies as st

import dedmin
from dedmin import core, dsl
from dedmin.core import DirectedRule, SymmetricRule
from helpers import random_system

TOY_TEXT = """props: p1 p2 p3 p4
p2 => p1
p3 p4 => p1
p1 p3 => p2
p1 p4 => p3
p1 p2 => p4
"""


def test_parse_toy_document(toy):
    parsed = dsl.parse_system(TOY_TEXT)
    assert parsed == toy
    assert parsed.names() == ("p1", "p2", "p3", "p4")
    r1 = parsed.directed_rules[0]
    assert r1 == DirectedRule((1,), 0)


def test_single_prop_no_rules():
    s = dsl.parse_system("props: a\n")
    assert s.n == 1
    assert s.rule_count == 0
    assert dsl.render_system(s) == "props: a\n"


def test_smallest_symmetric_rule():
    s = dsl.parse_system("props: x y\n[x, y]")
    assert s.symmetric_rules == (SymmetricRule((0, 1)),)


def test_commas_optional_and_comments_stripped():
    text = "# heading\nprops: a, b, c\n[a b c]  # trailing\na b => c\n"
    s = dsl.parse_system(text)
    assert s.n == 3
    assert len(s.symmetric_rules) == 1
    assert len(s.directed_rules) == 1


def test_render_toy_is_canonical_and_stable(toy):
    text = dsl.render_system(toy)
    assert text == TOY_TEXT
    assert dsl.render_system(toy) == text
    assert dsl.parse_system(text) == toy


def test_parse_error_carries_position():
    with pytest.raises(dsl.ParseError) as err:
        dsl.parse_system("props: a b\na ==> b\n")
    assert err.value.line == 2
    with pytest.raises(dsl.ParseError):
        dsl.parse_system("props: a\n[a\n")
    with pytest.raises(dsl.ParseError) as err:
        dsl.parse_system("props: a b\nc => a\n")
    assert "undeclared" in str(err.value)


def test_one_member_rule_is_a_parse_error_at_its_line():
    # the parser names the line; the constructor's too-few-members
    # diagnostic would only name the rule's position among the rules
    with pytest.raises(dsl.ParseError, match="needs >= 2 members") as err:
        dsl.parse_system("props: a b\na => b\n[a]\n")
    assert err.value.line == 3


def test_duplicate_declaration_rejected():
    with pytest.raises(dsl.ParseError):
        dsl.parse_system("props: a a\n")


def test_validation_error_for_bad_rule():
    # the parser re-exports the constructor's error, which the CLI catches
    assert dsl.ValidationError is core.ValidationError is dedmin.ValidationError
    with pytest.raises(dsl.ValidationError):
        dsl.parse_system("props: a\n[a, a]\n")  # member repeated
    with pytest.raises(dsl.ValidationError):
        dsl.parse_system("props: a b\na b => a\n")  # conclusion in premises


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_random_systems(seed):
    system = random_system(random.Random(seed))
    text = dsl.render_system(system)
    again = dsl.parse_system(text)
    assert again == system
    assert dsl.render_system(again) == text


def test_multiple_props_lines_accumulate():
    s = dsl.parse_system("props: a b\nprops: c\na c => b\n")
    assert s.names() == ("a", "b", "c")
