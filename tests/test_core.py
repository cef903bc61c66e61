import pytest

from dedmin.core import (DeductionSystem, DirectedRule, Proposition,
                         SymmetricRule, ValidationError)


def system(names, sym=(), dirr=()):
    return DeductionSystem.from_names(names, sym, dirr)


def test_toy_system_validates_clean(toy):
    assert toy.n == 4
    assert toy.rule_count == 5


def test_built_system_is_read_only():
    s = system(["a", "b"], dirr=[DirectedRule((0,), 1)])
    with pytest.raises(AttributeError, match="read-only"):
        s.directed_rules = (DirectedRule((), 5),)
    with pytest.raises(AttributeError, match="read-only"):
        del s.propositions
    assert s.directed_rules == (DirectedRule((0,), 1),)
    assert s.names() == ("a", "b")


def test_index_of_an_unknown_name_raises_key_error(toy):
    with pytest.raises(KeyError, match="unknown proposition 'zz'"):
        toy.index_of("zz")


def test_empty_premises_is_diagnosed():
    with pytest.raises(ValidationError) as err:
        system(["a", "b"], dirr=[DirectedRule((), 0)])
    diags = err.value.diagnostics
    assert len(diags) == 1
    assert diags[0].code == "empty-premises"


def test_out_of_range_reference_is_diagnosed():
    with pytest.raises(ValidationError) as err:
        system(["a", "b"], dirr=[DirectedRule((2,), 0)])
    assert any(d.code == "out-of-range" for d in err.value.diagnostics)


def test_duplicate_member_and_self_conclusion():
    with pytest.raises(ValidationError) as err:
        system(["a", "b", "c"],
               sym=[SymmetricRule((0, 0))],
               dirr=[DirectedRule((0, 1), 1)])
    codes = {d.code for d in err.value.diagnostics}
    assert "duplicate-member" in codes
    assert "self-conclusion" in codes


def test_duplicate_names_diagnosed():
    with pytest.raises(ValidationError) as err:
        DeductionSystem([Proposition(0, "a"), Proposition(1, "a")])
    assert any(d.code == "duplicate-name" for d in err.value.diagnostics)


def test_validate_is_deterministic(toy):
    def diagnostics():
        with pytest.raises(ValidationError) as err:
            system(["a", "b"],
                   dirr=[DirectedRule((), 0), DirectedRule((3,), 1)])
        return err.value.diagnostics

    first = diagnostics()
    assert [d.code for d in first] == ["empty-premises", "out-of-range"]
    assert diagnostics() == first


@pytest.mark.parametrize("build, code", [
    (lambda: DeductionSystem([Proposition(1, "a")]), "index"),
    (lambda: system(["a", "a"]), "duplicate-name"),
    (lambda: system(["a", ""]), "empty-name"),
    (lambda: system(["a", "b"], sym=[SymmetricRule((0,))]), "too-few-members"),
    (lambda: system(["a", "b"], sym=[SymmetricRule((1, 1))]),
     "duplicate-member"),
    (lambda: system(["a", "b"], sym=[SymmetricRule((0, 2))]), "out-of-range"),
    (lambda: system(["a", "b"], dirr=[DirectedRule((0,), -1)]),
     "out-of-range"),
    (lambda: system(["a", "b"], dirr=[DirectedRule((), 1)]), "empty-premises"),
    (lambda: system(["a", "b"], dirr=[DirectedRule((0, 1), 0)]),
     "self-conclusion"),
], ids=["index", "duplicate-name", "empty-name", "too-few-members",
        "duplicate-member", "out-of-range-symmetric", "out-of-range-directed",
        "empty-premises", "self-conclusion"])
def test_building_a_bad_system_raises_each_code(build, code):
    # the constructor is the one check: it raises every diagnostic at once,
    # and the error is the ValueError the command line reports in one line
    with pytest.raises(ValidationError) as err:
        build()
    assert [d.code for d in err.value.diagnostics] == [code]
    assert isinstance(err.value, ValueError)
    assert str(err.value).startswith("invalid system: ")


def test_equality_ignores_rule_order():
    a = system(["x", "y", "z"],
               dirr=[DirectedRule((0,), 1), DirectedRule((1, 2), 0)])
    b = system(["x", "y", "z"],
               dirr=[DirectedRule((1, 2), 0), DirectedRule((0,), 1)])
    assert a == b
    c = system(["x", "y", "z"], dirr=[DirectedRule((0,), 1)])
    assert a != c
