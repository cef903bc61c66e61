import pytest

from dedmin import ciphers, encoder, oracle, preprocess
from dedmin.core import DeductionSystem
from helpers import (PAPER_ENOCORO_GUESS, PAPER_SNOW_GUESS, load_course,
                     load_paths_fixture, path_table_as_name_sets,
                     replay_course)


# --- SNOW 2.0 ---------------------------------------------------------------

def test_snow_proposition_count_formula():
    for t in (1, 5, 13, 20):
        system = ciphers.build_snow2(t)
        assert system.n == 2 * t + 16


def test_snow_rule_family_counts():
    for t in (1, 2, 5, 13):
        system = ciphers.build_snow2(t)
        sizes = [len(r.members) for r in system.symmetric_rules]
        # feedback family: T-1 instances of size 4 (paired with the
        # keystream family of the same size), update family: size 3
        assert sizes.count(3) == max(t - 1, 0)
        assert sizes.count(4) == max(t - 1, 0) + t
        assert len(sizes) == max(t - 1, 0) * 2 + t


def test_snow_t1_has_no_feedback_instances():
    system = ciphers.build_snow2(1)
    assert not any(
        len(r.members) == 4 and all(system.name_of(m).startswith("s_")
                                    for m in r.members)
        for r in system.symmetric_rules)


def test_snow_paths_match_committed_fixture():
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    want = load_paths_fixture("snow2_t13.paths")
    got = path_table_as_name_sets(system)
    assert set(got) == set(want)
    for name in want:
        assert got[name] == set(want[name]), name
    assert sum(map(len, encoder.enumerate_paths(system))) == 178


def test_snow_r13_has_three_paths():
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    assert len(encoder.enumerate_paths(system)[system.index_of("R_13")]) == 3


def test_snow_closure_of_paper_guess():
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    guess = [system.index_of(n) for n in PAPER_SNOW_GUESS]
    result = oracle.closure(system, guess)
    assert result.known == frozenset(range(system.n))
    assert result.rounds <= 12


def test_snow_course_fixture_replays():
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    course = load_course("snow2_course.tsv")
    assert len(course) == 33
    known = replay_course(system, PAPER_SNOW_GUESS, course)
    assert known == set(range(system.n))


def test_snow_trace_covers_course_conclusions():
    system = preprocess.expand_rules(ciphers.build_snow2(13))
    guess = [system.index_of(n) for n in PAPER_SNOW_GUESS]
    result = oracle.closure(system, guess)
    concluded = {system.name_of(s.deduced) for s in result.trace}
    wanted = {deduced for _, deduced in load_course("snow2_course.tsv")}
    assert wanted <= concluded


# --- raw SNOW and the equality merge ---------------------------------------

def test_snow_raw_merge_removes_eleven():
    raw = ciphers.build_snow2_raw(13)
    assert raw.n == 53
    merged, mm = preprocess.merge_equalities(raw)
    assert len(mm.removed) == 11
    assert mm.rules_removed == 11
    assert merged.n == 42


def test_snow_raw_merges_into_published_model():
    merged, mm = preprocess.merge_equalities(ciphers.build_snow2_raw(13))

    def rename(name):
        if name.startswith("R1_"):
            return f"R_{int(name[3:]) + 1}"
        if name.startswith("R2_"):
            return f"R_{name[3:]}"
        return name

    renamed = DeductionSystem.from_names(
        [rename(n) for n in merged.names()],
        merged.symmetric_rules, merged.directed_rules)
    reference = ciphers.build_snow2(13)
    assert sorted(renamed.names()) == sorted(reference.names())

    def rule_sets(system):
        return sorted(tuple(sorted(system.name_of(m) for m in r.members))
                      for r in system.symmetric_rules)

    assert rule_sets(renamed) == rule_sets(reference)
    assert renamed.directed_rules == ()


# --- Enocoro-128v2 ----------------------------------------------------------

def test_enocoro_proposition_count_formula():
    for t in (2, 5, 16):
        system = ciphers.build_enocoro(t)
        assert system.n == 7 * t - 4
    assert ciphers.build_enocoro(16, ciphers.EXTENDED).n == 7 * 16 + 3


def test_enocoro_rule_family_counts_at_16():
    system = ciphers.build_enocoro(16)
    # window lengths per family: T-4, T-6, T-10, T-14, then six of T-1
    assert len(system.symmetric_rules) == 12 + 10 + 6 + 2 + 6 * 15


def test_enocoro_t2_boundary():
    system = ciphers.build_enocoro(2)
    assert system.n == 10
    # only the six FSM families with t = 0 survive the window checks
    as_names = [tuple(system.name_of(m) for m in r.members)
                for r in system.symmetric_rules]
    assert len(as_names) == 6
    assert ("f_0", "a_0", "b_0") in as_names
    assert all("c_5" not in names for names in as_names)


def test_enocoro_paths_match_committed_fixture():
    system = preprocess.expand_rules(ciphers.build_enocoro(16))
    want = load_paths_fixture("enocoro_t16.paths")
    got = path_table_as_name_sets(system)
    assert set(got) == set(want)
    for name in want:
        assert got[name] == set(want[name]), name
    table = encoder.enumerate_paths(system)
    assert sum(map(len, table)) == 468
    assert len(table[system.index_of("b_3")]) == 4
    assert len(table[system.index_of("g_14")]) == 5


def test_enocoro_declared_closure_reaches_92():
    system = preprocess.expand_rules(ciphers.build_enocoro(16))
    guess = [system.index_of(n) for n in PAPER_ENOCORO_GUESS]
    result = oracle.closure(system, guess)
    assert len(result.known) == 92
    assert len(result.known) < system.n


def test_enocoro_extended_closure_covers_course():
    system = preprocess.expand_rules(
        ciphers.build_enocoro(16, ciphers.EXTENDED))
    guess = [system.index_of(n) for n in PAPER_ENOCORO_GUESS]
    result = oracle.closure(system, guess)
    course = load_course("enocoro_course.tsv")
    assert len(course) == 97
    concluded = {system.name_of(s.deduced) for s in result.trace}
    wanted = {deduced for _, deduced in course}
    assert wanted <= concluded
    assert result.known == frozenset(range(system.n))


def test_enocoro_course_fixture_replays():
    system = preprocess.expand_rules(
        ciphers.build_enocoro(16, ciphers.EXTENDED))
    course = load_course("enocoro_course.tsv")
    known = replay_course(system, PAPER_ENOCORO_GUESS, course)
    assert known == set(range(system.n))


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        ciphers.build_snow2(0)
    with pytest.raises(ValueError):
        ciphers.build_snow2_raw(1)
    with pytest.raises(ValueError):
        ciphers.build_enocoro(1)
    with pytest.raises(ValueError):
        ciphers.build_enocoro(16, "wide")


def test_rules_files_round_trip():
    from dedmin import dsl
    for system in (ciphers.build_snow2(13), ciphers.build_enocoro(16)):
        text = dsl.render_system(system)
        assert dsl.parse_system(text) == system


def test_snow_rendered_document_shape():
    from dedmin import dsl
    text = dsl.render_system(ciphers.build_snow2(13))
    lines = text.strip().splitlines()
    # one system line, one props line with 42 names, 37 rule lines
    assert lines[1].startswith("props: ")
    assert len(lines[1].split()) == 43
    assert len(lines) == 2 + 37


@pytest.mark.parametrize("T", range(2, 16))
def test_rendered_rules_keep_their_positions(T):
    # a generated system and its .rules text must encode to one instance
    from dedmin import dsl
    cfg = encoder.EncodeConfig(nu=2, budget_k=2)
    for system in (ciphers.build_snow2(T), ciphers.build_snow2_raw(T),
                   ciphers.build_enocoro(T)):
        again = dsl.parse_system(dsl.render_system(system))
        assert again.symmetric_rules == system.symmetric_rules
        assert again.directed_rules == system.directed_rules
        built = encoder.encode(preprocess.expand_rules(system), cfg)
        parsed = encoder.encode(preprocess.expand_rules(again), cfg)
        assert (parsed.variables, parsed.constraints, parsed.objective) == \
            (built.variables, built.constraints, built.objective)
