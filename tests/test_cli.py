import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dedmin import cli, dsl, encoder, lpio, milp, oracle, preprocess
from helpers import with_full_cover

DATA = Path(__file__).parent / "data"
TOY = DATA / "toy.rules"


def run_cli(*args, stdin=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "dedmin.cli", *args],
        input=stdin, capture_output=True, text=True, timeout=timeout)


def test_generate_then_solve_pipe():
    gen = run_cli("generate", "snow2", "--T", "13")
    assert gen.returncode == 0
    assert gen.stdout.startswith("system: snow2_T13\nprops: s_0")
    solved = run_cli("solve", "--nu", "12", "--k", "9", "--json",
                     stdin=gen.stdout)
    assert solved.returncode == 0, solved.stderr
    payload = json.loads(solved.stdout)
    assert payload["status"] == "optimal"
    assert payload["objective"] == 42
    assert len(payload["guess"]) == 9
    assert len(payload["trace"]) == 42 - 9


def test_generate_paths_table_matches_fixture():
    out = run_cli("generate", "snow2", "--T", "13", "--paths")
    assert out.returncode == 0
    from dedmin import encoder
    got = encoder.parse_path_table_text(out.stdout)
    want = encoder.parse_path_table_text((DATA / "snow2_t13.paths").read_text())
    assert set(got) == set(want)
    for name in want:
        assert {frozenset(s) for s in got[name]} \
            == {frozenset(s) for s in want[name]}, name


def test_minimize_toy_brute():
    out = run_cli("minimize", str(TOY), "--brute")
    assert out.returncode == 0
    assert "k_min: 1" in out.stdout
    assert "p2" in out.stdout


def test_minimize_toy_solver_json():
    out = run_cli("minimize", str(TOY), "--json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["k_min"] == 1
    assert payload["witness"] == ["p2"]


def test_verify_enocoro_guess_list(tmp_path):
    rules = tmp_path / "enocoro.rules"
    gen = run_cli("generate", "enocoro", "--T", "16", "--range", "extended",
                  "-o", str(rules))
    assert gen.returncode == 0
    guesses = "a3,a5,b2,b5,b6,c2,c3,c8,c9,c10,e6,e11,e15,f3,f6,g1,g2,g5"
    out = run_cli("verify", str(rules), "--guess", guesses, "--json")
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert payload["full_coverage"] is True
    assert payload["known"] == 7 * 16 + 3
    deduced = {row["deduced"] for row in payload["trace"]}
    assert "a_16" in deduced and "e_17" in deduced


def test_verify_incomplete_coverage_exits_2():
    gen = run_cli("generate", "enocoro", "--T", "16")
    out = run_cli("verify", "-", "--guess", "a_3,a_5", "--json",
                  stdin=gen.stdout)
    assert out.returncode == 2
    payload = json.loads(out.stdout)
    assert payload["full_coverage"] is False


def test_encode_solve_lp_and_trace(tmp_path):
    lp = tmp_path / "toy.lp"
    out = run_cli("encode", str(TOY), "--nu", "4", "--k", "1",
                  "--mode", "plain", "-o", str(lp))
    assert out.returncode == 0
    assert lp.read_text().startswith("Maximize")
    solved = run_cli("solve", str(lp), "--json")
    assert solved.returncode == 0
    assert json.loads(solved.stdout)["objective"] == 4

    sol = tmp_path / "sol.json"
    solved2 = run_cli("solve", str(TOY), "--nu", "4", "--k", "1",
                      "--json", "-o", str(sol))
    assert solved2.returncode == 0
    traced = run_cli("trace", str(TOY), "--solution", str(sol))
    assert traced.returncode == 0
    assert "| p2 | r1 | p1 |" in traced.stdout


def test_reduce_reports_merges(tmp_path):
    text = "props: a b c\n[a, b]\n[b, c]\n"
    rules = tmp_path / "m.rules"
    rules.write_text(text)
    out = run_cli("reduce", str(rules), "--json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["propositions_before"] == 3
    assert payload["propositions_after"] == 1
    assert payload["report"]["merge"]["merged_into"] == {"b": "a", "c": "a"}


def test_usage_errors_exit_1():
    assert run_cli("explode").returncode == 1
    assert run_cli("solve", "missing.rules").returncode == 1
    assert run_cli("verify", str(TOY), "--guess", "zz").returncode == 1


def test_solve_infeasible_exit_2(tmp_path):
    # minimizing with full coverage impossible cannot happen; instead check
    # an .lp with contradictory rows reports infeasible and exits 2
    lp = tmp_path / "bad.lp"
    lp.write_text("Maximize\n obj: x\nSubject To\n c0: x >= 1\n c1: x <= 0\n"
                  "Binary\n x\nEnd\n")
    out = run_cli("solve", str(lp), "--json")
    assert out.returncode == 2
    assert json.loads(out.stdout)["status"] == "infeasible"


def test_solve_full_cover_lp_exits_by_its_budget(toy, tmp_path):
    # the toy encoding plus the row demanding every proposition at the last
    # step: one guess (p2) covers everything, no guess covers nothing
    for k, code, status in ((1, 0, "optimal"), (0, 2, "infeasible")):
        cfg = encoder.EncodeConfig(nu=4, budget_k=k)
        lp = tmp_path / f"cover{k}.lp"
        lp.write_text(lpio.write_lp(with_full_cover(
            encoder.encode(toy, cfg), toy.n, cfg.nu)))
        sol = tmp_path / f"cover{k}.json"
        out = run_cli("solve", str(lp), "--json", "-o", str(sol))
        assert out.returncode == code, out.stderr
        payload = json.loads(sol.read_text())
        assert payload["status"] == status
        assert payload["stats"]["propagations"] == 0
    traced = run_cli("trace", str(TOY), "--solution",
                     str(tmp_path / "cover1.json"))
    assert traced.returncode == 0
    assert "| p2 | r1 | p1 |" in traced.stdout


def test_time_limit_exit_3():
    gen = run_cli("generate", "snow2", "--T", "13")
    out = run_cli("solve", "--nu", "12", "--k", "8", "--time-limit", "2",
                  "--json", stdin=gen.stdout)
    if out.returncode == 0:
        return  # solved to optimality surprisingly fast; nothing to check
    assert out.returncode == 3
    payload = json.loads(out.stdout)
    assert payload["status"] == "time_limit"
    assert payload["objective"] is not None  # incumbent still printed


@pytest.mark.parametrize("text", ["not json at all", "[1, 2]",
                                  '{"x0_c0": "abc"}', '{"x0_c0": 1.9}',
                                  '{"x0_c0": 2}', '{"x0_c0": -1}',
                                  pytest.param('{"x0_c0": 1%s}' % ("0" * 400),
                                               id="too-large-for-a-float"),
                                  pytest.param('{"x0_c0": %s}' % ("[" * 10**5),
                                               id="nested-too-deep")])
def test_trace_rejects_malformed_solution(tmp_path, text):
    # the rule of lpio.read_assignment: only 0 and 1 are values
    sol = tmp_path / "sol.json"
    sol.write_text(text)
    out = run_cli("trace", str(TOY), "--solution", str(sol))
    assert out.returncode == 1
    assert out.stderr.startswith("dedmin: ")
    assert len(out.stderr.splitlines()) == 1, out.stderr


@pytest.mark.parametrize("text,guess", [
    ("x0_c0 1\nx0_c30000000 0\n", "p1"),
    ("x1_c0 1\nx2_c30000000 1\n", "p2")])
def test_trace_of_a_far_copy_ends_at_once(tmp_path, toy, text, guess):
    # a solution that names copy 30,000,000 is traced without unrolling
    # that many steps
    sol = tmp_path / "sol.txt"
    sol.write_text(text)
    out = run_cli("trace", str(TOY), "--solution", str(sol), timeout=20)
    assert out.returncode == 0, out.stderr
    assert out.stdout == oracle.render_trace(
        toy, oracle.closure(toy, [toy.index_of(guess)]))


@pytest.mark.parametrize("text", ["y 1\n", "x01_c0 1\nl0_p1_c2 0\n"])
def test_trace_of_no_state_variable_exits_1(tmp_path, capsys, text):
    # a path name, or a state name not spelled as the encoder writes it,
    # is not a state variable
    sol = tmp_path / "sol.txt"
    sol.write_text(text)
    assert cli.main(["trace", str(TOY), "--solution", str(sol)]) == 1
    assert capsys.readouterr().err == \
        "dedmin: no state variables found in the solution\n"


def test_trace_of_state_variables_all_0(tmp_path, capsys, toy):
    # a state variable counts though the solution marks it 0: nothing is
    # guessed, so nothing is deduced
    sol = tmp_path / "sol.txt"
    sol.write_text("x0_c0 0\nx1_c3 0\n")
    assert cli.main(["trace", str(TOY), "--solution", str(sol)]) == 0
    assert capsys.readouterr().out == oracle.render_trace(
        toy, oracle.closure(toy, []))


def test_trace_reads_name_value_lines(tmp_path, capsys):
    # the .sol shape: '#' comment lines, then one 'name value' per line
    assert cli.main(["solve", str(TOY), "--nu", "4", "--k", "1",
                     "--json"]) == 0
    assignment = json.loads(capsys.readouterr().out)["assignment"]
    sol = tmp_path / "toy.sol"
    sol.write_text("# Objective value = 4\n" + "".join(
        f"{name} {value}\n" for name, value in assignment.items()))
    assert cli.main(["trace", str(TOY), "--solution", str(sol)]) == 0
    assert "| p2 | r1 | p1 |" in capsys.readouterr().out


@pytest.mark.parametrize("values", [{"x1_c0": 1, "x9_c0": 1, "x9_c3": 1},
                                    {"x9_c0": 1}])
def test_trace_of_another_systems_solution_exits_1(tmp_path, capsys,
                                                   values):
    # toy has 4 propositions, so x9 names none of them
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(values))
    assert cli.main(["trace", str(TOY), "--solution", str(sol)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("dedmin: x9_c") and len(err.splitlines()) == 1
    assert "proposition 9 in a system of 4" in err


def test_solve_of_an_lp_checks_the_answer_with_the_oracle(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    # an .lp encoding's answer gets the cross-check a .rules answer gets:
    # one that marks x1_c1 from no guesses is an error, reported with the
    # decoded system's name for proposition 1
    lp = tmp_path / "toy.lp"
    assert cli.main(["encode", str(TOY), "--nu", "4", "--k", "1",
                     "-o", str(lp)]) == 0
    unjustified = milp.Solution(milp.OPTIMAL, {"x1_c1": 1}, 0)
    monkeypatch.setattr(cli.milp, "solve", lambda *args: unjustified)
    assert cli.main(["solve", str(lp)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("dedmin: assignment marks p1 known at step 1 but closure "
                   "cannot derive it yet\n")


def test_minimize_checks_the_solver_answer_with_the_oracle(monkeypatch,
                                                           capsys):
    # the solver route of minimize runs solve's cross-check: an assignment
    # that marks p2 known at step 1 from no guesses is an error, not a k_min
    unjustified = milp.Solution(milp.OPTIMAL, {"x1_c1": 1}, 0)
    monkeypatch.setattr(milp, "solve", lambda *args: unjustified)
    assert cli.main(["minimize", str(TOY)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("dedmin: assignment marks p2 known at step 1 but closure "
                   "cannot derive it yet\n")


@pytest.mark.parametrize("target", ["directory", "missing-parent",
                                    "missing-report-parent"])
def test_failed_write_exits_1(tmp_path, capsys, target):
    missing = tmp_path / "missing"
    args = {"directory": ["generate", "snow2", "-o", str(tmp_path)],
            "missing-parent": ["generate", "snow2", "-o",
                               str(missing / "snow2.rules")],
            "missing-report-parent": ["reduce", str(TOY), "--report",
                                      str(missing / "report.json")]}[target]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("dedmin: ") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_duplicate_binary_exits_1(tmp_path, flags):
    lp = tmp_path / "dup.lp"
    lp.write_text("Maximize\n obj: x\nSubject To\n c0: x <= 1\n"
                  "Binary\n x\n x\nEnd\n")
    out = run_cli("solve", str(lp), *flags)
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stderr == "dedmin: variable 'x' declared Binary twice\n"


@pytest.mark.parametrize("args", [("generate", "enocoro", "--T", "1"),
                                  ("generate", "snow2", "--T", "0"),
                                  ("solve", "snow2", "--T", "0", "--k", "9")])
def test_bad_cipher_window_exits_1(args):
    # --T 0 is a window, not "use the default", and the generator's
    # refusal is a usage error
    out = run_cli(*args)
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("dedmin: ")
    assert len(out.stderr.splitlines()) == 1, out.stderr


@pytest.mark.parametrize("flags", [("--k", "3"), ("--nu", "9"), ("--T", "5"),
                                   ("--k", "3", "--nu", "9", "--T", "5"),
                                   ("--sense", "min"), ("--mode", "plain"),
                                   ("--range", "extended")])
def test_encode_flags_on_an_lp_input_exit_1(tmp_path, flags):
    # an .lp file fixes its own encoding, so solve refuses to ignore flags
    # that would change it
    lp = tmp_path / "toy.lp"
    lp.write_text(TOY_LP)
    assert run_cli("solve", str(lp)).returncode == 0
    out = run_cli("solve", str(lp), *flags)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("dedmin: ")
    assert len(out.stderr.splitlines()) == 1, out.stderr


# (a command, a flag that acts on nothing there, the command's exit code
# without that flag); "-" reads the toy system from stdin, "{tmp}" is the
# test's own directory, where sol.txt is a solution that guesses nothing
RULES_RUNS = [(("encode", str(TOY)), 0), (("solve", "-", "--k", "1"), 0),
              (("verify", str(TOY), "--guess", "p1"), 2),
              (("trace", str(TOY), "--solution", "{tmp}/sol.txt"), 0),
              (("minimize", str(TOY), "--brute"), 0), (("reduce", "-"), 0)]
SNOW_RUNS = [(("generate", "snow2"), 0),
             (("encode", "snow2", "--nu", "12", "--k", "9"), 0),
             (("solve", "snow2", "--nu", "12", "--k", "9"), 0),
             (("verify", "snow2", "--guess", "s_0"), 2),
             (("trace", "snow2", "--solution", "{tmp}/sol.txt"), 0),
             (("minimize", "snow2", "--brute", "--max-k", "1"), 2),
             (("reduce", "snow2"), 0)]
IDLE_FLAGS = [
    *[(run, flag, code) for run, code in RULES_RUNS
      for flag in (("--T", "5"), ("--range", "extended"))],
    *[(run, ("--range", "declared"), code) for run, code in SNOW_RUNS],
    *[((command, str(TOY), "--sense", "min"), ("--k", "2"), 0)
      for command in ("encode", "solve")],
    *[(("minimize", str(TOY), "--brute"), flag, 0)
      for flag in (("--nu", "4"), ("--mode", "plain"), ("--time-limit", "5"),
                   ("--node-limit", "50"), ("--seed", "3"))],
    (("reduce", str(TOY), "--json"), ("--report", "{tmp}/report.json"), 0)]


@pytest.mark.parametrize("run,flag,code", IDLE_FLAGS, ids=[
    f"{run[0]}-{'stdin' if run[1] == '-' else Path(run[1]).name}-{flag[0][2:]}"
    for run, flag, code in IDLE_FLAGS])
def test_a_flag_that_acts_on_nothing_exits_1(tmp_path, capsys, monkeypatch,
                                             run, flag, code):
    # a flag its input never reads is refused, not silently dropped; the
    # same command without it exits as it would have
    (tmp_path / "sol.txt").write_text("x0_c0 0\n")
    run, flag = ([arg.replace("{tmp}", str(tmp_path)) for arg in args]
                 for args in (run, flag))
    for with_flag in (True, False):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(TOY.read_bytes()), encoding="utf-8"))
        got = cli.main(run + flag if with_flag else run)
        out, err = capsys.readouterr()
        if with_flag:
            assert (got, out) == (1, "")
            assert err.startswith(f"dedmin: {flag[0]} ")
            assert len(err.splitlines()) == 1, err
        else:
            assert got == code, err


ONE_VARIABLE_LP = ("Maximize\n obj: x\nSubject To\n c0: x <= 1\n"
                   "Binary\n x\nEnd\n")


@pytest.mark.parametrize("which", ["one-variable", "full-cover"])
def test_seed_on_an_lp_the_heuristic_never_runs_on_exits_1(tmp_path, capsys,
                                                           which):
    # the seed is read only by the root heuristic, which neither an
    # instance that is no encoding nor a full-cover encoding runs
    if which == "one-variable":
        text = ONE_VARIABLE_LP
    else:
        system = preprocess.expand_rules(dsl.parse_system(TOY_RULES))
        text = lpio.write_lp(encoder.rebuild(
            (system, encoder.EncodeConfig(nu=4, budget_k=1), True)))
    lp = tmp_path / f"{which}.lp"
    lp.write_text(text)
    instance = lpio.read_lp(text)
    assert instance.encoding is None or instance.encoding[2]
    assert cli.main(["solve", str(lp)]) == 0
    capsys.readouterr()
    assert cli.main(["solve", str(lp), "--seed", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("dedmin: --seed ")
    assert len(err.splitlines()) == 1, err
    # an encoding without the row runs the heuristic, so it takes a seed
    toy = tmp_path / "toy.lp"
    toy.write_text(TOY_LP)
    assert cli.main(["solve", str(toy), "--seed", "5"]) == 0


def test_minimize_sense_encodes_the_budget_it_reads_back(toy):
    # under --sense min the encoding has no budget row, so the budget the
    # command line builds with is the 0 that reading the .lp text gives
    args = cli.build_parser().parse_args(
        ["solve", str(TOY), "--sense", "min", "--nu", "4"])
    system = preprocess.expand_rules(toy)
    cfg = cli._encode_config(system, args)
    instance = encoder.encode(system, cfg)
    text = lpio.write_lp(instance)
    read = lpio.read_lp(text)
    assert cfg.budget_k == 0
    assert instance.encoding[1] == read.encoding[1] == cfg
    # the budget is not in the text, nor in the answer
    full = encoder.encode(system, encoder.EncodeConfig(
        nu=4, budget_k=system.n, sense=encoder.MIN_GUESSES))
    assert lpio.write_lp(full) == text
    answers = [milp.solve(i) for i in (instance, read, full)]
    assert len({(a.status, a.objective, tuple(sorted(a.assignment.items())))
                for a in answers}) == 1


@pytest.mark.parametrize("source", ["file", "directory", "stdin"])
def test_unreadable_input_exits_1(tmp_path, source):
    stdin = None
    if source == "file":
        bad = tmp_path / "bad.rules"
        bad.write_bytes(b"\xff\xfe")
        args = ("solve", str(bad))
    elif source == "directory":
        args = ("solve", str(tmp_path), "--k", "1")
    else:
        args = ("solve", "-")
        stdin = b"props: a\n\xff\xfe\n"
    out = subprocess.run([sys.executable, "-m", "dedmin.cli", *args],
                         input=stdin, capture_output=True)
    stderr = out.stderr.decode()
    assert out.returncode == 1
    assert stderr.startswith("dedmin: ")
    assert len(stderr.splitlines()) == 1, stderr


@pytest.mark.parametrize("args", [
    ("solve", "snow2", "--nu", "12", "--k", "9", "--time-limit", "-1"),
    ("solve", "snow2", "--nu", "12", "--k", "9", "--time-limit", "nan"),
    ("solve", "snow2", "--nu", "12", "--k", "9", "--node-limit", "-3"),
    ("minimize", str(TOY), "--time-limit", "-0.5"),
    ("minimize", str(TOY), "--node-limit", "-1"),
    ("minimize", str(TOY), "--brute", "--max-k", "-2"),
    ("minimize", str(TOY), "--max-k", "0")])
def test_negative_solver_limits_exit_1(args):
    # a negative or NaN limit is a usage error, not an empty search, and
    # so is a limit the solver would ignore
    out = run_cli(*args)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("dedmin: ")
    assert len(out.stderr.splitlines()) == 1, out.stderr


def test_zero_time_limit_is_a_limit():
    out = run_cli("solve", str(TOY), "--k", "1", "--time-limit", "0")
    assert out.returncode in (0, 3)
    assert out.stderr == ""


def test_solve_report_prints_the_evaluation_rate(toy):
    # evals/s is heuristic_evals over heuristic_time, "-" with no heuristic
    cfg = encoder.EncodeConfig(nu=4, budget_k=1)
    instance = encoder.encode(toy, cfg)
    for candidate, ran in ((instance, True),
                           (with_full_cover(instance, toy.n, cfg.nu), False)):
        solution = milp.solve(candidate)
        stats = solution.stats
        words = cli._solve_report(None, solution, None).splitlines()[2].split()
        evals = int(words[words.index("evals:") + 1])
        rate = words[words.index("evals/s:") + 1]
        assert evals == stats.heuristic_evals
        if ran:
            assert evals > 0
            assert rate == f"{stats.heuristic_evals / stats.heuristic_time:.0f}"
        else:
            assert (evals, rate) == (0, "-")


def test_solve_json_gives_the_rates_of_the_text_report(toy):
    # nodes/s and evals/s come from SolveStats for both reports: the same
    # number, or "-" in the text where --json has null
    cfg = encoder.EncodeConfig(nu=4, budget_k=1)
    instance = encoder.encode(toy, cfg)
    solutions = [milp.solve(instance),
                 milp.solve(with_full_cover(instance, toy.n, cfg.nu)),
                 milp.Solution("optimal", None, 1, milp.SolveStats())]
    for solution in solutions:
        words = cli._solve_report(None, solution, None).splitlines()[2].split()
        stats = solution.to_json()["stats"]
        for label, key in (("nodes/s:", "nodes_per_s"),
                           ("evals/s:", "heuristic_evals_per_s")):
            rate = stats[key]
            assert words[words.index(label) + 1] == (
                "-" if rate is None else f"{rate:.0f}")
        assert words[words.index("check:") + 1] == \
            f"{solution.stats.check_time:.3f}s"
        assert "decode:" not in words
    assert solutions[0].to_json()["stats"]["heuristic_evals_per_s"] > 0
    assert solutions[1].to_json()["stats"]["heuristic_evals_per_s"] is None
    assert solutions[2].to_json()["stats"]["nodes_per_s"] is None
    out = run_cli("solve", str(TOY), "--k", "1", "--json")
    assert {"nodes_per_s", "heuristic_evals_per_s", "check_time"} <= \
        set(json.loads(out.stdout)["stats"])


def test_solve_of_rules_and_of_its_lp_give_the_same_answer(tmp_path, capsys):
    # both instances are the encoding, and no report times a decode
    lp = tmp_path / "toy.lp"
    flags = ("--nu", "4", "--k", "1")
    assert cli.main(["encode", str(TOY), *flags, "-o", str(lp)]) == 0
    payloads = []
    for args in ((str(TOY), *flags), (str(lp),)):
        capsys.readouterr()
        assert cli.main(["solve", *args, "--json"]) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    timings = ("wall_time", "heuristic_time", "search_time", "check_time",
               "nodes_per_s", "heuristic_evals_per_s")
    for payload in payloads:
        assert "decode_time" not in payload["stats"]
        for key in timings:
            del payload["stats"][key]
    rules, lp_payload = payloads
    # guess, known and trace need the names only the .rules input has
    assert set(rules) - set(lp_payload) == {"guess", "known", "trace"}
    assert lp_payload == {key: rules[key] for key in lp_payload}


def test_python_m_dedmin_runs_the_cli(tmp_path):
    def run(*args):
        return subprocess.run([sys.executable, "-m", "dedmin", *args],
                              capture_output=True, text=True)

    ok = run("verify", str(TOY), "--guess", "p2")
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout == run_cli("verify", str(TOY), "--guess", "p2").stdout
    missing = run("verify", str(tmp_path / "missing.rules"), "--guess", "p2")
    assert missing.returncode == 1
    assert missing.stderr.startswith("dedmin: ")
    assert len(missing.stderr.splitlines()) == 1, missing.stderr


@pytest.mark.parametrize("command", [("solve", "--k", "1"), ("minimize",)])
def test_nu_zero_is_read_as_given(command):
    # --nu 0 is a depth, not "use the default", and encoding refuses it
    out = run_cli(command[0], str(TOY), *command[1:], "--nu", "0")
    assert out.returncode == 1
    assert out.stderr == "dedmin: nu must be >= 1\n"


# --- mutated inputs never end in a traceback --------------------------------

TOY_RULES = TOY.read_text()
TOY_LP = lpio.write_lp(encoder.encode(
    preprocess.expand_rules(dsl.parse_system(TOY_RULES)),
    encoder.EncodeConfig(nu=4, budget_k=1)))
TOKENS = sorted(set(TOY_RULES.split() + TOY_LP.split())) + [
    "+", "-", "0", "-1", "99", "=", "=>", "[", "]", ",", "#", "\\", ":",
    "props:", "Maximize", "Minimize", "Subject To", "Binary", "End"]
EDIT = st.tuples(st.sampled_from(["delete", "duplicate", "insert", "drop"]),
                 st.integers(0, 999), st.integers(0, 99),
                 st.sampled_from(TOKENS))
BINARY_LINE = TOY_LP.splitlines().index("Binary") + 1


def mutate(text, edits):
    """``text`` with each edit applied: (kind, line, token position, token)."""
    lines = text.splitlines()
    for kind, line, position, token in edits:
        if not lines:
            break
        line %= len(lines)
        if kind == "delete":
            del lines[line]
        elif kind == "duplicate":
            lines.insert(line, lines[line])
        else:
            words = lines[line].split()
            indent = lines[line][:len(lines[line]) - len(lines[line].lstrip())]
            if kind == "insert":
                words.insert(position % (len(words) + 1), token)
            elif words:
                del words[position % len(words)]
            lines[line] = indent + " ".join(words)
    return "\n".join(lines) + "\n"


@settings(max_examples=120, deadline=None)
@given(lp=st.booleans(), edits=st.lists(EDIT, min_size=1, max_size=3))
@example(lp=True, edits=[("duplicate", BINARY_LINE, 0, "x")])
def test_mutated_inputs_end_in_an_exit_code(tmp_path_factory, lp, edits):
    path = tmp_path_factory.getbasetemp() / ("mutant.lp" if lp
                                             else "mutant.rules")
    path.write_text(mutate(TOY_LP if lp else TOY_RULES, edits))
    solver = ("--node-limit", "50")
    runs = [("solve", *solver)] if lp else [
        ("solve", *solver), ("minimize", *solver), ("minimize", "--brute"),
        ("encode",), ("reduce",), ("verify", "--guess", "p1")]
    for command, *flags in runs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, str(path), *flags])
        assert code in (0, 1, 2, 3), (command, code)
