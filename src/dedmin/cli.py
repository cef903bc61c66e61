"""Command-line surface: generate, encode, solve, verify, trace, minimize,
reduce.

Inputs are ``.rules`` files (or ``-`` for stdin); the cipher names
``snow2`` and ``enocoro`` are accepted wherever a file is, in which case
the model is generated on the fly from ``--T``/``--range``.  ``--json``
switches every command to machine-readable output.

Exit codes: 0 success, 1 usage error, 2 infeasible / coverage not reached,
3 time limit hit with the incumbent still printed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import ciphers, dsl, encoder, lpio, milp, oracle, preprocess
from .core import DeductionSystem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_SOLUTION = 2
EXIT_TIME_LIMIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _read_input(spec: str) -> str:
    try:
        if spec == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        path = Path(spec)
        if not path.exists():
            raise CliError(f"no such file: {spec}")
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{spec}: not UTF-8 text: {exc.reason} "
                       f"at byte {exc.start}") from None
    except OSError as exc:
        raise CliError(f"{spec}: cannot read: {exc.strerror}") from None


def _build_cipher(name: str, args) -> DeductionSystem:
    try:
        if name == "snow2":
            return ciphers.build_snow2(args.T if args.T is not None else 13)
        return ciphers.build_enocoro(args.T if args.T is not None else 16,
                                     args.range)
    except ValueError as exc:
        raise CliError(f"{name}: {exc}") from None


def _load_system(args) -> DeductionSystem:
    spec = args.input
    if spec in ("snow2", "enocoro"):
        return _build_cipher(spec, args)
    try:
        return dsl.parse_system(_read_input(spec))
    except (dsl.ParseError, dsl.ValidationError) as exc:
        raise CliError(f"{spec}: {exc}") from exc


def _write_file(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"{path}: cannot write: {exc.strerror}") from None


def _write_output(args, text: str) -> None:
    if getattr(args, "output", None):
        _write_file(args.output, text)
    else:
        sys.stdout.write(text)


def _resolve_guess(system: DeductionSystem, spec: str) -> list[int]:
    out = []
    for raw in re.split(r"[,\s]+", spec.strip()):
        if not raw:
            continue
        name = raw
        if not system.has_name(name):
            # accept "a3" for "a_3" and similar
            m = re.fullmatch(r"([A-Za-z]+)(\d+)", raw)
            if m and system.has_name(f"{m.group(1)}_{m.group(2)}"):
                name = f"{m.group(1)}_{m.group(2)}"
            else:
                raise CliError(f"unknown proposition {raw!r}")
        out.append(system.index_of(name))
    return sorted(set(out))


def _limits(args) -> milp.SolveLimits:
    """The solver limits of ``args``; a negative or NaN one is a usage error."""
    if not args.time_limit >= 0:  # also catches NaN
        raise CliError(f"--time-limit must be >= 0, not {args.time_limit}")
    if args.node_limit is not None and args.node_limit < 0:
        raise CliError(f"--node-limit must be >= 0, not {args.node_limit}")
    return milp.SolveLimits(time_budget=args.time_limit,
                            node_budget=args.node_limit, seed=args.seed)


def _encode_config(system: DeductionSystem, args) -> encoder.EncodeConfig:
    nu = args.nu if args.nu is not None else encoder.default_nu(system)
    k = args.k if args.k is not None else system.n
    return encoder.EncodeConfig(nu=nu, budget_k=k, mode=args.mode,
                                sense=args.sense)


def _guess_names(system: DeductionSystem, solution: milp.Solution) -> list[str]:
    if solution.assignment is None:
        return []
    return [p.name for p in system.propositions
            if solution.assignment.get(encoder.state_var_name(p.index, 0)) == 1]


def _cmd_generate(args) -> int:
    system = _build_cipher(args.cipher, args)
    if args.paths:
        expanded = preprocess.expand_rules(system)
        table = encoder.enumerate_paths(expanded)
        _write_output(args, encoder.render_path_table(expanded, table))
    else:
        _write_output(args, dsl.render_system(system))
    return EXIT_OK


def _cmd_encode(args) -> int:
    system = preprocess.expand_rules(_load_system(args))
    instance = encoder.encode(system, _encode_config(system, args))
    _write_output(args, lpio.write_lp(instance))
    return EXIT_OK


def _solution_exit(solution: milp.Solution) -> int:
    if solution.status == milp.INFEASIBLE:
        return EXIT_NO_SOLUTION
    if solution.status == milp.TIME_LIMIT:
        return EXIT_TIME_LIMIT
    return EXIT_OK


def _cmd_solve(args) -> int:
    limits = _limits(args)
    if args.input not in ("snow2", "enocoro") and args.input.endswith(".lp"):
        instance = lpio.read_lp(_read_input(args.input))
        solution = milp.solve(instance, limits)
        if args.json:
            _write_output(args, solution.to_json_text())
        else:
            _write_output(args, _solve_report(None, solution, None))
        return _solution_exit(solution)

    system = preprocess.expand_rules(_load_system(args))
    cfg = _encode_config(system, args)
    instance = encoder.encode(system, cfg)
    solution = milp.solve(instance, limits)
    trace = None
    if solution.assignment is not None:
        trace = oracle.extract_trace(system, solution, cfg)
    if args.json:
        payload = solution.to_json()
        payload["guess"] = _guess_names(system, solution)
        if trace is not None:
            payload["known"] = len(trace.known)
            payload["trace"] = _trace_json(system, trace)
        _write_output(args, json.dumps(payload, indent=2) + "\n")
    else:
        _write_output(args, _solve_report(system, solution, trace))
    return _solution_exit(solution)


def _trace_json(system: DeductionSystem,
                result: oracle.ClosureResult) -> list[dict]:
    return [{"premises": [system.name_of(p) for p in step.premises],
             "rule": step.rule, "deduced": system.name_of(step.deduced)}
            for step in result.trace]


def _solve_report(system, solution, trace) -> str:
    """The text report of ``solve``.

    Its fields: ``status``; ``objective``; ``nodes``, the branch-and-bound
    decisions; ``nodes/s``, from the search time; ``propagations``, the
    fixings of the row engine, which is 0 when the instance is searched
    over guess sets (an encoding, or one plus its full-cover row);
    ``heuristic``, the seconds of the root heuristic; ``evals``, its
    closure evaluations; ``evals/s``, from the heuristic's seconds; ``wall``;
    then the guesses and the deduction trace.  A rate is the one
    :class:`~dedmin.milp.SolveStats` gives ``--json``, and ``-`` when its
    phase took no time.
    """
    lines = [f"status: {solution.status}", f"objective: {solution.objective}"]
    stats = solution.stats
    lines.append(f"nodes: {stats.nodes}  "
                 f"nodes/s: {_rate(stats.nodes_per_s)}  "
                 f"propagations: {stats.propagations}  "
                 f"heuristic: {stats.heuristic_time:.3f}s  "
                 f"evals: {stats.heuristic_evals}  "
                 f"evals/s: {_rate(stats.heuristic_evals_per_s)}  "
                 f"wall: {stats.wall_time:.3f}s")
    if system is not None and solution.assignment is not None:
        guess = _guess_names(system, solution)
        lines.append(f"guesses ({len(guess)}): {', '.join(guess)}")
    if trace is not None:
        lines.append("")
        lines.append(oracle.render_trace(system, trace).rstrip("\n"))
    return "\n".join(lines) + "\n"


def _rate(per_s: float | None) -> str:
    return "-" if per_s is None else f"{per_s:.0f}"


def _cmd_verify(args) -> int:
    system = preprocess.expand_rules(_load_system(args))
    guess = _resolve_guess(system, args.guess)
    result = oracle.closure(system, guess)
    full = len(result.known) == system.n
    missing = [p.name for p in system.propositions if p.index not in result.known]
    if args.json:
        payload = {
            "propositions": system.n,
            "guessed": [system.name_of(g) for g in guess],
            "known": len(result.known),
            "full_coverage": full,
            "rounds": result.rounds,
            "missing": missing,
            "trace": _trace_json(system, result),
        }
        _write_output(args, json.dumps(payload, indent=2) + "\n")
    else:
        lines = [
            f"guessed {len(guess)} of {system.n}: "
            + ", ".join(system.name_of(g) for g in guess),
            f"known after closure: {len(result.known)} of {system.n} "
            f"in {result.rounds} rounds",
        ]
        if missing:
            lines.append(f"missing: {', '.join(missing)}")
        lines.append("")
        lines.append(oracle.render_trace(system, result).rstrip("\n"))
        _write_output(args, "\n".join(lines) + "\n")
    return EXIT_OK if full else EXIT_NO_SOLUTION


def _cmd_trace(args) -> int:
    system = preprocess.expand_rules(_load_system(args))
    values = lpio.read_assignment(_read_input(args.solution))
    copies = [v.copy for v in map(encoder.variable_from_name, values)
              if v.kind == milp.STATE]
    if not copies:
        raise CliError("no state variables found in the solution")
    solution = milp.Solution(milp.FEASIBLE, values, None)
    cfg = encoder.EncodeConfig(nu=max(max(copies), 1), budget_k=system.n)
    result = oracle.extract_trace(system, solution, cfg)
    _write_output(args, oracle.render_trace(system, result))
    return EXIT_OK


def _cmd_minimize(args) -> int:
    limits = _limits(args)
    if args.max_k is not None and not args.brute:
        raise CliError("--max-k applies only with --brute")
    if args.max_k is not None and args.max_k < 0:
        raise CliError(f"--max-k must be >= 0, not {args.max_k}")
    system = preprocess.expand_rules(_load_system(args))
    if args.brute:
        found = oracle.brute_force_min(
            system, args.max_k if args.max_k is not None else None)
        if not found.found:
            if args.json:
                _write_output(args, json.dumps(
                    {"k_min": None, "max_k": found.max_k}) + "\n")
            else:
                _write_output(args, f"no guess set of size <= {found.max_k}\n")
            return EXIT_NO_SOLUTION
        witness = [system.name_of(v) for v in found.witness]
        if args.json:
            _write_output(args, json.dumps(
                {"k_min": found.k_min, "witness": witness}) + "\n")
        else:
            _write_output(args, f"k_min: {found.k_min}\n"
                                f"witness: {', '.join(witness) or '(empty)'}\n")
        return EXIT_OK

    nu = args.nu if args.nu is not None else encoder.default_nu(system)
    cfg = encoder.EncodeConfig(nu=nu, budget_k=0, mode=args.mode,
                               sense=encoder.MIN_GUESSES)
    instance = encoder.encode(system, cfg)
    solution = milp.solve(instance, limits)
    witness = _guess_names(system, solution)
    if args.json:
        payload = {"status": solution.status, "k_min": solution.objective,
                   "witness": witness, "stats": solution.stats.to_json()}
        _write_output(args, json.dumps(payload, indent=2) + "\n")
    else:
        _write_output(args, f"status: {solution.status}\n"
                            f"k_min: {solution.objective}\n"
                            f"witness: {', '.join(witness) or '(none)'}\n")
    return _solution_exit(solution)


def _cmd_reduce(args) -> int:
    system = _load_system(args)
    result = preprocess.simplify(system)
    text = dsl.render_system(result.system)
    if args.json:
        payload = {"rules": text, "report": result.to_json(),
                   "propositions_before": system.n,
                   "propositions_after": result.system.n}
        _write_output(args, json.dumps(payload, indent=2) + "\n")
    else:
        _write_output(args, text)
        if args.report:
            _write_file(args.report,
                        json.dumps(result.to_json(), indent=2) + "\n")
    return EXIT_OK


def _add_model_flags(p: _Parser) -> None:
    p.add_argument("--T", type=int, default=None,
                   help="keystream window for cipher inputs")
    p.add_argument("--range", choices=[ciphers.DECLARED, ciphers.EXTENDED],
                   default=ciphers.DECLARED,
                   help="index ranges for the enocoro model")


def _add_encode_flags(p: _Parser) -> None:
    p.add_argument("--nu", type=int, default=None,
                   help="unrolling depth (default: proposition count)")
    p.add_argument("--k", type=int, default=None,
                   help="axiom budget (default: proposition count)")
    p.add_argument("--mode", choices=[encoder.PLAIN, encoder.COMPACT],
                   default=encoder.COMPACT)
    p.add_argument("--sense", choices=[encoder.MAX_COVERAGE, encoder.MIN_GUESSES],
                   default=encoder.MAX_COVERAGE)


def _add_solver_flags(p: _Parser) -> None:
    p.add_argument("--time-limit", type=float, default=600.0)
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> _Parser:
    parser = _Parser(prog="dedmin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a cipher model as .rules")
    p.add_argument("cipher", choices=["snow2", "enocoro"])
    _add_model_flags(p)
    p.add_argument("--paths", action="store_true",
                   help="emit the per-proposition path table (.paths) instead")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("encode", help=".rules -> .lp")
    p.add_argument("input")
    _add_model_flags(p)
    _add_encode_flags(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("solve", help="solve a .rules or .lp input")
    p.add_argument("input", nargs="?", default="-")
    _add_model_flags(p)
    _add_encode_flags(p)
    _add_solver_flags(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="closure report for a guess set")
    p.add_argument("input")
    _add_model_flags(p)
    p.add_argument("--guess", required=True,
                   help="comma separated proposition names")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("trace", help="deduction course behind a solution")
    p.add_argument("input")
    _add_model_flags(p)
    p.add_argument("--solution", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("minimize", help="smallest guess set")
    p.add_argument("input")
    _add_model_flags(p)
    p.add_argument("--brute", action="store_true",
                   help="exhaustive oracle instead of the solver")
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--nu", type=int, default=None)
    p.add_argument("--mode", choices=[encoder.PLAIN, encoder.COMPACT],
                   default=encoder.COMPACT)
    _add_solver_flags(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("reduce", help="apply model simplifications")
    p.add_argument("input")
    _add_model_flags(p)
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_reduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"dedmin: {exc}\n")
        return exc.code
    except (encoder.ConfigError, lpio.LpParseError, lpio.NonBinaryValue,
            oracle.TraceMismatch) as exc:
        sys.stderr.write(f"dedmin: {exc}\n")
        return EXIT_USAGE
    except BrokenPipeError:  # downstream closed the pipe; not our error
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
