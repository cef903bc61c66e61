"""dedmin: minimum-guess analysis for deduction systems.

Model a system of propositions and derivation rules, compile the question
"how few guesses unlock everything" into a 0-1 integer program, solve it
with the built-in branch-and-bound engine, and verify any answer with an
independent closure oracle.
"""

from .core import (DeductionSystem, Diagnostic, DirectedRule, Proposition,
                   SymmetricRule, ValidationError, validate)
from .dsl import ParseError, parse_system, render_system
from .encoder import (COMPACT, EncodeConfig, MAX_COVERAGE, MIN_GUESSES, PLAIN,
                      ConfigError, count_reduction, default_nu, decode,
                      encode, enumerate_paths)
from .milp import (MilpInstance, Solution, SolveLimits, evaluate, propagate,
                   solve)
from .oracle import (BruteForceMin, ClosureResult, TraceMismatch,
                     UnknownProposition, brute_force_min, closure,
                     extract_trace, render_trace)
from .preprocess import (EliminatedVar, MergeMap, SimplifyResult,
                         eliminate_independent, expand_rules, extend_guess,
                         merge_equalities, simplify)

__version__ = "0.1.0"

__all__ = [
    "DeductionSystem", "Diagnostic", "DirectedRule", "Proposition",
    "SymmetricRule", "ValidationError", "validate",
    "ParseError", "parse_system", "render_system",
    "COMPACT", "EncodeConfig", "MAX_COVERAGE", "MIN_GUESSES", "PLAIN",
    "ConfigError", "count_reduction", "default_nu", "decode", "encode",
    "enumerate_paths",
    "MilpInstance", "Solution", "SolveLimits", "evaluate", "propagate",
    "solve",
    "BruteForceMin", "ClosureResult", "TraceMismatch", "UnknownProposition",
    "brute_force_min", "closure", "extract_trace", "render_trace",
    "EliminatedVar", "MergeMap", "SimplifyResult", "eliminate_independent",
    "expand_rules", "extend_guess", "merge_equalities", "simplify",
    "__version__",
]
