"""mflab: a numerical laboratory for multiplicative functions with |f(n)| <= 1.

Fast summatory functions S_f(x), error-bounded Dirichlet-series evaluation
near the one-line, pole/zero diagnostics in the sense of Halász, and a
constructive extremal counterexample builder.
"""

from .dirichlet import ComplexPoint, EvalResult, TruncationPlan
from .halasz import HalaszDirection
from .multfun import MultiplicativeFunction, SummatoryTrace, builtin, parse_function_spec
from .primes import PrimeTable, SpfTable, prime_chunks, sieve_primes, spf_table

__all__ = [
    "ComplexPoint",
    "EvalResult",
    "TruncationPlan",
    "HalaszDirection",
    "MultiplicativeFunction",
    "SummatoryTrace",
    "builtin",
    "parse_function_spec",
    "PrimeTable",
    "SpfTable",
    "prime_chunks",
    "sieve_primes",
    "spf_table",
]

__version__ = "0.1.0"
