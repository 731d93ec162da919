"""mflab: a numerical laboratory for multiplicative functions with |f(n)| <= 1.

Fast summatory functions S_f(x), error-bounded Dirichlet-series evaluation
near the one-line, pole/zero diagnostics in the sense of Halász, and a
constructive extremal counterexample builder.

Importing the package loads no submodule: each name below is imported from
its module on first use (PEP 562), so ``mflab.cli`` loads only what the
subcommand runs.
"""

from importlib import import_module

_EXPORTS = {
    "ComplexPoint": "dirichlet",
    "EvalResult": "dirichlet",
    "HalaszDirection": "dirichlet",
    "TruncationPlan": "dirichlet",
    "MultiplicativeFunction": "multfun",
    "SummatoryTrace": "multfun",
    "builtin": "multfun",
    "parse_function_spec": "multfun",
    "prime_chunks": "primes",
    "sieve_primes": "primes",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
