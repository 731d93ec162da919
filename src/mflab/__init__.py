"""mflab: a numerical laboratory for multiplicative functions with |f(n)| <= 1.

Fast summatory functions S_f(x), error-bounded Dirichlet-series evaluation
near the one-line, pole/zero diagnostics in the sense of Halász, and a
constructive extremal counterexample builder.

Importing the package loads no submodule: import a name from its module
(``from mflab.multfun import builtin``), so ``mflab.cli`` loads only what
the subcommand runs.
"""

__version__ = "0.1.0"
