"""Exact Hall algebras of iquivers over small prime fields; each name lives in its layer's module."""

import sys

__version__ = "0.1.0"
# the default table budgets: the largest total dimension, and raw candidate count at one dimension vector
BUDGET_DIM, BUDGET_SPACE = 6, 2 ** 28


class BudgetError(RuntimeError):
    """A request past a budget: a table's dimension or space, or a q-series ceiling."""


def report(line):
    """Write one line of the command line's stderr, flushed. Where stderr is
    closed (None) or fails, the line is dropped and the exit code stands; it
    never goes to stdout, where print(file=None) would send it."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(line + "\n")
            sys.stderr.flush()
        except OSError:
            pass
