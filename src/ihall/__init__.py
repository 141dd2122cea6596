"""Exact Hall algebras of iquivers over small prime fields; each name lives in its layer's module."""

__version__ = "0.1.0"
# the default table budgets: the largest total dimension, and raw candidate count at one dimension vector
BUDGET_DIM, BUDGET_SPACE = 6, 2 ** 28


class BudgetError(RuntimeError):
    """A request past a budget: a table's dimension or space, or a q-series ceiling."""
