"""Exact Hall algebra computations for iquivers over small prime fields.

The public names below are loaded on first access (PEP 562), so importing
the package, or running one CLI command, compiles only the layers in use.
"""

from importlib import import_module

__version__ = "0.1.0"
# the default table budgets: the largest total dimension, and raw candidate count at one dimension vector
BUDGET_DIM, BUDGET_SPACE = 6, 2 ** 28


class BudgetError(RuntimeError):
    """A request past a budget: a table's dimension or space, or a q-series ceiling."""


_HOME = {
    "IsoClass": "frep",
    "ModuleTable": "frep",
    "idp_hall": "idp",
    "HallAlgebra": "ihall",
    "HallElt": "ihall",
    "Psi": "iqg",
    "build_relation_suite": "iqg",
    "relation_residual": "iqg",
    "verify_presentation": "iqg",
    "BUILTIN_NAMES": "iquiver",
    "BoundQuiver": "iquiver",
    "IQuiver": "iquiver",
    "build_iquiver": "iquiver",
    "builtin_iquiver": "iquiver",
    "idp_closed": "oracle",
    "idp_product": "oracle",
    "idp_recursive": "oracle",
    "oracle_kronecker_single": "oracle",
    "oracle_sss": "oracle",
    "qbinom": "qseries",
    "qdfact": "qseries",
    "run_identity_suites": "qseries",
    "run_t_suite": "qseries",
    "t1_value": "qseries",
    "t_value": "qseries",
    "QSqrt": "qsqrt",
    "LaurentPoly": "ring",
    "qfact": "ring",
    "qint": "ring",
}

__all__ = sorted([*_HOME, "BudgetError"]) + ["__version__"]


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + home, __name__), name)
    globals()[name] = value
    return value
