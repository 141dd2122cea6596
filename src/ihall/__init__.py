"""Exact Hall algebra computations for iquivers over small prime fields.

The public names below are loaded on first access (PEP 562), so importing
the package, or running one CLI command, compiles only the layers in use.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOME = {
    "BudgetError": "frep",
    "IsoClass": "frep",
    "ModuleTable": "frep",
    "idp_hall": "idp",
    "HallAlgebra": "ihall",
    "HallElt": "ihall",
    "Psi": "iqg",
    "build_relation_suite": "iqg",
    "relation_residual": "iqg",
    "run_identity_suites": "iqg",
    "run_t_suite": "iqg",
    "t1_value": "iqg",
    "t_value": "iqg",
    "verify_presentation": "iqg",
    "BUILTIN_NAMES": "iquiver",
    "BoundQuiver": "iquiver",
    "IQuiver": "iquiver",
    "build_iquiver": "iquiver",
    "builtin_iquiver": "iquiver",
    "LaurentFrac": "oracle",
    "idp_closed": "oracle",
    "idp_product": "oracle",
    "idp_recursive": "oracle",
    "oracle_kronecker_single": "oracle",
    "oracle_sss": "oracle",
    "LaurentPoly": "ring",
    "QSqrt": "ring",
    "qbinom": "ring",
    "qdfact": "ring",
    "qfact": "ring",
    "qint": "ring",
}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + home, __name__), name)
    globals()[name] = value
    return value
