"""The Lambda^i-modules: the modules of the doubled quiver of an iquiver.

The doubled quiver (`doubled`) adds one arrow eps_i : i -> tau(i) per
vertex to Q, bound by

    eps_{tau i} . eps_i = 0                 (composites through eps vanish)
    eps_j . a  =  tau(a) . eps_i            for each arrow a : i -> j

where "." is composition of linear maps (right factor acts first). The
eps arrows come first, in vertex order, and a zero matrix is the first
candidate of every list, so the eps-zero classes of its `frep.ModuleTable`
(the kQ-modules) come first, each at the index of its kQ class. eps_v is
named by the tuple ("eps", v), which no arrow of an iquiver can carry, as
`IQuiver` makes every arrow name a string.

The product engine never reads a Lambda^i table: the Hall algebra builds
one only to list classes or to rewrite a module (`HallAlgebra.module_elt`,
by `homology_reduce`), and the oracles classify it too.
"""

from . import linalg
from .iquiver import Arrow, BoundQuiver, Relation


def _eps(v):
    """The name of eps_v."""
    return ("eps", v)


def doubled(iq):
    """The doubled quiver of iq, whose modules are the Lambda^i-modules."""
    tau = iq.tau
    rels = [Relation((_eps(v), _eps(tau[v])), None) for v in iq.vertices]
    rels += [Relation((a.name, _eps(a.tgt)), (_eps(a.src), iq.tau_arrows[a.name])) for a in iq.arrows]
    return BoundQuiver(iq, [Arrow(_eps(v), v, tau[v]) for v in iq.vertices], rels)


def eps_pos(bq, v):
    """The position of eps_v among the arrows of the doubled quiver bq."""
    return bq.aindex[_eps(v)]


def res_K(iq, alpha):
    """Restriction to kQ of K_alpha: the vector alpha + tau(alpha)."""
    return tuple(a + b for a, b in zip(alpha, iq.tau_vec(alpha)))


def is_eps_zero(cls):
    """True when every eps arrow acts by zero on a Lambda^i class."""
    return not any(any(row) for mat in cls.rep[: cls.table.iq.n] for row in mat)


def homology_reduce(cls, kq):
    """Write the Lambda^i class cls as v^e [X] * K_alpha with X a class of
    the kQ table kq.

    X is the module cls induces on X_v = ker(eps_v) / im(eps_{tau v}), with
    every arrow's action, eps included, computed there; alpha_v = rank(eps_v)
    and e = <dim X, tau(alpha) - alpha> in the Euler form of Q. Checks that
    ker eps is a submodule, that eps acts by zero on X (as the relations
    force) and that dim X + res_K(alpha) = dim; refuses a class of a table
    without relations, or of another iquiver or prime than kq's.
    """
    lam = cls.table
    if lam.iq is not kq.iq or lam.p != kq.p or not lam._relations:
        raise ValueError("homology reduction takes classes of the Lambda^i table, got %r" % (cls,))
    p, dim, tau, n = lam.p, cls.dim, lam.iq.tau_index, lam.iq.n
    eps = cls.rep[:n]
    kers = [linalg.rref(linalg.nullspace(eps[vi], d, p), p) for vi, d in enumerate(dim)]
    sq = lam._subquotient(cls.rep, kers, [linalg.col_space(eps[t], p)[0] for t in tau])
    if sq is None:
        raise RuntimeError("ker eps is not a submodule")
    x, xdim = sq
    alpha = tuple(d - len(rows) for d, (rows, _) in zip(dim, kers))
    if tuple(a + b for a, b in zip(xdim, res_K(lam.iq, alpha))) != dim:
        raise RuntimeError("ker eps / im eps does not have dimension %r - res_K(%r)" % (dim, alpha))
    if any(any(row) for mat in x[:n] for row in mat):
        raise RuntimeError("product left the eps-zero basis: eps acts on ker eps / im eps")
    return lam.iq.euler(xdim, lam.iq.twist(alpha)), kq.class_of(x[n:], xdim), alpha
