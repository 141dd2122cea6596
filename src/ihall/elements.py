"""The element commands of the command line: product, idp and enumerate.

`cli` imports this module only when one of these commands runs, so
`verify` and `identities` never compile it. Each command takes the built
Hall algebra and the parsed arguments, and returns the fields of its JSON
payload that follow "command", "quiver" and "q", with its text lines;
`cli` emits them. This module imports nothing from `cli`: `python -m
ihall.cli` runs `cli` as `__main__`, and an import of `ihall.cli` here
would compile it a second time.

`idp_hall` ignores a parity at a vertex the involution moves; `cmd_idp`
says so in one "warning: ..." line on stderr once the power is built, so a
run refused by the budget prints only its budget line.
"""

from . import report


def _vertex(algebra, name):
    """A vertex name from the command line, checked against the quiver."""
    verts = algebra.iq.vertices
    if name not in verts:
        raise ValueError("unknown vertex %r (vertices: %s)" % (name, ", ".join(verts)))
    return name


def _dim_vector(algebra, text):
    """A comma separated dimension vector, one nonnegative entry per vertex."""
    try:
        dim = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError("dimension vector %r is not a comma separated list of integers" % text) from None
    n = algebra.iq.n
    if len(dim) != n:
        raise ValueError("dimension vector %r has %d entries, the quiver has %d vertices" % (text, len(dim), n))
    if any(d < 0 for d in dim):
        raise ValueError("dimension vector %r has a negative entry" % text)
    return dim


def _parse_elt(algebra, key):
    if key.startswith("simple:"):
        return algebra.simple(_vertex(algebra, key[len("simple:"):]))
    if key.startswith("k:"):
        return algebra.torus_k(_vertex(algebra, key[len("k:"):]))
    if key.startswith("class:"):
        body = key[len("class:"):]
        dim_s, sep, idx_s = body.partition("#")
        if not sep:
            raise ValueError("class key %r lacks '#<index>'" % key)
        dim = _dim_vector(algebra, dim_s)
        try:
            idx = int(idx_s)
        except ValueError:
            raise ValueError("class key %r: index %r is not an integer" % (key, idx_s)) from None
        if idx < 0:
            raise ValueError("class key %r: index %d is negative" % (key, idx))
        # the eps-zero classes come first, each at its kQ class's index, so
        # only a class past them builds the Lambda^i table
        basis = algebra.kq.classes(dim)
        if idx < len(basis):
            return algebra.basis_elt(basis[idx])
        classes = algebra.table.classes(dim)
        if idx >= len(classes):
            raise ValueError("index %d out of range: %d classes at dimension %s" % (idx, len(classes), dim_s))
        return algebra.module_elt(classes[idx])
    raise ValueError("unrecognized element key %r (want simple:, k:, or class:)" % key)


def _terms_payload(elt):
    return [
        {"class": cls.name, "alpha": list(alpha), "coeff": str(c)}
        for (cls, alpha), c in elt.sorted_terms()
    ]


def cmd_product(algebra, args):
    x = _parse_elt(algebra, args.x)
    y = _parse_elt(algebra, args.y)
    prod = x * y
    return {"x": args.x, "y": args.y, "terms": _terms_payload(prod)}, [repr(prod)]


def cmd_idp(algebra, args):
    from .idp import idp_hall

    vertex = _vertex(algebra, args.vertex)
    elt = idp_hall(algebra, vertex, args.n, args.parity)
    if args.parity is not None and algebra.iq.tau[vertex] != vertex:
        report("warning: parity has no effect at a vertex not fixed by the involution")
    fields = {"vertex": args.vertex, "n": args.n, "parity": args.parity, "terms": _terms_payload(elt)}
    return fields, [repr(elt)]


def cmd_enumerate(algebra, args):
    from .lambda_i import is_eps_zero

    dim = _dim_vector(algebra, args.dim)
    classes = algebra.table.classes(dim)
    rows = [
        {
            "name": c.name,
            "aut_order": c.aut_order,
            "orbit_size": c.orbit_size,
            "eps_zero": is_eps_zero(c),
        }
        for c in classes
    ]
    lines = [
        "%-12s aut=%-8d orbit=%-8d %s"
        % (r["name"], r["aut_order"], r["orbit_size"], "eps-zero" if r["eps_zero"] else "")
        for r in rows
    ]
    lines.append("%d classes" % len(rows))
    return {"dim": list(dim), "classes": rows}, lines
