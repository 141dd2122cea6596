"""Command line front end.

Subcommands:

  verify      run the whole presentation relation suite on one iquiver
  product     multiply two elements and print the expansion
  idp         print a Hall-side divided power expansion
  identities  run the pure q-series identity suites (no quiver involved)
  enumerate   list the module classes at one dimension vector

Quivers are named either ``builtin:<name>`` or by the path of a JSON file
holding the spec dict (keys: vertices, arrows, tau, optionally tau_arrows).
Elements are named ``simple:<vertex>``, ``k:<vertex>``, or
``class:<d1>,...,<dn>#<idx>``.

Exit codes: 0 success, 1 a check failed, 2 bad input, 3 budget exceeded.

Each command imports the layers it uses when it runs, so ``identities``
never loads the module enumeration or the Hall algebra.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings


def _load_iquiver(name):
    from .iquiver import build_iquiver, builtin_iquiver

    if name.startswith("builtin:"):
        return builtin_iquiver(name[len("builtin:"):])
    with open(name) as fh:
        try:
            spec = json.load(fh)
        except RecursionError:
            raise ValueError("%s: JSON nested too deeply" % name) from None
    return build_iquiver(spec)


def _algebra(args):
    from .ihall import HallAlgebra

    return HallAlgebra(
        _load_iquiver(args.quiver),
        args.q,
        budget_dim=args.budget_dim,
        budget_space=args.budget_space,
    )


def _vertex(algebra, name):
    """A vertex name from the command line, checked against the quiver."""
    verts = algebra.iq.vertices
    if name not in verts:
        raise ValueError(
            "unknown vertex %r (vertices: %s)" % (name, ", ".join(verts))
        )
    return name


def _dim_vector(algebra, text):
    """A comma separated dimension vector, one nonnegative entry per vertex."""
    dim = tuple(int(x) for x in text.split(","))
    n = algebra.iq.n
    if len(dim) != n:
        raise ValueError(
            "dimension vector %r has %d entries, the quiver has %d vertices"
            % (text, len(dim), n)
        )
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
        idx = int(idx_s)
        # the eps-zero classes come first, each at its kQ class's index, so
        # only a class past them needs the Lambda^i table
        basis = algebra.kq.classes(dim)
        if 0 <= idx < len(basis):
            return algebra.basis_elt(basis[idx])
        classes = algebra.table.classes(dim)
        if not 0 <= idx < len(classes):
            raise ValueError(
                "index %d out of range: %d classes at dimension %s"
                % (idx, len(classes), dim_s)
            )
        return algebra.module_elt(classes[idx])
    raise ValueError(
        "unrecognized element key %r (want simple:, k:, or class:)" % key
    )


def _terms_payload(elt):
    return [
        {"class": cls.name, "alpha": list(alpha), "coeff": str(c)}
        for (cls, alpha), c in elt.sorted_terms()
    ]


def _emit(args, payload, text_lines):
    if args.json:
        # one write: each is a system call when stdout is unbuffered
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for line in text_lines:
            print(line)


def _emit_checks(args, payload, rows, nouns, t0):
    """Emit the (name, holds) rows of a check suite; exit code 1 if one fails."""
    elapsed = time.perf_counter() - t0
    ok = all(flag for _, flag in rows)
    payload.update(
        results=[{nouns[0]: name, "ok": flag} for name, flag in rows],
        ok=ok,
        elapsed_s=round(elapsed, 3),
    )
    lines = ["%s %s" % ("ok  " if flag else "FAIL", name) for name, flag in rows]
    lines.append(
        "%d/%d %s hold (%.2fs)" % (sum(f for _, f in rows), len(rows), nouns[1], elapsed)
    )
    _emit(args, payload, lines)
    return 0 if ok else 1


def cmd_verify(args):
    t0 = time.perf_counter()
    algebra = _algebra(args)
    from .iqg import verify_presentation

    rows = [(label, res.is_zero()) for label, res in verify_presentation(algebra, args.parities)]
    payload = {"command": "verify", "quiver": args.quiver, "q": args.q}
    return _emit_checks(args, payload, rows, ("relation", "relations"), t0)


def cmd_product(args):
    algebra = _algebra(args)
    x = _parse_elt(algebra, args.x)
    y = _parse_elt(algebra, args.y)
    prod = x * y
    payload = {
        "command": "product",
        "quiver": args.quiver,
        "q": args.q,
        "x": args.x,
        "y": args.y,
        "terms": _terms_payload(prod),
    }
    _emit(args, payload, [repr(prod)])
    return 0


def cmd_idp(args):
    algebra = _algebra(args)
    from .idp import idp_hall

    # a warning of idp_hall is one plain line, without Python's source location
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        elt = idp_hall(algebra, _vertex(algebra, args.vertex), args.n, args.parity)
    for w in caught:
        print("warning: %s" % w.message, file=sys.stderr)
    payload = {
        "command": "idp",
        "quiver": args.quiver,
        "q": args.q,
        "vertex": args.vertex,
        "n": args.n,
        "parity": args.parity,
        "terms": _terms_payload(elt),
    }
    _emit(args, payload, [repr(elt)])
    return 0


def cmd_identities(args):
    from .qseries import CEILING, run_identity_suites, run_t_suite

    for bound, ceiling in CEILING.items():
        value = getattr(args, bound)
        if value > ceiling:
            print("budget exceeded: --%s %d is past its ceiling %d" % (bound, value, ceiling), file=sys.stderr)
            return 3
    t0 = time.perf_counter()
    rows = run_identity_suites(pmax=args.pmax, dmax=args.dmax)
    rows += run_t_suite(amax=args.amax)
    payload = {"command": "identities", "pmax": args.pmax, "dmax": args.dmax, "amax": args.amax}
    return _emit_checks(args, payload, rows, ("identity", "identities"), t0)


def cmd_enumerate(args):
    algebra = _algebra(args)
    dim = _dim_vector(algebra, args.dim)
    classes = algebra.table.classes(dim)
    rows = [
        {
            "name": c.name,
            "aut_order": c.aut_order,
            "orbit_size": c.orbit_size,
            "eps_zero": algebra.table.is_eps_zero(c),
        }
        for c in classes
    ]
    payload = {
        "command": "enumerate",
        "quiver": args.quiver,
        "q": args.q,
        "dim": list(dim),
        "classes": rows,
    }
    lines = [
        "%-12s aut=%-8d orbit=%-8d %s"
        % (r["name"], r["aut_order"], r["orbit_size"], "eps-zero" if r["eps_zero"] else "")
        for r in rows
    ]
    lines.append("%d classes" % len(rows))
    _emit(args, payload, lines)
    return 0


def _nonnegative(text):
    """An integer option that must not be negative (argparse exits 2 if it is)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % value)
    return value


def _parities(text):
    """A nonempty comma list of distinct parities 0 and 1 (argparse exits 2 otherwise)."""
    parts = text.split(",")
    if not set(parts) <= {"0", "1"} or len(set(parts)) < len(parts):
        raise argparse.ArgumentTypeError("want distinct parities 0 and 1, comma separated, got %r" % text)
    return tuple(map(int, parts))


def _add_algebra_args(sub):
    sub.add_argument("quiver", help="builtin:<name> or path of a JSON spec (an unknown builtin name lists the builtins)")
    sub.add_argument("--q", type=int, default=2, help="prime field size (default 2)")
    sub.add_argument("--budget-dim", type=_nonnegative, default=6, help="max total dimension enumerated (default 6)")
    sub.add_argument("--budget-space", type=_nonnegative, default=2 ** 28, help="max raw candidate count at one dimension (default 2^28)")


def _verify_args(sub):
    _add_algebra_args(sub)
    sub.add_argument("--parities", type=_parities, default="0,1", help="comma list of parities for the fixed-vertex relations (default 0,1)")


def _product_args(sub):
    _add_algebra_args(sub)
    sub.add_argument("x", help="element key")
    sub.add_argument("y", help="element key")


def _idp_args(sub):
    _add_algebra_args(sub)
    sub.add_argument("--vertex", required=True)
    sub.add_argument("--n", type=_nonnegative, required=True)
    sub.add_argument("--parity", type=int, choices=(0, 1), default=None)


def _identities_args(sub):
    sub.add_argument("--pmax", type=_nonnegative, default=12)
    sub.add_argument("--dmax", type=_nonnegative, default=12)
    sub.add_argument("--amax", type=_nonnegative, default=8)


def _enumerate_args(sub):
    _add_algebra_args(sub)
    sub.add_argument("--dim", required=True, help="comma separated dimension vector")


# name: (help line, argument adder, handler); every command also takes --json
COMMANDS = {
    "verify": ("run the presentation relation suite", _verify_args, cmd_verify),
    "product": ("multiply two elements", _product_args, cmd_product),
    "idp": ("print a Hall-side divided power", _idp_args, cmd_idp),
    "identities": ("run the q-series identity suites", _identities_args, cmd_identities),
    "enumerate": ("list module classes at a dimension vector", _enumerate_args, cmd_enumerate),
}


def build_parser(command=None):
    """The argument parser: with a command name, that command's subparser
    alone, else every subparser. Both print the same usage and help texts."""
    ap = argparse.ArgumentParser(prog="ihall", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    names = [command] if command in COMMANDS else list(COMMANDS)
    # a lone subparser still lists every command in the usage line; the full
    # parser leaves the metavar unset, as it would also rename "argument
    # command" in the errors only the full parser raises
    metavar = "{%s}" % ",".join(COMMANDS) if len(names) == 1 else None
    sp = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_line, add_args, handler = COMMANDS[name]
        sub = sp.add_parser(name, help=help_line)
        add_args(sub)
        sub.add_argument("--json", action="store_true")
        sub.set_defaults(func=handler)
    return ap


def main(argv=None):
    """Run one command; returns its exit code.

    Only the subparser that argv[0] names is built, and its handler imports
    the layers it runs (the module docstring above is the --help text).
    """
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # only the commands that load frep can raise its BudgetError
        from .frep import BudgetError

        if not isinstance(exc, BudgetError):
            raise
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
