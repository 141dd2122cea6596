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

Exit codes: 0 success, 1 a check failed, 2 bad input or output that cannot
be written (stdout closed or full), 3 budget exceeded. A message that
cannot reach stderr is dropped, and the exit code stands.

Each command imports the layers it uses when it runs, so ``identities``
loads the Laurent side (``ring``) alone, never the module enumeration or
the Hall algebra.
"""

import os
import sys
import time
from types import SimpleNamespace

from . import BUDGET_DIM, BUDGET_SPACE, BudgetError, report


def _load_iquiver(name):
    from .iquiver import build_iquiver, builtin_iquiver

    if name.startswith("builtin:"):
        return builtin_iquiver(name[len("builtin:"):])
    import json

    with open(name, encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except RecursionError:
            raise ValueError("%s: JSON nested too deeply" % name) from None
    return build_iquiver(spec)


def _algebra(args):
    from .ihall import HallAlgebra

    return HallAlgebra(_load_iquiver(args.quiver), args.q, budget_dim=args.budget_dim, budget_space=args.budget_space)


def _emit(args, payload, text_lines):
    if sys.stdout is None:  # fd 1 was closed: a write that fails, like any other
        raise OSError("stdout is closed")
    if args.json:
        import json

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


def cmd_element(args):
    """product, idp and enumerate: `elements` runs the command on the built
    algebra and cli emits what it returns."""
    algebra = _algebra(args)
    from . import elements

    fields, lines = getattr(elements, "cmd_" + args.command)(algebra, args)
    payload = {"command": args.command, "quiver": args.quiver, "q": args.q}
    payload.update(fields)
    _emit(args, payload, lines)
    return 0


def cmd_identities(args):
    from .ring import CEILING, run_identity_suites, run_t_suite

    for bound, ceiling in CEILING.items():
        value = getattr(args, bound)
        if value > ceiling:
            raise BudgetError("--%s %d is past its ceiling %d" % (bound, value, ceiling))
    t0 = time.perf_counter()
    rows = run_identity_suites(pmax=args.pmax, dmax=args.dmax)
    rows += run_t_suite(amax=args.amax)
    payload = {"command": "identities", "pmax": args.pmax, "dmax": args.dmax, "amax": args.amax}
    return _emit_checks(args, payload, rows, ("identity", "identities"), t0)


def _nonnegative(text):
    """An integer option that must not be negative (argparse exits 2 if it is)."""
    try:
        value = int(text)
    except ValueError:
        import argparse

        raise argparse.ArgumentTypeError("not an integer: %r" % text) from None
    if value < 0:
        import argparse

        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % value)
    return value


def _parities(text):
    """A nonempty comma list of distinct parities 0 and 1 (argparse exits 2 otherwise)."""
    parts = text.split(",")
    if not set(parts) <= {"0", "1"} or len(set(parts)) < len(parts):
        import argparse

        raise argparse.ArgumentTypeError("want distinct parities 0 and 1, comma separated, got %r" % text)
    return tuple(map(int, parts))


# the positional quiver and the options of every command that builds an algebra;
# an option is (flag, type, default, required, choices, help)
_QUIVER = ("quiver", "builtin:<name> or path of a JSON spec (an unknown builtin name lists the builtins)")
_ALGEBRA = (
    ("--q", int, 2, False, None, "prime field size (default 2)"),
    ("--budget-dim", _nonnegative, BUDGET_DIM, False, None, "max total dimension enumerated (default %d)" % BUDGET_DIM),
    ("--budget-space", _nonnegative, BUDGET_SPACE, False, None,
     "max raw candidate count at one dimension (default 2^%d)" % (BUDGET_SPACE.bit_length() - 1)),
)

# name: (help line, positionals as (name, help), options, handler); every
# command also takes --json. build_parser and _read both read this table.
COMMANDS = {
    "verify": ("run the presentation relation suite", (_QUIVER,), _ALGEBRA + (
        ("--parities", _parities, "0,1", False, None,
         "comma list of parities for the fixed-vertex relations (default 0,1)"),
    ), cmd_verify),
    "product": ("multiply two elements", (_QUIVER, ("x", "element key"), ("y", "element key")), _ALGEBRA,
                cmd_element),
    "idp": ("print a Hall-side divided power", (_QUIVER,), _ALGEBRA + (
        ("--vertex", str, None, True, None, None),
        ("--n", _nonnegative, None, True, None, None),
        ("--parity", int, None, False, (0, 1), None),
    ), cmd_element),
    "identities": ("run the q-series identity suites", (), (
        ("--pmax", _nonnegative, 12, False, None, None),
        ("--dmax", _nonnegative, 12, False, None, None),
        ("--amax", _nonnegative, 8, False, None, None),
    ), cmd_identities),
    "enumerate": ("list module classes at a dimension vector", (_QUIVER,), _ALGEBRA + (
        ("--dim", str, None, True, None, "comma separated dimension vector"),
    ), cmd_element),
}


def build_parser():
    """The argument parser, one subparser per command of `COMMANDS`."""
    import argparse

    ap = argparse.ArgumentParser(prog="ihall", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sp = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, positionals, options, handler) in COMMANDS.items():
        sub = sp.add_parser(name, help=help_line)
        for dest, text in positionals:
            sub.add_argument(dest, help=text)
        for flag, type_, default, required, choices, text in options:
            sub.add_argument(flag, type=type_, default=default, required=required, choices=choices, help=text)
        sub.add_argument("--json", action="store_true")
        sub.set_defaults(func=handler)
    return ap


def _read(argv):
    """The namespace of a plain command line, or None.

    A plain line is the exact command name, then exactly its positionals,
    exact full option names each followed by a value that does not start
    with "-", and --json, in any order; every value passes its type and
    choices and every required option is given. Anything else (help,
    --opt=value, an abbreviation, "--", a negative number, a bad value) is
    left to argparse, which reads it and words every help and error text.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, positionals, options, handler = COMMANDS[argv[0]]
    table = {flag: (flag[2:].replace("-", "_"), type_, choices) for flag, type_, _, _, choices, _ in options}
    args = {"command": argv[0], "json": False, "func": handler}
    rest = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--json":
            args["json"] = True
        elif not token.startswith("-"):
            rest.append(token)
        elif token in table:
            dest, type_, choices = table[token]
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            try:
                value = type_(value)
            except Exception:  # argparse runs the type again and words the error
                return None
            if choices is not None and value not in choices:
                return None
            args[dest] = value
        else:
            return None
    if len(rest) != len(positionals):
        return None
    args.update(zip((dest for dest, _ in positionals), rest))
    for flag, type_, default, required, _, _ in options:
        dest = table[flag][0]
        if dest not in args:
            if required:
                return None
            # argparse passes a string default through the option's type
            args[dest] = type_(default) if isinstance(default, str) else default
    return SimpleNamespace(**args)


def main(argv=None):
    """Run one command; returns its exit code.

    A plain command line is read without argparse (`_read`); argparse reads
    any other, which is a help request or a usage error. The handler
    imports the layers it runs (the module docstring above is the --help
    text). Every budget refusal, a table's or a q-series ceiling, is one
    `BudgetError` and exits 3. A command-line run (argv None) flushes
    stdout before it returns, so a failed write exits 2 like any OSError;
    a closed stdout is a failed write. Each message goes to stderr by
    `report`, which drops it where stderr is closed.
    """
    line = argv is None
    argv = sys.argv[1:] if line else argv
    args = _read(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    if line:  # the locale decodes sys.argv and encodes stdout; vertex names are UTF-8, as in spec files
        if hasattr(sys.stdout, "reconfigure"):  # not where stdout is a StringIO
            sys.stdout.reconfigure(encoding="utf-8")
        for dest in {"vertex", "x", "y"} & vars(args).keys():
            setattr(args, dest, os.fsencode(getattr(args, dest)).decode("utf-8", "surrogateescape"))
    try:
        try:
            return args.func(args)
        finally:
            if line and sys.stdout is not None:  # None where fd 1 was closed
                sys.stdout.flush()
    except (ValueError, OSError) as exc:
        report("error: %s" % exc)
        return 2
    except BudgetError as exc:
        report("budget exceeded: %s" % exc)
        return 3


def run():
    """The command line: `os._exit` with the code of `main()`, which has
    flushed its output (stdout at its end, each stderr line as it is
    written), so the process skips the interpreter's teardown, which frees
    every object and changes no output; no atexit hook runs. Help, usage
    errors and uncaught exceptions leave main by raising and take the
    normal exit."""
    os._exit(main())


if __name__ == "__main__":
    run()
