"""Run code in a fresh interpreter and report the modules it loads."""

import functools
import os
import subprocess
import sys

import ihall

# the child's default code: the CLI, run as `python -m ihall.cli` runs it
CLI = "runpy.run_module('ihall.cli', run_name='__main__', alter_sys=True)"

# the child runs its code, then ends stderr with one line: the names of the
# modules loaded since it started, past runpy (which `python -m` loads too).
# The line is written on every way out: the command line's hard exit
# (os._exit, wrapped here to write it first), SystemExit and a normal end.
_CHILD = """if True:
    import os, runpy, sys
    before = set(sys.modules)
    hard_exit = os._exit

    def report():
        sys.stderr.write("\\n" + " ".join(sorted(set(sys.modules) - before)))
        sys.stderr.flush()

    def reported_exit(status):
        report()
        hard_exit(status)

    os._exit = reported_exit
    status = 0
    try:
        exec(sys.argv.pop(1))
    except SystemExit as exc:
        status = exc.code
    report()
    sys.exit(status)
"""


def environment(pairs=()):
    """os.environ with the package's source directory first on PYTHONPATH
    and the (name, value) pairs set."""
    src = os.path.dirname(os.path.dirname(ihall.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update(pairs)
    return env


def run_child(argv=(), code=CLI, env=(), flags=()):
    """(exit code, stdout, stderr, modules newly loaded) of `code` run in a
    fresh interpreter, started with the interpreter options `flags`, with
    `argv` as sys.argv[1:] and the (name, value) pairs of `env` set in its
    environment. Each distinct (argv, code, env, flags) starts one
    interpreter per test session; tests that check other contracts of the
    same run share its result."""
    return _run(tuple(argv), code, tuple(env), tuple(flags))


@functools.lru_cache(maxsize=None)
def _run(argv, code, pairs, flags):
    out = subprocess.run([sys.executable, *flags, "-c", _CHILD, code, *argv], env=environment(pairs),
                         capture_output=True, text=True)
    err, _, loaded = out.stderr.rpartition("\n")
    return out.returncode, out.stdout, err, frozenset(loaded.split())
