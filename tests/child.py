"""Run code in a fresh interpreter and report the modules it loads."""

import functools
import os
import subprocess
import sys

import ihall

# the child's default code: the CLI, run as `python -m ihall.cli` runs it
CLI = "runpy.run_module('ihall.cli', run_name='__main__', alter_sys=True)"

# the child runs its code, then ends stderr with one line: the names of the
# modules loaded since it started, past runpy (which `python -m` loads too)
_CHILD = """if True:
    import runpy, sys
    before = set(sys.modules)
    status = 0
    try:
        exec(sys.argv.pop(1))
    except SystemExit as exc:
        status = exc.code
    sys.stderr.write("\\n" + " ".join(sorted(set(sys.modules) - before)))
    sys.exit(status)
"""


def run_child(argv=(), code=CLI, env=()):
    """(exit code, stdout, stderr, modules newly loaded) of `code` run in a
    fresh interpreter with `argv` as sys.argv[1:] and the (name, value)
    pairs of `env` set in its environment. Each distinct (argv, code, env)
    starts one interpreter per test session; tests that check other
    contracts of the same run share its result."""
    return _run(tuple(argv), code, tuple(env))


@functools.lru_cache(maxsize=None)
def _run(argv, code, pairs):
    src = os.path.dirname(os.path.dirname(ihall.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update(pairs)
    out = subprocess.run([sys.executable, "-c", _CHILD, code, *argv], env=env, capture_output=True, text=True)
    err, _, loaded = out.stderr.rpartition("\n")
    return out.returncode, out.stdout, err, frozenset(loaded.split())
