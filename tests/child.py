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


def run_child(argv=(), code=CLI):
    """(exit code, stdout, stderr, modules newly loaded) of `code` run in a
    fresh interpreter with `argv` as sys.argv[1:]. Each distinct (argv,
    code) starts one interpreter per test session; tests that check other
    contracts of the same run share its result."""
    return _run(tuple(argv), code)


@functools.lru_cache(maxsize=None)
def _run(argv, code):
    src = os.path.dirname(os.path.dirname(ihall.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _CHILD, code, *argv], env=env, capture_output=True, text=True)
    err, _, loaded = out.stderr.rpartition("\n")
    return out.returncode, out.stdout, err, frozenset(loaded.split())
