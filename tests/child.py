"""Run code in a fresh interpreter and report the modules it loads."""

import functools
import os
import subprocess
import sys

import ihall

# the child's default code: the CLI, run as `python -m ihall.cli` runs it
CLI = "runpy.run_module('ihall.cli', run_name='__main__', alter_sys=True)"

# the child runs its code, then writes the names of the modules loaded since
# it started, past runpy (which `python -m` loads too), to a pipe of its own,
# the fd number before the code in its argv, so the report mixes with
# neither output stream and needs neither open. It is written on every way
# out: the command line's hard exit (os._exit, wrapped here to write it
# first), SystemExit and a normal end.
_CHILD = """if True:
    import os, runpy, sys
    before = set(sys.modules)
    hard_exit = os._exit
    channel = int(sys.argv.pop(1))

    def report():
        os.write(channel, " ".join(sorted(set(sys.modules) - before)).encode())

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


def run_child(argv=(), code=CLI, env=(), flags=(), streams=()):
    """(exit code, stdout, stderr, modules newly loaded) of `code` run in a
    fresh interpreter, started with the interpreter options `flags`, with
    `argv` as sys.argv[1:] and the (name, value) pairs of `env` set in its
    environment. `streams` holds (fd, path) pairs: the interpreter starts
    with that fd (1 or 2) opened for writing on the path, or closed where
    the path is None, and what it writes there is not captured. Each
    distinct (argv, code, env, flags, streams) starts one interpreter per
    test session; tests that check other contracts of the same run share
    its result."""
    return _run(tuple(argv), code, tuple(env), tuple(flags), tuple(streams))


def _open_streams(streams):
    """Before the child's exec: each (fd, path) of `streams` opened on the
    path, or closed where the path is None."""
    for fd, path in streams:
        if path is None:
            os.close(fd)
        else:
            os.dup2(os.open(path, os.O_WRONLY), fd)


@functools.lru_cache(maxsize=None)
def _run(argv, code, pairs, flags, streams):
    read_end, write_end = os.pipe()
    with open(read_end, encoding="utf-8") as report:
        try:
            out = subprocess.run([sys.executable, *flags, "-c", _CHILD, str(write_end), code, *argv],
                                 env=environment(pairs), capture_output=True, text=True, pass_fds=(write_end,),
                                 preexec_fn=functools.partial(_open_streams, streams) if streams else None)
        finally:
            os.close(write_end)
        loaded = report.read()
    return out.returncode, out.stdout, out.stderr, frozenset(loaded.split())
