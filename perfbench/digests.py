"""Enumeration digests: class order, orbit sizes and automorphism orders.

For every builtin, q in (2, 3) and every dimension vector that
``ihall verify`` enumerates on it, the SHA-256 of ``ihall enumerate --json``
is compared with the digest recorded in ``digests.json``.

    python3 perfbench/digests.py --check    # prints {"attempted", "mismatches"}
    python3 perfbench/digests.py --record   # rewrites digests.json

Both need ``src`` on PYTHONPATH. Record only when a change to the enumeration
order is intended.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from ihall.cli import main as cli_main

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
BUILTINS = ("rank1-split", "a2-split", "a3-quasisplit", "kronecker-r1")
QS = (2, 3)


def _key(name, q, dim):
    return "%s q=%d dim=%s" % (name, q, ",".join(str(d) for d in dim))


def enumerate_digest(key):
    name, q, dim = key.split(" ")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["enumerate", "builtin:" + name, "--q", q[2:], "--dim", dim[4:], "--json"])
    if code != 0:
        raise RuntimeError("ihall enumerate exited %d on %s" % (code, key))
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def verified_dims(name, q):
    """The dimension vectors whose classes `ihall verify` asks for."""
    from ihall import frep
    from ihall.ihall import HallAlgebra
    from ihall.iqg import verify_presentation
    from ihall.iquiver import builtin_iquiver

    seen = set()
    orig = frep.ModuleTable.classes

    def classes(self, dim):
        seen.add(tuple(int(d) for d in dim))
        return orig(self, dim)

    frep.ModuleTable.classes = classes
    try:
        verify_presentation(HallAlgebra(builtin_iquiver(name), q), (0, 1))
    finally:
        frep.ModuleTable.classes = orig
    return sorted(seen)


def main(argv):
    if argv == ["--record"]:
        keys = [_key(n, q, d) for n in BUILTINS for q in QS for d in verified_dims(n, q)]
        with open(DIGESTS, "w") as fh:
            json.dump({k: enumerate_digest(k) for k in keys}, fh, indent=1)
            fh.write("\n")
        return 0
    if argv == ["--check"]:
        with open(DIGESTS) as fh:
            recorded = json.load(fh)
        mismatches = [k for k, d in recorded.items() if enumerate_digest(k) != d]
        print(json.dumps({"attempted": len(recorded), "mismatches": mismatches}))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
