"""The disk cache: module tables as plain JSON files.

A table file, one per (bound quiver, p, dimension vector), holds what
`ModuleTable._classify` returns: the orbits (canonical code, canonical rep,
orbit size, aut order) and the rep map as two parallel lists, codes and
class indices. Extension counts are not stored: the product engine reads
them off the tables. Count files left by older versions (one per
(dim x, dim y), with two dimension vectors in the name) are never read.

Reading a file runs no code, so a cache directory shared with others is
safe to read, and every payload is checked (`check`) before it is used: a
file that fails the check is a miss, computed again and rewritten.

A file's name is a crc32 of its signature (the source code, the bound
quiver, p and the dimension vector), and the file stores the signature
itself, so a name collision is a miss, never foreign data. The source code
enters as a crc32 of every module of the package: any change to one of them
makes every old file a miss.

Runs without a cache directory never import this module.
"""

import functools
import json
import os
import zlib
from collections import Counter
from operator import ge

FORMAT = 4  # the payload layout; 1-3 were pickles


@functools.cache
def _source_crc():
    """A crc32 of every .py file of the package, in name order."""
    crc = 0
    src = os.path.dirname(__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                crc = zlib.crc32(fh.read(), crc)
    return crc


def signature(table, dim):
    """The identity of the table file at dim."""
    return repr((_source_crc(), table.bq.signature(), table.p, dim))


def path(table, dim):
    return _path(table, dim, signature(table, dim))


def _path(table, dim, sig):
    name = "d" + "_".join(map(str, dim))
    return os.path.join(table.cache_dir, "ihall-%08x-%s.json" % (zlib.crc32(sig.encode()), name))


def load(table, dim):
    """The classification stored for table at dim, or None on a miss: no
    file, a file that is not JSON or nests past the recursion limit, a
    foreign version or signature, or a payload that fails a check (`check`)."""
    sig = signature(table, dim)
    try:
        with open(_path(table, dim, sig), "rb") as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError):
        return None
    try:
        if payload["version"] != FORMAT or payload["signature"] != sig:
            return None
        return check(table, dim, payload)
    except (TypeError, ValueError, KeyError, IndexError):
        return None


def check(table, dim, payload):
    """(orbits, rep map) of a table payload, or None if it is inconsistent;
    a payload of the wrong shape raises.

    Every orbit size times its aut order is the group order; the canonical
    codes increase, each decodes to its stored rep and is the smallest code
    of its orbit; every code lies in the raw space and maps to a valid
    class index, no code twice, and each orbit has as many codes as its size.
    """
    group = table._group_order(dim)
    _, sizes, weights = table._radix(dim)
    space = sizes[0] * weights[0] if sizes else 1
    orbits = []
    for code, rep, osz, aut in payload["orbits"]:
        rep = tuple(tuple(map(tuple, mat)) for mat in rep)
        if (
            not all(type(v) is int for v in (code, osz, aut))
            or osz * aut != group
            or not 0 <= code < space
            or (orbits and code <= orbits[-1][0])
            or table._decode(code, dim) != rep
        ):
            return None
        orbits.append((code, rep, osz, aut))
    codes, index = payload["codes"], payload["index"]
    canon = [code for code, _, _, _ in orbits]
    n = len(canon)
    # C-level passes over the codes, no Python step per code. Each code of
    # orbit i is at least canon[i], which maps to i, so canon[i] is the
    # smallest code of orbit i; a surplus code or index shows as a repeated
    # code or a wrong orbit size
    if (
        not {*map(type, codes), *map(type, index)} <= {int}
        or not 0 <= min(codes) <= max(codes) < space
        or not 0 <= min(index) <= max(index) < n
    ):
        return None
    rep_to_idx = dict(zip(codes, index))
    size = Counter(index)
    if (
        len(rep_to_idx) != len(codes)
        or [size[i] for i in range(n)] != [osz for _, _, osz, _ in orbits]
        or list(map(rep_to_idx.get, canon)) != list(range(n))
        or not all(map(ge, codes, map(canon.__getitem__, index)))
    ):
        return None
    return orbits, rep_to_idx


def store(table, dim, data):
    """Write the table file at dim atomically: a tmp file, then `os.replace`."""
    orbits, rep_to_idx = data
    sig = signature(table, dim)
    target = _path(table, dim, sig)
    try:
        os.makedirs(table.cache_dir, exist_ok=True)
    except OSError as exc:
        msg = "IHALL_CACHE_DIR %r is not a usable directory: %s" % (table.cache_dir, exc.strerror or exc)
        raise OSError(msg) from None
    tmp = "%s.tmp.%d" % (target, os.getpid())
    payload = {
        "version": FORMAT,
        "signature": sig,
        "orbits": orbits,
        "codes": list(rep_to_idx),
        "index": list(rep_to_idx.values()),
    }
    # one json.dumps: json.dump would encode in pure Python, chunk by chunk
    with open(tmp, "w") as fh:
        fh.write(json.dumps(payload, separators=(",", ":")))
    os.replace(tmp, target)
