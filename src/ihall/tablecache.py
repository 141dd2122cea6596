"""Module tables on disk: one JSON file per (bound quiver, p, dimension vector).

A file holds what `ModuleTable._classify` returns, as plain data: the
orbits (canonical code, canonical rep, orbit size, aut order) and the rep
map as two parallel lists, codes and class indices. Reading a file runs no
code, so a cache directory shared with others is safe to read.

The file name is a crc32 of the signature (the enumeration code, the bound
quiver, p and the dimension vector), and the file stores the signature
itself, so a name collision is a miss, never foreign data. The enumeration
code enters as a crc32 of `frep.py` and of this file: any change to either
makes every old file a miss.

Runs without a cache directory never import this module.
"""

import functools
import json
import os
import zlib

FORMAT = 4  # the payload layout; 1-3 were pickles


@functools.cache
def _source_crc():
    crc = 0
    for name in ("frep.py", "tablecache.py"):
        with open(os.path.join(os.path.dirname(__file__), name), "rb") as fh:
            crc = zlib.crc32(fh.read(), crc)
    return crc


def signature(table, dim):
    return repr((_source_crc(), table.bq.signature(), table.p, dim))


def path(table, dim):
    crc = zlib.crc32(signature(table, dim).encode())
    return os.path.join(
        table.cache_dir, "ihall-%08x-d%s.json" % (crc, "_".join(str(d) for d in dim))
    )


def load(table, dim):
    """The classification stored for table at dim, or None on a miss: no
    file, a file that is not JSON, a foreign signature or a payload that
    fails a check (`check`)."""
    try:
        with open(path(table, dim), "rb") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    try:
        return check(table, dim, payload)
    except (TypeError, ValueError, KeyError, IndexError):
        return None


def check(table, dim, payload):
    """(orbits, rep map) of a payload, or None if its signature is foreign or
    it is inconsistent; a payload of the wrong shape raises.

    Every orbit size times its aut order is the group order; the canonical
    codes increase, each decodes to its stored rep and is the smallest code
    of its orbit; every code lies in the raw space and maps to a valid
    class index, no code twice, and each orbit has as many codes as its size.
    """
    if payload["version"] != FORMAT or payload["signature"] != signature(table, dim):
        return None
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
    n = len(orbits)
    count = [0] * n
    low = [space] * n
    for code, i in zip(codes, index):
        if type(code) is not int or type(i) is not int or not (0 <= code < space and 0 <= i < n):
            return None
        count[i] += 1
        low[i] = min(low[i], code)
    rep_to_idx = dict(zip(codes, index))
    if (
        len(codes) != len(index)
        or len(rep_to_idx) != len(codes)
        or count != [osz for _, _, osz, _ in orbits]
        or low != [code for code, _, _, _ in orbits]
    ):
        return None
    return orbits, rep_to_idx


def store(table, dim, data):
    orbits, rep_to_idx = data
    payload = {
        "version": FORMAT,
        "signature": signature(table, dim),
        "orbits": orbits,
        "codes": list(rep_to_idx),
        "index": list(rep_to_idx.values()),
    }
    target = path(table, dim)
    os.makedirs(table.cache_dir, exist_ok=True)
    tmp = "%s.tmp.%d" % (target, os.getpid())
    # one json.dumps: json.dump would encode in pure Python, chunk by chunk
    with open(tmp, "w") as fh:
        fh.write(json.dumps(payload, separators=(",", ":")))
    os.replace(tmp, target)
