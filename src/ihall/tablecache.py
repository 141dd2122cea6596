"""The disk cache: module tables and extension counts, as plain JSON files.

A table file, one per (bound quiver, p, dimension vector), holds what
`ModuleTable._classify` returns: the orbits (canonical code, canonical rep,
orbit size, aut order) and the rep map as two parallel lists, codes and
class indices.

A count file, one per (bound quiver, p, dim x, dim y) of a Lambda^i table,
holds the `ModuleTable.extension_counts` of the pairs of kQ classes at
(dim x, dim y) computed so far: a list `pairs` of [i, j, rows], i and j the
class indices of x and y and one row [dim X, index X, alpha, e, count] per
reduced middle v^e [X] * K_alpha. The denominator q^(sum_v dx_v dy_v) is
not stored.

Reading a file runs no code, so a cache directory shared with others is
safe to read, and every payload is checked (`check`, `check_counts`)
before it is used: a file that fails a check is a miss, computed again and
rewritten.

A file's name is a crc32 of its signature (the source code, the bound
quiver, p and the dimension vectors), and the file stores the signature
itself, so a name collision is a miss, never foreign data. The source code
enters as a crc32 of the modules whose results are stored (`SOURCES`): any
change to one of them makes every old file a miss.

Runs without a cache directory never import this module.
"""

import functools
import json
import os
import zlib
from collections import Counter
from operator import ge

FORMAT = 4  # the payload layout; 1-3 were pickles
SOURCES = ("frep.py", "linalg.py", "iquiver.py", "tablecache.py")


@functools.cache
def _source_crc():
    crc = 0
    for name in SOURCES:
        with open(os.path.join(os.path.dirname(__file__), name), "rb") as fh:
            crc = zlib.crc32(fh.read(), crc)
    return crc


def signature(table, *dims):
    """The identity of a table file (one dimension vector) or a count file
    (dim x, dim y)."""
    return repr((_source_crc(), table.bq.signature(), table.p, *dims))


def path(table, *dims):
    return _path(table, dims, signature(table, *dims))


def _path(table, dims, sig):
    name = "-".join("d" + "_".join(map(str, d)) for d in dims)
    return os.path.join(table.cache_dir, "ihall-%08x-%s.json" % (zlib.crc32(sig.encode()), name))


def load(table, dim):
    """The classification stored for table at dim, or None on a miss: no
    file, a file that is not JSON or nests past the recursion limit, a
    foreign version or signature, or a payload that fails a check (`check`)."""
    return _load(check, table, dim)


def load_counts(table, dx, dy):
    """{(i, j): extension counts} stored for table at (dx, dy), or None on
    a miss, as for `load` (`check_counts`)."""
    return _load(check_counts, table, dx, dy)


def _load(check, table, *dims):
    sig = signature(table, *dims)
    try:
        with open(_path(table, dims, sig), "rb") as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError):
        return None
    try:
        if payload["version"] != FORMAT or payload["signature"] != sig:
            return None
        return check(table, *dims, payload)
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


def check_counts(table, dx, dy, payload):
    """{(i, j): (counts, denominator)} of a count payload, or None if it is
    inconsistent; a payload of the wrong shape raises.

    i and j are class indices of the kQ table at dx and dy, no pair twice.
    In each row [dim X, index X, alpha, e, count], dim X and alpha are
    vectors of n naturals with dim X + res_K(alpha) = dx + dy, index X is a
    class index at dim X, e is an int and count a positive int, no
    (X, alpha, e) twice; a pair's counts add up to its number of cocycles,
    a power of p.
    """
    kq, p, n = table.kq, table.p, table.iq.n
    total = tuple(a + b for a, b in zip(dx, dy))
    nx, ny = len(kq.classes(dx)), len(kq.classes(dy))
    denom = p ** sum(a * b for a, b in zip(dx, dy))
    group = {}
    for i, j, rows in payload["pairs"]:
        if not (_index(i, nx) and _index(j, ny)) or (i, j) in group:
            return None
        counts = {}
        for dim, k, alpha, e, count in rows:
            dim, alpha = tuple(dim), tuple(alpha)
            if (
                not (_naturals(dim, n) and _naturals(alpha, n))
                or tuple(a + b for a, b in zip(dim, table.bq.res_K(alpha))) != total
                or type(e) is not int
                or type(count) is not int
                or count <= 0
            ):
                return None
            classes = kq.classes(dim)
            if not _index(k, len(classes)) or (classes[k], alpha, e) in counts:
                return None
            counts[classes[k], alpha, e] = count
        cocycles = sum(counts.values())
        while cocycles > 1 and cocycles % p == 0:
            cocycles //= p
        if cocycles != 1:
            return None
        group[i, j] = counts, denom
    return group


def _index(i, n):
    return type(i) is int and 0 <= i < n


def _naturals(vec, n):
    return len(vec) == n and all(type(v) is int and v >= 0 for v in vec)


def store(table, dim, data):
    orbits, rep_to_idx = data
    _write(table, (dim,), {
        "orbits": orbits,
        "codes": list(rep_to_idx),
        "index": list(rep_to_idx.values()),
    })


def store_counts(table, dx, dy, group):
    _write(table, (dx, dy), {
        "pairs": [
            [i, j, [[x.dim, x.index, alpha, e, count] for (x, alpha, e), count in counts.items()]]
            for (i, j), (counts, _) in group.items()
        ],
    })


def _write(table, dims, data):
    """Write one file atomically: a tmp file, then `os.replace`."""
    sig = signature(table, *dims)
    target = _path(table, dims, sig)
    os.makedirs(table.cache_dir, exist_ok=True)
    tmp = "%s.tmp.%d" % (target, os.getpid())
    # one json.dumps: json.dump would encode in pure Python, chunk by chunk
    with open(tmp, "w") as fh:
        fh.write(json.dumps({"version": FORMAT, "signature": sig, **data}, separators=(",", ":")))
    os.replace(tmp, target)
