"""Spans and call counters for the traced benchmark run.

The tracer wraps public functions of the ``ihall`` package from outside; the
package itself is not changed. A span is one call of a wrapped function:
its name, start, end, parent span and the run id. Spans stay in memory and
are written out when the traced job ends.

Self time is a span's duration minus the part of it that its child spans
cover. Calls run on one thread, so child spans nest inside their parent and
that part is the sum of the children's durations; it is added up as each
span closes. The q-combinatorics, called tens of thousands of times per job,
are timed the same way but keep no per-call record, and the smallest kernels
(matrix and polynomial products, up to a million calls) are only counted.
"""

import os
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []                    # (id, name, start, end, parent id)
        self.calls = defaultdict(int)      # name -> calls
        self.total_s = defaultdict(float)  # name -> summed duration
        self.self_s = defaultdict(float)   # name -> summed self time
        self.extra = defaultdict(float)    # metric -> value, from call hooks
        self._open = []                    # [id, name, start, child time]
        self._ids = 0

    def open(self, name):
        self._ids += 1
        self._open.append([self._ids, name, self.clock(), 0.0])

    def close(self, keep=True):
        sid, name, start, child = self._open.pop()
        end = self.clock()
        dur = end - start
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[3] += dur
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if keep:
            self.spans.append((sid, name, start, end, parent[0] if parent else None))

    def timed(self, name, fn, keep=True, hook=None):
        """``fn`` wrapped in a span; ``hook(args, result)`` runs after each call."""

        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(keep)
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        """``fn`` wrapped in a bare call counter, for the hottest kernels."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self):
        return {
            "run_id": self.run_id,
            "spans": [list(s) for s in self.spans],
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "extra": dict(self.extra),
        }


def _patch(holder, attr, make):
    """Replace ``holder.attr`` by ``make(original)``.

    A name bound by ``from .ring import qint`` is a separate global of the
    importing module, so every loaded ``ihall`` module that holds the same
    object is patched too. A missing attribute is reported and skipped, so
    its metrics read 0.
    """
    orig = getattr(holder, attr, None)
    if orig is None:
        print("perfbench: no %s.%s to trace" % (getattr(holder, "__name__", holder), attr),
              file=sys.stderr)
        return
    new = make(orig)
    setattr(holder, attr, new)
    for name, mod in list(sys.modules.items()):
        if name == "ihall" or name.startswith("ihall."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)


QCOMB = ("qint", "qfact", "qdfact", "qbinom", "pochhammer")
IDENTITY_FAMILIES = (
    "km1_residual", "km3_residual", "km5_residual", "kmrd_residual",
    "qbinom_alt_residual", "qbinom_low_residual", "qbinom_high_residual",
    "t_value", "t1_value",
)


def instrument(tracer):
    """Wrap the public functions of every ihall layer; call after importing ihall.cli."""
    from ihall import cli, frep, idp, ihall, iqg, linalg, ring

    t = tracer
    for fn in QCOMB:
        _patch(ring, fn, lambda f: t.timed("ring.qcomb", f, keep=False))
    _patch(ring.LaurentPoly, "__mul__", lambda f: t.counted("ring.laurent_mul", f))
    _patch(ring.LaurentPoly, "exact_div", lambda f: t.counted("ring.exact_div", f))
    _patch(ring.QSqrt, "__mul__", lambda f: t.counted("ring.qsqrt_mul", f))
    for fn in ("mat_mul", "mat_vec", "rref"):
        _patch(linalg, fn, lambda f, fn=fn: t.counted("linalg.%s" % fn, f))

    table = frep.ModuleTable
    extra = t.extra

    def on_reps(args, reps):
        self, dim = args[0], tuple(args[1])
        raw = 1
        for k, shape in enumerate(self._shapes(dim)):
            raw *= self._arrow_space(k, shape)
        extra["frep.reps"] += len(reps)
        extra["frep.raw_candidates"] += raw

    _patch(table, "enumerate_reps", lambda f: t.timed("frep.enumerate_reps", f, hook=on_reps))
    _patch(table, "_classify", lambda f: t.timed("frep.classify", f))

    materialized = set()

    def on_classes(args, cls):
        key = (id(args[0]), tuple(int(d) for d in args[1]))
        if key not in materialized:
            materialized.add(key)
            extra["frep.classes"] += len(cls)

    _patch(table, "classes", lambda f: t.timed("frep.table_classes", f, hook=on_classes))

    # a decomposition is computed once per (table, class) and memoized after
    decomposed = set()

    def on_decomposition(args, _tally):
        decomposed.add((id(args[0]), args[1].key))
        extra["frep.decomposition.computed"] = len(decomposed)

    _patch(table, "decomposition",
           lambda f: t.timed("frep.decomposition", f, hook=on_decomposition))
    _patch(table, "homology_reduce", lambda f: t.timed("frep.homology_reduce", f))
    _patch(table, "hom_count", lambda f: t.counted("frep.hom_count", f))

    def cache_bytes(self, dim):
        path = self._cache_path(tuple(dim))
        return os.path.getsize(path) if path and os.path.exists(path) else 0

    def on_load(args, data):
        self, dim = args
        if not self.cache_dir:
            return
        if data is None:
            extra["frep.cache.misses"] += 1
        else:
            extra["frep.cache.hits"] += 1
            extra["frep.cache.bytes"] += cache_bytes(self, dim)

    def on_store(args, _none):
        extra["frep.cache.bytes"] += cache_bytes(args[0], args[1])

    _patch(table, "_load_cached", lambda f: t.timed("frep.cache.load", f, hook=on_load))
    _patch(table, "_store_cached", lambda f: t.timed("frep.cache.store", f, hook=on_store))

    def on_mul(_args, elt):
        extra["ihall.mul.terms_out"] += len(elt.terms)

    _patch(ihall.HallAlgebra, "_mul", lambda f: t.timed("ihall.mul", f, hook=on_mul))
    _patch(idp, "idp_hall", lambda f: t.timed("idp.idp_hall", f))
    _patch(iqg, "relation_residual", lambda f: t.timed("iqg.relation_residual", f))
    for fn in IDENTITY_FAMILIES:
        _patch(iqg, fn, lambda f, fn=fn: t.timed("iqg.%s" % fn, f))
    _patch(cli, "main", lambda f: t.timed("cli.main", f))
