"""Quiver specs for the benchmark, relabelled by the workload seed.

The base specs are the four ``ihall`` builtins and the split rank-2 quiver
with two parallel arrows, written as the JSON specs ``ihall`` reads. A seed
picks new vertex names, new arrow names and a new arrow order; the program
only ever sees the relabelled JSON file. Vertex order is kept: it fixes the
coordinates of dimension vectors, so every relation and class count stays the
same under relabelling.
"""

import random

BASE_SPECS = {
    "rank1-split": {"vertices": ["1"], "arrows": [], "tau": {"1": "1"}},
    "a2-split": {
        "vertices": ["1", "2"],
        "arrows": [["a1", "1", "2"]],
        "tau": {"1": "1", "2": "2"},
    },
    "a3-quasisplit": {
        "vertices": ["1", "2", "3"],
        "arrows": [["a1", "1", "2"], ["a2", "3", "2"]],
        "tau": {"1": "3", "2": "2", "3": "1"},
        "tau_arrows": {"a1": "a2", "a2": "a1"},
    },
    "kronecker-r1": {
        "vertices": ["1", "2"],
        "arrows": [["a1", "1", "2"], ["b1", "2", "1"]],
        "tau": {"1": "2", "2": "1"},
        "tau_arrows": {"a1": "b1", "b1": "a1"},
    },
    "split-a2": {
        "vertices": ["1", "2"],
        "arrows": [["a1", "1", "2"], ["a2", "1", "2"]],
        "tau": {"1": "1", "2": "2"},
    },
}


def _names(rng, prefix, count):
    # distinct prefixes keep vertex names, arrow names and the program's own
    # eps_<vertex> arrow names apart
    return ["%s%d" % (prefix, k) for k in rng.sample(range(1000, 10000), count)]


def relabel(name, seed):
    """The base spec ``name`` with seeded vertex names, arrow names and arrow order."""
    base = BASE_SPECS[name]
    rng = random.Random("%s:%d" % (name, seed))
    vmap = dict(zip(base["vertices"], _names(rng, "v", len(base["vertices"]))))
    amap = dict(zip((a[0] for a in base["arrows"]), _names(rng, "x", len(base["arrows"]))))
    arrows = [[amap[a], vmap[s], vmap[t]] for a, s, t in base["arrows"]]
    rng.shuffle(arrows)
    spec = {
        "vertices": [vmap[v] for v in base["vertices"]],
        "arrows": arrows,
        "tau": {vmap[k]: vmap[v] for k, v in base["tau"].items()},
    }
    if "tau_arrows" in base:
        spec["tau_arrows"] = {amap[k]: amap[v] for k, v in base["tau_arrows"].items()}
    return spec
