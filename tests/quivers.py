"""The named iquivers of the tests, each written out once as a JSON spec.

- split-k: two vertices, k parallel arrows 1 -> 2, the trivial involution;
- split-2-swapped: split-2 with tau swapping its two arrows;
- kronecker-r2: two arrows each way; tau swaps the vertices and a1 <-> b1,
  a2 <-> b2, so c_{1,2} = -4;
- qs3-2: two arrows 1 -> 2 and two 3 -> 2; tau swaps 1 <-> 3 and the
  arrows in pairs;
- commuting-pair: vertices 1 <-> 2 and 3 <-> 4 swapped, arrows 1 -> 4 and
  2 -> 3 swapped, so c(1, 3) = c(2, 4) = 0.
"""

from ihall.iquiver import build_iquiver, builtin_iquiver

SPECS = {
    "split-%d" % k: {"vertices": ["1", "2"], "arrows": [["a%d" % m, "1", "2"] for m in range(1, k + 1)]}
    for k in (2, 3)
}
SPECS["split-2-swapped"] = dict(SPECS["split-2"], tau_arrows={"a1": "a2", "a2": "a1"})
SPECS["kronecker-r2"] = {
    "vertices": ["1", "2"],
    "arrows": [["a1", "1", "2"], ["a2", "1", "2"], ["b1", "2", "1"], ["b2", "2", "1"]],
    "tau": {"1": "2", "2": "1"},
    "tau_arrows": {"a1": "b1", "b1": "a1", "a2": "b2", "b2": "a2"},
}
SPECS["qs3-2"] = {
    "vertices": ["1", "2", "3"],
    "arrows": [["a1", "1", "2"], ["a2", "1", "2"], ["b1", "3", "2"], ["b2", "3", "2"]],
    "tau": {"1": "3", "2": "2", "3": "1"},
    "tau_arrows": {"a1": "b1", "b1": "a1", "a2": "b2", "b2": "a2"},
}
SPECS["commuting-pair"] = {
    "vertices": ["1", "2", "3", "4"],
    "arrows": [["a", "1", "4"], ["b", "2", "3"]],
    "tau": {"1": "2", "2": "1", "3": "4", "4": "3"},
    "tau_arrows": {"a": "b", "b": "a"},
}


def quiver(name):
    """The IQuiver of a name above, else of the builtin of that name."""
    spec = SPECS.get(name)
    return builtin_iquiver(name) if spec is None else build_iquiver(spec)
