"""Quiver-with-involution data: validation, forms, bound quiver."""

import pytest

from ihall.iquiver import (
    BUILTIN_NAMES,
    IQuiver,
    build_iquiver,
    builtin_iquiver,
)
from ihall.lambda_i import doubled, eps_pos, res_K


def dim_K(bq, v):
    """Dimension vector of the generalized simple attached to vertex v."""
    e = list(bq.iq.unit(v))
    tv = bq.iq.tau[v]
    e[bq.iq.vindex[tv]] += 1
    return tuple(e)


def test_builtins_construct_and_validate():
    for name in BUILTIN_NAMES:
        iq = builtin_iquiver(name)
        assert iq.is_virtually_acyclic()
    with pytest.raises(ValueError):
        builtin_iquiver("nope")


def test_cartan_matrices():
    a2 = builtin_iquiver("a2-split")
    assert a2.cartan == ((2, -1), (-1, 2))
    kr = builtin_iquiver("kronecker-r1")
    assert kr.cartan == ((2, -2), (-2, 2))
    a3 = builtin_iquiver("a3-quasisplit")
    assert a3.cartan_vv("1", "2") == -1
    assert a3.cartan_vv("3", "2") == -1
    assert a3.cartan_vv("1", "3") == 0
    assert a3.cartan_vv("2", "2") == 2


def test_euler_form():
    a2 = builtin_iquiver("a2-split")
    # <x,y> = x1 y1 + x2 y2 - x1 y2 with one arrow 1 -> 2
    assert a2.euler((1, 0), (0, 1)) == -1
    assert a2.euler((0, 1), (1, 0)) == 0
    assert a2.euler((2, 1), (1, 3)) == 2 + 3 - 6


def test_tau_structures():
    a3 = builtin_iquiver("a3-quasisplit")
    assert a3.tau["1"] == "3" and a3.tau["2"] == "2"
    assert a3.tau_vec((1, 2, 0)) == (0, 2, 1)
    # representatives: lexicographically least member of each orbit
    assert set(a3.i_tau) == {"1", "2"}
    kr = builtin_iquiver("kronecker-r1")
    assert set(kr.i_tau) == {"1"}


def test_bound_quiver_layout():
    bq = doubled(builtin_iquiver("a2-split"))
    names = [a.name for a in bq.arrows]
    assert [eps_pos(bq, v) for v in ("1", "2")] == [0, 1]
    assert names[2:] == ["a1"]
    assert dim_K(bq, "1") == (2, 0)
    # every eps composite relation present: eps^2 at both vertices
    zero_rels = [r for r in bq.relations if r.rhs is None]
    assert len(zero_rels) == 2


def test_bound_quiver_swap_pair():
    bq = doubled(builtin_iquiver("kronecker-r1"))
    assert dim_K(bq, "1") == (1, 1)
    assert dim_K(bq, "2") == (1, 1)
    # one commuting relation per original arrow
    cross = [r for r in bq.relations if r.rhs is not None]
    assert len(cross) == 2


def test_res_K():
    bq = doubled(builtin_iquiver("a3-quasisplit"))
    assert res_K(bq.iq, (1, 0, 0)) == tuple(
        x + y for x, y in zip(dim_K(bq, "1"), (0, 0, 0))
    )
    assert res_K(bq.iq, (1, 1, 0)) == tuple(
        x + y for x, y in zip(dim_K(bq, "1"), dim_K(bq, "2"))
    )


def test_build_iquiver_arrow_forms():
    # dict arrows, [name, src, tgt] arrows, [src, tgt] arrows all accepted
    iq1 = build_iquiver(
        {
            "vertices": ["1", "2"],
            "arrows": [{"name": "a", "src": "1", "tgt": "2"}],
            "tau": {"1": "1", "2": "2"},
        }
    )
    iq2 = build_iquiver(
        {"vertices": ["1", "2"], "arrows": [["a", "1", "2"]], "tau": {"1": "1", "2": "2"}}
    )
    iq3 = build_iquiver({"vertices": ["1", "2"], "arrows": [["1", "2"]]})
    assert iq1.signature() == iq2.signature()
    assert len(iq3.arrows) == 1
    # omitted tau defaults to the identity
    assert iq3.tau == {"1": "1", "2": "2"}


def test_build_iquiver_rejects_bad_input():
    with pytest.raises(ValueError):
        build_iquiver(
            {
                "vertices": ["1"],
                "arrows": [["a", "1", "1"]],  # loops are not allowed
                "tau": {"1": "1"},
            }
        )
    with pytest.raises(ValueError):
        build_iquiver(
            {
                "vertices": ["1", "2"],
                "arrows": [],
                "tau": {"1": "2", "2": "1", "extra": "1"},
            }
        )
    # tau must be an involution
    with pytest.raises(ValueError):
        build_iquiver(
            {
                "vertices": ["1", "2", "3"],
                "arrows": [],
                "tau": {"1": "2", "2": "3", "3": "1"},
            }
        )


def test_tau_arrow_inference_requires_unique_candidate():
    # two parallel arrows with the swap involution cannot be paired
    # automatically; the explicit pairing resolves it
    spec = {
        "vertices": ["1", "2"],
        "arrows": [["a1", "1", "2"], ["a2", "1", "2"], ["b1", "2", "1"], ["b2", "2", "1"]],
        "tau": {"1": "2", "2": "1"},
    }
    with pytest.raises(ValueError):
        build_iquiver(spec)
    spec["tau_arrows"] = {"a1": "b1", "b1": "a1", "a2": "b2", "b2": "a2"}
    iq = build_iquiver(spec)
    assert iq.tau_arrows["a1"] == "b1" and iq.tau_arrows["b2"] == "a2"


def test_virtual_acyclicity():
    # an oriented 2-cycle fixed by tau is not virtually acyclic
    iq = build_iquiver(
        {
            "vertices": ["1", "2"],
            "arrows": [["a", "1", "2"], ["b", "2", "1"]],
            "tau": {"1": "1", "2": "2"},
        }
    )
    assert not iq.is_virtually_acyclic()
    # the same cycle with the swap involution is the r=1 two-way quiver
    assert builtin_iquiver("kronecker-r1").is_virtually_acyclic()
    # a 3-cycle with trivial tau
    iq = build_iquiver(
        {"vertices": ["1", "2", "3"], "arrows": [["1", "2"], ["2", "3"], ["3", "1"]]}
    )
    assert not iq.is_virtually_acyclic()
    # a 3-vertex strongly connected component that contains a tau pair
    iq = build_iquiver(
        {
            "vertices": ["1", "2", "3"],
            "arrows": [["1", "3"], ["2", "3"], ["3", "1"], ["3", "2"]],
            "tau": {"1": "2", "2": "1", "3": "3"},
        }
    )
    assert not iq.is_virtually_acyclic()
    # two tau-paired 2-cycles joined by arrows 1 -> 3 and 2 -> 4
    iq = build_iquiver(
        {
            "vertices": ["1", "2", "3", "4"],
            "arrows": [["1", "2"], ["2", "1"], ["3", "4"], ["4", "3"], ["1", "3"], ["2", "4"]],
            "tau": {"1": "2", "2": "1", "3": "4", "4": "3"},
        }
    )
    assert iq.is_virtually_acyclic()


def test_signature_distinguishes_builtins():
    sigs = {builtin_iquiver(n).signature() for n in BUILTIN_NAMES}
    assert len(sigs) == len(BUILTIN_NAMES)


TAU_QUIVERS = {name: builtin_iquiver(name) for name in BUILTIN_NAMES} | {
    "kronecker-r2": IQuiver(
        ["1", "2"],
        [("a1", "1", "2"), ("a2", "1", "2"), ("b1", "2", "1"), ("b2", "2", "1")],
        tau={"1": "2", "2": "1"},
        tau_arrows={"a1": "b1", "b1": "a1", "a2": "b2", "b2": "a2"},
    ),
    "qs3-2": IQuiver(
        ["1", "2", "3"],
        [("a1", "1", "2"), ("a2", "1", "2"), ("c1", "3", "2"), ("c2", "3", "2")],
        tau={"1": "3", "3": "1", "2": "2"},
        tau_arrows={"a1": "c1", "c1": "a1", "a2": "c2", "c2": "a2"},
    ),
    "split-2": IQuiver(
        ["1", "2"], [("a1", "1", "2"), ("a2", "1", "2")], tau_arrows={"a1": "a2", "a2": "a1"}
    ),
}


@pytest.mark.parametrize("name", list(TAU_QUIVERS))
def test_positional_tau_matches_the_name_maps(name):
    iq = TAU_QUIVERS[name]
    assert iq.tau_index == tuple(iq.vindex[iq.tau[v]] for v in iq.vertices)
    names = [a.name for a in iq.arrows]
    assert [names[k] for k in iq.tau_arrow_index] == [iq.tau_arrows[a] for a in names]
    alpha = tuple(range(1, iq.n + 1))
    assert {v: iq.tau_vec(alpha)[iq.vindex[iq.tau[v]]] for v in iq.vertices} == {
        v: alpha[iq.vindex[v]] for v in iq.vertices
    }


def _strips_to_nothing(iq):
    """The sink-stripping test for oriented cycles: peeling off the sinks,
    again and again, empties Q exactly when Q has none."""
    ends = [(a.src, a.tgt) for a in iq.arrows]
    left = set(iq.vertices)
    while True:
        sinks = {v for v in left if not any(s == v and t in left for s, t in ends)}
        if not sinks:
            return not left
        left -= sinks


CYCLES = {
    "2-cycle": IQuiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")]),
    "3-cycle": IQuiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")]),
}


@pytest.mark.parametrize("name", list(TAU_QUIVERS) + list(CYCLES))
def test_is_acyclic_agrees_with_sink_stripping(name):
    iq = TAU_QUIVERS.get(name) or CYCLES[name]
    assert iq.is_acyclic() == _strips_to_nothing(iq)
    assert iq.is_acyclic() == (name in ("rank1-split", "a2-split", "a3-quasisplit", "qs3-2", "split-2"))
