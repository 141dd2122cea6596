"""Quivers with involution and the bound quivers built on them.

An iquiver is a finite loop-free quiver Q together with an involutive
automorphism tau. Q alone, with no relations, is the bound quiver of the
kQ-modules; the doubled quiver that presents Lambda^i lives in `lambda_i`.
"""

from functools import cached_property
from typing import NamedTuple


class Arrow(NamedTuple):
    name: str | tuple  # a tuple only for an arrow a bound quiver adds to Q
    src: str
    tgt: str


class Relation(NamedTuple):
    """lhs and rhs are length-2 paths (first, second), meaning M(second) @ M(first).

    rhs None means the lhs composite is zero.
    """

    lhs: tuple
    rhs: tuple | None


class IQuiver:
    """A loop-free quiver with an involutive automorphism tau."""

    def __init__(self, vertices, arrows, tau=None, tau_arrows=None):
        vertices = tuple(str(v) for v in vertices)
        if not vertices:
            raise ValueError("a quiver needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex ids")
        arrows = tuple(Arrow(str(a[0]), str(a[1]), str(a[2])) for a in arrows)
        names = [a.name for a in arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vset = set(vertices)
        for a in arrows:
            if a.src not in vset or a.tgt not in vset:
                raise ValueError(f"arrow {a.name}: unknown endpoint")
            if a.src == a.tgt:
                raise ValueError(f"arrow {a.name} is a loop; loops are not allowed")

        if tau is None:
            tau = {v: v for v in vertices}
        else:
            tau = {str(k): str(v) for k, v in tau.items()}
        for v in vertices:
            if v not in tau:
                raise ValueError(f"tau misses vertex {v}")
            if tau[v] not in vset:
                raise ValueError(f"tau({v}) is not a vertex")
        if len(tau) != len(vertices):
            raise ValueError("tau mentions unknown vertices")
        for v in vertices:
            if tau[tau[v]] != v:
                raise ValueError("tau is not an involution on vertices")

        by_name = {a.name: a for a in arrows}
        if tau_arrows is None:
            tau_arrows = self._infer_tau_arrows(arrows, tau)
        else:
            tau_arrows = {str(k): str(v) for k, v in tau_arrows.items()}
        if set(tau_arrows) != set(names) or set(tau_arrows.values()) != set(names):
            raise ValueError("tau_arrows must be a bijection on all arrow names")
        for name, partner in tau_arrows.items():
            a, b = by_name[name], by_name[partner]
            if b.src != tau[a.src] or b.tgt != tau[a.tgt]:
                raise ValueError(f"tau_arrows({name}) = {partner} does not respect tau on endpoints")
            if tau_arrows[partner] != name:
                raise ValueError("tau_arrows is not an involution")

        self.vertices = vertices
        self.arrows = arrows
        self.tau = tau
        self.tau_arrows = tau_arrows
        self.vindex = {v: k for k, v in enumerate(vertices)}
        # tau on vertex positions and on arrow positions
        self.tau_index = tuple(self.vindex[tau[v]] for v in vertices)
        self.tau_arrow_index = tuple(names.index(tau_arrows[name]) for name in names)
        self._cartan = None

    @staticmethod
    def _infer_tau_arrows(arrows, tau):
        pairing = {}
        for a in arrows:
            if tau[a.src] == a.src and tau[a.tgt] == a.tgt:
                pairing[a.name] = a.name
                continue
            cands = [b for b in arrows if b.src == tau[a.src] and b.tgt == tau[a.tgt]]
            if len(cands) != 1:
                raise ValueError(
                    f"cannot infer the arrow pairing for {a.name}: "
                    f"{len(cands)} candidates; pass tau_arrows explicitly"
                )
            pairing[a.name] = cands[0].name
        return pairing

    # -- basic combinatorics ------------------------------------------------

    @property
    def n(self):
        return len(self.vertices)

    def unit(self, v):
        """Dimension vector of the simple at vertex v."""
        e = [0] * self.n
        e[self.vindex[v]] = 1
        return tuple(e)

    def tau_vec(self, alpha):
        """Permute a dimension vector by tau."""
        return tuple(alpha[t] for t in self.tau_index)

    def euler(self, x, y):
        """Euler form <x, y>_Q of the path algebra kQ."""
        total = sum(a * b for a, b in zip(x, y))
        for a in self.arrows:
            total -= x[self.vindex[a.src]] * y[self.vindex[a.tgt]]
        return total

    def sym(self, x, y):
        return self.euler(x, y) + self.euler(y, x)

    @property
    def cartan(self):
        """Symmetrized matrix c_ij = <e_i,e_j>_Q + <e_j,e_i>_Q."""
        if self._cartan is None:
            units = [self.unit(v) for v in self.vertices]
            self._cartan = tuple(
                tuple(self.sym(units[i], units[j]) for j in range(self.n))
                for i in range(self.n)
            )
        return self._cartan

    def cartan_vv(self, u, w):
        return self.cartan[self.vindex[u]][self.vindex[w]]

    @property
    def i_tau(self):
        """One representative per tau-orbit: the lexicographically least vertex."""
        reps = {min(v, self.tau[v]) for v in self.vertices}
        return tuple(v for v in self.vertices if v in reps)

    @cached_property
    def _reach(self):
        """{v: the vertices at the end of a nonempty path from v}."""
        succ = {v: [] for v in self.vertices}
        for a in self.arrows:
            succ[a.src].append(a.tgt)
        reach = {}
        for v in self.vertices:
            seen, stack = set(), [v]
            while stack:
                for w in succ[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            reach[v] = seen
        return reach

    def is_acyclic(self):
        """True when Q has no oriented cycle: no vertex reaches itself."""
        return not any(v in self._reach[v] for v in self.vertices)

    def is_virtually_acyclic(self):
        """True when the only cycles are 2-cycles between tau-paired vertices.

        Equivalently, every vertex w != v that is mutually reachable with v
        is tau(v).
        """
        reach = self._reach
        return all(
            w == self.tau[v]
            for v in self.vertices
            for w in reach[v]
            if w != v and v in reach[w]
        )

    def signature(self):
        """Stable text identity, used for cache keys."""
        return repr(
            (
                self.vertices,
                tuple(self.arrows),
                tuple(sorted(self.tau.items())),
                tuple(sorted(self.tau_arrows.items())),
            )
        )

    def __repr__(self):
        arrows = ", ".join(f"{a.name}:{a.src}->{a.tgt}" for a in self.arrows)
        return f"IQuiver({list(self.vertices)}; {arrows or 'no arrows'}; tau={self.tau})"


class BoundQuiver:
    """A quiver with relations on the vertices of an iquiver; by default Q
    alone, with no relations, whose modules are the kQ-modules.

    The `extra` arrows come first, then those of Q: representations are
    matrix tuples in this order.
    """

    def __init__(self, iq: IQuiver, extra=(), relations=()):
        self.iq = iq
        self.arrows = tuple(extra) + iq.arrows
        self.aindex = {a.name: k for k, a in enumerate(self.arrows)}
        self.relations = tuple(relations)

    def signature(self):
        """Stable text identity of the iquiver, the arrows and the relations."""
        return repr((self.iq.signature(), self.arrows, self.relations))


BUILTIN_NAMES = ("rank1-split", "a2-split", "a3-quasisplit", "kronecker-r1")


def builtin_iquiver(name):
    if name == "rank1-split":
        return IQuiver(["1"], [])
    if name == "a2-split":
        return IQuiver(["1", "2"], [("a1", "1", "2")])
    if name == "a3-quasisplit":
        return IQuiver(
            ["1", "2", "3"],
            [("a1", "1", "2"), ("a2", "3", "2")],
            tau={"1": "3", "3": "1", "2": "2"},
        )
    if name == "kronecker-r1":
        return IQuiver(
            ["1", "2"],
            [("a1", "1", "2"), ("b1", "2", "1")],
            tau={"1": "2", "2": "1"},
            tau_arrows={"a1": "b1", "b1": "a1"},
        )
    raise ValueError(f"unknown builtin quiver {name!r}; known: {', '.join(BUILTIN_NAMES)}")


def _spec_name(x, what):
    """An id from a JSON spec: a string, or an integer taken as its decimal text."""
    if isinstance(x, bool) or not isinstance(x, (str, int)):
        raise ValueError(f"{what} must be a string or an integer, got {x!r}")
    return str(x)


def build_iquiver(spec):
    """Build an IQuiver from a JSON-shaped dict.

    Expected keys: "vertices" (list of ids), "arrows" (list of
    {"name","src","tgt"} objects or [name, src, tgt] / [src, tgt] lists),
    optional "tau" (vertex map, default identity) and "tau_arrows".
    Every id (vertex, arrow name, endpoint, tau key or value) must be a
    string or an integer. A spec of any other shape raises ValueError.
    """
    if not isinstance(spec, dict):
        raise ValueError("quiver spec must be a JSON object")
    vertices = spec.get("vertices")
    if not isinstance(vertices, (list, tuple)):
        raise ValueError('quiver spec needs a "vertices" list')
    vertices = [_spec_name(v, "a vertex id") for v in vertices]
    raw_arrows = spec.get("arrows", [])
    if not isinstance(raw_arrows, (list, tuple)):
        raise ValueError('"arrows" must be a list')
    arrows = []
    for k, item in enumerate(raw_arrows):
        if isinstance(item, dict) and {"name", "src", "tgt"} <= item.keys():
            name, src, tgt = item["name"], item["src"], item["tgt"]
        elif isinstance(item, (list, tuple)) and len(item) == 3:
            name, src, tgt = item
        elif isinstance(item, (list, tuple)) and len(item) == 2:
            name, src, tgt = f"a{k + 1}", item[0], item[1]
        else:
            raise ValueError(f"cannot parse arrow entry {item!r}")
        arrows.append((
            _spec_name(name, "an arrow name"),
            _spec_name(src, "an arrow source"),
            _spec_name(tgt, "an arrow target"),
        ))
    return IQuiver(vertices, arrows, _spec_map(spec, "tau"), _spec_map(spec, "tau_arrows"))


def _spec_map(spec, key):
    """The optional name-to-name object spec[key], or None when absent."""
    mapping = spec.get(key)
    if mapping is None:
        return None
    if not isinstance(mapping, dict):
        raise ValueError(f'"{key}" must be an object mapping names to names')
    return {
        _spec_name(a, f'a "{key}" key'): _spec_name(b, f'a "{key}" value')
        for a, b in mapping.items()
    }
