"""Nilpotent representations of a bound quiver over a prime field.

Classifies the finite-dimensional nilpotent representations of a fixed
dimension vector up to isomorphism, and provides the counting data the Hall
algebra layer needs: automorphism orders and extension counts per reduced
middle (the product engine). The filtration and Hom routes, and the raw
enumeration of every relation-satisfying tuple, that the tests compare the
engine against live in `oracle`.

The bound quiver is Q alone (kQ), on whose table the product engine runs,
or any quiver with relations, such as the doubled quiver of `lambda_i`.

One cocycle system (`_cocycles`) serves the classification and the kQ
extension counts the product engine sums (`_ext_dist`): the blocks C for
which [[y, C], [0, x]] satisfies the relations. A nilpotent module has a
simple submodule and a simple quotient, so the middles of the extensions
of the classes one dimension lower by a simple (or of a simple by them)
meet every nilpotent orbit; `_classify` walks the GL orbit of each such
middle it has not met yet. Cocycles c and lambda c (lambda a nonzero
scalar) have isomorphic middles, so the seeds walk one cocycle per line of
the cocycle space (`_lines`).

The product engine (`extension_counts`) is a method of the kQ table and
reads only that table and tau, never the Lambda^i relations: a map
w: x -> tau* y fixes the reduced middle through K = ker w and
L = y / im(tau* w), and the number of maps with given (K, L) is a sum over
their images I of Hall numbers, which come off the kQ extension counts by
Riedtmann's formula (`_hall_numbers`); those numbers must add up to
|Hom(x, tau* y)|, one nullspace of the Hom equations (`_hom_system`). `_ext_dist` reads a pair
whose cocycles fill the whole rep space at dim K + dim L off the orbit
sizes there.

One routine (`_subquotient`) gives the module a rep induces on V/W:
`lambda_i.homology_reduce` reads ker eps / im eps off a Lambda^i class with
it, and the oracles their kernels, cokernels, submodules and quotients.

A representation is a tuple of matrices, one per arrow, and is keyed by its
code: entry k of its index tuple is the index of arrow k's matrix in a
candidate list fixed by the matrix shape (the full matrix space, or the
square-zero matrices for a loop bound by a zero square), and the code is
the mixed-radix number whose digits are that index tuple (`_radix`). Every
list is in flat order (entries read row by row), so codes compare as the
representations' flat entries do. GL acts through one permutation of a
list's indices per generator; only the canonical reps of the classes are
decoded back to matrix tuples.
"""

import os
from collections import Counter
from itertools import product as cartesian

from . import BUDGET_DIM, BUDGET_SPACE, BudgetError, linalg

# Bytes per entry of a {code: class index} rep map, the int key included:
# tracemalloc on 64-bit CPython 3.11, filling such a dict with 6561 to 2^21
# distinct codes, held 72-92 bytes per entry and peaked at 122 while the
# dict resized.
REP_MAP_ENTRY_BYTES = 122


def _size(n, bound=False):
    """n in decimal, or as a power of two once it passes 30 digits; a lower
    bound reads "at least"."""
    if n >= 10 ** 30:
        return "at least 2^%d" % (n.bit_length() - 1)
    return ("at least %d" if bound else "%d") % n


def _physical_memory():
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _lines(rows, n, p):
    """One nonzero vector of each line of the span of rows in F_p^n, the rows
    independent: the combinations whose first nonzero coefficient is 1."""
    cols = linalg.transpose(rows) or ((),) * n
    h = len(rows)
    for i in range(h - 1, -1, -1):
        head = (0,) * i + (1,)
        for tail in cartesian(range(p), repeat=h - 1 - i):
            yield linalg.mat_vec(cols, head + tail, p)


class IsoClass:
    """An isomorphism class of nilpotent representations of one dimension vector.

    `rep` is the canonical (lexicographically minimal) representative, a tuple
    of matrices in the bound quiver's arrow order. A table builds each class
    once (`ModuleTable.classes`), so classes compare by identity; `key`
    names one in a memo that must not hold it.
    """

    __slots__ = ("table", "dim", "index", "rep", "orbit_size", "aut_order")

    def __init__(self, table, dim, index, rep, orbit_size, aut_order):
        self.table = table
        self.dim = dim
        self.index = index
        self.rep = rep
        self.orbit_size = orbit_size
        self.aut_order = aut_order

    @property
    def key(self):
        return (self.dim, self.index)

    @property
    def name(self):
        return "%s#%d" % (",".join(str(d) for d in self.dim), self.index)

    @property
    def total_dim(self):
        return sum(self.dim)

    def __repr__(self):
        return "IsoClass(%s)" % self.name


class ModuleTable:
    """All per-prime representation data for one bound quiver.

    One table per (bound quiver, p). The product engine
    (`extension_counts`) runs on the table of Q alone, without relations,
    whose classes are the Hall algebra's basis keys.

    Candidate lists and GL permutation tables depend only on matrix shapes
    and generators, so one table shares them across dimension vectors. A
    class's `rep` is the flat-order minimum of its orbit, and classes are
    numbered in the flat order of their reps.
    """

    def __init__(self, bq, p, budget_dim=BUDGET_DIM, budget_space=BUDGET_SPACE):
        if not linalg.is_prime(p):
            raise ValueError("p must be prime, got %r" % (p,))
        self.bq = bq
        self.iq = bq.iq
        self.p = p
        self.budget_dim = budget_dim
        self.budget_space = budget_space

        index, ai = self.iq.vindex, bq.aindex
        self._arrow_ends = tuple((index[a.src], index[a.tgt]) for a in bq.arrows)
        # each relation as ((first, second), (first, second) or None), by arrow position
        self._relations = tuple(
            ((ai[r.lhs[0]], ai[r.lhs[1]]), None if r.rhs is None else (ai[r.rhs[0]], ai[r.rhs[1]]))
            for r in bq.relations
        )
        # a loop whose square is a zero relation draws from the square-zero list
        self._loop_pos = frozenset(f for (f, s), rhs in self._relations if f == s and rhs is None)

        self._cand = {}        # list key -> (candidate matrices, {matrix: index})
        self._perm = {}        # (list key, d, generator, side) -> index permutation
        self._radices = {}     # dim -> (list keys, list sizes, code weights)
        self._classes = {}     # dim -> tuple[IsoClass]
        self._by_rep = {}      # dim -> {rep code: class index}
        self._ext = {}         # (class, class) -> kQ extension counts
        self._hall = {}        # (dim Q, dim S) -> {middle: {(Q, S): Hall number}}

    # ---------- shapes and budgets ----------

    def _shapes(self, dim):
        return tuple((dim[ti], dim[si]) for si, ti in self._arrow_ends)

    def _block_entries(self, dx, dy):
        """Entries of the arrow blocks from dim dx to dim dy: the sum over
        the arrows a of dy[t(a)] * dx[s(a)]. These are the cocycle
        coordinates of an extension of dx by dy on kQ, and at dx = dy = d
        the entries of a rep at d."""
        return sum(dy[ti] * dx[si] for si, ti in self._arrow_ends)

    def _arrow_space(self, k, shape):
        """Number of candidate matrices the search tries at one arrow."""
        return self._arrow_count(k, shape, float("inf"))[0]

    def _arrow_count(self, k, shape, cap):
        """(n, exact): the arrow's candidate count n, exact unless the sum
        over the ranks of a square-zero loop stopped once it passed cap, in
        which case n is a lower bound."""
        if k in self._loop_pos:
            d = shape[0]
            total = 1  # the zero matrix
            for r in range(1, d // 2 + 1):
                if total > cap:
                    return total, False
                total += linalg.subspace_count(d, r, self.p) * linalg.frames(r, d - r, self.p)
            return total, True
        return self.p ** (shape[0] * shape[1]), True

    def check_budget(self, dim):
        if sum(dim) > self.budget_dim:
            raise BudgetError(
                "dimension vector %r has total %d > budget %d"
                % (dim, sum(dim), self.budget_dim)
            )
        # the count stops at the first arrow that takes it past the budget,
        # so it is exact only at the last arrow
        space, shapes = 1, self._shapes(dim)
        for k, shape in enumerate(shapes):
            n, exact = self._arrow_count(k, shape, self.budget_space // space)
            space *= n
            if space > self.budget_space:
                raise BudgetError(
                    "raw search space %s at dim %r exceeds budget %d"
                    % (_size(space, bound=not exact or k < len(shapes) - 1), dim, self.budget_space)
                )
        # every raw candidate may be a rep, and each rep takes one entry of
        # the rep map
        need = space * REP_MAP_ENTRY_BYTES
        memory = _physical_memory()
        if need > memory:
            raise BudgetError(
                "raw search space %s at dim %r needs a rep map of up to %s bytes,"
                " more than the %d bytes of physical memory"
                % (_size(space), dim, _size(need), memory)
            )

    def _candidates(self, key):
        """(matrices in flat order, {matrix: index}) for one list key.

        The full matrix space comes out of `cartesian` in that order already;
        `linalg.square_zero_matrices` emits by rank, so that list is sorted.
        """
        if key not in self._cand:
            if key[0] == "sq0":
                mats = tuple(sorted(linalg.square_zero_matrices(key[1], self.p)))
            else:
                r, c = key
                mats = tuple(
                    tuple(flat[i * c : (i + 1) * c] for i in range(r))
                    for flat in cartesian(range(self.p), repeat=r * c)
                )
            self._cand[key] = (mats, {m: i for i, m in enumerate(mats)})
        return self._cand[key]

    def _radix(self, dim):
        """(list key, list size, code weight) per arrow at dim.

        Arrow k draws from the square-zero list ("sq0", d) if it is a loop
        bound by a zero square, else from the full matrix space of its
        shape. A rep's code is the sum of its indices times the weights: the
        mixed-radix number whose digits are the index tuple, the last arrow's
        digit lowest, so codes order reps as index tuples do. On kQ every
        list is the full matrix space in flat order, so the code is the rep's
        flat entries read as base-p digits.
        """
        if dim not in self._radices:
            keys = tuple(
                ("sq0", s[0]) if k in self._loop_pos else s for k, s in enumerate(self._shapes(dim))
            )
            sizes = tuple(len(self._candidates(key)[0]) for key in keys)
            weights = [1] * len(keys)
            for k in range(len(keys) - 1, 0, -1):
                weights[k - 1] = weights[k] * sizes[k]
            self._radices[dim] = keys, sizes, tuple(weights)
        return self._radices[dim]

    def _decode(self, code, dim):
        """The matrix tuple of a code at dim."""
        keys, sizes, weights = self._radix(dim)
        return tuple(
            self._candidates(key)[0][code // w % s] for key, s, w in zip(keys, sizes, weights)
        )

    def _permutation(self, key, d, gi, side):
        """Candidate indices of list `key` moved by generator gi of GL_d.

        side "l" maps M to g M (g at the target), "r" maps M to M g^-1 (g at
        the source) and "lr" does both (a loop). Each is one row or column
        operation: for g = I + E_ij, g M adds row j to row i and M g^-1
        subtracts column i from column j; for the scalar generator
        diag(g0, 1, ...), g M scales row 0 by g0 and M g^-1 scales column 0
        by 1/g0.
        """
        tkey = (key, d, gi, side)
        if tkey not in self._perm:
            p = self.p
            mats, index = self._candidates(key)
            g = linalg.gl_generators(d, p)[gi]
            off = [(a, b) for a in range(d) for b in range(d) if a != b and g[a][b]]
            if off:
                ((i, j),) = off

                def left(m):
                    return m[:i] + (tuple((a + b) % p for a, b in zip(m[i], m[j])),) + m[i + 1 :]

                def right(m):
                    return tuple(r[:j] + ((r[j] - r[i]) % p,) + r[j + 1 :] for r in m)

            else:
                c = g[0][0]
                cinv = pow(c, p - 2, p)

                def left(m):
                    return (tuple(a * c % p for a in m[0]),) + m[1:]

                def right(m):
                    return tuple((r[0] * cinv % p,) + r[1:] for r in m)

            out = []
            for m in mats:
                if "l" in side:
                    m = left(m)
                if "r" in side:
                    m = right(m)
                out.append(index[m])
            self._perm[tkey] = out
        return self._perm[tkey]

    def _group_order(self, dim):
        out = 1
        for d in dim:
            out *= linalg.gl_order(d, self.p)
        return out

    # ---------- classification ----------

    def _seeds(self, dim):
        """Reps that meet every nilpotent orbit at dim.

        A nilpotent module at dim != 0 has a simple submodule S_v, with a
        nilpotent quotient at dim - e_v, and a simple quotient S_v, with a
        nilpotent kernel there. So either family of middles meets every
        orbit: the extensions of each class at dim - e_v by S_v, or those of
        S_v by each class, over every v with dim_v > 0. The family with the
        smaller sum of p^(cocycle coordinates) over v is walked, a choice
        made from the dimension vectors alone. The middles of cocycles c and
        lambda c are conjugate by lambda on the y block, so the zero cocycle
        and one cocycle per line (`_lines`) reach every orbit.
        """
        if not any(dim):
            yield self.zero_rep(dim)
            return
        steps = []  # (e_v, dim - e_v) for each v with dim_v > 0
        for v, dv in enumerate(dim):
            if dv:
                e = tuple(int(i == v) for i in range(len(dim)))
                steps.append((e, tuple(d - u for d, u in zip(dim, e))))

        def cost(pairs):
            # p to the number of cocycle coordinates of x (dim dx) by y (dim dy)
            return sum(self.p ** self._block_entries(dx, dy) for dx, dy in pairs)

        as_sub = cost((low, e) for e, low in steps) <= cost(steps)
        for e, low in steps:
            simple = self.zero_rep(e)
            for m in self.classes(low):
                x, dx, y, dy = (m.rep, low, simple, e) if as_sub else (simple, e, m.rep, low)
                basis, offs, width = self._cocycles(x, y, dx, dy)
                yield self._middle((0,) * width, y, x, offs, dx, dy)
                for c in _lines(basis, width, self.p):
                    yield self._middle(c, y, x, offs, dx, dy)

    def _classify(self, dim):
        """Orbits of GL(dim) on the nilpotent reps, numbered in flat order of
        their canonical reps.

        Walks the orbit of every seed (`_seeds`) not met yet, keeping its
        smallest code, then numbers the orbits by that code. Returns
        ([(canonical code, canonical rep, orbit size, aut order)],
        {code: index}); the canonical reps are the only ones decoded.
        """
        group = self._group_order(dim)
        keys, sizes, weights = self._radix(dim)
        digits = tuple(zip(weights, sizes))
        # a move is one GL generator at one vertex: per arrow it touches, the
        # change of the code as that arrow's index i goes to perm[i]. A list
        # of one matrix is fixed by every move, so a vertex whose arrows all
        # have one candidate takes no move. A longer list has at least p
        # matrices, so GL_d's generators, whose primitive root factors p - 1,
        # are built only for a p the budget check has bounded
        moves = []
        for vi, d in enumerate(dim):
            sides = [
                (k, ("l" if ti == vi else "") + ("r" if si == vi else ""))
                for k, (si, ti) in enumerate(self._arrow_ends)
                if vi in (si, ti) and sizes[k] > 1
            ]
            if not sides:
                continue
            for gi in range(len(linalg.gl_generators(d, self.p))):
                moves.append(
                    tuple(
                        (k, [(j - i) * weights[k] for i, j in enumerate(self._permutation(keys[k], d, gi, side))])
                        for k, side in sides
                    )
                )

        found = []        # (smallest code, orbit size) per orbit, in the order met
        rep_to_idx = {}   # code -> position in `found`, renumbered at the end
        for seed in self._seeds(dim):
            low = self._code(seed, dim)
            if low in rep_to_idx:
                continue
            mark = len(found)
            before = len(rep_to_idx)
            rep_to_idx[low] = mark
            frontier = [low]
            while frontier:
                cur = frontier.pop()
                idx = [cur // w % s for w, s in digits]
                for move in moves:
                    nxt = cur
                    for k, delta in move:
                        nxt += delta[idx[k]]
                    if nxt not in rep_to_idx:
                        rep_to_idx[nxt] = mark
                        frontier.append(nxt)
                        if nxt < low:
                            low = nxt
            osz = len(rep_to_idx) - before
            if group % osz != 0:
                raise RuntimeError("orbit size does not divide group order")
            found.append((low, osz))
        # on kQ without oriented cycles every rep is nilpotent: the orbits
        # cover all p^N reps
        if (
            not self._relations
            and self.iq.is_acyclic()
            and sum(osz for _, osz in found) != self.p ** self._block_entries(dim, dim)
        ):
            raise RuntimeError("orbit sizes do not add up to the rep count")
        rank = [0] * len(found)
        for r, i in enumerate(sorted(range(len(found)), key=found.__getitem__)):
            rank[i] = r
        # renumbered in place: a second map would double the peak memory
        for code, i in rep_to_idx.items():
            rep_to_idx[code] = rank[i]
        orbits = [(low, self._decode(low, dim), osz, group // osz) for low, osz in sorted(found)]
        return orbits, rep_to_idx

    def classes(self, dim):
        """Isomorphism classes at a dimension vector, in a stable order.

        A vector not held in memory is classified from the classes one step
        below it (`_seeds`). A walk down with an explicit stack collects the
        vectors below dim not held yet, and they are classified smallest
        total first, so every `_seeds` finds its classes in memory and the
        call chain does not grow with the total dimension.
        """
        dim = tuple(int(d) for d in dim)
        if dim not in self._classes:
            self.check_budget(dim)
            # no check_budget below dim: a lower vector's total, raw space
            # and rep map are smaller
            missing, seen, stack = [], {dim}, [dim]
            while stack:
                top = stack.pop()
                missing.append(top)
                for v, dv in enumerate(top):
                    low = top[:v] + (dv - 1,) + top[v + 1 :]
                    if dv and low not in seen and low not in self._classes:
                        seen.add(low)
                        stack.append(low)
            for low in sorted(missing, key=sum):
                orbits, self._by_rep[low] = self._classify(low)
                self._classes[low] = tuple(
                    IsoClass(self, low, k, can, osz, aut) for k, (_, can, osz, aut) in enumerate(orbits)
                )
        return self._classes[dim]

    def _code(self, rep, dim):
        """The code of a matrix tuple at dim (KeyError or ValueError if none)."""
        keys, _, weights = self._radix(dim)
        return sum(
            self._candidates(key)[1][mat] * w for key, w, mat in zip(keys, weights, rep, strict=True)
        )

    def class_of(self, rep, dim):
        """The class containing an explicit representation."""
        dim = tuple(int(d) for d in dim)
        cls = self.classes(dim)
        try:
            return cls[self._by_rep[dim][self._code(rep, dim)]]
        except (KeyError, ValueError):
            raise ValueError(
                "representation is not a nilpotent module of dim %r" % (dim,)
            ) from None

    # ---------- distinguished classes ----------

    def zero_rep(self, dim):
        return tuple(linalg.zeros(r, c) for r, c in self._shapes(dim))

    def zero_class(self):
        dim = (0,) * self.iq.n
        return self.class_of(self.zero_rep(dim), dim)

    def simple(self, v):
        """The vertex simple S_v (all arrows act as zero)."""
        dim = self.iq.unit(v)
        return self.class_of(self.zero_rep(dim), dim)

    # ---------- extensions by cocycles ----------

    def _cocycles(self, xrep, yrep, dx, dy):
        """The cocycles of the extensions of xrep (dim dx) by yrep (dim dy).

        A cocycle is a tuple of blocks C_k (dim y at the target by dim x at
        the source) such that arrow k acting by [[y_k, C_k], [0, x_k]] on
        F^dy + F^dx satisfies the relations; a relation's off-diagonal block
        Y_s C_f + C_s X_f is linear in the C_k. Returns (a basis of the
        cocycles as flat vectors, the offset of each block C_k, the number n
        of coordinates).
        """
        p = self.p
        ends = self._arrow_ends
        offs = []
        n = 0
        for si, ti in ends:
            offs.append(n)
            n += dy[ti] * dx[si]
        rows = []
        for lhs, rhs in self._relations:
            terms = ((lhs, 1),) if rhs is None else ((lhs, 1), (rhs, -1))
            # the block's rows sit at the target of `second`, its columns at
            # the source of `first`; both sides of a relation share them
            for r in range(dy[ends[lhs[1]][1]]):
                for c in range(dx[ends[lhs[0]][0]]):
                    row = [0] * n
                    for (f, s), sign in terms:
                        wf, ws = dx[ends[f][0]], dx[ends[s][0]]
                        for j, a in enumerate(yrep[s][r]):
                            row[offs[f] + j * wf + c] += sign * a
                        for j in range(ws):
                            row[offs[s] + r * ws + j] += sign * xrep[f][j][c]
                    rows.append(tuple(v % p for v in row))
        return linalg.nullspace(rows, n, p), offs, n

    def _middle(self, c, yrep, xrep, offs, dx, dy):
        """The middle of cocycle c: arrow k's matrix has rows yrep_k[r] +
        (row r of C_k), then (0 | xrep_k)."""
        rep = []
        for k, (si, ti) in enumerate(self._arrow_ends):
            o, w = offs[k], dx[si]
            upper = tuple([yrep[k][r] + c[o + r * w : o + r * w + w] for r in range(dy[ti])])
            rep.append(upper + tuple([(0,) * dy[si] + row for row in xrep[k]]))
        return tuple(rep)

    def extension_counts(self, x, y):
        """Extensions of x by y counted by cocycles, each middle reduced to
        v^e [X] * K_alpha with X a kQ class.

        This runs on the kQ table, and x and y are its classes; the cocycles
        are those of the Lambda^i relations on x and y lifted by zero eps
        blocks. Every cocycle gives one middle z, and the cocycles map onto
        Ext^1(x, y) with fibres of size q^(sum_i dx_i dy_i) / |Hom(x, y)|.

        No middle is built and no cocycle is walked. The eps blocks of a
        cocycle form a morphism w: x -> tau* y, and alone fix
        alpha = dim im w, X = ker eps / im eps and
        e = <dim X, tau(alpha) - alpha> (`IQuiver.twist`): X is an
        extension of K = ker w by L = y / im(tau* w), and the cocycles of
        one w reach each block from K to L p^(free - sum_a dL_t dK_s) times,
        so w adds the memoised kQ extension counts of K by L (`_ext_dist`)
        times that power of p.
        The number N(K, L) of such w comes from their images I: a w is a
        submodule U of x with U iso to K and x/U iso to I, a submodule V of
        y with V iso to tau* I and y/V iso to L, and an isomorphism
        x/U -> tau* V, so

            N(K, L) = sum_I a_I F^x_{I,K} F^y_{L,tau* I}

        over the kQ classes I with dim I <= dim x and tau dim I <= dim y
        (`_maps`, `_hall_numbers`, `tau_star`); w = 0 is the term I = 0.
        The sum of N(K, L) must be |Hom(x, tau* y)|, whose dimension one
        nullspace of the Hom equations gives (`_hom_system`), or this
        raises.

        Returns ({(X, alpha, e): cocycle count}, q^(sum_i dx_i dy_i)); a count
        over that denominator is the sum of F^z_{x,y} a_x a_y / a_z over the
        middles z that reduce to (X, alpha, e) (Riedtmann's formula).
        """
        maps = self._maps(x, y)  # refuses classes of any other table
        p, dx, dy = self.p, x.dim, y.dim
        free = self._block_entries(dx, dy)
        counts = {}
        for (k, l), n in maps.items():
            alpha = tuple(a - b for a, b in zip(dx, k.dim))
            diff = self.iq.twist(alpha)
            e = self.iq.euler(k.dim, diff) + self.iq.euler(l.dim, diff)
            mult = n * p ** (free - self._block_entries(k.dim, l.dim))
            for cls, hit in self._ext_dist(k, l):
                counts[cls, alpha, e] = counts.get((cls, alpha, e), 0) + hit * mult
        return counts, p ** sum(a * b for a, b in zip(dx, dy))

    def _maps(self, x, y):
        """{(K, L): N(K, L)}, the number of maps w: x -> tau* y with
        ker w iso to K and y / im(tau* w) iso to L, for classes x and y of
        this kQ table: N(K, L) = sum_I a_I F^x_{I,K} F^y_{L,tau* I}
        (`extension_counts`). Raises unless the numbers add up to
        |Hom(x, tau* y)|."""
        for cls in (x, y):
            if cls.table is not self or self._relations:
                raise ValueError("extension counts take classes of the kQ table, got %r" % (cls,))
        tau, dx, dy = self.iq.tau_index, x.dim, y.dim
        tally = {}
        for di in cartesian(*(range(min(d, dy[t]) + 1) for d, t in zip(dx, tau))):
            subs = {}  # tau* I -> [(L, F^y_{L,tau* I})]
            for (l, v), f in self._hall_numbers(y, tuple(d - di[t] for d, t in zip(dy, tau))).items():
                subs.setdefault(v, []).append((l, f))
            for (i, k), f in self._hall_numbers(x, di).items():
                for l, g in subs.get(self.tau_star(i), ()):
                    tally[k, l] = tally.get((k, l), 0) + i.aut_order * f * g
        n, _, rows = self._hom_system(x, self.tau_star(y))
        if sum(tally.values()) != self.p ** (n - linalg.rank(rows, self.p)):
            raise RuntimeError("the maps %r -> tau* %r do not add up to |Hom|" % (x, y))
        return tally

    def _hall_numbers(self, z, dq):
        """{(Q, S): F^z_{Q,S}} over the classes Q at dq and S at dim z - dq
        of this kQ table, F^z_{Q,S} the number of submodules of z
        isomorphic to S with quotient isomorphic to Q, nonzero ones only.

        By Riedtmann's formula F^z_{Q,S} = h a_z / (p^(sum_v dQ_v dS_v) a_Q a_S),
        h the extension count of Q by S at z (`_ext_dist`); the division is
        exact or this raises. The numbers of every middle at (dq, dim z - dq)
        are memoised together, as one pass over the pairs (Q, S) gives them
        all; the dict returned is the memo's own.
        """
        ds = tuple(a - b for a, b in zip(z.dim, dq))
        if (dq, ds) not in self._hall:
            scale = self.p ** sum(a * b for a, b in zip(dq, ds))
            by_middle = {}
            for q in self.classes(dq):
                for s in self.classes(ds):
                    for m, hit in self._ext_dist(q, s):
                        f, r = divmod(hit * m.aut_order, scale * q.aut_order * s.aut_order)
                        if r:
                            raise RuntimeError("Hall number of %r by %r in %r is no integer" % (q, s, m))
                        by_middle.setdefault(m, {})[q, s] = f
            self._hall[dq, ds] = by_middle
        return self._hall[dq, ds].get(z, {})

    def tau_star(self, cls):
        """The class of tau* cls: (tau* M)_v = M_(tau v), and arrow a acts as
        M's arrow tau(a). Refuses a class of a table with relations, whose
        arrows are not Q's alone."""
        if self._relations:
            raise ValueError("tau* takes classes of the kQ table, got %r" % (cls,))
        return self.class_of(tuple(cls.rep[k] for k in self.iq.tau_arrow_index), self.iq.tau_vec(cls.dim))

    def _ext_dist(self, k, l):
        """[(X, cocycle count)] over the extensions of k by l, classes of
        this kQ table, in class order; memoised on the class pair. kQ
        has no relations, so each cocycle coordinate is one entry of the
        middle, one base-p digit of its code, and that digit is 0 in the
        middle of the zero cocycle: every middle's code is that middle's
        plus sum c_i (code of the i-th unit middle).
        """
        mkey = (k, l)
        if mkey not in self._ext:
            dz = tuple(a + b for a, b in zip(k.dim, l.dim))
            classes = self.classes(dz)
            if self._block_entries(k.dim, l.dim) == self._block_entries(dz, dz):
                # the blocks of k, of l and from l to k have no entries: every
                # rep at dz is the middle of exactly one cocycle, and is
                # nilpotent, as every path of length 2 acts by zero
                self._ext[mkey] = [(c, c.orbit_size) for c in classes]
                return self._ext[mkey]
            basis, offs, n = self._cocycles(k.rep, l.rep, k.dim, l.dim)
            start, *units = [
                self._code(self._middle(c, l.rep, k.rep, offs, k.dim, l.dim), dz)
                for c in [(0,) * n, *basis]
            ]
            codes = cartesian((start,), *(range(0, self.p * (u - start), u - start) for u in units))
            hits = Counter(map(self._by_rep[dz].get, map(sum, codes)))
            if None in hits:
                raise RuntimeError("an extension of %r by %r is no kQ class" % (k, l))
            self._ext[mkey] = [(c, hits[c.index]) for c in classes if c.index in hits]
        return self._ext[mkey]

    def _hom_system(self, a, b):
        """(number of unknowns, offset of each vertex's block, rows) of the
        equations of Hom(a, b): f_t A_k = B_k f_s for each arrow k: s -> t,
        f_v a dim b_v by dim a_v block."""
        p = self.p
        offs = []
        total = 0
        for vi in range(self.iq.n):
            offs.append(total)
            total += b.dim[vi] * a.dim[vi]
        rows = []
        for k, (si, ti) in enumerate(self._arrow_ends):
            ma, mb = a.rep[k], b.rep[k]
            for r in range(b.dim[ti]):
                for c in range(a.dim[si]):
                    row = [0] * total
                    for s in range(a.dim[ti]):
                        row[offs[ti] + r * a.dim[ti] + s] += ma[s][c]
                    for t in range(b.dim[si]):
                        row[offs[si] + t * a.dim[si] + c] -= mb[r][t]
                    rows.append(tuple(x % p for x in row))
        return total, offs, rows

    def _subquotient(self, rep, subs, tops):
        """(matrices, dimension vector) of the module rep induces on V/W, or
        None when an arrow maps V outside V.

        `subs` holds one (rref rows, pivots) basis of V per vertex and `tops`
        rows spanning W inside V per vertex, W a submodule. Submodules are
        V/0 and quotients are the whole space (`oracle._whole`) over W; kernels,
        cokernels and ker eps / im eps (`lambda_i`) are the same construction.
        """
        p = self.p
        quots = [linalg.quotient_data(rows, piv, top, p) for (rows, piv), top in zip(subs, tops)]
        out = []
        for (si, ti), mat in zip(self._arrow_ends, rep):
            cols = [quots[ti][1](linalg.mat_vec(mat, u, p)) for u in quots[si][0]]
            if None in cols:
                return None
            out.append(linalg.transpose(cols) or ((),) * len(quots[ti][0]))
        return tuple(out), tuple(len(reps) for reps, _ in quots)
