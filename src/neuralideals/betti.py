"""Multigraded Betti numbers, projective dimension and regularity.

The oracle: for a proper nonzero monomial ideal I and a squarefree
multidegree b, the Betti number in homological index i at b is the rank
of reduced homology H_{i-1} of the upper Koszul complex

    K^b(I) = { tau ⊆ supp(b) : b / tau ∈ I },

whose facets are b / g for the generators g dividing b (Miller-Sturmfels,
Combinatorial Commutative Algebra, Thm 1.34).  Only multidegrees in the
lcm closure of the minimal generators can carry a nonzero Betti number,
so the table scans exactly that set, and there b is the lcm of its
divisors: no vertex lies in every facet.  Up to three facets, the ranks
are those of the nerve, read off which pairs of facets meet, and b / g
and b / g' meet iff g | g' != b: the walk reads pairwise joins.  The
sphere rule: d > 3 facets of which every d - 1 meet have the boundary of a
(d-1)-simplex as nerve, so by the nerve lemma K^b is a (d-2)-sphere and
its one rank is H̃_{d-2} = 1, the d-facet form of the hollow triangle.
Every d - 1 facets b / g meet iff each divisor g has a variable of b
that no other divisor holds, that is iff the divisors form a dominant
set, whose Taylor complex is minimal (Alesandroni, "Minimal resolutions
of dominant and semidominant ideals", JPAA 2017).  Otherwise
K^b is shrunk to its strong-collapse core by deleting dominated vertices
(Barmak-Minian, "Strong homotopy types, nerves and collapses", DCG
2012), which keeps the homotopy type and so the homology over every
field, and only a core of more than three facets gets its faces built
and a homology computation.  Cores recur across multidegrees, so their
ranks are memoized for one call, keyed by the renumbered facets.

The cubical side.  When every generator is a transversal of one neuron
set N, as for a degree-n ideal, its pivot halves J and K, thm36 and the
ideal of any code, a generator is a point of the cube {0,1}^N (y_i or
x_i at each neuron), T is the set of generator points and W = {0,1}^N ∖ T
the codewords.  A closure multidegree b with k free neurons, those
with both x_i and y_i in b, is a k-dimensional subcube, and the facets
b / g are facets of the boundary of the k-dimensional cross-polytope,
a (k-1)-sphere.  Alexander duality in that sphere (Björner-Tancer,
"Combinatorial Alexander duality", DCG 2009) gives

    beta_{i,b}(I) = dim H̃_{k-1-i}(□(W ∩ b)),

where □(W ∩ b) is the cubical complex of the subcubes of b whose points
are all codewords, and the empty complex has H̃_{-1} = 1.  So pd <= k
<= n, and since deg b = |N| + k, reg = |N| + 1 + max{d : H̃_d(□(W ∩ b))
!= 0} over the closure, which is >= |N|: the ideal has a linear
resolution iff every □(W ∩ b) is empty or acyclic.  The cubical side
runs only inside the subcube sweep below: there a multidegree with
d_b >= 4 divisors takes it at k <= 4, ranked from popcounts, and at
k >= 5 when |W ∩ b| = 2^k - d_b is at most 2 d_b, so the smaller of
the two complexes is built.  A walked ideal takes the nerve rule or the
strong core at every multidegree.

The subcube sweep.  Such an ideal's closure can be read off its points
T in {0,1}^V, V the neurons on which the generators differ: the
subcube c + span(F) is a closure multidegree iff T spans it, that is
iff for every j in F both halves of it along j meet T.  Taking the
free sets F in increasing order, hit[F], the base points whose subcube
meets T, is one shift-OR from hit[F ∖ j], and span[F], the base points
of F's closure subcubes, is hit[F] ANDed with hit[F ∖ j] & hit[F ∖ j]
>> j for each j in F.  At each set bit of span[F], d_b =
popcount(T & cube), and two points p, p' meet as facets unless p ⊕ p'
= F, so the nerve rule needs no facets either.  The sweep makes about
|V| 2^|V| operations on 2^|V|-bit ints whatever the generator count q,
and the walk of the closure |closure| q joins and facet scans, so a
transversal ideal is swept when 2^|V| <= 4 q and walked otherwise;
every other ideal is walked.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from functools import reduce
from json.encoder import encode_basestring_ascii
from operator import and_, or_

from .homology import (
    FieldTag,
    SimplicialComplex,
    chain_ranks,
    reduced_homology_ranks,
)
from .monomials import (
    LcmDegreeError,
    Monomial,
    MonomialIdeal,
    UnitOrZeroIdealError,
    ZeroIdealError,
    _Value,
    _bit_clear_patterns,
    _compress,
    _cube_points,
    _expand,
    _lcm_masks,
    _positions,
    _require_table_size,
    _subcube_closure,
    is_equigenerated,
    mask_text,
)


class NotDominantError(ValueError):
    """The generating set is not dominant, closed-form invariants unavailable."""


def _require_proper_nonzero(ideal: MonomialIdeal) -> None:
    if ideal.is_zero:
        raise UnitOrZeroIdealError("operation undefined for the zero ideal")
    if ideal.is_unit:
        raise UnitOrZeroIdealError("operation undefined for the unit ideal")


def _koszul_facets(gens: list[int], b: int) -> set[int]:
    """The facets b / g of K^b, one per generator mask g dividing b; none
    when b lies outside the ideal."""
    return {b & ~g for g in gens if g | b == b}


def _faces_below(facets: int, v: int) -> frozenset[int]:
    """Every subset of a facet, as a mask over v vertices, where bit f of
    the 2^v-bit int `facets` is set for each facet f: the downward subcube
    closure of that table."""
    bits = format(_subcube_closure(facets, _bit_clear_patterns(v), (1 << v) - 1), "b")
    top = len(bits) - 1
    faces = []
    at = bits.find("1")
    while at >= 0:
        faces.append(top - at)
        at = bits.find("1", at + 1)
    return frozenset(faces)


def upper_koszul(ideal: MonomialIdeal, b: Monomial) -> SimplicialComplex:
    """The upper Koszul complex of `ideal` at the squarefree multidegree b.

    A subset tau of supp(b) is a face iff b with tau removed still lies
    in the ideal, that is iff tau lies inside a facet b / g with g a
    generator dividing b.  Void when no generator divides b.  Faces are
    int submasks of b.mask: the downward closure of the facets over the
    deg(b) variables of b renumbered, expanded back.  Raises
    LcmDegreeError when deg(b) exceeds MAX_LCM_DEGREE and b is in the
    ideal.
    """
    _require_proper_nonzero(ideal)
    facets = _koszul_facets([g.mask for g in ideal.gens], b.mask)
    if not facets:
        return SimplicialComplex(b.mask, frozenset())
    positions = _positions(b.mask)
    s = len(positions)
    _require_table_size(s, f"the upper Koszul complex at a multidegree of degree {s}")
    table = 0
    for f in facets:
        table |= 1 << _compress(f, positions)
    return SimplicialComplex(
        b.mask, frozenset(_expand(c, positions) for c in _faces_below(table, s)))


def _strong_core(facets: set[int]) -> set[int]:
    """Facets of a strong-collapse core of the complex they generate.

    A vertex u is dominated when the facets containing u share another
    vertex; deleting u from every facet is then a strong collapse, which
    keeps the homotopy type (Barmak-Minian 2012).  A round tests each
    vertex once, in one pass over the facets, and deletes it at once if
    it is dominated; then the facets that shrank into others are dropped,
    as a facet that is not maximal can hide a domination, though never
    fake one.  Rounds repeat until one deletes nothing, which leaves an
    antichain of facets with no dominated vertex.
    """
    deleted = True
    while deleted:
        deleted = False
        rest = reduce(or_, facets)
        while rest:
            u = rest & -rest
            rest ^= u
            if reduce(and_, [f for f in facets if f & u]) != u:
                facets = {f & ~u for f in facets}
                deleted = True
        if deleted:
            facets = {f for f in facets if not any(f | g == g != f for g in facets)}
    return facets


class BettiTable(_Value):
    """Fine (multigraded) and coarse Betti numbers of one ideal.

    fine maps (homological index i, multidegree mask) -> rank;
    coarse aggregates by total degree: (i, j) -> rank.  The JSON form
    and the `betti` text list the fine entries in `fine_entries` order,
    each multidegree named from its mask by `mask_text`.
    """

    def __init__(self, n: int, fine: dict[tuple[int, int], int] | None = None,
                 coarse: dict[tuple[int, int], int] | None = None):
        self.n = n
        self.fine = {} if fine is None else fine
        self.coarse = {} if coarse is None else coarse

    @property
    def pd(self) -> int:
        return max(i for i, _ in self.coarse)

    @property
    def reg(self) -> int:
        return max(j - i for i, j in self.coarse)

    def fine_entries(self) -> list[tuple[int, int, int]]:
        """(i, multidegree mask, rank) of every fine entry, sorted by i,
        then by the multidegree's degree and mask."""
        return sorted(((i, m, r) for (i, m), r in self.fine.items()),
                      key=lambda t: (t[0], t[1].bit_count(), t[1]))

    def to_json_dict(self) -> dict:
        """The Betti payload; its "fine" list is `_fine_json`, which `cli.json_text` calls."""
        return {
            "fine": self._fine_json,
            "coarse": [
                {"i": i, "j": j, "rank": r}
                for (i, j), r in sorted(self.coarse.items())
            ],
            "pd": self.pd,
            "reg": self.reg,
        }

    def _fine_json(self, indent: str) -> str:
        """The fine entries as `json.dumps(indent=2)` writes their list of
        {"i", "b", "rank"} dicts when the list opens at `indent`; one
        %-template renders every entry, and no dict is built."""
        if not self.fine:
            return "[]"
        inner = indent + "  "
        entry = ('{\n%s  "i": %%d,\n%s  "b": %%s,\n%s  "rank": %%d\n%s}'
                 % (inner, inner, inner, inner))
        return "[\n" + inner + (",\n" + inner).join([
            entry % (i, encode_basestring_ascii(mask_text(m, self.n)), r)
            for i, m, r in self.fine_entries()]) + "\n" + indent + "]"


# reduced homology of the nerve of at most three facets that share no
# vertex all together, by (facet count, pairs of facets that meet): {∅},
# two disjoint simplices, and three facets whose nerve is three points, a
# point and an edge, a path, or a hollow triangle
_NERVE_RANKS = {
    (1, 0): {-1: 1},
    (2, 0): {0: 1},
    (3, 0): {0: 2},
    (3, 1): {0: 1},
    (3, 2): {},
    (3, 3): {1: 1},
}


def _koszul_ranks(facets: set[int], field_tag: FieldTag,
                  memo: dict[tuple[int, int], dict[int, int]]) -> dict[int, int]:
    """Reduced homology ranks of the complex generated by `facets`, which
    share no vertex all together; `memo` maps a core's key to its ranks.
    When every d - 1 of d > 3 facets meet, their nerve is the boundary
    of a (d-1)-simplex, so the complex is a (d-2)-sphere: `once` gathers
    the vertices that exactly one facet misses, and each facet must miss
    one of them.  A core of two or more facets shares no vertex either,
    as a common vertex would dominate every other one, so a core of two
    or three facets also goes to the nerve."""
    if len(facets) > 3:
        every, once = reduce(or_, facets), 0
        for f in facets:
            once, every = once & f | every & ~f, every & f
        if all(once & ~f for f in facets):
            return {len(facets) - 2: 1}
        facets = _strong_core(facets)
        if len(facets) == 1:  # a simplex
            return {}
    if len(facets) <= 3:
        f = list(facets)
        meets = sum(bool(f[i] & f[j]) for i in range(len(f)) for j in range(i))
        return _NERVE_RANKS[len(f), meets]
    vertices = reduce(or_, facets)
    positions = _positions(vertices)
    v = len(positions)
    key = (v, reduce(or_, [1 << _compress(f, positions) for f in facets]))
    ranks = memo.get(key)
    if ranks is None:
        complex_ = SimplicialComplex((1 << v) - 1, _faces_below(key[1], v))
        ranks = memo[key] = reduced_homology_ranks(complex_, field_tag)
    return ranks


def _sweep(gens: list[int], n: int, positions: tuple[int, ...], points: int,
           field_tag: FieldTag, memo: dict[tuple[int, int], dict[int, int]]
           ) -> Iterator[tuple[int, dict[int, int]]]:
    """(b, reduced homology ranks of K^b) for every multidegree b of the
    lcm closure of an ideal with generator masks `gens`, read off their
    points T in {0,1}^V: `positions` and `points` are what `_cube_points`
    gives, the neurons of V and the table of T.

    A closure multidegree b is the subcube c + span(F) of the points
    that agree with b's y-letters off its free neurons F, those with both
    x_i and y_i in b, with base point c having the bits of F clear.  The
    closure is the set of subcubes that the points of T in them span:
    for every j in F, both halves c + span(F ∖ j) and c + j + span(F ∖ j)
    meet T.  Free sets F are taken in increasing order, so every F ∖ j
    comes first.  hit[F] has bit c set iff c has the bits of F clear and
    c + span(F) meets T, one shift-OR from hit[F ∖ j]; the bases of F's
    closure subcubes are hit[F] ANDed with hit[F ∖ j] & hit[F ∖ j] >> j
    for each j in F.  At each one the d_b divisors are the points of T
    in it.  One is beta_0 and two are an antipodal pair, beta_1.  Three
    go to the nerve rule, where two points p, p' meet unless p ⊕ p' = F.
    Four or more go to `_cube_ranks`, with the cell table full, when |F|
    <= 4 or 2^|F| <= 3 d_b, else their facets b / g to the strong core.
    `_cube_points` bounds every table here: it gives points only for
    |V| <= MAX_LCM_DEGREE / 2, so a table has at most 2^12 bits.
    """
    v = len(positions)
    size = 1 << v
    # the bit-clear pattern of each index bit j, keyed by j itself
    clear = {1 << k: p for k, p in enumerate(_bit_clear_patterns(v))}
    # neurons[c]: the neurons of V at the set bits of c, as an n-bit mask
    neurons = [0] * size
    for c in range(1, size):
        low = c & -c
        neurons[c] = neurons[c ^ low] | 1 << positions[low.bit_length() - 1]
    # corner[c]: the monomial of point c, with y_i at its set bits and the
    # letters every generator shares off V, the neurons neurons[-1]
    varying = neurons[-1]
    fixed = gens[0] & ~(varying | varying << n)
    corner = [fixed | neurons[c] << n | varying ^ neurons[c] for c in range(size)]
    rest = points
    while rest:
        low = rest & -rest
        rest ^= low
        yield corner[low.bit_length() - 1], _NERVE_RANKS[1, 0]
    hit = [points] * size
    # box[F]: the points of the subcube span(F) at base point 0
    box = [1] * size
    # full[F]: the base points c of the cells c + span(F) of codewords only
    full = [~points & (1 << size) - 1] * size
    for free in range(1, size):
        low = free & -free
        below = hit[free ^ low]
        span = hit[free] = (below | below >> low) & clear[low]
        box[free] = box[free ^ low] | box[free ^ low] << low
        below = full[free ^ low]
        full[free] = below & below >> low & clear[low]
        rest = free
        while rest and span:
            j = rest & -rest
            rest ^= j
            below = hit[free ^ j]
            span &= below & below >> j
        k = free.bit_count()
        wide = neurons[free] << n
        while span:
            low = span & -span
            span ^= low
            c = low.bit_length() - 1
            inside = points >> c & box[free]
            d = inside.bit_count()
            if d == 2:
                ranks = _NERVE_RANKS[2, 0]
            elif d == 3 or k > 4 and 1 << k > 3 * d:
                offsets = []
                while inside:
                    s = inside & -inside
                    inside ^= s
                    offsets.append(s.bit_length() - 1)
                if d == 3:
                    a, b, e = offsets
                    ranks = _NERVE_RANKS[3, (a ^ b != free) + (a ^ e != free)
                                         + (b ^ e != free)]
                else:
                    b = corner[c] | wide
                    ranks = _koszul_ranks({b & ~corner[c | s] for s in offsets},
                                          field_tag, memo)
            else:
                ranks = _cube_ranks(full, box, c, free, k, field_tag)
            yield corner[c] | wide, ranks


def _cube_ranks(full: list[int], box: list[int], c: int, free: int, k: int,
                field_tag: FieldTag) -> dict[int, int]:
    """Reduced homology ranks of K^b for the subcube b = c + span(free),
    k = |free|, with d >= 3 divisors, by Alexander duality: H̃_{i-1}(K^b)
    = H̃_{k-1-i}(□), □ the cubical complex of the subcubes of b holding
    only codewords (H̃_{-1} = 1 when empty), whose cells c' + span(g) have
    their bases c' at the set bits of full[g] & box[free] << c.  Lemma:
    facets b / g, b / g' of K^b meet unless g, g' are antipodal, and a
    third divisor is antipodal to at most one of them, so K^b is
    connected: H̃_{k-2}(□) = H̃_0(K^b) = 0, and H̃_{k-1}(□) = H̃_{-1}(K^b)
    = 0.  So at k <= 3 only H̃_0(□) = C - 1 is left, C the components of
    the codewords along cube edges; at k = 4 also H̃_1(□) = C - 1 - χ̃,
    χ̃ = -1 + sum_g (-1)^|g| #cells(g); both over every field.  At k >= 5
    the cells are grown level by level: a graph takes the same two ranks,
    a complex with a square `chain_ranks`, with `_cube_boundary`."""
    cube = box[free] << c
    codewords = full[0] & cube
    if not codewords:  # K^b is the whole sphere
        return {k - 1: 1}
    edges, rest = [], free  # each free bit j, with the bases of c' + span(j)
    while rest:
        j = rest & -rest
        rest ^= j
        edges.append((j, full[j]))
    if k == 4:
        signed = [(0, 1)]  # each free set g ⊆ free, with (-1)^|g|
        for j, _ in edges:
            signed += [(g | j, -sign) for g, sign in signed]
        euler = sum(sign * (full[g] & cube).bit_count() for g, sign in signed) - 1
    elif k > 4:
        # levels[d]: free set g of d bits -> the base points in b of the
        # cells c' + span(g), where there are any; the last level is empty
        levels = [{0: codewords}]
        while levels[-1]:
            levels.append({g | j: wide for g, bases in levels[-1].items() for j, _ in edges
                           if j > g and (wide := full[g | j] & bases)})
        if len(levels) > 3:
            # cells[d]: the cells of dimension d, each the int g << 16 | c'
            # for free set g and base point c', which has at most 12 bits
            cells = []
            for level in levels[:-1]:
                same = []
                for g, bases in level.items():
                    while bases:
                        low = bases & -bases
                        bases ^= low
                        same.append(g << 16 | low.bit_length() - 1)
                cells.append(same)
            ranks = chain_ranks(cells, _cube_boundary, field_tag)
            return {k - 2 - d: rank for d, rank in ranks.items()}
        euler = codewords.bit_count() - 1 - sum(map(int.bit_count, levels[1].values()))
    # grow each component from its lowest codeword along the edges
    components, rest = 0, codewords
    while rest:
        component, reached = 0, rest & -rest
        while reached != component:
            component = reached
            for j, lower in edges:
                reached |= (component & lower) << j | component >> j & lower
        rest ^= component
        components += 1
    ranks = {k - 2: components - 1} if components > 1 else {}
    if k > 3 and components - 1 != euler:
        ranks[k - 3] = components - 1 - euler
    return ranks


def _cube_boundary(cell: int) -> list[int]:
    """The facets of the cell g << 16 | c, the subcube c + span(g): for the
    t-th free bit j of g, counting from 0, the facets fixing j to 1 and to
    0, in that order for even t and swapped for odd t, so that their signs
    (-1)^k in list order give the facet at 1 the sign (-1)^t."""
    faces, rest, at_one_first = [], cell >> 16, True
    while rest:
        j = rest & -rest
        rest ^= j
        at_zero = cell ^ j << 16
        faces += (at_zero | j, at_zero) if at_one_first else (at_zero, at_zero | j)
        at_one_first = not at_one_first
    return faces


def betti_table(ideal: MonomialIdeal, field_tag: FieldTag = FieldTag.F2) -> BettiTable:
    """Complete multigraded Betti table via upper Koszul homology.

    Each multidegree b of the lcm closure takes the ranks of K^b from the
    nerve of its facets b / g when it has at most three divisors g, or
    when every d - 1 of its d divisors' facets meet, and otherwise from
    their strong-collapse core, whose ranks a memo keeps for this call,
    or from the cubical complex of its codewords.  A transversal ideal
    with q generators that differ on |V| neurons, 2^|V| <= 4 q, is swept
    (`_sweep`); every other ideal is walked (`_walk_ranks`).  The module
    docstring gives each rule.  Raises LcmDegreeError for three or more
    generators with deg lcm(gens) > MAX_LCM_DEGREE.
    """
    return _table(_entries(ideal, field_tag), ideal.n)


def _entries(ideal: MonomialIdeal, field_tag: FieldTag
             ) -> Iterator[tuple[int, dict[int, int]]]:
    """(b, reduced homology ranks of K^b) for every multidegree b of the
    lcm closure, swept or walked; the size check runs before the first
    entry is asked for."""
    _require_proper_nonzero(ideal)
    gens = [g.mask for g in ideal.gens]
    if len(gens) >= 3:
        s = ideal.lcm_of_gens().degree
        _require_table_size(
            s, f"{len(gens)} generators whose lcm has degree {s}: the complex at their lcm")
    n = ideal.n
    memo: dict[tuple[int, int], dict[int, int]] = {}
    cube = _cube_points(gens, n)
    if cube and _sweeps(len(gens), len(cube[0])):
        return _sweep(gens, n, *cube, field_tag, memo)
    return ((b, _walk_ranks(gens, b, field_tag, memo)) for b in _lcm_masks(gens))


def _walk_ranks(gens: list[int], b: int, field_tag: FieldTag,
                memo: dict[tuple[int, int], dict[int, int]]) -> dict[int, int]:
    """Ranks of K^b at a closure multidegree b: up to three divisors read
    the nerve rule off pairwise joins (two join to b); more build facets."""
    divisors = [g for g in gens if g | b == b]
    if len(divisors) > 3:
        return _koszul_ranks({b & ~g for g in divisors}, field_tag, memo)
    if len(divisors) == 3:
        g, h, e = divisors
        return _NERVE_RANKS[3, (g | h != b) + (g | e != b) + (h | e != b)]
    return _NERVE_RANKS[len(divisors), 0]


def _table(entries: Iterator[tuple[int, dict[int, int]]], n: int,
           strand: int | None = None) -> BettiTable | None:
    """The table of the (b, ranks) entries; with a `strand` d, None at the
    first Betti number beta_{i,b} with deg b - i != d."""
    table = BettiTable(n)
    for b, ranks in entries:
        j = b.bit_count()
        for dim, rank in ranks.items():
            i = dim + 1
            if strand is not None and j - i != strand:
                return None
            table.fine[(i, b)] = rank
            table.coarse[(i, j)] = table.coarse.get((i, j), 0) + rank
    return table


def _sweeps(q: int, v: int) -> bool:
    """Whether `betti_table` sweeps the subcubes of a transversal ideal
    with q generators on |V| = v varying neurons, rather than walk its
    lcm closure.  The sweep costs about v 2^v operations on 2^v-bit ints
    however few the points are, the walk |closure| q joins and facet
    scans.  On random degree-v tables (CPython 3.11) they break even
    near 2^v = 4 q at v <= 7 and past 8 q at v = 8; at 2^v = 2 q the
    sweep takes 0.5 to 0.7 of the walk's time, at 2^v = q 0.06 to 0.4."""
    return 1 << v <= 4 * q


def invariants(ideal: MonomialIdeal,
               field_tag: FieldTag = FieldTag.F2) -> tuple[int, int]:
    """(projective dimension, regularity) of a proper nonzero monomial ideal."""
    t = betti_table(ideal, field_tag)
    return t.pd, t.reg


def has_linear_resolution(ideal: MonomialIdeal,
                          field_tag: FieldTag = FieldTag.F2) -> bool:
    """True iff the ideal is equigenerated in degree d and reg = d.

    The verdict stops at the first Betti number off the linear strand,
    beta_{i,b} with deg b - i != d, so a non-linear ideal is refused
    without the rest of its table; a linear one costs one `betti_table`.
    Non-equigenerated input returns False with a warning: linearity is
    only defined in the equigenerated case.
    """
    return _linear_verdict(ideal, field_tag) is not None


def _linear_verdict(ideal: MonomialIdeal, field_tag: FieldTag) -> BettiTable | None:
    """The whole `betti_table` when the resolution is linear, else None,
    read from the stream of entries up to the first one off the linear
    strand; the warning for mixed degrees points at the caller of the
    public function that called this one."""
    _require_proper_nonzero(ideal)
    degree = is_equigenerated(ideal)
    if degree is None:
        warnings.warn("linear resolution queried on a non-equigenerated ideal",
                      stacklevel=3)
        return None
    return _table(_entries(ideal, field_tag), ideal.n, degree)


def reg_upper_bound_lcm(ideal: MonomialIdeal) -> int:
    """1 + max over nonempty generator subsets A of deg(lcm(A)) - |A|.

    Always an upper bound for regularity.  For a fixed lcm b the best A
    is a smallest one, so this is 1 + max over the lcm closure of
    deg(b) - k, where k is the level at which a breadth-first search
    first reaches b: level 1 is the generators, and level k + 1 joins
    each mask first reached at level k with every generator.

    The walk stops at the level that decides the max.  Every mask
    divides the lcm of all generators, of degree s, so a mask first
    reached at level k gives at most s - k, and only that lcm itself
    gives s - k.  Starting from best = max deg g - 1 at level 1, the
    walk stops before level k + 1 once s - (k + 1) <= best, since no
    later level can beat best, and returns inside level k as soon as
    it joins the lcm of all generators, since no mask of level k or
    later can beat s - k.  It costs q joins per mask of the levels it
    walks, at most |closure| * q, and in practice levels 1 to 3: on
    every n = 4 degree-n ideal the max is first reached by level 2.
    """
    _require_proper_nonzero(ideal)
    gens = [g.mask for g in ideal.gens]
    top = reduce(or_, gens)
    s = top.bit_count()
    best = max(map(int.bit_count, gens)) - 1
    seen = set(gens)
    frontier = gens
    k = 1
    while frontier and s - (k + 1) > best:
        k += 1
        new = set()
        for a in frontier:
            row = {a | g for g in gens}
            if top in row:
                return 1 + s - k
            new |= row
        new -= seen
        seen |= new
        frontier = new
        best = max(best, max(map(int.bit_count, new), default=0) - k)
    return 1 + best


def dominant_check(ideal: MonomialIdeal) -> dict[Monomial, int] | None:
    """Assign each generator a private variable (a bit dividing no other generator).

    Returns the witness map, or None when some generator has no private
    variable.
    """
    if ideal.is_zero:
        raise ZeroIdealError("dominance is undefined for the zero ideal")
    witness = {}
    for g in ideal.gens:
        others = 0
        for h in ideal.gens:
            if h is not g:
                others |= h.mask
        private = g.mask & ~others
        if not private:
            return None
        witness[g] = (private & -private).bit_length() - 1
    return witness


def dominant_invariants(ideal: MonomialIdeal) -> tuple[int, int]:
    """Closed-form (pd, reg) for a dominant generating set.

    pd = q - 1 and reg = deg(lcm of all generators) - q + 1, where q is
    the number of minimal generators.
    """
    _require_proper_nonzero(ideal)
    if dominant_check(ideal) is None:
        raise NotDominantError(f"{ideal} is not generated by a dominant set")
    q = len(ideal.gens)
    return q - 1, ideal.lcm_of_gens().degree - q + 1


def _lanes(values: dict[int, int], width: int, s: int) -> int:
    """values[c] in lane c of 2^s lanes of `width` bytes, little-endian."""
    lanes = bytearray(width << s)
    if width == 1:
        for c, value in values.items():
            lanes[c] = value
    else:
        for c, value in values.items():
            lanes[c * width:(c + 1) * width] = value.to_bytes(width, "little")
    return int.from_bytes(lanes, "little")


def _signed_counts(member: int, positions: tuple[int, ...], masks: list[int]) -> dict[int, int]:
    """The signed count sum over d ⊆ b of (-1)^|b - d| member[d] at each
    b of `masks`, in their order, where it is nonzero.

    Bit c of `member` is set iff the submask c renumbered over `positions`
    lies in the ideal, and an int with bit c set iff c has even popcount
    splits it by parity.  The submasks of b are a 2^s-bit int grown by
    one shift-OR per bit of b, so each count is two popcounts.
    """
    s = len(positions)
    even = 1
    for k in range(s):
        even |= (~even & (1 << (1 << k)) - 1) << (1 << k)
    counts = {}
    for b in masks:
        c = _compress(b, positions)
        below = 1
        for k in range(s):
            if c >> k & 1:
                below |= below << (1 << k)
        inside = member & below
        count = 2 * (inside & even).bit_count() - inside.bit_count()
        if count:
            counts[b] = -count if c.bit_count() & 1 else count
    return counts


def euler_discrepancy(ideal: MonomialIdeal, table: BettiTable) -> dict[int, int]:
    """Alternating Betti sum minus the inclusion-exclusion lcm sum, per multidegree.

    Empty iff the table satisfies the Euler identity: for every
    multidegree b, e(b) = sum_i (-1)^i beta_{i,b} equals the signed count
    mu(b) = sum over generator subsets A with lcm(A) = b of (-1)^(|A|-1).
    Summed over all b inside c, mu is 1 if c lies in the ideal and 0
    otherwise: the zeta transform of mu over the 2^s submasks of the
    generators' lcm, s = deg lcm(gens), is the membership table.  The
    zeta transform is invertible, so e = mu on all 2^s cells iff
    zeta(e) is the membership table, and e must vanish off them.

    The check runs in the zeta direction on byte lanes, over the s
    variables of the lcm renumbered to bits 0..s-1.  e splits into its
    positive part P and negative part N, each packed into one big int
    with lane c holding its value at c, and s passes of
    x += (x & clear_k) << (one lane times 2^k) add lane c into lane
    c + 2^k wherever bit k of c is clear.  The lanes are wide enough to
    hold max(sum P, sum N + 1) and every entry is nonnegative, so no
    carry crosses into the next lane: the passes compute zeta(P) and
    zeta(N) exactly.  The same passes with |= for += spread a 1 in each
    generator's lane into the membership table; OR never carries.  Then
    zeta(P) == zeta(N) + membership is one int comparison covering
    every cell, about s * w * 2^s bytes of traffic for w-byte lanes.
    s above MAX_LCM_DEGREE raises LcmDegreeError.

    On a mismatch the nonzero e(b) - mu(b) are returned, the table's
    multidegrees first in table order and then the others ascending.
    mu is evaluated only on the lcm closure: off it no generator subset
    has lcm b, so mu(b) = 0.
    """
    coeff: dict[int, int] = {}
    for (i, m), rank in table.fine.items():
        coeff[m] = coeff.get(m, 0) + (-rank if i & 1 else rank)
    gens = corners = [g.mask for g in ideal.gens]
    top = reduce(or_, corners, 0)
    positions = _positions(top)
    s = len(positions)
    _require_table_size(
        s, f"{len(ideal.gens)} generators whose lcm has degree {s}: the Euler check")
    cells = [(m, e) for m, e in coeff.items() if e and m | top == top]
    # when the lcm's variables are bits 0..s-1 a mask is its own cell
    if top != (1 << s) - 1:
        corners = [_compress(c, positions) for c in corners]
        cells = [(_compress(m, positions), e) for m, e in cells]
    plus = {c: e for c, e in cells if e > 0}
    minus = {c: -e for c, e in cells if e < 0}
    width = (max(sum(plus.values()), sum(minus.values()) + 1).bit_length() + 7) // 8
    p, n = _lanes(plus, width, s), _lanes(minus, width, s)
    member = _lanes(dict.fromkeys(corners, 1), width, s)
    for k in range(s):
        run = width << k
        clear = int.from_bytes((b"\xff" * run + bytes(run)) * (1 << (s - k - 1)), "little")
        p += (p & clear) << 8 * run
        n += (n & clear) << 8 * run
        member |= (member & clear) << 8 * run
    if p == n + member:
        return {m: e for m, e in coeff.items() if e and m | top != top}
    member = _subcube_closure(sum(1 << c for c in corners), _bit_clear_patterns(s))
    for b, count in _signed_counts(member, positions, sorted(_lcm_masks(gens))).items():
        coeff[b] = coeff.get(b, 0) - count
    return {m: e for m, e in coeff.items() if e}
