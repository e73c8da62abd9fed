"""Multigraded Betti numbers, projective dimension and regularity.

The oracle: for a proper nonzero monomial ideal I and a squarefree
multidegree b, the Betti number in homological index i at b is the rank
of reduced homology H_{i-1} of the upper Koszul complex

    K^b(I) = { tau ⊆ supp(b) : b / tau ∈ I }.

Only multidegrees in the lcm closure of the minimal generators can
carry a nonzero Betti number, so the table scans exactly that set.
Where one or two generators divide b, K^b is {∅} or two disjoint
simplices and its homology is written down without building it; every
other b gets its complex and a homology computation.  Membership
b / tau ∈ I is looked up in the ideal's own table over the submasks of
lcm(gens) (`MonomialIdeal._membership`), which the Euler check reuses.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

from .homology import FieldTag, SimplicialComplex, reduced_homology_ranks
from .monomials import (
    LcmDegreeError,
    Monomial,
    MonomialIdeal,
    UnitOrZeroIdealError,
    ZeroIdealError,
    _lcm_levels,
)


class NotDominantError(ValueError):
    """The generating set is not dominant, closed-form invariants unavailable."""


def _require_proper_nonzero(ideal: MonomialIdeal) -> None:
    if ideal.is_zero:
        raise UnitOrZeroIdealError("operation undefined for the zero ideal")
    if ideal.is_unit:
        raise UnitOrZeroIdealError("operation undefined for the unit ideal")


def _mobius_transform(values: list[int]) -> None:
    """In place, values[c] <- sum over submasks d of c of (-1)^|c-d| * values[d].

    The inverse of the zeta transform over the subset lattice.
    len(values) must be a power of two, 2^s; the cost is s * 2^(s-1)
    subtractions.
    """
    size = len(values)
    step = 1
    while step < size:
        for base in range(step, size, 2 * step):
            for c in range(base, base + step):
                values[c] -= values[c - step]
        step *= 2


def upper_koszul(ideal: MonomialIdeal, b: Monomial) -> SimplicialComplex:
    """The upper Koszul complex of `ideal` at the squarefree multidegree b.

    A subset tau of supp(b) is a face iff b with tau removed still lies
    in the ideal.  Void when b itself is outside the ideal.  Faces are
    int submasks of b.mask, grown one vertex bit at a time from the
    empty face 0, each candidate tested by one lookup in the ideal's
    membership table; downward closure means a non-face is never
    extended.
    """
    _require_proper_nonzero(ideal)
    member = ideal._membership
    in_ideal = member.in_ideal
    bits = []
    rest = b.mask
    while rest:
        low = rest & -rest
        bits.append(low)
        rest ^= low
    weights = [member.weight.get(bit, 0) for bit in bits]
    inside = sum(weights)
    if not in_ideal[inside]:
        return SimplicialComplex(b.mask, frozenset())
    faces = []
    # (face mask, renumbered part of b / face inside top, first vertex to add)
    stack = [(0, inside, 0)]
    while stack:
        face, rest, start = stack.pop()
        faces.append(face)
        for k in range(start, len(bits)):
            smaller = rest & ~weights[k]
            if in_ideal[smaller]:
                stack.append((face | bits[k], smaller, k + 1))
    return SimplicialComplex(b.mask, frozenset(faces))


@dataclass
class BettiTable:
    """Fine (multigraded) and coarse Betti numbers of one ideal.

    fine maps (homological index i, multidegree mask) -> rank;
    coarse aggregates by total degree: (i, j) -> rank.
    """

    n: int
    fine: dict[tuple[int, int], int] = field(default_factory=dict)
    coarse: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def pd(self) -> int:
        return max(i for i, _ in self.coarse)

    @property
    def reg(self) -> int:
        return max(j - i for i, j in self.coarse)

    def fine_entries(self) -> list[tuple[int, Monomial, int]]:
        out = [(i, Monomial(m, self.n), r) for (i, m), r in self.fine.items()]
        out.sort(key=lambda t: (t[0], t[1].sort_key()))
        return out

    def to_json_dict(self) -> dict:
        return {
            "fine": [
                {"i": i, "b": str(m), "rank": r} for i, m, r in self.fine_entries()
            ],
            "coarse": [
                {"i": i, "j": j, "rank": r}
                for (i, j), r in sorted(self.coarse.items())
            ],
            "pd": self.pd,
            "reg": self.reg,
        }


# reduced homology of {∅} and of two disjoint nonempty simplices
_GENERATOR_RANKS = {-1: 1}
_TWO_SIMPLICES_RANKS = {0: 1}


def betti_table(ideal: MonomialIdeal, field_tag: FieldTag = FieldTag.F2) -> BettiTable:
    """Complete multigraded Betti table via upper Koszul homology.

    A closure element b that is a generator has K^b = {∅}, so beta_{0,b}
    = 1.  One that exactly two generators g, h divide is their lcm, and
    K^b is the two simplices on b - g and b - h, disjoint and nonempty,
    so beta_{1,b} = 1.  Both hold over any field.  Every other b builds
    its complex with `upper_koszul`; homology results are memoized per
    call keyed by the exact face set (a frozenset of face masks), since
    the same complex recurs across multidegrees.  Raises LcmDegreeError
    for three or more generators with deg lcm(gens) > MAX_LCM_DEGREE.
    """
    _require_proper_nonzero(ideal)
    if len(ideal.gens) >= 3:
        # the complex at lcm(gens) needs the membership table: build or refuse it first
        ideal._membership
    table = BettiTable(ideal.n)
    gens = [g.mask for g in ideal.gens]
    memo: dict[frozenset[int], dict[int, int]] = {}
    for b, level in _lcm_levels(ideal).items():
        if level == 1:
            ranks = _GENERATOR_RANKS
        elif level == 2 and len([g for g in gens if g | b == b]) == 2:
            ranks = _TWO_SIMPLICES_RANKS
        else:
            complex_ = upper_koszul(ideal, Monomial(b, ideal.n))
            key = complex_.faces
            ranks = memo.get(key)
            if ranks is None:
                ranks = reduced_homology_ranks(complex_, field_tag)
                memo[key] = ranks
        j = b.bit_count()
        for dim, rank in ranks.items():
            i = dim + 1
            table.fine[(i, b)] = rank
            table.coarse[(i, j)] = table.coarse.get((i, j), 0) + rank
    return table


def invariants(ideal: MonomialIdeal,
               field_tag: FieldTag = FieldTag.F2) -> tuple[int, int]:
    """(projective dimension, regularity) of a proper nonzero monomial ideal."""
    t = betti_table(ideal, field_tag)
    return t.pd, t.reg


def has_linear_resolution(ideal: MonomialIdeal,
                          field_tag: FieldTag = FieldTag.F2,
                          table: Optional[BettiTable] = None) -> bool:
    """True iff the ideal is equigenerated in degree d and reg = d.

    Non-equigenerated input returns False with a warning: linearity is
    only defined in the equigenerated case.
    """
    _require_proper_nonzero(ideal)
    degrees = {g.degree for g in ideal.gens}
    if len(degrees) != 1:
        warnings.warn("linear resolution queried on a non-equigenerated ideal",
                      stacklevel=2)
        return False
    if table is None:
        table = betti_table(ideal, field_tag)
    return table.reg == degrees.pop()


def reg_upper_bound_lcm(ideal: MonomialIdeal) -> int:
    """1 + max over nonempty generator subsets A of deg(lcm(A)) - |A|.

    Always an upper bound for regularity.  For a fixed lcm b the best A
    is a smallest one, so this is 1 + max over the lcm closure of
    deg(b) - (fewest generators with lcm b), read off the breadth-first
    closure search at a cost of |closure| * q joins rather than 2^q.
    """
    _require_proper_nonzero(ideal)
    return 1 + max(b.bit_count() - k for b, k in _lcm_levels(ideal).items())


def dominant_check(ideal: MonomialIdeal) -> Optional[dict[Monomial, int]]:
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


def euler_discrepancy(ideal: MonomialIdeal, table: BettiTable) -> dict[int, int]:
    """Alternating Betti sum minus the inclusion-exclusion lcm sum, per multidegree.

    Empty iff the table satisfies the Euler identity: for every
    multidegree b, sum_i (-1)^i beta_{i,b} equals the signed count
    sum over generator subsets A with lcm(A) = b of (-1)^(|A|-1).
    Summed over all b inside c that count is 1 if c lies in the ideal
    and 0 otherwise, so the counts are the subset Mobius transform of
    the membership table: 2^s cells with s = deg lcm(gens), not 2^q
    subsets.
    """
    coeff: dict[int, int] = {}
    for (i, m), rank in table.fine.items():
        coeff[m] = coeff.get(m, 0) + (-1) ** i * rank
    member = ideal._membership
    signed = list(member.in_ideal)
    _mobius_transform(signed)
    for c, count in enumerate(signed):
        if count:
            m = member.expand(c)
            coeff[m] = coeff.get(m, 0) - count
    return {m: c for m, c in coeff.items() if c}
