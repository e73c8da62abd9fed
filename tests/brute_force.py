"""Slow reference versions of the Betti-oracle kernels, for differential tests.

Each function is the direct enumeration that a kernel in `neuralideals`
replaced: loops over all 2^q generator subsets, over all submasks of a
multidegree, over pairwise lcms until nothing new appears, or over the
columns of a dense matrix of fractions.  They are exact and obviously
correct, and only usable for small inputs.
"""

from fractions import Fraction

from neuralideals.betti import BettiTable
from neuralideals.homology import SimplicialComplex
from neuralideals.monomials import Monomial, MonomialIdeal


def _subset_lcms(ideal: MonomialIdeal):
    """(subset, lcm mask) for every nonempty generator subset, incrementally."""
    masks = [g.mask for g in ideal.gens]
    lcms = [0] * (1 << len(masks))
    for s in range(1, 1 << len(masks)):
        low = (s & -s).bit_length() - 1
        lcms[s] = lcms[s & (s - 1)] | masks[low]
        yield s, lcms[s]


def euler_discrepancy(ideal: MonomialIdeal, table: BettiTable) -> dict[int, int]:
    """Alternating Betti sum minus the signed count of subsets with each lcm."""
    coeff: dict[int, int] = {}
    for (i, m), rank in table.fine.items():
        coeff[m] = coeff.get(m, 0) + (-1) ** i * rank
    for s, m in _subset_lcms(ideal):
        sign = -1 if s.bit_count() % 2 == 0 else 1
        coeff[m] = coeff.get(m, 0) - sign
    return {m: c for m, c in coeff.items() if c}


def reg_upper_bound_lcm(ideal: MonomialIdeal) -> int:
    """1 + max over nonempty generator subsets A of deg(lcm(A)) - |A|."""
    return 1 + max(m.bit_count() - s.bit_count() for s, m in _subset_lcms(ideal))


def lcm_closure(ideal: MonomialIdeal) -> list[Monomial]:
    """Join every known mask with every other until the set stops growing."""
    masks = {g.mask for g in ideal.gens}
    while True:
        new = {a | b for a in masks for b in masks} - masks
        if not new:
            break
        masks |= new
    return sorted((Monomial(m, ideal.n) for m in masks), key=Monomial.sort_key)


def upper_koszul(ideal: MonomialIdeal, b: Monomial) -> SimplicialComplex:
    """Test every submask tau of b: a face iff some generator divides b and avoids tau."""
    relevant = [g.mask for g in ideal.gens if g.divides(b)]
    vertices = frozenset(b.support())
    faces = set()
    if relevant:
        sub = b.mask
        while True:
            if any(g & sub == 0 for g in relevant):
                faces.add(frozenset(i for i in vertices if sub >> i & 1))
            if sub == 0:
                break
            sub = (sub - 1) & b.mask
    return SimplicialComplex(vertices, frozenset(faces))


def rank_rational(rows: list[list[int]]) -> int:
    """Rank over the rationals of a dense matrix, by Gauss-Jordan on Fractions."""
    if not rows:
        return 0
    mat = [[Fraction(v) for v in r] for r in rows]
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        inv = 1 / prow[col]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col] * inv
                row = mat[r]
                for c in range(col, ncols):
                    row[c] -= factor * prow[c]
        rank += 1
        if rank == len(mat):
            break
    return rank
