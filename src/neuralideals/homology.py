"""Simplicial complexes and exact reduced homology ranks.

`chain_ranks` ranks the reduced homology of any complex of int cells,
simplicial or cubical, given a boundary function that lists each cell's
faces so that the k-th, counting from 0, has sign (-1)^k.  A simplicial
face is a bit mask over the vertex positions, and its faces clear one
set bit at a time, lowest first.  Ranks are exact: bit-packed Gaussian
elimination over F2, and over the rationals fraction-free elimination
on sparse integer rows (cross-multiplication, then division by the
row's gcd).  No floating point anywhere.

Every boundary rank is taken over F2 first, and over Q most of them are
already exact: a boundary matrix has integer entries, and its rank over
Q is at least its rank mod 2, since a minor that is odd is nonzero.  With
e_k >= 0 the excess of the Q rank of map k over its F2 rank, the ranks
over the two fields are related by b^Q_j = b^F2_j - e_j - e_{j+1}.  Both
sides are >= 0, so an F2 group of rank 0 forces e = 0 on the two maps
beside it, and only a map flanked by two nonzero F2 groups can differ
over Q.  Only those maps are eliminated again over the integers; this is
where torsion shows, as in the real projective plane, whose reduced
homology is {1: 1, 2: 1} over F2 and zero over Q.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum
from functools import reduce
from math import gcd
from operator import or_

from .monomials import _Frozen, _set


class FieldTag(str, Enum):
    F2 = "f2"
    RATIONALS = "q"


class SimplicialComplex(_Frozen):
    """A downward-closed face family, stored with every face explicit.

    Vertices are bit positions: `vertices` is an int mask and each face
    is an int submask of it.  Three distinct states: the void complex
    (no faces at all), the irrelevant complex {∅} (only the empty face,
    mask 0), and nonempty complexes (which always contain the empty face
    by downward closure).
    """

    def __init__(self, vertices: int, faces: frozenset[int]):
        if reduce(or_, faces, 0) & ~vertices:
            raise ValueError("a face uses vertices outside the vertex set")
        _set(self, "vertices", vertices)
        _set(self, "faces", faces)

    @property
    def is_void(self) -> bool:
        return not self.faces


def rank_f2(rows: list[int]) -> int:
    """Rank of a matrix whose rows are bit masks, over F2."""
    rank = 0
    pivots: dict[int, int] = {}  # lowest set bit -> reduced row owning it
    for row in rows:
        while row:
            low = row & -row
            owner = pivots.get(low)
            if owner is None:
                pivots[low] = row
                rank += 1
                break
            row ^= owner
    return rank


def rank_rational(rows: list[dict[int, int]]) -> int:
    """Rank over the rationals of a matrix with sparse integer rows.

    Each row maps a column to an int; zero entries are ignored.  Rows are
    inserted into an echelon table keyed by leading (lowest) column, as
    in `rank_f2`.  A row whose leading column is taken is replaced by
    a*row - b*pivot, where a/b is the pivot's leading entry over the
    row's, in lowest terms.  Scaling a row by a nonzero integer and
    subtracting multiples of other rows leave the rank over Q unchanged,
    so the result is exact for any integer input.  A stored row is
    divided by the gcd of its entries and has a positive leading entry,
    which keeps entries small; boundary rows have entries of +-1, so
    almost every pivot is 1.
    """
    pivots: dict[int, dict[int, int]] = {}  # leading column -> reduced row owning it
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                g = gcd(*row.values())
                if row[lead] < 0:
                    g = -g
                pivots[lead] = {c: v // g for c, v in row.items()} if g != 1 else row
                break
            g = gcd(pivot[lead], row[lead])
            a, b = pivot[lead] // g, row[lead] // g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in pivot.items():
                w = row.get(c, 0) - b * v
                if w:
                    row[c] = w
                else:
                    del row[c]
    return len(pivots)


def chain_ranks(cells: list[list[int]], boundary: Callable[[int], list[int]],
                field: FieldTag) -> dict[int, int]:
    """Reduced homology ranks of a cell complex, nonzero entries only.

    cells[d] lists the cells of dimension d.  The empty cell is implicit,
    so no cells give {-1: 1}.  boundary(cell) lists the cell's faces, the
    k-th with sign (-1)^k.  Over Q only a map between two nonzero F2
    groups is ranked again (see the module docstring).
    """
    # column[cell]: the bit 1 << position of the cell among its dimension's
    column = {cell: 1 << at for same in cells for at, cell in enumerate(same)}

    def rank(same: list[int], field: FieldTag) -> int:
        if field is FieldTag.F2:
            rows = []
            for cell in same:
                row = 0
                for face in boundary(cell):
                    row |= column[face]
                rows.append(row)
            return rank_f2(rows)
        rows = []
        for cell in same:
            row, sign = {}, 1
            for face in boundary(cell):
                row[column[face]] = sign
                sign = -sign
            rows.append(row)
        return rank_rational(rows)

    sizes = [1] + [len(same) for same in cells]
    # maps[t]: the rank of the map from dimension t - 1 to dimension t - 2;
    # t = 1 is the augmentation, of rank 1 when there are points
    maps = [0, min(1, len(cells))] + [rank(same, FieldTag.F2) for same in cells[1:]] + [0]
    ranks = [size - maps[t] - maps[t + 1] for t, size in enumerate(sizes)]
    if field is FieldTag.RATIONALS:
        for t in range(2, len(sizes)):
            if ranks[t - 1] and ranks[t]:
                maps[t] = rank(cells[t - 1], field)
        ranks = [size - maps[t] - maps[t + 1] for t, size in enumerate(sizes)]
    return {t - 1: r for t, r in enumerate(ranks) if r}


def _simplex_boundary(face: int) -> list[int]:
    """The facets of a face: one set bit cleared at a time, lowest first."""
    faces, rest = [], face
    while rest:
        low = rest & -rest
        faces.append(face ^ low)
        rest ^= low
    return faces


def reduced_homology_ranks(complex_: SimplicialComplex,
                           field: FieldTag = FieldTag.F2) -> dict[int, int]:
    """Ranks of the reduced homology groups, nonzero entries only.

    Dimension -1 is included: it has rank 1 exactly for the irrelevant
    complex {∅}.  The void complex has no homology at all.
    """
    if complex_.is_void:
        return {}
    faces = complex_.faces
    # cells[d]: the faces with d + 1 vertices; the empty face is implicit
    cells: list[list[int]] = [[] for _ in range(max(map(int.bit_count, faces)))]
    for f in faces:
        if f:
            cells[f.bit_count() - 1].append(f)
    return chain_ranks(cells, _simplex_boundary, field)
