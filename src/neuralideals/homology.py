"""Simplicial complexes and exact reduced homology ranks.

Faces are int bit masks over the vertex positions, so a face's
dimension is its bit count minus one and its boundary faces are the
masks with one set bit cleared.  Homology is computed from boundary
matrices of the augmented chain complex, with exact rank computation:
bit-packed Gaussian elimination over F2, and over the rationals
fraction-free elimination on sparse integer rows (cross-multiplication,
then division by the row's gcd).  No floating point anywhere.

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

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from math import gcd
from operator import or_


class FieldTag(str, Enum):
    F2 = "f2"
    RATIONALS = "q"


@dataclass(frozen=True)
class SimplicialComplex:
    """A downward-closed face family, stored with every face explicit.

    Vertices are bit positions: `vertices` is an int mask and each face
    is an int submask of it.  Three distinct states: the void complex
    (no faces at all), the irrelevant complex {∅} (only the empty face,
    mask 0), and nonempty complexes (which always contain the empty face
    by downward closure).
    """

    vertices: int
    faces: frozenset[int]

    def __post_init__(self):
        if reduce(or_, self.faces, 0) & ~self.vertices:
            raise ValueError("a face uses vertices outside the vertex set")

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


def _boundary_rank(upper: list[int], index: dict[int, int], field: FieldTag) -> int:
    """Rank of the boundary map on the span of the equal-size faces `upper`.

    Faces are masks, and `index` numbers the faces of each size from 0.
    The boundary of a face clears one set bit at a time, lowest first;
    over Q the k-th cleared bit, counting from 0, has sign (-1)^k.
    """
    if field is FieldTag.F2:
        rows = []
        for face in upper:
            row, rest = 0, face
            while rest:
                low = rest & -rest
                row |= 1 << index[face ^ low]
                rest ^= low
            rows.append(row)
        return rank_f2(rows)
    rows = []
    for face in upper:
        row, rest, sign = {}, face, 1
        while rest:
            low = rest & -rest
            row[index[face ^ low]] = sign
            rest ^= low
            sign = -sign
        rows.append(row)
    return rank_rational(rows)


def reduced_homology_ranks(complex_: SimplicialComplex,
                           field: FieldTag = FieldTag.F2) -> dict[int, int]:
    """Ranks of the reduced homology groups, nonzero entries only.

    Dimension -1 is included: it has rank 1 exactly for the irrelevant
    complex {∅}.  The void complex has no homology at all.  Over Q only
    the maps between two nonzero F2 groups are ranked again by
    `rank_rational` (see the module docstring); every other rank is the
    F2 rank.
    """
    if complex_.is_void:
        return {}
    faces = complex_.faces
    # by_size[k]: the faces with k vertices, of dimension k - 1
    by_size: list[list[int]] = [[] for _ in range(max(map(int.bit_count, faces)) + 1)]
    index: dict[int, int] = {}
    for f in faces:
        same = by_size[f.bit_count()]
        index[f] = len(same)
        same.append(f)
    # boundary[k]: rank of the map from size-k chains to size-(k-1) chains;
    # k = 1 is the augmentation
    boundary = [0] + [_boundary_rank(upper, index, FieldTag.F2) for upper in by_size[1:]] + [0]
    ranks = [len(same) - boundary[k] - boundary[k + 1] for k, same in enumerate(by_size)]
    if field is FieldTag.RATIONALS:
        for k in range(1, len(by_size)):
            if ranks[k - 1] and ranks[k]:
                boundary[k] = _boundary_rank(by_size[k], index, field)
        ranks = [len(same) - boundary[k] - boundary[k + 1] for k, same in enumerate(by_size)]
    return {k - 1: rank for k, rank in enumerate(ranks) if rank}
