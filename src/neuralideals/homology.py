"""Simplicial complexes and exact reduced homology ranks.

Homology is computed from boundary matrices of the augmented chain
complex, with exact rank computation: bit-packed Gaussian elimination
over F2, and over the rationals fraction-free elimination on sparse
integer rows (cross-multiplication, then division by the row's gcd).
No floating point and no modular reduction anywhere.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Iterable


class FieldTag(str, Enum):
    F2 = "f2"
    RATIONALS = "q"


@dataclass(frozen=True)
class SimplicialComplex:
    """A downward-closed face family, stored with every face explicit.

    Faces are frozensets of vertex labels (ints).  Three distinct states:
    the void complex (no faces at all), the irrelevant complex {∅}
    (only the empty face), and nonempty complexes (which always contain
    the empty face by downward closure).
    """

    vertices: frozenset[int]
    faces: frozenset[frozenset[int]]

    def __post_init__(self):
        for f in self.faces:
            if not f <= self.vertices:
                raise ValueError(f"face {sorted(f)} uses labels outside the vertex set")

    @property
    def is_void(self) -> bool:
        return not self.faces

    @property
    def is_irrelevant(self) -> bool:
        return self.faces == frozenset({frozenset()})

    @classmethod
    def from_faces(cls, vertices: Iterable[int], faces: Iterable[Iterable[int]],
                   include_empty: bool = True) -> "SimplicialComplex":
        """Build from a face list, closing downward."""
        closed: set[frozenset[int]] = set()
        for face in faces:
            face = frozenset(face)
            if face in closed:
                continue
            stack = [face]
            while stack:
                f = stack.pop()
                if f in closed:
                    continue
                closed.add(f)
                for v in f:
                    stack.append(f - {v})
        if include_empty and closed:
            closed.add(frozenset())
        return cls(frozenset(vertices), frozenset(closed))

    def facets(self) -> frozenset[frozenset[int]]:
        return frozenset(
            f for f in self.faces
            if not any(g != f and f <= g for g in self.faces)
        )


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


def _boundary_rank(lower: list[tuple[int, ...]], upper: list[tuple[int, ...]],
                   field: FieldTag) -> int:
    """Rank of the boundary map from the span of `upper` to the span of `lower`.

    Faces are given as sorted vertex tuples; `lower` holds the faces one
    dimension down (possibly the single empty face for the augmentation).
    """
    if not upper or not lower:
        return 0
    index = {f: i for i, f in enumerate(lower)}
    if field is FieldTag.F2:
        rows = []
        for face in upper:
            row = 0
            for k in range(len(face)):
                sub = face[:k] + face[k + 1:]
                row |= 1 << index[sub]
            rows.append(row)
        return rank_f2(rows)
    return rank_rational([
        {index[face[:k] + face[k + 1:]]: -1 if k % 2 else 1 for k in range(len(face))}
        for face in upper
    ])


def reduced_homology_ranks(complex_: SimplicialComplex,
                           field: FieldTag = FieldTag.F2) -> dict[int, int]:
    """Ranks of the reduced homology groups, nonzero entries only.

    Dimension -1 is included: it has rank 1 exactly for the irrelevant
    complex {∅}.  The void complex has no homology at all.
    """
    if complex_.is_void:
        return {}
    by_dim: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for f in complex_.faces:
        by_dim[len(f) - 1].append(tuple(sorted(f)))
    for faces in by_dim.values():
        faces.sort()
    top = max(by_dim)
    # boundary_ranks[d] = rank of d-chains -> (d-1)-chains; d = 0 is the augmentation
    boundary_ranks: dict[int, int] = {}
    for d in range(0, top + 1):
        boundary_ranks[d] = _boundary_rank(by_dim.get(d - 1, []), by_dim.get(d, []), field)
    out: dict[int, int] = {}
    for d in range(-1, top + 1):
        dim_cd = len(by_dim.get(d, []))
        rank = dim_cd - boundary_ranks.get(d, 0) - boundary_ranks.get(d + 1, 0)
        if rank:
            out[d] = rank
    return out
