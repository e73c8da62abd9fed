"""Exact reduced homology over F2 and the rationals."""

import brute_force
import pytest

from neuralideals.betti import _cube_boundary
from neuralideals.homology import (
    FieldTag,
    SimplicialComplex,
    _simplex_boundary,
    chain_ranks,
    rank_f2,
    rank_rational,
    reduced_homology_ranks,
)

FIELDS = [FieldTag.F2, FieldTag.RATIONALS]


def mask(face):
    return sum(1 << v for v in face)


def complex_of(*faces):
    """The downward closure of the given vertex sets, with faces as masks."""
    vertices, closed = 0, set()
    for top in map(mask, faces):
        vertices |= top
        sub = top
        while True:
            closed.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & top
    return SimplicialComplex(vertices, frozenset(closed))


def cube_cells(k):
    """Every cell c + span(g) of the k-cube, as the int g << 16 | c, listed
    by dimension."""
    cells = [[] for _ in range(k + 1)]
    for g in range(1 << k):
        for c in range(1 << k):
            if not g & c:
                cells[g.bit_count()].append(g << 16 | c)
    return cells


def assert_boundary_squares_to_zero(cells, boundary):
    """Every face of a cell is a cell, listed once, so the F2 row (the OR
    of the faces) is the signed row mod 2; and with the k-th face signed
    (-1)^k, the boundary of the boundary is zero."""
    for cell in cells:
        faces = boundary(cell)
        assert len(set(faces)) == len(faces) and set(faces) <= cells
        twice = {}
        for k, face in enumerate(faces):
            for k2, lower in enumerate(boundary(face)):
                twice[lower] = twice.get(lower, 0) + (-1) ** (k + k2)
        assert not any(twice.values())


class TestRankKernels:
    def test_f2_rank(self):
        assert rank_f2([]) == 0
        assert rank_f2([0b11, 0b01, 0b10]) == 2
        assert rank_f2([0b111, 0b011, 0b100]) == 2
        assert rank_f2([0b101, 0b010]) == 2

    def test_rational_rank(self):
        rows = [{0: 1, 1: 2}, {0: 2, 1: 4}]
        assert rank_rational(rows) == 1
        rows = [{0: 1}, {0: 1, 1: 1}]
        assert rank_rational(rows) == 2

    def test_rank_is_not_taken_mod_2(self):
        # [[1, 1], [1, -1]] has determinant -2: rank 2 over Q, 1 over F2
        assert rank_rational([{0: 1, 1: 1}, {0: 1, 1: -1}]) == 2
        assert rank_f2([0b11, 0b11]) == 1


@pytest.mark.parametrize("field", FIELDS)
class TestReducedHomology:
    def test_void_complex(self, field):
        K = SimplicialComplex(0, frozenset())
        assert K.is_void
        assert reduced_homology_ranks(K, field) == {}

    def test_irrelevant_complex(self, field):
        K = SimplicialComplex(0, frozenset({0}))
        assert brute_force.is_irrelevant(K)
        assert reduced_homology_ranks(K, field) == {-1: 1}

    def test_two_isolated_vertices(self, field):
        assert reduced_homology_ranks(complex_of({0}, {1}), field) == {0: 1}

    def test_point_is_contractible(self, field):
        assert reduced_homology_ranks(complex_of({0}), field) == {}

    def test_hollow_triangle(self, field):
        K = complex_of({0, 1}, {1, 2}, {0, 2})
        assert reduced_homology_ranks(K, field) == {1: 1}

    def test_filled_triangle(self, field):
        assert reduced_homology_ranks(complex_of({0, 1, 2}), field) == {}

    def test_square_circle(self, field):
        K = complex_of({0, 1}, {1, 2}, {2, 3}, {0, 3})
        assert reduced_homology_ranks(K, field) == {1: 1}

    def test_hollow_tetrahedron(self, field):
        faces = [{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}]
        assert reduced_homology_ranks(complex_of(*faces), field) == {2: 1}

    def test_wedge_of_two_circles(self, field):
        K = complex_of({0, 1}, {1, 2}, {0, 2}, {0, 3}, {3, 4}, {0, 4})
        assert reduced_homology_ranks(K, field) == {1: 2}

    def test_cone_is_acyclic(self, field):
        # cone over the hollow triangle: apex 9 joined to everything
        faces = [{0, 1, 9}, {1, 2, 9}, {0, 2, 9}, {0, 1}, {1, 2}, {0, 2}]
        assert reduced_homology_ranks(complex_of(*faces), field) == {}


@pytest.mark.parametrize("field", FIELDS)
class TestChainRanks:
    """Hand-built complexes for the one rank routine, simplicial and cubical."""

    def test_no_cells(self, field):
        assert chain_ranks([], _simplex_boundary, field) == {-1: 1}
        assert chain_ranks([], _cube_boundary, field) == {-1: 1}

    def test_two_points(self, field):
        assert chain_ranks([[0b01, 0b10]], _simplex_boundary, field) == {0: 1}
        assert chain_ranks([[0, 1]], _cube_boundary, field) == {0: 1}

    def test_solid_square(self, field):
        assert chain_ranks(cube_cells(2), _cube_boundary, field) == {}

    def test_boundary_of_the_3_cube(self, field):
        # its six squares, twelve edges and eight points: a 2-sphere
        cells = cube_cells(3)[:3]
        assert len(cells[2]) == 6
        assert chain_ranks(cells, _cube_boundary, field) == {2: 1}


def test_simplex_boundary_squares_to_zero():
    # every face of the 6-simplex on vertices 0..6, the empty face included
    assert_boundary_squares_to_zero(set(range(1 << 7)), _simplex_boundary)


class TestProjectivePlane:
    """Minimal 6-vertex triangulation: the one desk-scale space whose
    homology depends on the field (torsion Z/2)."""

    FACES = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 6), (1, 5, 6),
        (2, 3, 5), (2, 4, 6), (2, 4, 5), (3, 4, 6), (3, 5, 6),
    ]

    def test_field_dependence(self):
        K = complex_of(*self.FACES)
        over_f2 = reduced_homology_ranks(K, FieldTag.F2)
        over_q = reduced_homology_ranks(K, FieldTag.RATIONALS)
        assert over_q == {}
        assert over_f2 == {1: 1, 2: 1}


class TestComplexStates:
    def test_three_states_distinct(self):
        void = SimplicialComplex(0, frozenset())
        irrelevant = SimplicialComplex(0, frozenset({0}))
        point = complex_of({0})
        assert void.is_void and not brute_force.is_irrelevant(void)
        assert brute_force.is_irrelevant(irrelevant) and not irrelevant.is_void
        assert not point.is_void and not brute_force.is_irrelevant(point)

    def test_downward_closure_from_faces(self):
        K = complex_of({0, 1, 2})
        assert K.vertices == 0b111
        assert K.faces == frozenset(range(8))
        assert 0b011 in K.faces
        assert 0 in K.faces

    def test_facets(self):
        K = complex_of({0, 1}, {1, 2})
        facets = {f for f in K.faces if not any(f != g and f & g == f for g in K.faces)}
        assert facets == {0b011, 0b110}

    def test_face_outside_vertices_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex(0b01, frozenset({0, 0b10}))
        with pytest.raises(ValueError):
            SimplicialComplex(0b101, frozenset({0, 0b001, 0b100, 0b110}))
