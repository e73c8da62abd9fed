"""Differential tests: the package's kernels against brute force.

The Euler check (against both the 2^q subset count and the Mobius
transform of the membership table), the restriction to a multidegree,
the lcm-subset regularity bound, the lcm closure, the
bit-clear patterns, the subcube closure, the membership table, the
upper Koszul complex, reduced homology, the Betti table, the rank over
Q, the linear-quotient search and the recursive linearity check each
have a slow reference in `brute_force`; the package's kernels must
agree with it exactly.  So do
the truth-table codec and the code pipeline, against the sorted
degree-n universe and the pseudomonomial pipeline, and the splitting
prediction against the one built from six Betti tables.  The linearly-related refusal in the
linear-quotient search must never refuse an ideal for which the
reference finds an order.  The strong-collapse core and the nerve rule
for at most three facets, which the walk of the lcm closure reads off
the divisors' pairwise joins, must give the homology of the whole complex,
and the cubical side of the Betti table, on the codewords of ideals
generated by transversals of one neuron set, the ranks of the upper
Koszul complex.  The points of those generators in the cube, which
both the Betti table and the linear-quotient search's first dead end
read, must be those of a per-neuron scan.
"""

import random
import re
import time
from functools import cache, reduce
from operator import and_, or_

import brute_force
import pytest
import test_homology
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from neuralideals import homology
from neuralideals import betti, structure, verify
from neuralideals.codes import NeuralCode, code_to_polarized_ideal
from neuralideals.betti import (
    BettiTable,
    betti_table,
    euler_discrepancy,
    has_linear_resolution,
    reg_upper_bound_lcm,
    upper_koszul,
)
from neuralideals.homology import (
    FieldTag,
    SimplicialComplex,
    boundary_rank,
    rank_f2,
    rank_rational,
    reduced_homology_ranks,
)
from neuralideals.monomials import (
    Monomial,
    NeuronCountError,
    NotSplittableError,
    PairViolationError,
    UnitOrZeroIdealError,
    _bit_clear_patterns,
    _compress,
    _cube_points,
    _expand,
    _lcm_masks,
    _positions,
    _subcube_closure,
    degree_n_ideal,
    is_equigenerated,
    lcm_closure,
    minimalize,
    parse_monomial,
    restrict,
    truth_table,
)
from neuralideals.structure import (
    JNotLinearError,
    NeuronSplit,
    _halves,
    _linearly_related,
    _most_even_bit,
    betti_splitting_predict,
    family_prop33,
    family_thm36,
    linear_quotients_search,
    recursive_linear_check,
    split_at_neuron,
)
from neuralideals.verify import random_polarized_ideal, sample_degree_n_subsets


@st.composite
def polarized_ideals(draw, max_n=4, max_gens=10):
    """Pair-excluding squarefree ideals with mixed generator degrees."""
    n = draw(st.integers(1, max_n))
    gens = []
    for _ in range(draw(st.integers(1, max_gens))):
        # per neuron: absent, x_i or y_i
        choice = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        mask = 0
        for i, c in enumerate(choice):
            if c == 1:
                mask |= 1 << i
            elif c == 2:
                mask |= 1 << (n + i)
        if mask:
            gens.append(Monomial(mask, n))
    ideal = minimalize(gens, n)
    if not ideal.is_proper_nonzero:
        ideal = minimalize([Monomial(1, n)], n)
    return ideal


@st.composite
def integer_matrices(draw, entries=st.integers(-3, 3), max_size=7):
    """Dense matrices of at most max_size rows and columns, with scaled
    duplicate rows and zero rows mixed in."""
    ncols = draw(st.integers(1, max_size))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=max_size))
    for _ in range(draw(st.integers(0, max_size - len(rows)))):
        if rows and draw(st.booleans()):
            k = draw(st.sampled_from([-3, -2, -1, 2, 3]))
            rows.append([k * v for v in draw(st.sampled_from(rows))])
        else:
            rows.append([0] * ncols)
    return draw(st.permutations(rows))


def sparse(rows):
    return [{c: v for c, v in enumerate(r) if v} for r in rows]


@st.composite
def equigenerated_ideals(draw, max_n=4, max_gens=10):
    """Pair-excluding ideals whose generators all have one degree d."""
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, n))
    gens = []
    for _ in range(draw(st.integers(1, max_gens))):
        mask = 0
        for i in draw(st.permutations(range(n)))[:d]:
            mask |= 1 << (n + i if draw(st.booleans()) else i)
        gens.append(Monomial(mask, n))
    return minimalize(gens, n)


def degree_n_ideals(n, count=None, seed=0):
    """Every degree-n ideal, or `count` seeded samples of them."""
    subsets = range(1, 1 << (1 << n)) if count is None \
        else sample_degree_n_subsets(n, count, seed)
    return [degree_n_ideal(s, n) for s in subsets]


def degree_3_ideals():
    return [P.inner for P in degree_n_ideals(3)]


def masks_of(ideal):
    return [g.mask for g in ideal.gens]


class TestAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(polarized_ideals())
    def test_reg_upper_bound(self, ideal):
        assert reg_upper_bound_lcm(ideal) == brute_force.reg_upper_bound_lcm(ideal)

    @settings(max_examples=150, deadline=None)
    @given(polarized_ideals())
    def test_lcm_closure(self, ideal):
        assert lcm_closure(ideal) == brute_force.lcm_closure(ideal)

    @settings(max_examples=200, deadline=None)
    @given(polarized_ideals(max_n=5, max_gens=10))
    def test_lcm_masks_are_the_subset_lcms(self, ideal):
        closure = _lcm_masks(masks_of(ideal))
        assert closure == {m for _, m in brute_force._subset_lcms(ideal)}
        assert closure == set(brute_force.lcm_levels(masks_of(ideal)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_lcm_masks_of_one_and_two_generators(self, n):
        # every mask, the unit among them, at n <= 3; 60 seeded ones above
        masks = range(1 << 2 * n) if n <= 3 else random.Random(n).sample(
            range(1 << 2 * n), 60)
        for a in masks:
            assert _lcm_masks([a]) == {a}
            for b in masks:
                assert _lcm_masks([a, b]) == {a, b, a | b}

    @settings(max_examples=100, deadline=None)
    @given(polarized_ideals(), st.data())
    def test_euler_discrepancy_on_perturbed_tables(self, ideal, data):
        table = betti_table(ideal)
        assert euler_discrepancy(ideal, table) == {}
        # a wrong table must be judged the same way by both
        i = data.draw(st.integers(0, 2 * ideal.n))
        b = data.draw(st.integers(0, (1 << 2 * ideal.n) - 1))
        table.fine[(i, b)] = table.fine.get((i, b), 0) + data.draw(st.integers(1, 3))
        assert euler_discrepancy(ideal, table) == brute_force.euler_discrepancy(ideal, table)

    @settings(max_examples=150, deadline=None)
    @given(polarized_ideals(), st.data())
    def test_upper_koszul_any_multidegree(self, ideal, data):
        b = Monomial(data.draw(st.integers(0, (1 << 2 * ideal.n) - 1)), ideal.n)
        assert upper_koszul(ideal, b) == brute_force.upper_koszul(ideal, b)

    def test_every_degree_3_ideal(self):
        for ideal in degree_3_ideals():
            table = betti_table(ideal)
            assert euler_discrepancy(ideal, table) == brute_force.euler_discrepancy(
                ideal, table) == {}
            assert reg_upper_bound_lcm(ideal) == brute_force.reg_upper_bound_lcm(ideal)
            closure = lcm_closure(ideal)
            assert closure == brute_force.lcm_closure(ideal)
            for b in closure:
                assert upper_koszul(ideal, b) == brute_force.upper_koszul(ideal, b)


def first_level_of_max(ideal):
    """The fewest generators of any subset that attains the lcm bound."""
    levels = brute_force.lcm_levels(masks_of(ideal))
    best = max(b.bit_count() - k for b, k in levels.items())
    return min(k for b, k in levels.items() if b.bit_count() - k == best)


class TestLcmBoundStops:
    """The lcm bound stops its breadth-first walk at the level that decides
    it; it must give the 2^q subset bound and the unstopped walk's."""

    def test_max_only_at_level_three(self):
        # levels 1 and 2 give 1 + 3; the lcm of all three, degree 7, gives
        # 1 + 7 - 3, so a stop after level 2 would return 4
        n = 5
        ideal = minimalize([parse_monomial(t, n)
                            for t in ("x5*y1", "x1*y3*y5", "y2*y4*y5")], n)
        assert first_level_of_max(ideal) == 3
        assert reg_upper_bound_lcm(ideal) == brute_force.reg_upper_bound_lcm(ideal) == 5

    @pytest.mark.parametrize("text", ["x1", "x1*y2*x3", "y1*y2*y3*y4*y5"])
    def test_one_generator(self, text):
        ideal = minimalize([parse_monomial(text, 5)], 5)
        assert reg_upper_bound_lcm(ideal) == ideal.gens[0].degree

    def test_full_cube(self):
        # every point of the 9-cube: an antipodal pair reaches the lcm of
        # all 512 generators at level 2, 1 + 18 - 2
        assert reg_upper_bound_lcm(degree_n_ideal((1 << 512) - 1, 9).inner) == 17

    def test_seeded_mixed_degree_sweep(self):
        rng = random.Random(2611)
        deep = 0
        for _ in range(3000):
            ideal = random_polarized_ideal(rng, rng.randint(2, 5), max_gens=8)
            assert reg_upper_bound_lcm(ideal) == brute_force.reg_upper_bound_lcm(ideal)
            deep += first_level_of_max(ideal) >= 3
        # the sweep reaches the ideals whose max a too-early stop would miss
        assert deep > 0

    @pytest.mark.parametrize("n, seed", [(4, 26), (5, 26)])
    def test_against_the_unstopped_walk(self, n, seed):
        for ideal in degree_n_ideals(n, count=300, seed=seed):
            inner = ideal.inner
            assert reg_upper_bound_lcm(inner) == brute_force.reg_upper_bound_levels(inner)


class TestBettiTableAgainstBruteForce:
    """Closed forms at one- and two-generator multidegrees, and the
    membership table built in the Euler check's lane passes, against full
    enumeration."""

    @settings(max_examples=150, deadline=None)
    @given(polarized_ideals())
    @example(family_thm36(5, 5).inner)
    def test_membership_table(self, ideal):
        # the Euler check builds the membership table in its own lane
        # passes: a correct table must pass, and a bumped entry at the top
        # multidegree must give the Mobius transform of the reference table
        table = betti_table(ideal)
        assert euler_discrepancy(ideal, table) == {}
        top = ideal.lcm_of_gens().mask
        table.fine[(1, top)] = table.fine.get((1, top), 0) + 1
        assert euler_discrepancy(ideal, table) == \
            brute_force.mobius_euler_discrepancy(ideal, table) == {top: -1}

    @pytest.mark.parametrize("s", range(15))
    def test_bit_clear_patterns(self, s):
        assert _bit_clear_patterns(s) == brute_force.bit_clear_patterns(s)

    def test_patterns_hold_every_lower_level(self):
        # the recursive check reads the level-m patterns off the level-n ones
        top = _bit_clear_patterns(8)
        for m in range(9):
            low = (1 << (1 << m)) - 1
            assert tuple(p & low for p in top[:m]) == _bit_clear_patterns(m)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda m: st.tuples(
        st.just(m), st.integers(0, (1 << (1 << m)) - 1), st.integers(0, (1 << m) - 1))))
    def test_subcube_closure(self, case):
        m, table, down = case
        assert (_subcube_closure(table, _bit_clear_patterns(m), down)
                == brute_force.subcube_closure(table, m, down))

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_every_degree_3_ideal(self, monkeypatch, field):
        # these tables take the cubical side at most multidegrees with four
        # or more divisors, 253 of them
        cubical = record_cubical(monkeypatch)
        for ideal in degree_3_ideals():
            assert betti_table(ideal, field) == brute_force.betti_table(ideal, field)
        assert len(cubical) == 253

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_sampled_degree_4_ideals(self, field):
        for subset in sample_degree_n_subsets(4, 60, seed=11):
            ideal = degree_n_ideal(subset, 4).inner
            assert betti_table(ideal, field) == brute_force.betti_table(ideal, field)

    @settings(max_examples=150, deadline=None)
    @given(polarized_ideals(), st.sampled_from(list(FieldTag)))
    def test_mixed_degree_ideals(self, ideal, field):
        assert betti_table(ideal, field) == brute_force.betti_table(ideal, field)

    def test_level_2_multidegree_with_a_third_divisor(self, monkeypatch):
        # b = lcm(x1*x2, x2*x3) is also divisible by x1*x3, so K^b is three
        # points, not two simplices, and beta_{1,b} = 2
        n = 3
        ideal = minimalize([parse_monomial(t, n) for t in ("x1*x2", "x2*x3", "x1*x3")], n)
        b = parse_monomial("x1*x2*x3", n)
        assert brute_force.lcm_levels(masks_of(ideal))[b.mask] == 2
        built = record_complexes(monkeypatch)
        table = betti_table(ideal)
        assert table == brute_force.betti_table(ideal)
        assert table.fine[(1, b.mask)] == 2
        assert built == []  # the three-divisor rule reads K^b off its nerve


def record_complexes(monkeypatch):
    """Every complex `betti` builds from here on, by either of its two builders."""
    built = []

    def recording(build):
        def wrapper(*args):
            built.append(args)
            return build(*args)
        return wrapper

    monkeypatch.setattr(betti, "upper_koszul", recording(upper_koszul))
    monkeypatch.setattr(betti, "reduced_homology_ranks", recording(reduced_homology_ranks))
    return built


def all_faces(facets):
    """The complex generated by the facet masks, every face listed."""
    return test_homology.complex_of(
        *([k for k in range(f.bit_length()) if f >> k & 1] for f in facets))


def dominated(facets):
    """The vertices u such that the facets containing u share another vertex."""
    vertices = reduce(or_, facets)
    return [u for u in range(vertices.bit_length()) if vertices >> u & 1
            and reduce(and_, [f for f in facets if f >> u & 1]) != 1 << u]


@st.composite
def facet_antichains(draw, max_vertices=8):
    """The maximal sets among a few nonempty vertex sets on at most
    max_vertices vertices."""
    v = draw(st.integers(1, max_vertices))
    drawn = draw(st.lists(st.integers(1, (1 << v) - 1), min_size=1, max_size=12))
    return {f for f in drawn if not any(f | g == g != f for g in drawn)}


# the 6-vertex real projective plane, with vertex k at bit k - 1
RP2_FACETS = {sum(1 << (k - 1) for k in face) for face in test_homology.TestProjectivePlane.FACES}
RP2_TOP = (1 << 6) - 1


class TestKoszulCoreAgainstFullComplex:
    """The strong-collapse core and the three-facet nerve rule against the
    homology of the whole complex."""

    @settings(max_examples=300, deadline=None)
    @given(facet_antichains())
    def test_core_keeps_homology(self, facets):
        core = betti._strong_core(facets)
        assert dominated(core) == []
        assert not any(f | g == g != f for f in core for g in core)
        for field in FieldTag:
            assert reduced_homology_ranks(all_faces(core), field) == \
                reduced_homology_ranks(all_faces(facets), field)

    @settings(max_examples=300, deadline=None)
    @given(facet_antichains(), st.sampled_from(list(FieldTag)))
    def test_ranks_without_a_common_vertex(self, facets, field):
        # the facets of K^b at an lcm-closure multidegree share no vertex;
        # one facet then is the empty face, K^b = {∅}
        common = reduce(and_, facets)
        facets = {f & ~common for f in facets}
        assert betti._koszul_ranks(facets, field, {}) == \
            brute_force.reduced_homology_ranks(all_faces(facets), field)

    @staticmethod
    def projective_plane_ideal(n):
        """The complements of the RP^2 triangles in its six vertices, so that
        K^b at b = their lcm is RP^2 itself."""
        return minimalize([Monomial(RP2_TOP & ~f, n) for f in RP2_FACETS], n)

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_projective_plane_keeps_its_torsion(self, field):
        ideal = self.projective_plane_ideal(3)
        assert len(ideal.gens) == 10 and ideal.lcm_of_gens().mask == RP2_TOP
        assert betti._strong_core(set(RP2_FACETS)) == RP2_FACETS
        table = betti_table(ideal, field)
        assert table == brute_force.betti_table(ideal, field)
        top = {i: r for (i, b), r in table.fine.items() if b == RP2_TOP}
        assert top == ({2: 1, 3: 1} if field is FieldTag.F2 else {})

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_cone_over_projective_plane(self, field):
        # at b = lcm * y3, the one variable no generator uses is in every
        # facet: K^b is the cone over RP^2, which collapses to one simplex
        n = 4
        ideal = self.projective_plane_ideal(n)
        b = Monomial(RP2_TOP | 1 << 6, n)
        cone = upper_koszul(ideal, b)
        assert cone == brute_force.upper_koszul(ideal, b)
        facets = betti._koszul_facets(masks_of(ideal), b.mask)
        assert facets == {f | 1 << 6 for f in RP2_FACETS}
        assert len(betti._strong_core(facets)) == 1
        assert reduced_homology_ranks(cone, field) == {}
        table = betti_table(ideal, field)
        assert table == brute_force.betti_table(ideal, field)
        assert not any(m == b.mask for _, m in table.fine)

    @pytest.mark.parametrize("texts, ranks", [
        # e = number of divisor pairs with lcm other than b = x1*x2*x3*x4;
        # the facets b / g: three points, a point and an edge, a path, a
        # hollow triangle
        (("x2*x3*x4", "x1*x3*x4", "x1*x2*x4"), {0: 2}),
        (("x3*x4", "x1*x4", "x1*x2*x3"), {0: 1}),
        (("x3*x4", "x1*x4", "x1*x2"), {}),
        (("x1*x4", "x2*x4", "x3*x4"), {1: 1}),
    ])
    def test_three_divisor_rule(self, monkeypatch, texts, ranks):
        n = 4
        ideal = minimalize([parse_monomial(t, n) for t in texts], n)
        b = (1 << n) - 1
        assert ideal.lcm_of_gens().mask == b
        built = record_complexes(monkeypatch)
        for field in FieldTag:
            table = betti_table(ideal, field)
            assert table == brute_force.betti_table(ideal, field)
            assert {i: r for (i, m), r in table.fine.items() if m == b} == \
                {dim + 1: r for dim, r in ranks.items()}
        assert built == []


def record_cores(monkeypatch):
    """Every facet set that `betti._koszul_ranks` hands the strong core
    from here on."""
    cores = []
    core = betti._strong_core
    monkeypatch.setattr(betti, "_strong_core", lambda facets: cores.append(facets) or core(facets))
    return cores


@st.composite
def sphere_facets(draw, max_facets=7, max_extra=3):
    """d > 3 facets of which every d - 1 meet: facet t misses vertex t and
    holds the other d - 1 of 0..d-1, and each extra vertex lies in a
    proper subset of the facets; vertices are then relabelled."""
    d = draw(st.integers(4, max_facets))
    facets = [(1 << d) - 1 ^ 1 << t for t in range(d)]
    for e in range(draw(st.integers(0, max_extra))):
        inside = draw(st.integers(0, (1 << d) - 2))
        facets = [f | (inside >> t & 1) << d + e for t, f in enumerate(facets)]
    order = draw(st.permutations(range(max(facets).bit_length())))
    return {sum(1 << order[k] for k in range(f.bit_length()) if f >> k & 1) for f in facets}


class TestSphereRule:
    """d > 3 facets that share no vertex but of which every d - 1 meet
    have the boundary of a (d-1)-simplex as nerve, a (d-2)-sphere: the
    facets of K^b at a multidegree whose divisors form a dominant set."""

    @pytest.mark.parametrize("dim", range(3, 9))
    def test_simplex_boundaries_with_extra_vertices(self, monkeypatch, dim):
        cores = record_cores(monkeypatch)
        boundary = [(1 << dim + 1) - 1 ^ 1 << t for t in range(dim + 1)]
        rng = random.Random(dim)
        # vertex dim + 1 in every facet but one, then vertices in random
        # proper subsets of the facets, up to 10 vertices in all: the
        # reference takes over a minute on 12
        extras = [(1 << dim + 1) - 2] + [rng.randrange(1, (1 << dim + 1) - 1)
                                         for _ in range(min(2, 8 - dim))]
        for count in range(len(extras) + 1):
            facets = {f | sum((e >> t & 1) << dim + 1 + k for k, e in enumerate(extras[:count]))
                      for t, f in enumerate(boundary)}
            for field in FieldTag:
                assert betti._koszul_ranks(facets, field, {}) == {dim - 1: 1} == \
                    brute_force.reduced_homology_ranks(all_faces(facets), field)
        assert cores == []

    @settings(max_examples=100, deadline=None)
    @given(sphere_facets(), st.sampled_from(list(FieldTag)))
    def test_random_facets_every_d_minus_1_of_which_meet(self, facets, field):
        assert betti._koszul_ranks(facets, field, {}) == {len(facets) - 2: 1} == \
            brute_force.reduced_homology_ranks(all_faces(facets), field)

    @pytest.mark.parametrize("seed", range(4))
    def test_dominant_ideals_have_the_taylor_table(self, monkeypatch, seed):
        # a dominant set's Taylor complex is minimal (Alesandroni 2017):
        # beta_{|A|-1, lcm A} = 1 for each nonempty generator subset A,
        # and the lcms of distinct subsets differ; every divisor set is
        # dominant too, so no multidegree needs the strong core
        cores = record_cores(monkeypatch)
        rng = random.Random(seed)
        quads = 0
        for _ in range(40):
            ideal = verify.random_dominant_ideal(rng, rng.randint(1, 5))
            gens = masks_of(ideal)
            taylor = {(subset.bit_count() - 1,
                       reduce(or_, [g for k, g in enumerate(gens) if subset >> k & 1])): 1
                      for subset in range(1, 1 << len(gens))}
            assert len(taylor) == (1 << len(gens)) - 1
            for field in FieldTag:
                assert betti_table(ideal, field).fine == taylor == \
                    brute_force.betti_table(ideal, field).fine
            quads += len(gens) == 4
        assert quads and cores == []

    def test_other_facet_sets_reach_the_strong_core(self, monkeypatch):
        # RP^2, and the 5-cube points 0, 00111, 11000, 11111 at their lcm,
        # where two antipodal pairs of facets do not meet
        n = 5
        sparse = minimalize([Monomial(c << n | (1 << n) - 1 ^ c, n)
                             for c in (0, 0b00111, 0b11000, 0b11111)], n)
        facets = betti._koszul_facets(masks_of(sparse), sparse.lcm_of_gens().mask)
        assert len(facets) == 4
        for subject in (set(RP2_FACETS), facets):
            for field in FieldTag:
                cores = record_cores(monkeypatch)
                assert betti._koszul_ranks(subject, field, {}) == \
                    brute_force.reduced_homology_ranks(all_faces(subject), field)
                assert cores == [subject]


class TestFacetFreeWalk:
    """The walk of the lcm closure ranks a multidegree with at most three
    divisors from their pairwise joins, as facets b / g and b / g' meet
    iff g | g' != b, and builds facets only for more divisors."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(2, 6), st.booleans())
    def test_against_brute_force(self, seed, n, dominant):
        rng = random.Random(seed)
        ideal = (verify.random_dominant_ideal(rng, n) if dominant
                 else random_polarized_ideal(rng, n, max_gens=8))
        with pytest.MonkeyPatch.context() as mp:
            sweep_forced(mp, False)
            for field in FieldTag:
                assert betti_table(ideal, field) == brute_force.betti_table(ideal, field)

    def test_few_divisors_never_reach_the_facet_rules(self, monkeypatch):
        sweep_forced(monkeypatch, False)
        reached = []
        ranks = betti._koszul_ranks
        monkeypatch.setattr(betti, "_koszul_ranks",
                            lambda facets, *a: reached.append(len(facets)) or ranks(facets, *a))
        rng = random.Random(28)
        few = many = 0
        for _ in range(200):
            ideal = random_polarized_ideal(rng, rng.randint(2, 6), max_gens=8)
            gens = masks_of(ideal)
            counts = [len(betti._koszul_facets(gens, b)) for b in brute_force.lcm_levels(gens)]
            few += sum(d <= 3 for d in counts)
            many += sum(d > 3 for d in counts)
            betti_table(ideal)
        assert few and len(reached) == many > 0
        assert min(reached) > 3


@cache
def _cube_constants(v):
    """For each free set g of {0,1}^v: the table of its subsets, and the
    table of the points with the bits of g clear."""
    size = 1 << v
    return ([sum(1 << s for s in range(size) if not s & ~g) for g in range(size)],
            [sum(1 << c for c in range(size) if not c & g) for g in range(size)])


def cell_tables(codewords, v):
    """The tables `betti._sweep` hands `betti._cube_ranks` for a 2^v-bit
    codeword table: full[g] has bit c set iff c has the bits of g clear
    and every point c + s, s ⊆ g, is a codeword, and box[g] has bit s set
    iff s ⊆ g.  The AND of codewords >> s over the subsets s of g is
    grown one bit of g at a time, and masked by the points with the bits
    of g clear only at the end."""
    box, clear = _cube_constants(v)
    every = [codewords]
    for g in range(1, 1 << v):
        below = every[g ^ g & -g]
        every.append(below & below >> (g & -g))
    return [a & m for a, m in zip(every, clear)], box


def subcube(gens, n, b):
    """The arguments of `betti._cube_ranks` but the field for the subcube
    of multidegree b of the generator masks `gens`: the cell tables of the
    codewords, the points of {0,1}^V that are no generator, then b's base
    point c, with the bits of its free set F clear, F and |F|."""
    positions, points = _cube_points(gens, n)
    free = _compress(b & b >> n, positions)
    base = _compress(b >> n, positions) & ~free
    v = len(positions)
    return (*cell_tables(~points & (1 << (1 << v)) - 1, v), base, free, free.bit_count())


def record_cubical(monkeypatch):
    """Every multidegree that `betti_table` sends to the cubical side from
    here on, as its codewords and free set."""
    taken = []
    ranks = betti._cube_ranks

    def recording(full, box, c, free, k, field_tag):
        taken.append((full[0] & box[free] << c, free))
        return ranks(full, box, c, free, k, field_tag)

    monkeypatch.setattr(betti, "_cube_ranks", recording)
    return taken


@st.composite
def placed_subcubes(draw, ks):
    """A k-cube b = c + span(F) in {0,1}^V, k drawn from `ks` and |V| <= 7,
    with at least three generators in it: a 2^|V|-bit codeword table, |V|,
    c and F.  In b either the codewords or the generators are a drawn
    set, so that graphs and complexes full of squares both come up;
    around b the codewords are any."""
    k = draw(st.sampled_from(ks))
    v = draw(st.integers(k, 7))
    free = sum(1 << t for t in draw(st.permutations(range(v)))[:k])
    c = draw(st.integers(0, (1 << v) - 1)) & ~free
    if draw(st.booleans()):
        inside = draw(st.sets(st.integers(0, (1 << k) - 1), max_size=(1 << k) - 3))
    else:
        generators = draw(st.sets(st.integers(0, (1 << k) - 1), min_size=3))
        inside = set(range(1 << k)) - generators
    around = draw(st.integers(0, (1 << (1 << v)) - 1)) & ~placed(range(1 << k), c, free)
    return around | placed(inside, c, free), v, c, free


def placed(points, c, free):
    """The table of the points of the cube {0,1}^|free| moved onto the
    subcube c + span(free)."""
    return sum(1 << (c | _expand(s, _positions(free))) for s in points)


# the codewords of a 5-cube and of a 6-cube whose cubical complexes have
# H̃_1 = H̃_2 = 1 over F2
FIVE_CUBE_H1_H2 = [s for s in range(32) if 0xfcbddcfb >> s & 1]
SIX_CUBE_H1_H2 = [s for s in range(64) if 0x3f277c0f75ff5177 >> s & 1]


@st.composite
def transversal_ideals(draw, max_n=5):
    """Ideals generated by transversals of one neuron set N of at least two
    of the n neurons, N drawn with gaps so that its neurons are renumbered:
    bit k of a point takes y at the k-th neuron of N and x elsewhere."""
    n = draw(st.integers(2, max_n))
    neurons = sorted(draw(st.sets(st.integers(0, n - 1), min_size=2)))
    points = draw(st.sets(st.integers(0, (1 << len(neurons)) - 1), min_size=1))
    gens = [Monomial(sum(1 << (n + i if c >> k & 1 else i) for k, i in enumerate(neurons)), n)
            for c in points]
    return minimalize(gens, n)


@st.composite
def cube_point_inputs(draw):
    """Generator sets for `_cube_points`: degree-n tables for n <= 5, their
    pivot halves, thm36, transversals of gapped neuron sets, mixed-degree
    ideals, degree-n tables with one generator widened by the other
    letter of a neuron (pair-violating, unless a generator divides it),
    and single generators."""
    kind = draw(st.sampled_from(["table", "half", "thm36", "gapped", "mixed", "pair", "single"]))
    if kind in ("table", "half", "pair"):
        n = draw(st.integers(1 if kind == "table" else 2, 5))
        P = degree_n_ideal(draw(st.integers(1, (1 << (1 << n)) - 1)), n)
        if kind == "table":
            return P.inner
        i = draw(st.integers(1, n))
        if kind == "half":
            split = split_at_neuron(P, i)
            return draw(st.sampled_from([h for h in (split.J, split.K) if not h.is_zero]))
        gens = list(P.inner.gens)
        g = gens.pop(draw(st.integers(0, len(gens) - 1)))
        gens.append(Monomial(g.mask | 1 << (i - 1) | 1 << (n + i - 1), n))
        return minimalize(gens, n)
    if kind == "thm36":
        n = draw(st.integers(1, 6))
        return family_thm36(n, draw(st.integers(1, n))).inner
    if kind == "gapped":
        return draw(transversal_ideals())
    ideal = draw(polarized_ideals(max_n=5))
    return minimalize(ideal.gens[:1], ideal.n) if kind == "single" else ideal


class TestCubePointsAgainstScan:
    """`_cube_points`, the one reader of transversal generators as points
    of a cube, against the per-neuron scan of `brute_force.cube_points`,
    and its width bound at the two-generator prop33(v, v) on either side
    of MAX_LCM_DEGREE / 2."""

    @settings(max_examples=400, deadline=None)
    @given(cube_point_inputs())
    @example(minimalize([parse_monomial(t, 2) for t in ("x1*y1*x2", "x1*y2")], 2))
    @example(minimalize([parse_monomial(t, 3) for t in ("x1*x2", "x1*y3")], 3))
    def test_matches_the_scan(self, ideal):
        assert _cube_points(masks_of(ideal), ideal.n) == brute_force.cube_points(ideal)

    @pytest.mark.parametrize("v, has_points", [(12, True), (13, False)])
    def test_width_bound(self, v, has_points):
        # x1*...*xv and y1*...*yv are the points 0 and 2^v - 1 of {0,1}^v;
        # `TestLinearlyRelatedRefusal` runs the search on the same pair
        ideal = family_prop33(v, v).inner
        cube = _cube_points(masks_of(ideal), v)
        assert cube == brute_force.cube_points(ideal)
        assert cube == ((tuple(range(v)), 1 | 1 << (1 << v) - 1) if has_points else None)


class TestCubicalSideAgainstBruteForce:
    """The cubical side of `betti_table` (Alexander duality on the
    codewords of ideals generated by transversals of one neuron set)
    against the reference tables, and against the strong-core path at
    every multidegree with four or more divisors.  All n=3 tables are
    checked in `TestBettiTableAgainstBruteForce`."""

    @staticmethod
    def assert_tables_agree(ideals, fields=tuple(FieldTag)):
        for ideal in ideals:
            for field in fields:
                assert betti_table(ideal, field) == brute_force.betti_table(ideal, field)

    @pytest.mark.parametrize("n, count", [(4, 40), (5, 4)])
    def test_sampled_degree_n_tables(self, monkeypatch, n, count):
        cubical = record_cubical(monkeypatch)
        self.assert_tables_agree([P.inner for P in degree_n_ideals(n, count, seed=n)])
        assert len(cubical) > count

    def test_sampled_degree_6_tables(self, monkeypatch):
        # the reference ranks over Q with dense Fraction matrices, about
        # 1.4 s for 16 generators at n = 6 and 4 s for 40
        cubical = record_cubical(monkeypatch)
        rng = random.Random(6)
        sparse, dense = (degree_n_ideal(sum(1 << c for c in rng.sample(range(64), q)), 6).inner
                         for q in (16, 48))
        self.assert_tables_agree([sparse])
        self.assert_tables_agree([dense], [FieldTag.F2])
        assert len(cubical) > 100

    def test_pivot_halves(self, monkeypatch):
        # J and K of a split at neuron i leave neuron i out, so below the
        # last pivot their neuron set has a gap
        cubical = record_cubical(monkeypatch)
        halves = []
        for P in degree_n_ideals(4, 12, seed=44):
            for pivot in range(1, 5):
                split = split_at_neuron(P, pivot)
                halves += [h for h in (split.J, split.K) if h.is_proper_nonzero]
        self.assert_tables_agree(halves)
        assert len(cubical) > len(halves)

    @pytest.mark.parametrize("n, k", [(3, 3), (4, 2), (4, 4), (5, 3), (5, 4)])
    def test_thm36(self, monkeypatch, n, k):
        # every point is a generator: no codeword, so each cubical
        # multidegree b with k free neurons is the sphere, beta_{k,b} = 1
        cubical = record_cubical(monkeypatch)
        ideal = family_thm36(n, k).inner
        self.assert_tables_agree([ideal])
        assert len(cubical) == 2 * sum(
            1 for b in brute_force.lcm_levels(masks_of(ideal)) if (b & b >> n).bit_count() >= 2)

    @settings(max_examples=200, deadline=None)
    @given(transversal_ideals())
    @example(family_thm36(4, 4).inner)
    def test_both_sides_at_every_multidegree(self, ideal):
        # forced past the size rule: whichever side a multidegree with four
        # or more divisors would take, the two give the same ranks
        gens = masks_of(ideal)
        assert (_cube_points(gens, ideal.n) is not None) == (len(gens) > 1)
        for b in brute_force.lcm_levels(masks_of(ideal)):
            facets = betti._koszul_facets(gens, b)
            if len(facets) > 3:
                for field in FieldTag:
                    assert betti._cube_ranks(*subcube(gens, ideal.n, b), field) == \
                        betti._koszul_ranks(facets, field, {})

    @staticmethod
    def assert_cube_ranks_agree(codewords, v, c, free, fields=tuple(FieldTag)):
        # the reference ranks b's codewords alone; with d >= 3 generators
        # in b, its ranks at dimensions -1 and 0 of K^b are zero, as the
        # lemma of `betti._cube_ranks` says
        full, box = cell_tables(codewords, v)
        for field in fields:
            ranks = brute_force.cube_ranks(codewords & box[free] << c, free, field)
            assert betti._cube_ranks(full, box, c, free, free.bit_count(), field) == ranks
            assert -1 not in ranks and 0 not in ranks

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_every_pattern_up_to_three_free_neurons(self, field):
        for k in (2, 3):
            for codewords in range(1 << (1 << k)):
                if codewords.bit_count() <= (1 << k) - 3:
                    self.assert_cube_ranks_agree(codewords, k, 0, (1 << k) - 1, [field])

    def assert_every_pattern_on_four_free_neurons(self, field):
        checked = 0
        for codewords in range(1 << 16):
            if codewords.bit_count() <= 13:
                self.assert_cube_ranks_agree(codewords, 4, 0, 0b1111, [field])
                checked += 1
        assert checked == 65399

    def test_every_pattern_on_four_free_neurons_over_f2(self):
        self.assert_every_pattern_on_four_free_neurons(FieldTag.F2)

    def test_every_pattern_on_four_free_neurons_over_q(self):
        # k = 4 takes the Euler characteristic of its cell levels, as the
        # graphs at k >= 5 do, whose rule must hold over every field
        self.assert_every_pattern_on_four_free_neurons(FieldTag.RATIONALS)

    @settings(max_examples=60, deadline=None)
    @given(placed_subcubes((2, 3, 4)))
    def test_sampled_patterns_up_to_four_free_neurons(self, case):
        self.assert_cube_ranks_agree(*case)

    @settings(max_examples=40, deadline=None)
    @given(placed_subcubes((5, 6, 7)))
    # the hexagon 1..6 and the point 24 of the 5-cube, a graph, and the
    # 6-cube with four generators, full of squares, at base points 0b10010
    # and 0b10 inside {0,1}^7
    @example((placed([1, 2, 3, 4, 5, 6, 24], 0b10010, 0b1101101), 7, 0b10010, 0b1101101))
    @example((placed(set(range(64)) - {0, 21, 42, 63}, 0b10, 0b1111101), 7, 0b10, 0b1111101))
    # a 5-cube and a 6-cube whose complexes have H̃_1 and H̃_2 both
    # nonzero, so the map between them is ranked again over Q
    @example((placed(FIVE_CUBE_H1_H2, 0b10, 0b111101), 6, 0b10, 0b111101))
    @example((placed(SIX_CUBE_H1_H2, 0b1, 0b1111110), 7, 0b1, 0b1111110))
    def test_five_and_six_cubes_in_a_wider_cube(self, case):
        self.assert_cube_ranks_agree(*case)

    @settings(max_examples=60, deadline=None)
    @given(placed_subcubes((2, 3, 4, 5, 6, 7)))
    def test_cell_counts_against_a_scan(self, case):
        # one popcount per free set against a test of every point of every
        # subcube; b holds a generator, so there is no k-cell to count
        codewords, v, c, free = case
        k = free.bit_count()
        counts = brute_force.cube_cell_counts(codewords, c, free)
        assert counts[k] == 0
        full, box = cell_tables(codewords, v)
        assert betti._cell_counts(full, box[free] << c, free, k) == counts[:k]

    @settings(max_examples=60, deadline=None)
    @given(placed_subcubes((3, 4, 5, 6, 7)))
    @example((placed(FIVE_CUBE_H1_H2, 0b10, 0b111101), 6, 0b10, 0b111101))
    @example((placed(SIX_CUBE_H1_H2, 0b1, 0b1111110), 7, 0b1, 0b1111110))
    def test_only_the_middle_maps_are_eliminated(self, case):
        # none at k <= 4; at k >= 5 the maps from dimensions 2 .. k - 3
        # that have cells, over F2, and over Q again only those between
        # two nonzero F2 groups (dimension t of the complex is dimension
        # k - 2 - t of K^b), as for the squares of the two examples
        codewords, v, c, free = case
        full, box = cell_tables(codewords, v)
        k = free.bit_count()
        counts = brute_force.cube_cell_counts(codewords, c, free)
        over_f2 = brute_force.cube_ranks(codewords & box[free] << c, free, FieldTag.F2)
        h = [over_f2.get(k - 2 - t, 0) for t in range(k)]
        middle = [(t, FieldTag.F2) for t in range(2, k - 2) if counts[t]]
        for field in FieldTag:
            eliminated = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(betti, "boundary_rank", lambda cells, *a: eliminated.append(
                    ((cells[0] >> 16).bit_count(), a[-1])) or boundary_rank(cells, *a))
                betti._cube_ranks(full, box, c, free, k, field)
            again = [(t, field) for t, _ in middle if h[t - 1] and h[t]]
            assert eliminated == middle + (again if field is FieldTag.RATIONALS else [])

    def test_sweep_cell_table_matches_its_definition(self, monkeypatch):
        # one table per sweep, against `cell_tables` and cell by cell
        tables = {}
        monkeypatch.setattr(betti, "_cube_ranks",
                            lambda full, *a: tables.setdefault(id(full), full) and {})
        for P in degree_n_ideals(5, 4, seed=25):
            betti_table(P.inner)
        assert len(tables) == 4
        for full in tables.values():
            v = len(full).bit_length() - 1
            assert full == cell_tables(full[0], v)[0] == [
                sum(1 << c for c in range(1 << v) if not c & g
                    and all(full[0] >> (c | s) & 1 for s in range(1 << v) if not s & ~g))
                for g in range(1 << v)]

    def test_walked_ideal_with_a_dense_subcube(self, monkeypatch):
        # a 4-cube and three stray points on 8 neurons: q = 19 and
        # 2^8 > 4 * 19, so the rule walks it, and the walk ranks the
        # 4-cube's 16 divisors by the strong core, not the cubical side
        n = 8
        points = [*range(16), 0b11110000, 0b10101010, 0b01010101]
        ideal = degree_n_ideal(sum(1 << c for c in points), n).inner
        assert len(ideal.gens) == 19 and not betti._sweeps(19, n)
        gens = masks_of(ideal)
        # multidegrees that a sweep would rank cubically: d >= 4 divisors,
        # and k <= 4 free neurons or 2^k <= 3 d points
        dense = []
        for b in brute_force.lcm_levels(masks_of(ideal)):
            d = len(betti._koszul_facets(gens, b))
            k = (b & b >> n).bit_count()
            if d > 3 and (k <= 4 or 1 << k <= 3 * d):
                dense.append(d)
        assert 16 in dense
        cubical = record_cubical(monkeypatch)
        betti_table(ideal)
        assert cubical == []
        for field in FieldTag:
            swept, walked = both_sides(monkeypatch, ideal, field)
            assert swept == walked
        assert len(cubical) > 0  # the forced sweep ranks the 4-cube cubically

    @pytest.mark.parametrize("k", range(2, 6))
    def test_signed_boundary_squares_to_zero(self, k):
        # every subcube c + span(g) of the k-cube
        cells = {cell for same in test_homology.cube_cells(k) for cell in same}
        test_homology.assert_boundary_squares_to_zero(cells, betti._cube_boundary)

    def test_rational_rank_only_between_two_nonzero_groups(self, monkeypatch):
        # in the 5-cube, the codewords 1..6 are a hexagon with no full face
        # and 24..27 a full square apart from it: H̃_0 = H̃_1 = 1 with a
        # 2-cell; only the map from the 10 edges to the points could differ
        # over Q, and beta_{4,b} = beta_{3,b} = 1 at the top
        n = 5
        codewords = {1, 2, 3, 4, 5, 6, 24, 25, 26, 27}
        ideal = degree_n_ideal(sum(1 << c for c in range(32) if c not in codewords), n).inner
        b = (1 << 2 * n) - 1
        gens = masks_of(ideal)
        assert len(betti._koszul_facets(gens, b)) == 22
        ranked = []
        monkeypatch.setattr(homology, "rank_rational",
                            lambda rows: ranked.append(rows) or rank_rational(rows))
        whole = subcube(gens, n, b)  # the whole 5-cube
        full, box, base, free, k = whole
        assert (full[0] & box[free] << base, free, k) == \
            (sum(1 << c for c in codewords), 0b11111, 5)
        assert betti._cube_ranks(*whole, FieldTag.F2) == \
            betti._cube_ranks(*whole, FieldTag.RATIONALS) == {2: 1, 3: 1}
        # that map is n_0 - C over every field, so no rows are built
        assert ranked == []
        table = betti_table(ideal, FieldTag.RATIONALS)
        assert table == brute_force.betti_table(ideal, FieldTag.RATIONALS)
        assert {i: r for (i, m), r in table.fine.items() if m == b} == {3: 1, 4: 1}

    def test_graphs_without_a_square(self, monkeypatch):
        # ranked from components and cycles alone, over both fields
        monkeypatch.setattr(betti, "boundary_rank", None)
        for points, k, ranks in [
            # the codewords 1..6 and 8 of the 4-cube: a hexagon and a point
            ([1, 2, 3, 4, 5, 6, 8], 4, {2: 1, 1: 1}),
            ([1], 3, {}),
            ([0, 7], 3, {1: 1}),  # two antipodal points
            # the same hexagon and the point 24 in the 5-cube
            ([1, 2, 3, 4, 5, 6, 24], 5, {3: 1, 2: 1}),
        ]:
            full, box = cell_tables(sum(1 << c for c in points), k)
            for field in FieldTag:
                assert betti._cube_ranks(full, box, 0, (1 << k) - 1, k, field) == ranks
                assert brute_force.cube_ranks(full[0], (1 << k) - 1, field) == ranks

    def test_other_ideals_keep_the_strong_core_path(self, monkeypatch):
        # mixed neuron sets, and a transversal ideal whose one multidegree
        # with four divisors has 2^5 > 3 * 4 points, whether its closure is
        # swept or walked; the 4-cube `spread` with four divisors takes the
        # cubical side when swept, whatever its 2^4 points
        cubical = record_cubical(monkeypatch)
        cores = []
        ranks = betti._koszul_ranks
        monkeypatch.setattr(betti, "_koszul_ranks",
                            lambda facets, *a: cores.append(facets) or ranks(facets, *a))
        mixed = minimalize([parse_monomial(t, 4) for t in
                            ("x1*x2", "x1*y2*x3", "y1*x3", "y2*y3", "x2*x4")], 4)
        spread, sparse = (minimalize([Monomial(c << n | (1 << n) - 1 ^ c, n) for c in points], n)
                          for n, points in ((4, (0, 0b0011, 0b1100, 0b1111)),
                                            (5, (0, 0b00111, 0b11000, 0b11111))))
        facets = betti._koszul_facets(masks_of(sparse), sparse.lcm_of_gens().mask)
        assert len(facets) == 4
        for sweep in (True, False):
            sweep_forced(monkeypatch, sweep)
            for ideal in (mixed, spread, sparse):
                for field in FieldTag:
                    assert betti_table(ideal, field) == brute_force.betti_table(ideal, field)
        codewords = sum(1 << c for c in range(16) if c not in (0, 0b0011, 0b1100, 0b1111))
        assert cubical == [(codewords, 0b1111)] * 2
        assert cores.count(facets) == 4


def sweep_forced(monkeypatch, sweep):
    """Make `betti_table` sweep the subcubes of every transversal ideal
    (sweep True) or walk the lcm closure of every ideal (sweep False)."""
    monkeypatch.setattr(betti, "_sweeps", lambda q, v: sweep)


def both_sides(monkeypatch, ideal, field):
    """The Betti tables of `ideal` from the subcube sweep and from the
    lcm-closure walk."""
    tables = []
    for sweep in (True, False):
        sweep_forced(monkeypatch, sweep)
        tables.append(betti_table(ideal, field))
    return tables


def record_sweeps(monkeypatch):
    """The point tables of every ideal that `betti_table` sweeps."""
    swept = []
    sweep = betti._sweep

    def recording(gens, n, positions, points, field_tag, memo):
        swept.append(points)
        return sweep(gens, n, positions, points, field_tag, memo)

    monkeypatch.setattr(betti, "_sweep", recording)
    return swept


def sweep_multidegrees(ideal):
    """The multidegrees the subcube sweep visits, in visiting order."""
    gens = masks_of(ideal)
    return [b for b, _ in betti._sweep(gens, ideal.n, *_cube_points(gens, ideal.n),
                                       FieldTag.F2, {})]


class TestSubcubeSweep:
    """The subcube sweep of `betti_table` on transversal ideals, forced
    past the sweep/walk rule, against the reference tables and against
    the lcm-closure walk; the multidegrees it visits against the lcm
    closure."""

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_every_degree_3_ideal(self, monkeypatch, field):
        sweep_forced(monkeypatch, True)
        swept = record_sweeps(monkeypatch)
        for ideal in degree_3_ideals():
            assert betti_table(ideal, field) == brute_force.betti_table(ideal, field)
        assert len(swept) == 255 - 8  # all but the one-generator ideals

    @pytest.mark.parametrize("field", list(FieldTag))
    @pytest.mark.parametrize("n, count", [(4, 40), (5, 4)])
    def test_sampled_degree_n_ideals(self, monkeypatch, field, n, count):
        sweep_forced(monkeypatch, True)
        for P in degree_n_ideals(n, count, seed=20 + n):
            assert betti_table(P.inner, field) == brute_force.betti_table(P.inner, field)

    def test_gapped_neuron_sets_against_the_walk(self, monkeypatch):
        # the halves at a middle neuron leave a gap in their neuron set;
        # thm36(n, k) with k < n leaves neurons k+1..n out of it; a code
        # ideal's varying neurons miss those its non-codewords agree on
        ideals = []
        for P in degree_n_ideals(5, 12, seed=55):
            split = split_at_neuron(P, 3)
            ideals += [h for h in (split.J, split.K) if h.is_proper_nonzero]
        ideals += [family_thm36(n, k).inner for n in range(3, 7) for k in range(1, n)]
        rng = random.Random(8)
        while len(ideals) < 60:
            n = rng.randint(3, 5)
            fixed = rng.randrange(n)  # every non-codeword has this bit clear
            words = {w for w in range(1 << n) if w >> fixed & 1 or rng.random() < 0.4}
            ideal = code_to_polarized_ideal(NeuralCode(n, frozenset(words))).inner
            if len(ideal.gens) > 1:
                ideals.append(ideal)
        gapped = 0
        for ideal in ideals:
            positions, _ = _cube_points(masks_of(ideal), ideal.n)
            gapped += positions[-1] != len(positions) - 1
            for field in FieldTag:
                swept, walked = both_sides(monkeypatch, ideal, field)
                assert swept == walked
        assert gapped > 20

    @settings(max_examples=200, deadline=None)
    @given(transversal_ideals())
    @example(family_thm36(4, 4).inner)
    def test_visits_the_lcm_closure(self, ideal):
        if len(ideal.gens) > 1:
            visited = sweep_multidegrees(ideal)
            assert len(set(visited)) == len(visited)
            assert set(visited) == set(brute_force.lcm_levels(masks_of(ideal)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 7).flatmap(lambda v: st.tuples(
        st.just(v), st.sets(st.integers(0, (1 << v) - 1),
                            min_size=max(2, (1 << v) // 8), max_size=(1 << v) // 2))),
        st.sampled_from(list(FieldTag)))
    def test_near_the_crossover(self, case, field):
        # 2^v / 8 to 2^v / 2 points of the v-cube, on both sides of the
        # rule's 2^v <= 4 q; whichever side runs, both must agree
        v, points = case
        ideal = degree_n_ideal(sum(1 << c for c in points), v).inner
        with pytest.MonkeyPatch.context() as monkeypatch:
            swept, walked = both_sides(monkeypatch, ideal, field)
        assert betti_table(ideal, field) == swept == walked
        if v <= 4:
            assert swept == brute_force.betti_table(ideal, field)

    def test_sparse_top_multidegree_takes_the_strong_core(self, monkeypatch):
        # a 6-cube and the point 0b11000000 on 8 neurons: q = 65 and
        # 2^8 <= 4 * 65, so the rule sweeps it; the top multidegree has all
        # 65 points as divisors and 2^8 > 3 * 65 points, so its facets go
        # to the strong core, not to the cubical side
        n = 8
        ideal = degree_n_ideal(sum(1 << c for c in [*range(64), 0b11000000]), n).inner
        assert len(ideal.gens) == 65 and betti._sweeps(65, n)
        top = betti._koszul_facets(masks_of(ideal), ideal.lcm_of_gens().mask)
        assert len(top) == 65
        cubical = record_cubical(monkeypatch)
        cores = []
        ranks = betti._koszul_ranks
        monkeypatch.setattr(betti, "_koszul_ranks",
                            lambda facets, *a: cores.append(facets) or ranks(facets, *a))
        table = betti_table(ideal)
        assert top in cores
        assert cubical and all(free != (1 << n) - 1 for _, free in cubical)
        for field in FieldTag:
            swept, walked = both_sides(monkeypatch, ideal, field)
            assert swept == walked
            if field is FieldTag.F2:
                assert swept == table

    def test_rule_sweeps_dense_and_walks_sparse_tables(self, monkeypatch):
        swept = record_sweeps(monkeypatch)
        dense = degree_n_ideal(0xfffff7bf, 5).inner  # 30 of 32 points
        sparse = [family_prop33(10, 10).inner, degree_n_ideal(1 | 1 << 500 | 1 << 1000, 10).inner]
        for ideal in [dense] + sparse:
            betti_table(ideal)
        assert swept == [0xfffff7bf]


class TestRationalRankAgainstFractions:
    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_small_integer_matrices(self, rows):
        assert rank_rational(sparse(rows)) == brute_force.rank_rational(rows)

    @settings(max_examples=200, deadline=None)
    @given(integer_matrices(entries=st.sampled_from([-3, -2, 0, 2, 3])))
    def test_non_unit_entries_and_explicit_zeros(self, rows):
        with_zeros = [dict(enumerate(r)) for r in rows]
        assert rank_rational(with_zeros) == brute_force.rank_rational(rows)

    @settings(max_examples=300, deadline=None)
    @given(integer_matrices(entries=st.integers(-5, 5), max_size=9))
    # two matrices whose rank comes out wrong when a row that skipped a
    # step is not scaled up to the current pivot before it is used
    @example([[9, -4, 2, 2, 2, 9, -2], [5, -3, -5, -1, -2, -3, 4], [-3, -3, -2, -4, 1, 3, 3],
              [0, 4, 4, 4, 4, 0, -4], [3, 5, -5, 1, -1, -1, -4], [3, 2, 4, 4, 4, 3, -4]])
    @example([[2, -2, -4, 3, 4, 2, -4], [1, -1, -2, 1, 2, 0, 0], [0, 0, 0, 0, 0, 1, -2],
              [-3, 3, 6, -5, -6, 2, -4], [-1, 1, 2, -1, -2, -1, 2], [-3, 3, 6, -3, -6, 0, 0],
              [0, 0, 0, 1, 0, -1, 2], [2, -2, -4, 0, 4, 0, 0], [0, 0, 0, 3, 0, 0, 0]])
    def test_bareiss_reference_against_fractions(self, rows):
        assert brute_force.rank_rational(rows) == brute_force.rank_fractions(rows)

    def test_bareiss_reference_on_the_projective_plane(self):
        # RP^2's boundary maps, from its 15 edges to its 6 points and from
        # its 10 triangles to the edges, have ranks 5 and 10 over Q; mod 2
        # the second drops to 9, the torsion
        triangles = test_homology.TestProjectivePlane.FACES
        edges = sorted({t[:k] + t[k + 1:] for t in triangles for k in range(3)})
        points = sorted({e[:k] + e[k + 1:] for e in edges for k in range(2)})
        for upper, lower, rank, mod_2 in [(edges, points, 5, 5), (triangles, edges, 10, 9)]:
            rows = [[sum((-1) ** k for k in range(len(f)) if f[:k] + f[k + 1:] == face)
                     for face in lower] for f in upper]
            assert brute_force.rank_rational(rows) == brute_force.rank_fractions(rows) == rank
            assert rank_f2([sum(1 << c for c, v in enumerate(r) if v & 1) for r in rows]) == mod_2

    @pytest.mark.parametrize("rows, rank", [
        ([[2, 3], [3, 2]], 2),
        ([[2, 3, 0], [0, 2, 3], [2, 5, 3]], 2),
        ([[3, 2, 0], [0, 3, 2], [2, 0, 3]], 3),
        ([[0, 0], [2, 3], [0, 0], [-4, -6]], 1),
    ])
    def test_only_non_unit_pivots(self, rows, rank):
        assert rank_rational(sparse(rows)) == brute_force.rank_rational(rows) == rank
        assert brute_force.rank_fractions(rows) == rank

    def test_every_degree_3_boundary_matrix(self):
        # homology hands `rank_rational` only the maps between two nonzero
        # F2 groups, so every boundary map of every K^b in the degree-3
        # tables is ranked here directly, with signed rows built from
        # `_simplex_boundary`
        ranks = []

        def checked(rows):
            ncols = 1 + max((c for r in rows for c in r), default=0)
            dense = [[r.get(c, 0) for c in range(ncols)] for r in rows]
            rank = rank_rational(rows)
            assert rank == brute_force.rank_rational(dense)
            ranks.append(rank)

        for ideal in degree_3_ideals():
            for b in lcm_closure(ideal):
                by_size: dict[int, list[int]] = {}
                for face in upper_koszul(ideal, b).faces:
                    by_size.setdefault(face.bit_count(), []).append(face)
                index = {f: i for same in by_size.values() for i, f in enumerate(same)}
                for size, upper in by_size.items():
                    if size:
                        checked([{index[f]: (-1) ** k for k, f in
                                  enumerate(homology._simplex_boundary(face))}
                                 for face in upper])
        assert len(ranks) > 255


def greedy_order_completes(ideal):
    """Does placing the first admissible generator at every step give a
    full order?  When it does not, the lex-least search must backtrack."""
    masks = [g.mask for g in ideal.gens]
    placed, left = [], list(range(len(masks)))
    while left:
        for idx in left:
            if brute_force._step_admissible(placed, masks[idx]):
                placed.append(masks[idx])
                left.remove(idx)
                break
        else:
            return False
    return True


# Ten degree-3 generators on x1..x6 with linear quotients, where the first
# admissible generator at some step leads to a dead prefix.  Random searches
# over pair-excluding ideals with n <= 4, of any degrees, found none.
BACKTRACKING_IDEAL = minimalize([parse_monomial(t, 6) for t in (
    "x1*x3*x4", "x1*x2*x5", "x1*x3*x5", "x2*x4*x5", "x1*x2*x6",
    "x2*x3*x6", "x1*x4*x6", "x2*x4*x6", "x3*x5*x6", "x4*x5*x6")], 6)


class TestLinearQuotientsAgainstBacktracking:
    """The same order, or None on both sides, as the forward search."""

    def test_every_degree_3_ideal_and_its_restrictions(self):
        restrictions = 0
        for ideal in degree_3_ideals():
            assert linear_quotients_search(ideal) == brute_force.linear_quotients_search(ideal)
            for m in lcm_closure(ideal):
                sub = restrict(ideal, m)
                if sub.is_proper_nonzero and sub != ideal:
                    restrictions += 1
                    assert linear_quotients_search(sub) == \
                        brute_force.linear_quotients_search(sub)
        assert restrictions > 255

    def test_sampled_degree_4_ideals(self):
        outcomes = []
        for subset in sample_degree_n_subsets(4, 150, seed=5):
            ideal = degree_n_ideal(subset, 4).inner
            order = linear_quotients_search(ideal)
            assert order == brute_force.linear_quotients_search(ideal)
            outcomes.append(order is not None)
        assert True in outcomes and False in outcomes

    def test_order_that_needs_backtracking(self):
        assert not greedy_order_completes(BACKTRACKING_IDEAL)
        order = linear_quotients_search(BACKTRACKING_IDEAL)
        assert order is not None
        assert order == brute_force.linear_quotients_search(BACKTRACKING_IDEAL)

    @settings(max_examples=200, deadline=None)
    @given(polarized_ideals())
    def test_mixed_degree_ideals(self, ideal):
        assert linear_quotients_search(ideal) == brute_force.linear_quotients_search(ideal)

    def test_thm36_product_of_32_generators(self):
        ideal = family_thm36(5, 5).inner
        order = linear_quotients_search(ideal)
        assert order is not None and len(order) == 32
        assert order == brute_force.linear_quotients_search(ideal)


class TestLinearlyRelatedRefusal:
    """The refusal is sound: whenever the forward search finds an order,
    the generators are linearly related.  On transversal ideals the
    search's up-front test, that each generator is admissible after all
    the others, is a test on their points, and it refuses exactly the
    ideals that are not linearly related."""

    def test_every_degree_3_ideal_and_its_restrictions(self):
        refused = 0
        for ideal in degree_3_ideals():
            subs = [restrict(ideal, m) for m in lcm_closure(ideal)]
            for sub in [ideal] + [s for s in subs if s.is_proper_nonzero and s != ideal]:
                if brute_force.linear_quotients_search(sub) is not None:
                    assert _linearly_related(masks_of(sub))
                else:
                    refused += not _linearly_related(masks_of(sub))
        assert refused > 0

    def test_sampled_degree_4_ideals(self):
        found = 0
        for P in degree_n_ideals(4, 300, seed=9):
            if brute_force.linear_quotients_search(P.inner) is not None:
                found += 1
                assert _linearly_related(masks_of(P.inner))
        assert found > 0

    def test_thm36_product_of_32_generators(self):
        assert _linearly_related(masks_of(family_thm36(5, 5).inner))

    @settings(max_examples=200, deadline=None)
    @given(equigenerated_ideals())
    def test_equigenerated_ideals(self, ideal):
        if brute_force.linear_quotients_search(ideal) is not None:
            assert _linearly_related(masks_of(ideal))

    @pytest.mark.parametrize("texts", [
        # x1*x2 and x3*x4 differ in four variables and no generator lies
        # between them
        ("x1*x2", "x3*x4"),
        # a chain x1*x2, x2*y1, x3*y1, x3*x4 joins them, but through
        # generators that do not divide x1*x2*x3*x4
        ("x1*x2", "x2*y1", "x3*y1", "x3*x4"),
    ])
    def test_refused_example(self, texts):
        ideal = minimalize([parse_monomial(t, 4) for t in texts], 4)
        assert not _linearly_related(masks_of(ideal))
        assert linear_quotients_search(ideal) is None
        assert brute_force.linear_quotients_search(ideal) is None

    @staticmethod
    def assert_refused_up_front_iff_unrelated(monkeypatch, ideals):
        # refused up front: None before the search reaches a dead end and
        # asks for a refusal there, which stops it
        class DeadEnd(Exception):
            pass

        def stop(*args):
            raise DeadEnd
        for name in ("_restriction_witness", "_linearly_related"):
            monkeypatch.setattr(structure, name, stop)
        refused = 0
        for ideal in ideals:
            try:
                up_front = linear_quotients_search(ideal) is None
            except DeadEnd:
                up_front = False
            assert up_front == (not _linearly_related(masks_of(ideal)))
            refused += up_front
        return refused

    def test_points_test_on_every_table_up_to_degree_4(self, monkeypatch):
        # a table's half at neuron k + 1 is also the half of the table of
        # its points on that side of bit k alone, so splitting the tables
        # whose points all lie on one side gives every half
        ideals = {}
        for n in (1, 2, 3, 4):
            for s in range(1, 1 << (1 << n)):
                P = degree_n_ideal(s, n)
                ideals[P.inner] = None
                for k, clear in enumerate(_bit_clear_patterns(n)):
                    if s & clear in (0, s):
                        split = split_at_neuron(P, k + 1)
                        ideals.update(dict.fromkeys(h for h in (split.J, split.K)
                                                    if h.is_proper_nonzero))
        assert len(ideals) == 65535 + 255 + 15 + 3 + 4 * 255 + 3 * 15 + 2 * 3
        assert self.assert_refused_up_front_iff_unrelated(monkeypatch, ideals) == 59514

    @pytest.mark.parametrize("n, count", [(4, 300), (5, 200), (6, 30)])
    def test_points_test_on_sampled_tables(self, monkeypatch, n, count):
        assert self.assert_refused_up_front_iff_unrelated(
            monkeypatch, [P.inner for P in degree_n_ideals(n, count, seed=70 + n)]) > 0

    def test_points_test_on_dense_and_gapped_tables(self, monkeypatch):
        rng = random.Random(5)
        ideals = [degree_n_ideal(sum(1 << c for c in rng.sample(range(32), q)), 5).inner
                  for q in range(24, 32) for _ in range(8)]
        ideals += [family_thm36(n, k).inner for n in range(2, 6) for k in range(1, n + 1)]
        ideals += [split_at_neuron(P, 2).K for P in degree_n_ideals(4, 40, seed=4)]
        self.assert_refused_up_front_iff_unrelated(
            monkeypatch, [i for i in ideals if i.is_proper_nonzero])

    def test_unrelated_ideal_passing_the_up_front_test(self, monkeypatch):
        # not transversal: each generator can be placed after all the
        # others, but no generator of the first two differs from one of the
        # last two in a single variable, and all four divide the lcm of the
        # first and the last, so the pair loop refuses it at the first dead end
        texts = ("x2*x3*x5*y1", "x3*x4*x5*y1", "x2*x4*x5*y3", "x2*x4*y1*y3")
        ideal = minimalize([parse_monomial(t, 5) for t in texts], 5)
        assert not _linearly_related(masks_of(ideal))
        calls = []
        for name in ("_restriction_witness", "_linearly_related"):
            def spy(*args, name=name, original=getattr(structure, name)):
                calls.append(name)
                return original(*args)
            monkeypatch.setattr(structure, name, spy)
        assert linear_quotients_search(ideal) is None
        assert calls == ["_linearly_related"]
        assert brute_force.linear_quotients_search(ideal) is None

    @pytest.mark.parametrize("v, points_test", [(12, True), (13, False)])
    def test_points_test_only_on_bounded_tables(self, monkeypatch, v, points_test):
        # x1*...*xv and y1*...*yv: two points of {0,1}^v, on either side of
        # the width bound |V| <= 12 of `_cube_points`.  The up-front test on
        # the search's own rows refuses both before any dead end asks for
        # their points
        ideal = family_prop33(v, v).inner
        assert (_cube_points(masks_of(ideal), v) is not None) == points_test
        calls = []
        monkeypatch.setattr(structure, "_cube_points", lambda *args: calls.append(args))
        start = time.perf_counter()
        assert linear_quotients_search(ideal) is None
        assert time.perf_counter() - start < 2.0
        assert calls == []
        assert brute_force.linear_quotients_search(ideal) is None

    @pytest.mark.parametrize("q", [2, 3])
    def test_wide_transversals_refused_at_once(self, q):
        # generators differing on all 32 neurons: 2^32-bit tables if their
        # points were read up front, but no colon by one of them is a
        # single variable, so none can be placed after the others
        n = 32
        full = (1 << n) - 1
        masks = [full, full << n, (full >> 16) | (full >> 16) << (n + 16)][:q]
        ideal = minimalize([Monomial(g, n) for g in masks], n)
        start = time.perf_counter()
        assert linear_quotients_search(ideal) is None
        assert time.perf_counter() - start < 2.0

    def test_mixed_degrees_bypass_the_refusal(self):
        # (x1, x2*x3) has linear quotients in the order x1, x2*x3 but is
        # not linearly related, so the refusal must not run on it
        ideal = minimalize([parse_monomial(t, 3) for t in ("x1", "x2*x3")], 3)
        assert not _linearly_related(masks_of(ideal))
        order = linear_quotients_search(ideal)
        assert order is not None
        assert order == brute_force.linear_quotients_search(ideal)


class TestRecursiveCheckAgainstReference:
    """The truth-table recursion gives the reference recursion's answer,
    under both pivot rules."""

    @pytest.mark.parametrize("pivot", ["last", "smallest"])
    def test_every_ideal_up_to_degree_3(self, pivot):
        for n in (1, 2, 3):
            for P in degree_n_ideals(n):
                assert recursive_linear_check(P, pivot) == \
                    brute_force.recursive_linear_check(P, pivot)

    @pytest.mark.parametrize("pivot", ["last", "smallest"])
    @pytest.mark.parametrize("n, count", [(4, 400), (5, 60)])
    def test_sampled_ideals(self, n, count, pivot):
        outcomes = set()
        for P in degree_n_ideals(n, count, seed=11):
            linear = recursive_linear_check(P, pivot)
            assert linear == brute_force.recursive_linear_check(P, pivot)
            outcomes.add(linear)
        if n == 4:  # sampled n=5 ideals are almost never linear; see thm36 below
            assert outcomes == {True, False}

    @pytest.mark.parametrize("n", [2, 3])
    def test_split_and_pivot_of_every_ideal(self, n):
        # both pivot rules give the same answer, so these are the tests
        # that see a wrong split or a wrong "smallest" pivot
        patterns = _bit_clear_patterns(n)
        for P in degree_n_ideals(n):
            table = truth_table(P.inner)
            assert _most_even_bit(table, n, patterns) + 1 == brute_force._pick_pivot(P.inner, "smallest")
            for i in range(1, n + 1):
                split = split_at_neuron(P, i)
                J, K = (brute_force.drop_neuron(b, i) for b in (split.J, split.K))
                assert _halves(table, n, i - 1, patterns) == (truth_table(J), truth_table(K))

    def test_thm36_is_linear(self):
        P = family_thm36(5, 5)
        assert recursive_linear_check(P, "smallest") is True
        assert brute_force.recursive_linear_check(P, "smallest") is True


def splitting_outcome(predict, P, pivot, field):
    """(pd, reg, fine) of a prediction, or the type and text of its refusal."""
    try:
        pred = predict(P.inner, split_at_neuron(P, pivot), field)
    except (JNotLinearError, UnitOrZeroIdealError) as exc:
        return type(exc), str(exc)
    return pred.pd, pred.reg, pred.fine


class TestSplittingPredictAgainstSixTables:
    """Lifting the tables of J, K and J ∩ K by the pivot variables gives the
    prediction the tables of x_iJ, y_iK and x_iJ ∩ y_iK give, and the same
    refusals."""

    @staticmethod
    def assert_agree(ideals, n, field):
        refusals = predictions = 0
        for P in ideals:
            for pivot in range(1, n + 1):
                outcome = splitting_outcome(betti_splitting_predict, P, pivot, field)
                assert outcome == splitting_outcome(
                    brute_force.betti_splitting_predict, P, pivot, field)
                refusals += outcome[0] is JNotLinearError
                predictions += isinstance(outcome[0], int)
        assert refusals and predictions

    @pytest.mark.parametrize("field", [FieldTag.F2, FieldTag.RATIONALS])
    def test_every_degree_3_ideal_and_pivot(self, field):
        self.assert_agree(degree_n_ideals(3), 3, field)

    def test_sampled_degree_4_ideals(self):
        self.assert_agree(degree_n_ideals(4, 200, seed=23), 4, FieldTag.F2)

    @pytest.mark.parametrize("field", [FieldTag.F2, FieldTag.RATIONALS])
    @pytest.mark.parametrize("n, count, seed", [(4, 100, 29), (5, 60, 31)])
    def test_sampled_ideals_over_both_fields(self, n, count, seed, field):
        # the J refusal stops at J's first entry off the strand; a linear J
        # hands its whole table to the prediction
        self.assert_agree(degree_n_ideals(n, count, seed=seed), n, field)


@st.composite
def linearity_subjects(draw):
    """An equigenerated ideal: a degree-n ideal with n <= 5, one of the
    pivot halves J and K of one, or a random equigenerated ideal whose
    generators need not share one neuron set, which is walked."""
    kind = draw(st.sampled_from(["degree-n", "half", "walked"]))
    if kind == "walked":
        return draw(equigenerated_ideals(max_n=5))
    n = draw(st.integers(1 if kind == "degree-n" else 2, 5))
    P = degree_n_ideal(draw(st.integers(1, (1 << (1 << n)) - 1)), n)
    if kind == "degree-n":
        return P.inner
    split = split_at_neuron(P, draw(st.integers(1, n)))
    half = draw(st.sampled_from([split.J, split.K]))
    assume(half.is_proper_nonzero)
    return half


def record_entries(monkeypatch):
    """Every (b, ranks) entry that a Betti table or a linearity verdict
    takes from the oracle's stream from here on."""
    taken = []
    entries = betti._entries

    def recording(ideal, field_tag):
        for entry in entries(ideal, field_tag):
            taken.append(entry)
            yield entry

    monkeypatch.setattr(betti, "_entries", recording)
    return taken


class TestLinearVerdictStops:
    """The linearity verdict reads the oracle's entries up to
    the first Betti number off the strand, and says what the whole table
    says."""

    @settings(max_examples=200, deadline=None)
    @given(linearity_subjects(), st.sampled_from(list(FieldTag)))
    def test_verdict_is_the_table_regularity(self, ideal, field):
        degree = is_equigenerated(ideal)
        table = betti_table(ideal, field)
        linear = has_linear_resolution(ideal, field)
        assert linear == (table.reg == degree)
        assert betti._linear_verdict(ideal, field) == (table if linear else None)

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_a_non_linear_table_stops_at_its_first_off_strand_entry(self, monkeypatch, field):
        n = 5
        ideal = degree_n_ideal(sample_degree_n_subsets(n, 1, seed=5)[0], n).inner
        taken = record_entries(monkeypatch)
        table = betti_table(ideal, field)
        stream = len(taken)
        taken.clear()
        assert not has_linear_resolution(ideal, field)
        assert len(taken) < len({b for _, b in table.fine}) <= stream
        off = [any(b.bit_count() - dim - 1 != n for dim in ranks) for b, ranks in taken]
        assert off == [False] * (len(taken) - 1) + [True]

    def test_a_linear_table_is_read_once_and_whole(self, monkeypatch):
        P = family_thm36(4, 4)
        taken = record_entries(monkeypatch)
        table = betti_table(P.inner)
        stream = taken[:]
        taken.clear()
        assert betti._linear_verdict(P.inner, FieldTag.F2) == table
        assert taken == stream and table.reg == 4

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_mixed_degrees_warn_and_refuse(self, field):
        # J = (x1, y1*x2) has two degrees; I = x3*J + y3*(y2)
        n = 3
        J = minimalize([parse_monomial(t, n) for t in ("x1", "y1*x2")], n)
        K = minimalize([parse_monomial("y2", n)], n)
        ideal = minimalize([parse_monomial(t, n) for t in ("x1*x3", "y1*x2*x3", "y2*y3")], n)
        warning = "linear resolution queried on a non-equigenerated ideal"
        with pytest.warns(UserWarning, match=warning) as caught:
            assert not has_linear_resolution(J, field)
        with pytest.warns(UserWarning, match=warning) as also:
            with pytest.raises(JNotLinearError, match=rf"^J branch {re.escape(str(J))} "
                                                      "does not have linear resolution$"):
                betti_splitting_predict(ideal, NeuronSplit(3, J, K), field)
        # both warnings point at this file, the caller of the public function
        assert {w.filename for w in [*caught, *also]} == {__file__}


class TestTruthTableCodec:
    """`degree_n_ideal` builds the ideal the sorted universe gives, and the
    code pipeline builds the ideal the pseudomonomial pipeline gives."""

    @staticmethod
    def sampled_tables(n, count, seed):
        return [0, (1 << (1 << n)) - 1] + sample_degree_n_subsets(n, count, seed)

    def test_every_table_up_to_degree_3(self):
        for n in (1, 2, 3):
            universe = brute_force.degree_n_universe(n)
            for t in range(1 << (1 << n)):
                P = degree_n_ideal(t, n)
                assert P == brute_force.ideal_from_subset(universe, t)
                assert truth_table(P.inner) == t

    @pytest.mark.parametrize("n, count", [(4, 300), (5, 200)])
    def test_sampled_tables(self, n, count):
        universe = brute_force.degree_n_universe(n)
        for t in self.sampled_tables(n, count, seed=13):
            P = degree_n_ideal(t, n)
            assert P == brute_force.ideal_from_subset(universe, t)
            assert truth_table(P.inner) == t

    def test_every_code_up_to_length_3(self):
        for n in (1, 2, 3):
            for t in range(1 << (1 << n)):
                code = NeuralCode(n, frozenset(w for w in range(1 << n) if t >> w & 1))
                assert code_to_polarized_ideal(code) == \
                    brute_force.code_to_polarized_ideal(code)

    @pytest.mark.parametrize("n, count", [(4, 100), (5, 60)])
    def test_sampled_codes(self, n, count):
        for t in self.sampled_tables(n, count, seed=17):
            code = NeuralCode(n, frozenset(w for w in range(1 << n) if t >> w & 1))
            assert code_to_polarized_ideal(code) == \
                brute_force.code_to_polarized_ideal(code)

    @pytest.mark.parametrize("n, table", [(1, -1), (1, 4), (2, 1 << 4), (3, 1 << 300)])
    def test_out_of_range_table(self, n, table):
        with pytest.raises(ValueError, match="truth table"):
            degree_n_ideal(table, n)

    def test_bad_neuron_count(self):
        with pytest.raises(NeuronCountError):
            degree_n_ideal(1, 0)

    @pytest.mark.parametrize("text, error", [
        ("x1", NotSplittableError),           # misses neuron 2
        ("x1*y2*x2", PairViolationError),     # covers both neurons, x2*y2 divides it
        ("1", NotSplittableError),            # the unit ideal
    ])
    def test_truth_table_rejects_other_generators(self, text, error):
        with pytest.raises(error):
            truth_table(minimalize([parse_monomial(text, 2)], 2))


@st.composite
def complexes(draw, max_vertices=7):
    """Downward-closed complexes on at most max_vertices vertices sitting at
    arbitrary bit positions, void when no facet is drawn."""
    positions = draw(st.lists(st.integers(0, 13), max_size=max_vertices, unique=True))
    facet = st.lists(st.sampled_from(positions), max_size=5, unique=True) \
        if positions else st.just([])
    return test_homology.complex_of(*draw(st.lists(facet, max_size=10)))


class TestHomologyAgainstTuples:
    """Mask-built boundary rows against the sorted-tuple reference."""

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_every_degree_3_ideal_at_every_multidegree(self, field):
        complexes_seen = 0
        for ideal in degree_3_ideals():
            for b in lcm_closure(ideal):
                K = upper_koszul(ideal, b)
                assert reduced_homology_ranks(K, field) == \
                    brute_force.reduced_homology_ranks(K, field)
                complexes_seen += 1
        assert complexes_seen > 255

    @settings(max_examples=300, deadline=None)
    @given(complexes())
    @example(test_homology.complex_of(*test_homology.TestProjectivePlane.FACES))
    def test_downward_closed_complexes(self, K):
        for field in FieldTag:
            assert reduced_homology_ranks(K, field) == \
                brute_force.reduced_homology_ranks(K, field)

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_thm36_betti_table(self, field):
        ideal = family_thm36(5, 5).inner
        table = betti_table(ideal, field)
        assert table == brute_force.betti_table(ideal, field)
        assert (table.pd, table.reg) == (5, 5)


def count_rational_ranks(monkeypatch):
    """Every matrix handed to `homology.rank_rational` from here on."""
    calls = []

    def counted(rows):
        calls.append(rows)
        return rank_rational(rows)

    monkeypatch.setattr(homology, "rank_rational", counted)
    return calls


class TestRationalHomologyFromF2:
    """Over Q only a map between two nonzero F2 groups is ranked again;
    every result against dense Fraction elimination of every map."""

    @settings(max_examples=200, deadline=None)
    @given(facet_antichains(), st.sampled_from(list(FieldTag)))
    @example({0b011, 0b110, 0b101, 0b1110000, 0b1101000, 0b1011000, 0b0111000},
             FieldTag.RATIONALS)
    @example(RP2_FACETS | {0b11000000}, FieldTag.RATIONALS)  # RP^2 beside an edge
    def test_facet_sets_on_eight_vertices(self, facets, field):
        K = all_faces(facets)
        assert reduced_homology_ranks(K, field) == brute_force.reduced_homology_ranks(K, field)

    def test_projective_plane_needs_one_rational_rank(self, monkeypatch):
        # F2 {1: 1, 2: 1}: only the map from triangles to edges sits between
        # two nonzero groups, and over Q its rank grows by one
        calls = count_rational_ranks(monkeypatch)
        K = all_faces(RP2_FACETS)
        assert reduced_homology_ranks(K, FieldTag.RATIONALS) == {}
        assert len(calls) == 1

    def test_adjacent_degrees_without_torsion(self, monkeypatch):
        # a hollow triangle beside a hollow tetrahedron: both flanked maps
        # are ranked again, and neither gains rank over Q
        calls = count_rational_ranks(monkeypatch)
        triangle = [0b011, 0b110, 0b101]
        tetrahedron = [0b1110000, 0b1101000, 0b1011000, 0b0111000]
        K = all_faces(triangle + tetrahedron)
        assert reduced_homology_ranks(K, FieldTag.F2) == {0: 1, 1: 1, 2: 1}
        assert calls == []
        assert reduced_homology_ranks(K, FieldTag.RATIONALS) == {0: 1, 1: 1, 2: 1}
        assert len(calls) == 2

    @pytest.mark.parametrize("K, ranks", [
        (all_faces([0b1110, 0b1101, 0b1011, 0b0111]), {2: 1}),  # 2-sphere
        (all_faces([0b011, 0b110, 0b101]), {1: 1}),  # circle
        (SimplicialComplex(0, frozenset()), {}),  # void
        (SimplicialComplex(0, frozenset({0})), {-1: 1}),  # {∅}
    ])
    def test_no_rational_rank_without_two_nonzero_neighbours(self, monkeypatch, K, ranks):
        calls = count_rational_ranks(monkeypatch)
        assert reduced_homology_ranks(K, FieldTag.RATIONALS) == ranks == \
            brute_force.reduced_homology_ranks(K, FieldTag.RATIONALS)
        assert calls == []


class TestEulerFlagsCorruption:
    @pytest.mark.parametrize("delta", [1, -1])
    def test_one_corrupted_entry(self, delta):
        ideal = degree_3_ideals()[200]
        table = betti_table(ideal)
        key = max(table.fine)  # an entry in the top homological index
        table.fine[key] += delta
        sign = (-1) ** key[0]
        assert euler_discrepancy(ideal, table) == {key[1]: sign * delta}

    def test_entry_outside_the_support(self):
        n = 3
        ideal = minimalize([parse_monomial("x1*x2", n), parse_monomial("y1*x2", n)], n)
        table = betti_table(ideal)
        outside = parse_monomial("x3", n).mask
        table.fine[(1, outside)] = 1
        assert euler_discrepancy(ideal, table) == {outside: -1}


def lane_widths(monkeypatch):
    """Record the lane width of every `betti._lanes` call."""
    widths = []
    pack = betti._lanes

    def spy(values, width, s):
        widths.append(width)
        return pack(values, width, s)

    monkeypatch.setattr(betti, "_lanes", spy)
    return widths


def decode_calls(monkeypatch):
    """Record every `betti._signed_counts` call: the decode after a mismatch."""
    calls = []
    decode = betti._signed_counts
    monkeypatch.setattr(betti, "_signed_counts",
                        lambda *args: calls.append(args) or decode(*args))
    return calls


def both_references(ideal, table):
    """The discrepancy by 2^q generator subsets and by the Mobius transform
    of the membership table, which must agree with each other."""
    subsets = brute_force.euler_discrepancy(ideal, table)
    assert brute_force.mobius_euler_discrepancy(ideal, table) == subsets
    return subsets


class TestEulerLanes:
    """The zeta-direction check on byte lanes against both references:
    lanes of one, two and three bytes, signs on either side, and entries
    outside the lcm of the generators."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 6), st.data())
    def test_lanes_against_shifts(self, width, s, data):
        # one-byte lanes are written byte by byte, wider ones as slices
        values = data.draw(st.dictionaries(st.integers(0, (1 << s) - 1),
                                           st.integers(1, (1 << 8 * width) - 1)))
        assert betti._lanes(values, width, s) == sum(
            value << 8 * width * c for c, value in values.items())

    @pytest.mark.parametrize("texts", [
        ("x1*x2", "x2*x3", "y1*x3"),  # lcm on bits 0..3: masks are cells
        ("x2*y1", "y2*y3", "x2*y3")])  # lcm on bits 1, 3, 4, 5: renumbered
    def test_lcm_on_low_bits_or_not(self, texts):
        n = 3
        ideal = minimalize([parse_monomial(t, n) for t in texts], n)
        table = betti_table(ideal)
        assert euler_discrepancy(ideal, table) == both_references(ideal, table) == {}
        key = max(table.fine)
        table.fine[key] += 2
        assert euler_discrepancy(ideal, table) == both_references(ideal, table) \
            == {key[1]: 2 * (-1) ** key[0]}

    @pytest.mark.parametrize("delta, width", [
        (200, 1), (300, 2), (-300, 2), (65_000, 2), (70_000, 3), (-70_000, 3)])
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_wide_perturbations(self, monkeypatch, i, delta, width):
        ideal = degree_3_ideals()[200]
        table = betti_table(ideal)
        b = max(b for _, b in table.fine)
        table.fine[(i, b)] = table.fine.get((i, b), 0) + delta
        before = dict(table.fine)
        widths = lane_widths(monkeypatch)
        out = euler_discrepancy(ideal, table)
        assert out == both_references(ideal, table) == {b: (-1) ** i * delta}
        assert list(out.items()) == list(
            brute_force.mobius_euler_discrepancy(ideal, table).items())
        assert widths == [width] * 3
        assert table.fine == before and list(table.fine) == list(before)

    @settings(max_examples=100, deadline=None)
    @given(polarized_ideals(), st.data())
    def test_signed_perturbations(self, ideal, data):
        table = betti_table(ideal)
        closure = list(brute_force.lcm_levels(masks_of(ideal)))
        top = ideal.lcm_of_gens().mask
        for _ in range(data.draw(st.integers(1, 4))):
            i = data.draw(st.integers(0, 2 * ideal.n))
            b = data.draw(st.one_of(st.sampled_from(closure),
                                    st.integers(0, top), st.integers(0, (1 << 2 * ideal.n) - 1)))
            delta = data.draw(st.sampled_from([-70_000, -300, -2, -1, 1, 2, 300, 70_000]))
            table.fine[(i, b)] = table.fine.get((i, b), 0) + delta
        before = dict(table.fine)
        out = euler_discrepancy(ideal, table)
        assert out == both_references(ideal, table)
        assert list(out.items()) == list(
            brute_force.mobius_euler_discrepancy(ideal, table).items())
        assert table.fine == before and list(table.fine) == list(before)

    def test_only_a_mismatch_decodes(self, monkeypatch):
        # the decode alone gives the right dict, so a wrong lane transform
        # would show only as a decode on a correct table
        decoded = decode_calls(monkeypatch)
        for ideal in degree_3_ideals():
            assert euler_discrepancy(ideal, betti_table(ideal)) == {}
        for n in range(1, 6):
            ideal = degree_n_ideal((1 << (1 << n)) - 1, n).inner
            assert euler_discrepancy(ideal, betti_table(ideal)) == {}
        assert decoded == []
        ideal = degree_3_ideals()[200]
        table = betti_table(ideal)
        table.fine[max(table.fine)] += 1
        assert euler_discrepancy(ideal, table)
        assert len(decoded) == 1

    def test_entries_outside_the_lcm(self):
        n = 3
        ideal = minimalize([parse_monomial("x1*x2", n), parse_monomial("y1*x2", n)], n)
        table = betti_table(ideal)
        outside = parse_monomial("x2*y3", n).mask
        # an outside entry that cancels across i is no discrepancy
        table.fine[(0, outside)] = 5
        table.fine[(1, outside)] = 5
        assert euler_discrepancy(ideal, table) == both_references(ideal, table) == {}
        table.fine[(2, outside)] = 300
        assert euler_discrepancy(ideal, table) == both_references(ideal, table) \
            == {outside: 300}

    def test_two_byte_lanes_on_a_correct_table(self, monkeypatch):
        # all 64 degree-6 generators: the positive part of the alternating
        # sums adds up to 365, and a correct table must still pass
        ideal = degree_n_ideal((1 << 64) - 1, 6).inner
        table = betti_table(ideal)
        widths = lane_widths(monkeypatch)
        decoded = decode_calls(monkeypatch)
        assert euler_discrepancy(ideal, table) == {}
        assert widths == [2] * 3 and decoded == []
        key = max(table.fine)
        table.fine[key] += 1
        assert euler_discrepancy(ideal, table) == brute_force.mobius_euler_discrepancy(
            ideal, table) == {key[1]: (-1) ** key[0]}

    def test_zero_and_unit_ideals(self):
        for gens in ([], [Monomial(0, 2)]):
            ideal = minimalize(gens, 2)
            table = BettiTable(2)
            assert euler_discrepancy(ideal, table) == \
                brute_force.mobius_euler_discrepancy(ideal, table)
            table.fine[(0, 0)] = 1
            assert euler_discrepancy(ideal, table) == \
                brute_force.mobius_euler_discrepancy(ideal, table)


class TestCompress:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, (1 << 20) - 1), st.integers(0, (1 << 12) - 1), st.booleans())
    def test_against_the_bit_loop(self, mask, chosen, low):
        # positions 0..len-1 take the shortcut, any others the bit loop
        positions = tuple(range(chosen.bit_count())) if low else \
            tuple(p for p in range(12) if chosen >> p & 1)
        assert _compress(mask, positions) == brute_force.compress(mask, positions)


class TestRestrictAgainstMinimalize:
    """`restrict` keeps the generators dividing m as they stand; the
    reference reduces them again with `minimalize`."""

    def test_every_degree_3_ideal_and_its_lcm_closure(self):
        pairs = 0
        for ideal in degree_3_ideals():
            for m in lcm_closure(ideal):
                assert restrict(ideal, m) == brute_force.restrict(ideal, m)
                pairs += 1
        assert pairs > 255

    @settings(max_examples=150, deadline=None)
    @given(polarized_ideals(), st.data())
    def test_mixed_degree_ideals(self, ideal, data):
        anywhere = Monomial(data.draw(st.integers(0, (1 << 2 * ideal.n) - 1)), ideal.n)
        for m in lcm_closure(ideal) + [anywhere]:
            assert restrict(ideal, m) == brute_force.restrict(ideal, m)


class TestUpperKoszulOutsideSupport:
    def test_variable_outside_the_support_is_a_cone_point(self):
        n = 3
        ideal = minimalize([parse_monomial("x1*x2", n), parse_monomial("y1*x2", n)], n)
        b = parse_monomial("x1*y1*x2*y3", n)  # y3 divides no generator
        K = upper_koszul(ideal, b)
        assert K == brute_force.upper_koszul(ideal, b)
        y3 = 1 << (n + 2)
        assert all(face | y3 in K.faces for face in K.faces)

    def test_void_when_b_outside_ideal_with_outside_variable(self):
        n = 3
        ideal = minimalize([parse_monomial("x1*x2", n)], n)
        b = parse_monomial("x1*x3", n)
        assert upper_koszul(ideal, b).is_void
        assert brute_force.upper_koszul(ideal, b).is_void
