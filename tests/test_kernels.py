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
for at most three facets must give the homology of the whole complex.
"""

from functools import reduce
from operator import and_, or_

import brute_force
import pytest
import test_homology
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neuralideals import homology
from neuralideals import betti
from neuralideals.codes import NeuralCode, code_to_polarized_ideal
from neuralideals.betti import (
    BettiTable,
    betti_table,
    euler_discrepancy,
    reg_upper_bound_lcm,
    upper_koszul,
)
from neuralideals.homology import (
    FieldTag,
    SimplicialComplex,
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
    _lcm_levels,
    _subcube_closure,
    degree_n_ideal,
    lcm_closure,
    minimalize,
    parse_monomial,
    restrict,
    truth_table,
)
from neuralideals.structure import (
    JNotLinearError,
    _halves,
    _linearly_related,
    _most_even_bit,
    betti_splitting_predict,
    family_thm36,
    linear_quotients_search,
    recursive_linear_check,
    split_at_neuron,
)
from neuralideals.verify import sample_degree_n_subsets


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
    def test_every_degree_3_ideal(self, field):
        for ideal in degree_3_ideals():
            assert betti_table(ideal, field) == brute_force.betti_table(ideal, field)

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
        assert _lcm_levels(ideal)[b.mask] == 2
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

    @pytest.mark.parametrize("rows, rank", [
        ([[2, 3], [3, 2]], 2),
        ([[2, 3, 0], [0, 2, 3], [2, 5, 3]], 2),
        ([[3, 2, 0], [0, 3, 2], [2, 0, 3]], 3),
        ([[0, 0], [2, 3], [0, 0], [-4, -6]], 1),
    ])
    def test_only_non_unit_pivots(self, rows, rank):
        assert rank_rational(sparse(rows)) == brute_force.rank_rational(rows) == rank

    def test_every_degree_3_boundary_matrix(self, monkeypatch):
        # homology hands `rank_rational` only the maps between two nonzero
        # F2 groups, so every boundary map of every K^b in the degree-3
        # tables is ranked here directly
        ranks = []

        def checked(rows):
            ncols = 1 + max((c for r in rows for c in r), default=0)
            dense = [[r.get(c, 0) for c in range(ncols)] for r in rows]
            rank = rank_rational(rows)
            assert rank == brute_force.rank_rational(dense)
            ranks.append(rank)
            return rank

        monkeypatch.setattr(homology, "rank_rational", checked)
        for ideal in degree_3_ideals():
            for b in lcm_closure(ideal):
                by_size: dict[int, list[int]] = {}
                for face in upper_koszul(ideal, b).faces:
                    by_size.setdefault(face.bit_count(), []).append(face)
                index = {f: i for same in by_size.values() for i, f in enumerate(same)}
                for size, upper in by_size.items():
                    if size:
                        homology._boundary_rank(upper, index, FieldTag.RATIONALS)
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
    the generators are linearly related."""

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
        closure = list(_lcm_levels(ideal))
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
