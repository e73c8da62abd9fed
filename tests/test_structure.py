"""Splittings, linear-quotient search, the recursive linearity test, families."""

import random
import time

import brute_force
import pytest
from brute_force import drop_neuron

from neuralideals import structure
from neuralideals.betti import betti_table, has_linear_resolution, invariants
from neuralideals.monomials import (
    PolarizedNeuralIdeal,
    _cube_points,
    degree_n_ideal,
    intersect,
    minimalize,
    parse_monomial,
    scale,
    validate_polarized_neural,
)
from neuralideals.structure import (
    FamilyParameterError,
    JNotLinearError,
    NotEquigeneratedDegreeNError,
    NotSplittableError,
    _restriction_witness,
    betti_splitting_predict,
    family_prop32,
    family_prop33,
    family_prop34_pd,
    family_prop34_reg,
    family_thm36,
    linear_quotients_search,
    recursive_linear_check,
    split_at_neuron,
)
from neuralideals.verify import random_polarized_ideal, sample_degree_n_subsets


def m(text, n):
    return parse_monomial(text, n)


def ideal(n, *texts):
    return minimalize([m(t, n) for t in texts], n)


def polarized(n, *texts):
    return validate_polarized_neural(ideal(n, *texts))


class TestSplitAtNeuron:
    def test_read_off_divisibility(self):
        split = split_at_neuron(polarized(2, "x1*x2", "y1*x2", "x1*y2"), 2)
        assert split.J == ideal(2, "x1", "y1")
        assert split.K == ideal(2, "x1")

    def test_diagonal(self):
        split = split_at_neuron(polarized(2, "x1*x2", "y1*y2"), 2)
        assert split.J == ideal(2, "x1")
        assert split.K == ideal(2, "y1")

    def test_not_splittable(self):
        with pytest.raises(NotSplittableError) as exc:
            split_at_neuron(polarized(2, "x1*x2", "y1"), 2)
        assert exc.value.neuron == 2

    def test_reconstruction(self):
        rng = random.Random(2)
        for _ in range(30):
            P = degree_n_ideal(rng.randrange(1, 1 << 8), 3)
            for i in (1, 2, 3):
                split = split_at_neuron(P, i)
                x, y = brute_force.x_var(i, 3), brute_force.y_var(i, 3)
                rebuilt = minimalize(
                    scale(x, split.J).gens + scale(y, split.K).gens, 3)
                assert rebuilt == P.inner

    def test_halves_are_minimal(self):
        # J and K are built without `minimalize`: every table for n <= 3,
        # sampled n = 4, 5 tables and pair-free ideals of mixed degrees
        ideals = [degree_n_ideal(s, n) for n in (1, 2, 3) for s in range(1, 1 << (1 << n))]
        ideals += [degree_n_ideal(s, n) for n in (4, 5)
                   for s in sample_degree_n_subsets(n, 100, seed=n)]
        rng = random.Random(9)
        ideals += [validate_polarized_neural(random_polarized_ideal(rng, 4, max_gens=8))
                   for _ in range(300)]
        for P in ideals:
            n = P.inner.n
            for i in range(1, n + 1):
                try:
                    split = split_at_neuron(P, i)
                except NotSplittableError:
                    continue
                assert split.J == minimalize(split.J.gens, n)
                assert split.K == minimalize(split.K.gens, n)

    def test_drop_neuron_renumbers(self):
        J = ideal(3, "x1", "y1")  # no pair-2, pair-3 bits
        assert drop_neuron(drop_neuron(J, 3), 2) == ideal(1, "x1", "y1")


class TestBettiSplittingPredict:
    def test_product_pair_pd(self):
        P = family_thm36(2, 2)
        split = split_at_neuron(P, 2)
        pred = betti_splitting_predict(P.inner, split)
        assert pred.pd == 2

    def test_mixed_triple_reg(self):
        P = polarized(2, "x1*x2", "y1*x2", "x1*y2")
        pred = betti_splitting_predict(P.inner, split_at_neuron(P, 2))
        assert pred.reg == 2
        assert (pred.pd, pred.reg) == invariants(P.inner)

    def test_diagonal_reg(self):
        P = polarized(2, "x1*x2", "y1*y2")
        pred = betti_splitting_predict(P.inner, split_at_neuron(P, 2))
        assert pred.reg == 3
        assert (pred.pd, pred.reg) == invariants(P.inner)

    def test_termwise_identity(self):
        P = polarized(3, "x1*x2*x3", "x1*y2*x3", "y1*y2*y3")
        split = split_at_neuron(P, 3)
        pred = betti_splitting_predict(P.inner, split)
        assert pred.fine == betti_table(P.inner).fine

    def test_refuses_nonlinear_j(self):
        # J = (x1*y2, y1*x2) has no linear resolution
        P = polarized(3, "x1*y2*x3", "y1*x2*x3", "x1*x2*y3")
        with pytest.raises(JNotLinearError):
            betti_splitting_predict(P.inner, split_at_neuron(P, 3))


class TestSplittingWithoutTheHypothesis:
    """beta_{i,b}(I) = beta_{i,b}(x_iJ) + beta_{i,b}(y_iK)
    + beta_{i-1,b}(x_iJ ∩ y_iK) at every pivot of a degree-n ideal, also
    where J has no linear resolution and `betti_splitting_predict`
    refuses: the three lifted tables live on disjoint multidegrees."""

    @staticmethod
    def assert_identity(ideals, n):
        refused = 0
        for P in ideals:
            table = betti_table(P.inner)
            for pivot in range(1, n + 1):
                split = split_at_neuron(P, pivot)
                J, K = split.J, split.K
                x, y = 1 << (pivot - 1), 1 << (n + pivot - 1)
                parts = [(0, J, x), (0, K, y)]
                if J.is_proper_nonzero and K.is_proper_nonzero:
                    parts.append((1, intersect(J, K), x | y))
                    if not has_linear_resolution(J):
                        refused += 1
                        with pytest.raises(JNotLinearError):
                            betti_splitting_predict(P.inner, split)
                fine = {}
                for shift, part, lift in parts:
                    if part.is_proper_nonzero:
                        for (i, b), r in betti_table(part).fine.items():
                            assert (i + shift, b | lift) not in fine
                            fine[i + shift, b | lift] = r
                assert fine == table.fine
        assert refused

    def test_every_degree_3_table_and_pivot(self):
        self.assert_identity([degree_n_ideal(t, 3) for t in range(1, 256)], 3)

    def test_random_degree_4_tables(self):
        rng = random.Random(4)
        self.assert_identity([degree_n_ideal(rng.randrange(1, 1 << 16), 4)
                              for _ in range(300)], 4)


class TestLinearQuotients:
    def test_scaled_pair(self):
        order = linear_quotients_search(ideal(2, "x1*x2", "y1*x2"))
        assert order == (m("x1*x2", 2), m("y1*x2", 2))

    def test_crossing_pair_has_none(self):
        assert linear_quotients_search(ideal(2, "x1*y2", "y1*x2")) is None

    def test_principal(self):
        assert linear_quotients_search(ideal(3, "x1*y2*x3")) == (m("x1*y2*x3", 3),)

    def test_order_is_valid_colon_chain(self):
        I = family_thm36(3, 3).inner
        order = linear_quotients_search(I)
        assert order is not None and set(order) == set(I.gens)
        for k in range(1, len(order)):
            prefix = minimalize(order[:k], 3)
            step = brute_force.colon(prefix, order[k])
            assert all(g.degree == 1 for g in step.gens)

    def test_lq_implies_lr_when_equigenerated(self):
        rng = random.Random(4)
        for _ in range(40):
            I = degree_n_ideal(rng.randrange(1, 1 << 8), 3).inner
            if linear_quotients_search(I) is not None:
                assert has_linear_resolution(I)


class TestRecursiveLinearCheck:
    def test_examples(self):
        assert recursive_linear_check(polarized(2, "x1*x2", "y1*x2", "x1*y2"))
        assert not recursive_linear_check(polarized(2, "x1*x2", "y1*y2"))
        assert recursive_linear_check(polarized(3, "x1*y2*x3"))

    def test_guard(self):
        with pytest.raises(NotEquigeneratedDegreeNError):
            recursive_linear_check(polarized(2, "x1"))

    def test_unvalidated_pair_is_not_splittable(self):
        # x1*y1 has degree n = 2 but misses neuron 2; only an unvalidated
        # wrapper can carry it past pair exclusion
        with pytest.raises(NotSplittableError) as exc:
            recursive_linear_check(PolarizedNeuralIdeal(ideal(2, "x1*y1")))
        assert exc.value.neuron == 2

    def test_pivot_rules_agree_exhaustively_n3(self):
        for subset in range(1, 1 << 8):
            P = degree_n_ideal(subset, 3)
            assert recursive_linear_check(P, "last") == recursive_linear_check(P, "smallest")

    def test_matches_oracle_exhaustively_n2(self):
        for subset in range(1, 1 << 4):
            P = degree_n_ideal(subset, 2)
            assert recursive_linear_check(P) == has_linear_resolution(P.inner)

    def test_branches_without_containment_can_be_linear(self):
        # J = (x1x2, x1y2) and K = (x1x2, x2y1) share only x1x2, neither
        # contains the other, yet their lcms all lie over x1x2 and the
        # ideal is linear (the oracle and the quotient search agree)
        P = polarized(3, "x1*x2*x3", "x1*x3*y2", "x1*x2*y3", "x2*y1*y3")
        assert recursive_linear_check(P)
        assert has_linear_resolution(P.inner)
        assert linear_quotients_search(P.inner) is not None


def dense_degree_5_ideal():
    """All 32 degree-5 generators but x2*x3*x4*x5*y1 and x1*x3*x4*x5*y2.

    x1*x2*x3*x4*x5 and x3*x4*x5*y1*y2 differ in four variables, and the
    only generators between them with one variable changed per step are
    the two removed ones, so the ideal is not linearly related.
    """
    removed = {m("x2*x3*x4*x5*y1", 5), m("x1*x3*x4*x5*y2", 5)}
    return validate_polarized_neural(
        minimalize([g for g in degree_n_ideal((1 << 32) - 1, 5).inner.gens
                    if g not in removed], 5))


class TestDenseTail:
    def test_refused_without_the_peel(self):
        I = dense_degree_5_ideal().inner
        assert len(I.gens) == 30
        start = time.perf_counter()
        assert linear_quotients_search(I) is None
        assert time.perf_counter() - start < 2.0

    # dense degree-5 ideals (q = 27, 28, 31) that pass the linearly-related
    # refusal and have linear quotients
    @pytest.mark.parametrize("table", [0xffefff4d, 0xf7ff37ff, 0xfbffffff])
    def test_passing_the_refusal(self, table):
        I = degree_n_ideal(table, 5).inner
        start = time.perf_counter()
        order = linear_quotients_search(I)
        assert time.perf_counter() - start < 2.0
        assert order is not None
        assert order == brute_force.linear_quotients_search(I)

    def test_not_linear(self):
        P = dense_degree_5_ideal()
        assert not recursive_linear_check(P)
        assert not has_linear_resolution(P.inner)
        assert betti_table(P.inner).reg == 6


class TestTransversalStop:
    """The search on transversal ideals stops at its first dead end for
    |V| <= 4, and refuses wider ones by a 4-dim restriction witness."""

    def test_prefix_certificate_on_every_degree_4_table(self):
        # a set of points has an order iff some admissible walk from the
        # empty set reaches it, whatever table it sits in; so the prefix
        # sets reachable in a table T are the ordered sets inside T, and
        # one is dead when no point of T outside it is admissible after it
        masks = [p << 4 | 15 & ~p for p in range(16)]
        after = {}
        ordered = bytearray(1 << 16)
        ordered[0] = 1
        for placed in range(1 << 16):
            if ordered[placed]:
                prefix = [masks[p] for p in range(16) if placed >> p & 1]
                nxt = [c for c in range(16) if not placed >> c & 1
                       and brute_force._step_admissible(prefix, masks[c])]
                after[placed] = sum(1 << c for c in nxt)
                for c in nxt:
                    ordered[placed | 1 << c] = 1
        tables = [t for t in after if t]
        prefixes = dead = 0
        for placed, admissible in after.items():
            around = [t for t in tables if t & placed == placed]
            prefixes += len(around)
            dead += sum(t != placed and not t & admissible for t in around)
        assert (len(tables), prefixes, dead) == (5529, 1073426, 0)

    def test_found_orders_match_the_unstopped_search(self, monkeypatch):
        ideals = [degree_n_ideal(t, n).inner for n in (1, 2, 3, 4) for t in range(1, 1 << (1 << n))]
        stopped = [linear_quotients_search(I) for I in ideals]
        monkeypatch.setattr(structure, "_restriction_witness", lambda ideal, positions: None)
        assert stopped == [linear_quotients_search(I) for I in ideals]
        assert sum(order is not None for order in stopped[-65535:]) == 5529

    @staticmethod
    def spied(monkeypatch):
        calls = []

        def spy(ideal, positions):
            calls.append(_restriction_witness(ideal, positions))
            return calls[-1]

        monkeypatch.setattr(structure, "_restriction_witness", spy)
        return calls

    def test_a_narrow_table_stops_at_its_first_dead_end(self, monkeypatch):
        calls = self.spied(monkeypatch)
        I = degree_n_ideal(0x7ffe, 4).inner
        assert linear_quotients_search(I) is None
        assert calls == [I]  # one dead end, and the table is its own witness

    def test_without_a_witness_the_search_backtracks(self, monkeypatch):
        # 00000 and 11111 removed: every 4-dim subcube holds an ordered
        # set, so the first dead end, reached with a nonempty prefix, gives
        # no witness, and None comes from backtracking that prefix away
        calls = self.spied(monkeypatch)
        assert linear_quotients_search(degree_n_ideal(0x7ffffffe, 5).inner) is None
        assert calls == [None]

    # ROADMAP item 1's three q = 30 tables, and the one table of the n = 5
    # bench pool that passes the linearly-related refusal without an order
    @pytest.mark.parametrize("table", [0xfffff7bf, 0xdffff7ff, 0x7fffffbf, 0x80bd8daf])
    def test_refused_by_a_restriction_witness(self, table):
        I = degree_n_ideal(table, 5).inner
        start = time.perf_counter()
        assert linear_quotients_search(I) is None
        assert time.perf_counter() - start < 2.0
        positions, _ = _cube_points([g.mask for g in I.gens], 5)
        witness = _restriction_witness(I, positions)
        assert witness == brute_force.restrict(I, witness.lcm_of_gens())
        assert len(_cube_points([g.mask for g in witness.gens], 5)[0]) <= 4
        assert brute_force.linear_quotients_search(witness) is None


class TestFamilies:
    def test_prop32_generators(self):
        assert family_prop32(3, 2).inner == ideal(3, "x1*y2*y3", "x2*y1*y3")

    def test_prop33_generators(self):
        assert family_prop33(3, 1).inner == ideal(3, "x1*x2*x3", "y1*x2*x3")

    def test_prop34_pd_generators(self):
        assert family_prop34_pd(2, 2).inner == ideal(2, "x1", "x2", "y1")

    def test_prop34_reg_small_degree(self):
        assert family_prop34_reg(3, 2).inner == ideal(3, "x1*x2")

    def test_prop34_reg_large_degree_value(self):
        # no pair-excluding monomial has degree above n, so the large
        # range is covered by the two-generator regularity family
        assert invariants(family_prop34_reg(3, 5).inner)[1] == 5

    def test_thm36_expansion(self):
        assert family_thm36(2, 2).inner == ideal(2, "x1*x2", "x1*y2", "y1*x2", "y1*y2")

    def test_thm36_against_minimalize(self):
        for n in range(1, 6):
            for k in range(1, n + 1):
                assert family_thm36(n, k) == brute_force.family_thm36(n, k)

    def test_thm36_at_the_generator_cap(self):
        gens = family_thm36(16, 16).inner.gens
        assert len(gens) == 1 << 16
        assert list(gens) == sorted(set(gens), key=lambda g: g.sort_key())

    def test_thm36_above_the_generator_cap(self):
        with pytest.raises(FamilyParameterError, match="2\\^17"):
            family_thm36(17, 17)

    def test_expected_invariants_small(self):
        assert invariants(family_prop32(3, 2).inner)[0] == 1
        assert invariants(family_prop33(3, 2).inner)[1] == 4
        assert invariants(family_prop34_pd(2, 3).inner)[0] == 3
        assert invariants(family_thm36(3, 3).inner) == (3, 3)

    def test_out_of_range(self):
        with pytest.raises(FamilyParameterError):
            family_prop32(3, 4)
        with pytest.raises(FamilyParameterError):
            family_prop34_pd(2, 4)
        with pytest.raises(FamilyParameterError):
            family_prop34_reg(2, 0)
        with pytest.raises(FamilyParameterError):
            family_thm36(3, 0)
