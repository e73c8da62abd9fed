"""The Betti oracle: upper Koszul complexes, tables, pd/reg, closed forms."""

import gc
import json
import random
import time
import tracemalloc

import brute_force
import pytest

from neuralideals.betti import (
    BettiTable,
    LcmDegreeError,
    NotDominantError,
    betti_table,
    dominant_check,
    dominant_invariants,
    euler_discrepancy,
    has_linear_resolution,
    invariants,
    reg_upper_bound_lcm,
    upper_koszul,
)
from neuralideals.cli import json_text
from neuralideals.homology import FieldTag
from neuralideals.monomials import (
    Monomial,
    UnitOrZeroIdealError,
    degree_n_ideal,
    minimalize,
    parse_monomial,
    restrict,
    lcm_closure,
    truth_table,
)
from neuralideals.structure import family_prop32, family_prop33, family_thm36


def m(text, n):
    return parse_monomial(text, n)


def ideal(n, *texts):
    return minimalize([m(t, n) for t in texts], n)


class TestUpperKoszul:
    def test_principal_generator_gives_irrelevant(self):
        K = upper_koszul(ideal(1, "x1"), m("x1", 1))
        assert brute_force.is_irrelevant(K)

    def test_koszul_syzygy_two_vertices(self):
        K = upper_koszul(ideal(1, "x1", "y1"), m("x1*y1", 1))
        assert K.vertices == 0b11
        assert K.faces == frozenset({0, 0b01, 0b10})

    def test_void_when_outside_ideal(self):
        assert upper_koszul(ideal(2, "x1*y2"), m("x1", 2)).is_void

    def test_rejects_unit_and_zero(self):
        with pytest.raises(UnitOrZeroIdealError):
            upper_koszul(minimalize([], 1), m("x1", 1))
        with pytest.raises(UnitOrZeroIdealError):
            upper_koszul(ideal(1, "1"), m("x1", 1))


class TestBettiTable:
    def test_koszul_pair(self):
        t = betti_table(ideal(1, "x1", "y1"))
        assert t.coarse == {(0, 1): 2, (1, 2): 1}
        assert (t.pd, t.reg) == (1, 1)

    def test_two_generator_taylor(self):
        t = betti_table(ideal(2, "x1*y2", "y1*x2"))
        assert t.coarse == {(0, 2): 2, (1, 4): 1}
        assert (t.pd, t.reg) == (1, 3)

    def test_product_pairs_pd(self):
        assert invariants(family_thm36(2, 2).inner) == (2, 2)

    def test_beta0_recovers_mingens(self):
        I = ideal(3, "x1*y2", "y1*x2", "x3")
        t = betti_table(I)
        zero_row = {b: r for (i, b), r in t.fine.items() if i == 0}
        assert zero_row == {g.mask: 1 for g in I.gens}

    def test_fine_supported_on_lcm_closure(self):
        I = ideal(3, "x1*x2", "y1*x2", "x1*y3")
        closure = {c.mask for c in lcm_closure(I)}
        t = betti_table(I)
        assert {b for _, b in t.fine} <= closure

    def test_json_schema_fields(self):
        d = json.loads(json_text(betti_table(ideal(1, "x1", "y1"))._json_payload()))
        assert list(d) == ["fine", "coarse", "pd", "reg"]
        assert d["fine"][0] == {"i": 0, "b": "x1", "rank": 1}


class TestPdAndRegAreFields:
    """pd and reg are set once, from coarse, when a table is built."""

    @pytest.mark.parametrize("field", list(FieldTag))
    def test_maxima_over_coarse(self, field):
        # every table with n <= 3, and sampled ones with n = 4 and 5
        rng = random.Random(34)
        ideals = [degree_n_ideal(subset, n).inner
                  for n in (1, 2, 3) for subset in range(1, 1 << (1 << n))]
        ideals += [degree_n_ideal(rng.randrange(1, 1 << (1 << n)), n).inner
                   for n, count in ((4, 200), (5, 40)) for _ in range(count)]
        for I in ideals:
            t = betti_table(I, field)
            assert vars(t)["pd"] == max(i for i, _ in t.coarse)
            assert vars(t)["reg"] == max(j - i for i, j in t.coarse)

    def test_coarse_only_table(self):
        # the form of the verify tests' planted faults
        t = BettiTable(4, coarse={(9, 10): 1})
        assert (t.fine, t.pd, t.reg) == ({}, 9, 1)

    def test_empty_table(self):
        assert (BettiTable(2).pd, BettiTable(2).reg) == (None, None)

    def test_no_property_computes_them(self):
        assert not {"pd", "reg"} & vars(BettiTable).keys()


def three_generators(n):
    """x1*...*xn, x1*y2*...*yn and y1*...*yn: their lcm has degree 2n."""
    full = (1 << n) - 1
    return minimalize([Monomial(full, n), Monomial(1 | (full ^ 1) << n, n),
                       Monomial(full << n, n)], n)


class TestLcmDegreeLimit:
    def test_three_generators_past_the_limit_refused(self):
        big = three_generators(13)
        with pytest.raises(LcmDegreeError, match="degree 26"):
            betti_table(big)
        with pytest.raises(LcmDegreeError):
            upper_koszul(big, big.lcm_of_gens())

    def test_two_generators_never_build_the_table(self):
        pair = minimalize([Monomial((1 << 16) - 1, 16), Monomial(((1 << 16) - 1) << 16, 16)], 16)
        assert invariants(pair) == (1, 31)

    def test_euler_check_past_the_limit_refused_for_two_generators(self):
        pair = minimalize([Monomial((1 << 13) - 1, 13), Monomial(((1 << 13) - 1) << 13, 13)], 13)
        with pytest.raises(LcmDegreeError, match="degree 26"):
            euler_discrepancy(pair, betti_table(pair))

    def test_below_the_limit_computed(self):
        assert invariants(three_generators(8)) == (1, 14)

    def test_truth_tables_past_the_limit_refused(self):
        with pytest.raises(LcmDegreeError, match="25 neurons"):
            degree_n_ideal(1, 25)
        with pytest.raises(LcmDegreeError, match="25 neurons"):
            truth_table(minimalize([Monomial((1 << 25) - 1, 25)], 25))
        assert truth_table(minimalize([Monomial((1 << 24) - 1, 24)], 24)) == 1
        assert degree_n_ideal(1, 24).inner.gens == (Monomial((1 << 24) - 1, 24),)


class TestTablesFreedWithTheirIdeal:
    def test_memory_comes_back(self):
        # s = 20: the check builds 2^20-cell tables and keeps none of them
        n, full, low = 10, (1 << 10) - 1, (1 << 5) - 1
        ideal = minimalize([Monomial(full, n), Monomial(full << n, n),
                            Monomial(low | (full ^ low) << n, n)], n)
        assert ideal.lcm_of_gens().degree == 20
        table = betti_table(ideal)
        gc.collect()
        tracemalloc.start()
        try:
            assert euler_discrepancy(ideal, table) == {}
            gc.collect()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak >= 2**20 and held < 2**19

    def test_the_ideal_caches_nothing(self):
        ideal = three_generators(5)
        assert euler_discrepancy(ideal, betti_table(ideal)) == {}
        assert set(vars(ideal)) == {"n", "gens"}


class TestEulerCheckAtLargeLcmDegree:
    """s = 20 and s = 22: the check makes s passes over 2^s byte lanes,
    and a failing check evaluates only the lcm closure, not all 2^s
    cells.  The Mobius loop in `brute_force`, a Python step per cell
    and bit, takes seconds at s = 22."""

    @pytest.mark.parametrize("n", [10, 11])
    def test_correct_table_passes(self, n):
        ideal = three_generators(n)
        table = betti_table(ideal)
        start = time.perf_counter()
        assert euler_discrepancy(ideal, table) == {}
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize("n", [10, 11])
    def test_corrupted_top_entry_found(self, n):
        ideal = three_generators(n)
        table = betti_table(ideal)
        top = ideal.lcm_of_gens().mask
        assert all(b != top for _, b in table.fine)  # beta vanishes at the lcm
        table.fine[(1, top)] = 1
        start = time.perf_counter()
        assert euler_discrepancy(ideal, table) == {top: -1}
        assert time.perf_counter() - start < 3


class TestInvariants:
    def test_simple_pair(self):
        assert invariants(ideal(1, "x1", "y1")) == (1, 1)

    def test_regularity_family_small(self):
        assert invariants(family_prop33(2, 1).inner)[1] == 2

    def test_pd_family_small(self):
        assert invariants(family_prop32(3, 2).inner)[0] == 1

    def test_fields_agree_on_examples(self):
        for I in [ideal(2, "x1*y2", "y1*x2"), family_thm36(3, 3).inner]:
            assert invariants(I, FieldTag.F2) == invariants(I, FieldTag.RATIONALS)


class TestLinearResolution:
    def test_scaled_pair_is_linear(self):
        assert has_linear_resolution(ideal(2, "x1*x2", "y1*x2"))

    def test_crossing_pair_is_not(self):
        assert not has_linear_resolution(ideal(2, "x1*y2", "y1*x2"))

    def test_principal_is_linear(self):
        assert has_linear_resolution(ideal(1, "x1"))

    def test_non_equigenerated_warns_false(self):
        with pytest.warns(UserWarning):
            assert not has_linear_resolution(ideal(2, "x1", "y1*x2"))


class TestRegUpperBound:
    def test_examples(self):
        assert reg_upper_bound_lcm(ideal(1, "x1", "y1")) == 1
        assert reg_upper_bound_lcm(ideal(2, "x1*y2", "y1*x2")) == 3
        assert reg_upper_bound_lcm(ideal(3, "x1*x2*x3")) == 3

    def test_bounds_regularity(self):
        rng = random.Random(3)
        for _ in range(25):
            I = degree_n_ideal(rng.randrange(1, 1 << 8), 3).inner
            assert invariants(I)[1] <= reg_upper_bound_lcm(I)


class TestDominant:
    def test_prop32_family_witness(self):
        witness = dominant_check(family_prop32(3, 3).inner)
        assert witness is not None
        assert sorted(witness.values()) == [0, 1, 2]  # x1, x2, x3 private

    def test_shared_variables_not_dominant(self):
        assert dominant_check(ideal(2, "x1*x2", "x1*y2", "y1*x2")) is None

    def test_principal_dominant(self):
        assert dominant_check(ideal(2, "x1*x2")) is not None

    def test_closed_form_matches_oracle(self):
        for I in [family_prop32(3, 3).inner, ideal(2, "x1*x2"),
                  ideal(2, "x1*y2", "y1*x2"), ideal(3, "x1", "y2", "x3")]:
            assert dominant_invariants(I) == invariants(I)

    def test_not_dominant_raises(self):
        with pytest.raises(NotDominantError):
            dominant_invariants(ideal(2, "x1*x2", "x1*y2", "y1*x2"))


class TestEulerIdentity:
    def test_exhaustive_n2(self):
        for subset in range(1, 1 << 4):
            I = degree_n_ideal(subset, 2).inner
            assert euler_discrepancy(I, betti_table(I)) == {}

    def test_mixed_degree_sample(self):
        rng = random.Random(9)
        for _ in range(25):
            gens = [Monomial(rng.randrange(1, 1 << 6), 3) for _ in range(rng.randint(1, 5))]
            I = minimalize(gens, 3)
            if not I.is_proper_nonzero:
                continue
            assert euler_discrepancy(I, betti_table(I)) == {}


class TestRestrictionLemmas:
    def test_linear_resolution_passes_to_restrictions(self):
        I = family_thm36(3, 3).inner
        assert has_linear_resolution(I)
        for mono in lcm_closure(I):
            sub = restrict(I, mono)
            if sub.is_proper_nonzero:
                assert has_linear_resolution(sub)
