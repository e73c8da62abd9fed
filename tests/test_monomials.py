"""Core monomial/ideal arithmetic, checked against brute-force membership."""

import random
import tracemalloc

import brute_force
import pytest
from brute_force import colon, contains, monomial_text
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neuralideals.monomials import (
    Monomial,
    _minimal_masks,
    MonomialParseError,
    NeuronCountError,
    NonSquarefreeProductError,
    PairViolationError,
    ZeroIdealError,
    intersect,
    is_equigenerated,
    lcm_closure,
    mask_text,
    minimalize,
    parse_ideal,
    parse_monomial,
    render_ideal,
    restrict,
    scale,
    validate_polarized_neural,
)


def m(text, n):
    return parse_monomial(text, n)


def ideal(n, *texts):
    return minimalize([m(t, n) for t in texts], n)


class TestMonomialBasics:
    def test_parse_render_roundtrip(self):
        for text in ["1", "x1", "y2", "x1*y2*x3", "x1*x2*y1"]:
            mono = m(text, 3)
            assert parse_monomial(str(mono), 3) == mono

    def test_space_separated(self):
        assert m("x1 y2", 2) == m("x1*y2", 2)

    def test_unit(self):
        one = Monomial.one(3)
        assert one.degree == 0 and str(one) == "1"

    def test_degree_is_popcount(self):
        assert m("x1*y2*x3", 3).degree == 3

    def test_divides_lcm_gcd(self):
        a, b = m("x1*x2", 2), m("x1*y2", 2)
        assert not a.divides(b)
        assert a.lcm(b) == m("x1*x2*y2", 2)
        assert a.mask & b.mask == m("x1", 2).mask  # gcd
        assert m("x1", 2).divides(a)

    def test_product_disjoint_only(self):
        assert m("x1", 2) * m("y2", 2) == m("x1*y2", 2)
        with pytest.raises(NonSquarefreeProductError):
            m("x1", 2) * m("x1*y2", 2)

    def test_neuron_count_cap(self):
        Monomial(0, 32)
        with pytest.raises(NeuronCountError):
            Monomial(0, 33)

    def test_huge_variable_index_refused_before_allocating(self):
        # n is inferred as 99999999999: the bit for x_n would take 12.5 GB
        tracemalloc.start()
        try:
            with pytest.raises(NeuronCountError):
                parse_ideal("x1*x99999999999\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_parse_rejects_bad_tokens(self):
        for bad in ["z1", "x0", "x3", "x1*x1", ""]:
            with pytest.raises(ValueError):
                parse_monomial(bad, 2)


class TestMaskText:
    """`mask_text`, read from per-byte tables, against one `variable_name`
    per set bit."""

    @pytest.mark.parametrize("n", range(1, 33))
    def test_against_reference(self, n):
        width = 2 * n
        masks = {0, 1 << width - 1, (1 << width) - 1, 0x5555555555555555 >> 64 - width}
        masks |= {0b11 << k for k in range(7, width - 1, 8)}  # bits on both sides of a byte edge
        masks |= {0b1111 << k for k in range(5, width - 3, 8)}
        rng = random.Random(n)
        masks |= {rng.getrandbits(width) for _ in range(200)}
        if n <= 4:
            masks |= set(range(1 << width))
        for mask in masks:
            assert mask_text(mask, n) == monomial_text(Monomial(mask, n))
        assert (mask_text(0, n), mask_text(1 << width - 1, n)) == ("1", f"y{n}")


class TestMinimalize:
    def test_divisor_wins(self):
        assert ideal(2, "x1", "x1*x2").gens == (m("x1", 2),)

    def test_incomparable_pair_kept(self):
        assert ideal(2, "x1*y2", "y1*x2").gens == (m("y1*x2", 2), m("x1*y2", 2))

    def test_common_divisor(self):
        assert ideal(2, "x1*x2", "x2", "y1*x2").gens == (m("x2", 2),)

    def test_zero_and_unit(self):
        assert minimalize([], 2).is_zero
        assert ideal(2, "1", "x1").is_unit

    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_order_free(self, masks):
        gens = [Monomial(mk, 3) for mk in masks]
        once = minimalize(gens, 3)
        assert minimalize(once.gens, 3) == once
        assert minimalize(list(reversed(gens)), 3) == once


class TestColonIntersect:
    def test_colon_examples(self):
        assert colon(ideal(2, "x1*x2", "x1*y2"), m("x1", 2)) == ideal(2, "x2", "y2")
        assert colon(ideal(2, "x1"), m("y1", 2)) == ideal(2, "x1")
        assert colon(ideal(2, "x1"), m("x1", 2)).is_unit

    def test_intersect_examples(self):
        assert intersect(ideal(2, "x1"), ideal(2, "y1")) == ideal(2, "x1*y1")
        two = ideal(2, "x1", "y1")
        assert intersect(two, two) == two
        assert intersect(ideal(2, "x1*x2"), ideal(2, "y1")) == ideal(2, "x1*x2*y1")

    def test_against_membership_oracle(self):
        # w in I:u  iff  w*u in I, and w in I∩J iff w in both, for every
        # monomial w over 2n = 4 variables (degree-insensitive: divisibility
        # of squarefree generators only sees the union of supports)
        n = 2
        ideals = [
            ideal(n, "x1*x2", "x1*y2"),
            ideal(n, "x1", "y1"),
            ideal(n, "x1*y2", "y1*x2"),
            ideal(n, "x2*y1"),
        ]
        monos = [Monomial(mask, n) for mask in range(16)]
        for I in ideals:
            for u in monos:
                q = colon(I, u)
                for w in monos:
                    product = Monomial(w.mask | u.mask, n)
                    assert contains(q, w) == contains(I, product)
            for J in ideals:
                meet = intersect(I, J)
                for w in monos:
                    assert contains(meet, w) == (contains(I, w) and contains(J, w))

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, (1 << 2 * n) - 1), max_size=8),
        st.lists(st.integers(0, (1 << 2 * n) - 1), max_size=8))))
    @settings(max_examples=300, deadline=None)
    def test_intersect_against_minimalized_lcms(self, case):
        # empty lists give the zero ideal, a 0 mask the unit ideal
        n, a, b = case
        I, J = (minimalize([Monomial(mk, n) for mk in masks], n) for masks in (a, b))
        assert intersect(I, J) == brute_force.intersect(I, J)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_intersect_of_the_zero_and_unit_ideals(self, n):
        zero, unit = minimalize([], n), minimalize([Monomial.one(n)], n)
        I = minimalize([Monomial(1, n), Monomial(1 << 2 * n - 1, n)], n)
        for a in (zero, unit, I):
            for b in (zero, unit, I):
                assert intersect(a, b) == brute_force.intersect(a, b)
        assert intersect(unit, I) == I and intersect(zero, I).is_zero
        assert intersect(unit, unit).is_unit

    def test_intersect_refuses_another_neuron_count(self):
        for other in (ideal(2, "x1"), minimalize([], 4)):
            for a, b in ((ideal(3, "y3"), other), (other, ideal(3, "y3"))):
                with pytest.raises(ValueError, match="same neuron count"):
                    intersect(a, b)
                with pytest.raises(ValueError, match="same neuron count"):
                    brute_force.intersect(a, b)


class TestMinimalMasks:
    # masks over 6 variables: every degree 0-6, frequent repeats and divisors
    @given(st.lists(st.integers(0, 63), max_size=24))
    @example([0, 5, 0, 63, 5])
    @example([3, 1, 2, 3, 7, 6])
    @settings(max_examples=400, deadline=None)
    def test_against_a_pairwise_scan(self, masks):
        want = brute_force.minimal_masks(masks)
        assert _minimal_masks(masks) == want
        assert _minimal_masks(reversed(masks)) == want

    def test_masks_of_one_degree_are_never_compared(self):
        joins = []

        class Mask(int):
            def __or__(self, other):
                joins.append((self, other))
                return int(self) | other

        masks = [Mask(m) for m in range(64) if m.bit_count() == 3]
        assert _minimal_masks(masks) == tuple(sorted(masks))
        assert joins == []
        # a degree-2 mask is tested against both kept masks of degree 1
        assert _minimal_masks([Mask(0b1100), Mask(0b10), Mask(0b1)]) == (1, 2, 12)
        assert len(joins) == 2


class TestScaleRestrict:
    def test_scale_examples(self):
        assert scale(m("x1", 2), ideal(2, "x2", "y2")) == ideal(2, "x1*x2", "x1*y2")
        I = ideal(2, "x1*y2", "y1*x2")
        assert scale(Monomial.one(2), I) == I
        with pytest.raises(NonSquarefreeProductError):
            scale(m("x1", 2), ideal(2, "x1"))

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, (1 << 2 * n) - 1),
        st.lists(st.integers(0, (1 << 2 * n) - 1), max_size=8))))
    @settings(max_examples=300, deadline=None)
    def test_scale_against_minimalized_products(self, case):
        # u is cut down to the variables no generator holds, so it is disjoint
        n, u, masks = case
        I = minimalize([Monomial(mk, n) for mk in masks], n)
        for g in I.gens:
            u &= ~g.mask
        u = Monomial(u, n)
        got = scale(u, I)
        assert got == brute_force.scale(u, I)
        assert list(got.gens) == sorted(got.gens, key=Monomial.sort_key)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_scale_of_the_zero_and_unit_ideals(self, n):
        for u in (Monomial.one(n), Monomial(1, n), Monomial((1 << 2 * n) - 1, n)):
            for I in (minimalize([], n), minimalize([Monomial.one(n)], n)):
                assert scale(u, I) == brute_force.scale(u, I)
        assert scale(Monomial(1, n), minimalize([], n)).is_zero
        assert scale(Monomial(1, n), minimalize([Monomial.one(n)], n)).gens == (Monomial(1, n),)

    def test_scale_refusals(self):
        I = ideal(3, "x1*y2", "y1*x3")
        for u in (m("y2", 3), m("x2*x3", 3)):
            with pytest.raises(NonSquarefreeProductError, match="shares a variable"):
                scale(u, I)
            with pytest.raises(NonSquarefreeProductError, match="shares a variable"):
                brute_force.scale(u, I)
        # a multiplier over another neuron count; the reference refuses
        # it too, through minimalize
        for u in (m("x1", 2), m("x4", 4)):
            with pytest.raises(ValueError, match=f"lives over n = {u.n}, expected 3"):
                scale(u, ideal(3, "y3"))
            with pytest.raises(ValueError):
                brute_force.scale(u, ideal(3, "y3"))

    def test_restrict_examples(self):
        I = ideal(2, "x1*y2", "y1*x2", "x1*x2")
        assert restrict(I, m("x1*x2*y2", 2)) == ideal(2, "x1*y2", "x1*x2")
        assert restrict(I, Monomial.one(2)).is_zero
        everything = Monomial((1 << 4) - 1, 2)
        assert restrict(I, everything) == I

    def test_restrict_exact_subset_semantics(self):
        I = ideal(3, "x1*y2", "y1*x2", "x1*x3", "y3")
        for mono in lcm_closure(I):
            sub = restrict(I, mono)
            assert set(sub.gens) == {g for g in I.gens if g.divides(mono)}


class TestValidationAndDegrees:
    def test_pair_violations(self):
        with pytest.raises(PairViolationError) as exc:
            validate_polarized_neural(ideal(2, "x1*y1"))
        assert exc.value.neuron == 1
        validate_polarized_neural(ideal(2, "x1*y2"))
        with pytest.raises(PairViolationError) as exc:
            validate_polarized_neural(ideal(2, "x1*x2*y2"))
        assert exc.value.neuron == 2

    def test_polarized_degree_at_most_n(self):
        # pair exclusion forces at most one bit per pair
        P = validate_polarized_neural(ideal(3, "x1*y2*x3", "y1*y2*y3"))
        assert all(g.degree <= 3 for g in P.inner.gens)

    def test_is_equigenerated(self):
        assert is_equigenerated(ideal(2, "x1*y2", "y1*x2")) == 2
        assert is_equigenerated(ideal(2, "x1", "y1*x2")) is None
        assert is_equigenerated(ideal(2, "x1")) == 1
        with pytest.raises(ZeroIdealError):
            is_equigenerated(minimalize([], 2))


class TestLcmClosure:
    def test_closure_contains_gens_and_is_closed(self):
        I = ideal(3, "x1*y2", "y1*x2", "x3")
        closure = {c.mask for c in lcm_closure(I)}
        assert {g.mask for g in I.gens} <= closure
        for a in closure:
            for b in closure:
                assert a | b in closure


class TestIdealText:
    def test_parse_render_roundtrip(self):
        text = "x2*y1\nx1*y2\n"
        I = parse_ideal(text)
        assert render_ideal(I) == text
        assert I.n == 2

    def test_comments_and_blanks(self):
        I = parse_ideal("# header\n\nx1  # trailing\n\ny1\n")
        assert I == ideal(1, "x1", "y1")

    def test_explicit_n_overrides_inference(self):
        assert parse_ideal("x1", n=3).n == 3

    def test_printed_form(self):
        expected = ideal(3, "x1*x2*x3", "x2*x3*y1")
        assert parse_ideal("(x1*x2*x3, x2*x3*y1)") == expected
        assert parse_ideal("# subject\n(x1*x2*x3,\n x2*x3*y1)  # trailing\n") == expected
        assert parse_ideal("(0)", n=2) == minimalize([], 2)

    @pytest.mark.parametrize("text", ["()", "(x1,,y1)", "(x1, y1", "x1, y1)"])
    def test_malformed_printed_form(self, text):
        with pytest.raises(MonomialParseError):
            parse_ideal(text)

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, (1 << (2 * n)) - 1), max_size=8))))
    @settings(max_examples=200, deadline=None)
    def test_printed_form_roundtrip(self, n_masks):
        n, masks = n_masks
        I = minimalize([Monomial(mk, n) for mk in masks], n)
        assert parse_ideal(str(I), n=I.n) == I
