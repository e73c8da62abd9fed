"""Code ingestion and the polarization pipeline.

The pipeline builds one degree-n generator per non-codeword straight
from bit masks; the pseudomonomial route it replaced lives on in
`brute_force` as the reference these tests also pin down.
"""

import random

import pytest
from brute_force import (
    Pseudomonomial,
    evaluate,
    minimize_pseudos,
    polarize,
    pseudo_divides,
    vanishing_generators,
)

from neuralideals.codes import (
    CodeParseError,
    LengthMismatchError,
    NeuralCode,
    code_to_polarized_ideal,
    parse_code,
    word_from_string,
    word_to_string,
)
from neuralideals.monomials import is_equigenerated, parse_monomial


def pm(sigma, tau, n):
    return Pseudomonomial(frozenset(sigma), frozenset(tau), n)


def gen_masks(code):
    return {g.mask for g in code_to_polarized_ideal(code).inner.gens}


def support(mask, n):
    """The words at which the generator `mask` is 1: its x-bits lie in the
    word and its y-bits miss it."""
    full = (1 << n) - 1
    return {w for w in range(1 << n) if not mask & full & ~w and not (mask >> n) & w}


class TestEvaluate:
    def test_indicator_hits(self):
        p = pm({1}, {2}, 2)
        assert evaluate(p, word_from_string("10"), 2) == 1
        assert evaluate(p, word_from_string("01"), 2) == 0
        assert support(polarize(p).mask, 2) == {word_from_string("10")}

    def test_constant_one(self):
        p = pm((), (), 2)
        for w in range(4):
            assert evaluate(p, w, 2) == 1
        assert support(0, 2) == set(range(4))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            evaluate(pm({1}, (), 2), 0, 3)

    def test_sigma_tau_must_be_disjoint(self):
        with pytest.raises(ValueError):
            pm({1}, {1}, 2)


class TestVanishingGenerators:
    def test_two_word_code(self):
        code = NeuralCode(2, frozenset({word_from_string("00"), word_from_string("11")}))
        assert vanishing_generators(code) == {pm({1}, {2}, 2), pm({2}, {1}, 2)}
        assert gen_masks(code) == {parse_monomial(t, 2).mask for t in ("x1*y2", "x2*y1")}

    def test_full_code_empty(self):
        code = NeuralCode(2, frozenset(range(4)))
        assert vanishing_generators(code) == set()
        assert gen_masks(code) == set()

    def test_empty_code_n1(self):
        code = NeuralCode(1, frozenset())
        assert vanishing_generators(code) == {pm({1}, (), 1), pm((), {1}, 1)}
        assert gen_masks(code) == {parse_monomial(t, 1).mask for t in ("x1", "y1")}

    def test_soundness_and_sharpness_exhaustive(self):
        # every generator vanishes on the code and is 1 at exactly one non-word
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 4)
            words = frozenset(w for w in range(1 << n) if rng.random() < 0.5)
            masks = gen_masks(NeuralCode(n, words))
            assert len(masks) == (1 << n) - len(words)
            hit = set()
            for mask in masks:
                hits = support(mask, n)
                assert len(hits) == 1 and not hits & words
                hit |= hits
            assert hit == set(range(1 << n)) - words


class TestPseudoOrder:
    def test_divides(self):
        assert pseudo_divides(pm({1}, (), 2), pm({1}, {2}, 2))
        p = pm({1}, {2}, 2)
        assert pseudo_divides(p, p)
        assert not pseudo_divides(pm({1}, (), 2), pm({2}, {1}, 2))

    def test_minimize(self):
        small, big = pm({1}, (), 2), pm({1}, {2}, 2)
        assert minimize_pseudos({small, big}) == {small}
        assert minimize_pseudos(set()) == set()

    def test_vanishing_output_already_minimal(self):
        code = NeuralCode(3, frozenset({0, 5}))
        gens = vanishing_generators(code)
        assert minimize_pseudos(gens) == gens
        # so the pipeline polarizes each indicator as it is
        assert gen_masks(code) == {polarize(p).mask for p in gens}


class TestPolarize:
    def test_rule(self):
        assert polarize(pm({1}, {2}, 2)) == parse_monomial("x1*y2", 2)
        assert polarize(pm({1, 2}, (), 2)) == parse_monomial("x1*x2", 2)
        assert polarize(pm((), (), 2)).is_unit

    def test_injective_and_pair_safe(self):
        n = 3
        full = (1 << n) - 1
        for code_words in (frozenset(), frozenset({0}), frozenset({1, 6})):
            masks = gen_masks(NeuralCode(n, code_words))
            assert all(not m & m >> n for m in masks)
            # the non-word v is recovered from its generator's x-bits
            assert {m & full for m in masks} == set(range(1 << n)) - code_words


class TestPipeline:
    def test_examples(self):
        code = parse_code("00\n11\n")
        assert str(code_to_polarized_ideal(code)) == "(x2*y1, x1*y2)"
        assert str(code_to_polarized_ideal(parse_code("1\n"))) == "(y1)"
        assert str(code_to_polarized_ideal(parse_code("11\n"))) == "(x2*y1, x1*y2, y1*y2)"

    def test_full_code_gives_zero_ideal(self):
        code = NeuralCode(2, frozenset(range(4)))
        assert code_to_polarized_ideal(code).inner.is_zero

    def test_lands_in_degree_n_regime(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 4)
            words = frozenset(w for w in range(1 << n) if rng.random() < 0.6)
            if len(words) == 1 << n:
                continue
            ideal = code_to_polarized_ideal(NeuralCode(n, words)).inner
            assert is_equigenerated(ideal) == n
            assert len(ideal.gens) == (1 << n) - len(words)


class TestCodeText:
    def test_roundtrip(self):
        code = parse_code("# a code\n0110\n1001\n")
        assert code.n == 4
        assert code.word_strings() == ["0110", "1001"]
        assert word_to_string(word_from_string("0110"), 4) == "0110"

    def test_rejects_codeword_longer_than_n(self):
        with pytest.raises(LengthMismatchError):
            NeuralCode(2, frozenset({4}))

    def test_rejects_mixed_lengths(self):
        with pytest.raises(CodeParseError):
            parse_code("01\n011\n")

    def test_rejects_junk(self):
        with pytest.raises(CodeParseError):
            parse_code("01a\n")
        with pytest.raises(CodeParseError):
            parse_code("# only comments\n")
