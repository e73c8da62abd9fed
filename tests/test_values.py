"""The package's value classes: equality by fields, hashing only where
frozen, immutability, pickling and copying, and their constructors."""

import copy
import pickle

import pytest

from neuralideals.betti import BettiTable, betti_table
from neuralideals.codes import LengthMismatchError, NeuralCode
from neuralideals.homology import SimplicialComplex
from neuralideals.monomials import (
    Monomial,
    MonomialIdeal,
    NeuronCountError,
    PolarizedNeuralIdeal,
    _Frozen,
    _Value,
    degree_n_ideal,
    minimalize,
)
from neuralideals.structure import NeuronSplit, SplitPrediction, split_at_neuron
from neuralideals.verify import Counterexample, VerificationReport


def _report(seed):
    report = VerificationReport(n=2, mode="sample", seed=seed)
    report.record("bounds", lambda: "(x1*x2)", ["pd too large"])
    report.record("oracle", lambda: "(x1*x2)", [])
    return report


# name -> (a fresh value, a value of the same class that differs in one
# field, its fields, frozen, hashable): each call builds new objects
CASES = {
    "Monomial": (lambda: Monomial(0b0110, 2), lambda: Monomial(0b0110, 3),
                 ("mask", "n"), True, True),
    "MonomialIdeal": (lambda: minimalize([Monomial(1, 2), Monomial(0b1010, 2)], 2),
                      lambda: minimalize([Monomial(1, 2)], 2),
                      ("n", "gens"), True, True),
    "PolarizedNeuralIdeal": (lambda: degree_n_ideal(0b0011, 2),
                             lambda: degree_n_ideal(0b0110, 2),
                             ("inner",), True, True),
    "NeuralCode": (lambda: NeuralCode(2, frozenset({0, 3})),
                   lambda: NeuralCode(2, frozenset({0})),
                   ("n", "words"), True, True),
    "SimplicialComplex": (lambda: SimplicialComplex(0b11, frozenset({0, 1, 2})),
                          lambda: SimplicialComplex(0b111, frozenset({0, 1, 2})),
                          ("vertices", "faces"), True, True),
    "BettiTable": (lambda: betti_table(degree_n_ideal(0b0110, 2).inner),
                   lambda: betti_table(degree_n_ideal(0b1001, 2).inner),
                   ("n", "fine", "coarse", "pd", "reg"), False, False),
    "NeuronSplit": (lambda: split_at_neuron(degree_n_ideal(0b0111, 2), 2),
                    lambda: split_at_neuron(degree_n_ideal(0b0111, 2), 1),
                    ("pivot", "J", "K"), True, True),
    # frozen, and unhashable for its dict field, as the frozen dataclass was
    "SplitPrediction": (lambda: SplitPrediction(1, 2, {(0, 3): 1}),
                        lambda: SplitPrediction(1, 2, {(0, 3): 2}),
                        ("pd", "reg", "fine"), True, False),
    "Counterexample": (lambda: Counterexample("bounds", "(x1)", "pd too large"),
                       lambda: Counterexample("bounds", "(x1)", "reg too large"),
                       ("suite", "subject", "detail"), False, False),
    "VerificationReport": (lambda: _report(0), lambda: _report(1),
                           ("n", "mode", "seed", "examined", "field_tag", "suite_passes",
                            "suite_checked", "counterexamples", "findings", "timings"),
                           False, False),
}


@pytest.fixture(params=list(CASES))
def case(request):
    return CASES[request.param]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_class_is_covered():
    built = {make().__class__ for make, *_ in CASES.values()}
    assert {c.__name__ for c in built} == set(CASES)
    assert built == set(_subclasses(_Value)) - {_Frozen}


def test_equality_by_field_values(case):
    make, other, fields, _, _ = case
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != other() and not a == other()
    assert a != tuple(getattr(a, f) for f in fields)
    assert a != object()
    # an instance of a subclass with the same fields is another value
    twin = copy.copy(a)
    object.__setattr__(twin, "__class__", type("Sub", (a.__class__,), {"__slots__": ()}))
    assert a != twin and twin != a


def test_the_fields_are_the_state(case):
    make, _, fields, _, _ = case
    value = make()
    state = vars(value) if hasattr(value, "__dict__") else {f: getattr(value, f)
                                                             for f in value.__slots__}
    assert tuple(state) == fields


def test_hashing_only_where_frozen(case):
    make, _, fields, frozen, hashable = case
    a, b = make(), make()
    if hashable:
        # the frozen dataclass hash, so set and dict orders stay the same
        assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


def test_frozen_fields_refuse_assignment_and_deletion(case):
    make, other, fields, frozen, _ = case
    value, replacement = make(), other()
    for f in fields:
        if frozen:
            with pytest.raises(AttributeError, match=f):
                setattr(value, f, getattr(replacement, f))
            with pytest.raises(AttributeError, match=f):
                delattr(value, f)
        else:
            setattr(value, f, getattr(replacement, f))
    assert (value == make()) is frozen
    assert (value == replacement) is not frozen
    if frozen:
        with pytest.raises(AttributeError):
            value.extra = 1


def test_pickle_and_copy_round_trips(case):
    make, _, _, frozen, _ = case
    value = make()
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and twin is not value
        if frozen:
            with pytest.raises(AttributeError):
                twin.extra = 1


class TestConstructors:
    def test_monomial_refusals(self):
        with pytest.raises(ValueError, match="mask 0x10 does not fit 2n = 4 bits"):
            Monomial(0b10000, 2)
        with pytest.raises(ValueError, match="mask -0x1 does not fit 2n = 4 bits"):
            Monomial(-1, 2)
        with pytest.raises(NeuronCountError, match="positive integer, got 0"):
            Monomial(0, 0)
        with pytest.raises(NeuronCountError, match="exceeds the supported maximum 32"):
            Monomial(1, 33)
        with pytest.raises(NeuronCountError, match="positive integer, got '2'"):
            Monomial(1, "2")

    def test_neural_code_refusals(self):
        with pytest.raises(LengthMismatchError, match="codeword 0x4 does not fit 2 bits"):
            NeuralCode(2, frozenset({0, 4}))
        with pytest.raises(NeuronCountError, match="positive integer, got 0"):
            NeuralCode(0, frozenset())

    def test_simplicial_complex_refuses_a_foreign_vertex(self):
        with pytest.raises(ValueError, match="a face uses vertices outside the vertex set"):
            SimplicialComplex(0b01, frozenset({0, 0b10}))

    def test_positional_construction(self):
        ideal = MonomialIdeal(2, (Monomial(1, 2),))
        assert (ideal.n, ideal.gens) == (2, (Monomial(1, 2),))
        assert PolarizedNeuralIdeal(ideal).inner is ideal
        split = NeuronSplit(2, ideal, ideal)
        assert (split.pivot, split.J, split.K) == (2, ideal, ideal)
        table = BettiTable(2, {(0, 1): 1}, {(0, 1): 1})
        assert (table.n, table.fine, table.coarse) == (2, {(0, 1): 1}, {(0, 1): 1})

    def test_keyword_construction(self):
        report = VerificationReport(n=3, mode="exhaustive", seed=7, field_tag="q")
        assert (report.n, report.mode, report.seed, report.field_tag) == (3, "exhaustive", 7, "q")
        assert report.examined == 0
        assert (report.suite_passes, report.suite_checked, report.counterexamples,
                report.findings, report.timings) == ({}, {}, [], [], {})
        assert VerificationReport(n=1, mode="sample", seed=0).field_tag == "f2"
        table = BettiTable(3, coarse={(0, 3): 1})
        assert (table.n, table.fine, table.coarse) == (3, {}, {(0, 3): 1})
        assert (table.pd, table.reg) == (0, 3)

    def test_no_mutable_default_is_shared(self):
        a, b = BettiTable(2), BettiTable(2)
        a.fine[(0, 1)] = a.coarse[(0, 1)] = 1
        assert b.fine == b.coarse == {}
        fields = ("suite_passes", "suite_checked", "counterexamples", "findings", "timings")
        r, s = (VerificationReport(n=2, mode="sample", seed=0) for _ in range(2))
        r.record("bounds", lambda: "(x1)", ["pd too large"])
        r.record("oracle", lambda: "(x1)", [])
        r.findings.append("a finding")
        r.timings["scaling"] = 1.0
        assert all(getattr(r, f) for f in fields)
        assert not any(getattr(s, f) for f in fields)
