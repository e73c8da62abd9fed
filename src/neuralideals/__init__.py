"""Homological invariants of polarized neural ideals.

From binary neural codes to squarefree monomial ideals in the paired
ring k[x_1..x_n, y_1..y_n], with an exact homology oracle for
multigraded Betti numbers, projective dimension and regularity, and a
verification harness for the structural results (pivot splittings,
linear quotients, the recursive linearity test, witness families).
"""

from .betti import (
    BettiTable,
    LcmDegreeError,
    NotDominantError,
    betti_table,
    dominant_check,
    dominant_invariants,
    has_linear_resolution,
    invariants,
    reg_upper_bound_lcm,
    upper_koszul,
)
from .codes import NeuralCode, code_to_polarized_ideal, parse_code
from .homology import FieldTag, SimplicialComplex, reduced_homology_ranks
from .monomials import (
    Monomial,
    MonomialIdeal,
    NonSquarefreeProductError,
    PairViolationError,
    PolarizedNeuralIdeal,
    UnitOrZeroIdealError,
    ZeroIdealError,
    degree_n_ideal,
    intersect,
    is_equigenerated,
    lcm_closure,
    minimalize,
    parse_ideal,
    parse_monomial,
    render_ideal,
    restrict,
    scale,
    truth_table,
    validate_polarized_neural,
)
from .structure import (
    FAMILIES,
    JNotLinearError,
    NeuronSplit,
    NotEquigeneratedDegreeNError,
    NotSplittableError,
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

# `verify`, and `random` with it, loads on first use of these names
_FROM_VERIFY = ("VerificationReport", "run_verification")
__all__ = sorted([name for name in dir() if not name.startswith("_")] + [*_FROM_VERIFY, "verify"])


def __getattr__(name):
    if name not in _FROM_VERIFY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify
    return getattr(verify, name)


def __dir__():
    return sorted({*globals(), *__all__})
