"""Structural machinery: pivot splittings, linear-quotient search, the
recursive linearity test, and the named witness families.

The central decomposition: a pair-excluding ideal generated in the full
degree n splits uniquely at any neuron i as I = x_i*J + y_i*K, with J
and K living on the remaining neurons.  Everything downstream (the
splitting-based invariant prediction and the homology-free linearity
test) runs on that decomposition.  The linearity test splits truth
tables, 2^n-bit ints with one bit per degree-n generator, and the
linear-quotient search works on sets of generator indices as bit masks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .betti import _require_proper_nonzero, betti_table, has_linear_resolution
from .codes import MAX_CODE_NEURONS
from .homology import FieldTag
from .monomials import (
    Monomial,
    MonomialIdeal,
    NotSplittableError,
    PolarizedNeuralIdeal,
    UnitOrZeroIdealError,
    _bit_clear_patterns,
    _subcube_closure,
    intersect,
    is_equigenerated,
    minimalize,
    truth_table,
    validate_polarized_neural,
)


class NotEquigeneratedDegreeNError(ValueError):
    """The recursive linearity test needs generation in the full degree n."""


class JNotLinearError(ValueError):
    """Splitting prediction refused: the J branch lacks linear resolution."""


class FamilyParameterError(ValueError):
    """Family parameter out of its documented range."""


@dataclass(frozen=True)
class NeuronSplit:
    """I = x_i*J + y_i*K at pivot neuron i; J, K carry no bit of pair i."""

    pivot: int
    J: MonomialIdeal
    K: MonomialIdeal


def split_at_neuron(ideal: PolarizedNeuralIdeal, i: int) -> NeuronSplit:
    """Split off the pivot pair; every generator must use exactly one of x_i, y_i."""
    inner = ideal.inner
    n = inner.n
    if not 1 <= i <= n:
        raise ValueError(f"pivot neuron {i} out of range for n = {n}")
    xbit = 1 << (i - 1)
    ybit = 1 << (n + i - 1)
    j_gens, k_gens = [], []
    for g in inner.gens:
        has_x = bool(g.mask & xbit)
        has_y = bool(g.mask & ybit)
        if has_x == has_y:  # both is impossible for a valid polarized ideal
            raise NotSplittableError(i, g)
        if has_x:
            j_gens.append(Monomial(g.mask & ~xbit, n))
        else:
            k_gens.append(Monomial(g.mask & ~ybit, n))
    return NeuronSplit(i, minimalize(j_gens, n), minimalize(k_gens, n))


@dataclass(frozen=True)
class SplitPrediction:
    """Invariants and fine Betti numbers predicted from a pivot splitting."""

    pd: int
    reg: int
    fine: dict[tuple[int, int], int]


def betti_splitting_predict(ideal: MonomialIdeal, split: NeuronSplit,
                            field_tag: FieldTag = FieldTag.F2) -> SplitPrediction:
    """Predict pd, reg and the fine Betti table of I from its pivot splitting.

    Valid whenever the J branch has linear resolution: then

        pd I  = max(pd J, pd K, pd(J ∩ K) + 1)
        reg I = max(reg J + 1, reg K + 1, reg(J ∩ K) + 1)

    and termwise beta_{i,b}(I) = beta_{i,b}(x_iJ) + beta_{i,b}(y_iK)
    + beta_{i-1,b}(x_iJ ∩ y_iK).  J and K carry no bit of pair i, so
    x_iJ ∩ y_iK = x_iy_i(J ∩ K), and multiplying by a new variable
    shifts every multidegree by it: the three tables are those of J, K
    and J ∩ K with their multidegrees lifted.  Refuses (rather than
    guesses) when the hypothesis fails.
    """
    J, K = split.J, split.K
    if not (J.is_proper_nonzero and K.is_proper_nonzero):
        raise UnitOrZeroIdealError("splitting prediction needs proper nonzero J and K")
    tj = betti_table(J, field_tag)
    if not has_linear_resolution(J, field_tag, table=tj):
        raise JNotLinearError(f"J branch {J} does not have linear resolution")
    tk = betti_table(K, field_tag)
    tm = betti_table(intersect(J, K), field_tag)
    pd_pred = max(tj.pd, tk.pd, tm.pd + 1)
    reg_pred = max(tj.reg + 1, tk.reg + 1, tm.reg + 1)
    x = 1 << (split.pivot - 1)
    y = 1 << (ideal.n + split.pivot - 1)
    fine: dict[tuple[int, int], int] = {}
    for shift, table, lift in ((0, tj, x), (0, tk, y), (1, tm, x | y)):
        for (i, b), r in table.fine.items():
            key = (i + shift, b | lift)
            fine[key] = fine.get(key, 0) + r
    return SplitPrediction(pd_pred, reg_pred, fine)


def linear_quotients_search(ideal: MonomialIdeal) -> Optional[tuple[Monomial, ...]]:
    """Find a linear-quotient order of the minimal generators, or None.

    In an order g_1, ..., g_q every colon (g_1, ..., g_{j-1}) : g_j must
    be generated by variables; the colon depends only on the set placed
    before g_j.

    When the generators share one degree, the search first refuses any
    ideal that is not linearly related (`_linearly_related`), a test
    polynomial in q that needs no Betti table.  Otherwise one forward
    backtracking over prefix sets decides the question: it tries the
    generators in canonical order at each step, so the first complete
    order it reaches is the lexicographically least admissible one, and
    it memoizes dead prefixes by their set, which is sound because
    whether a prefix can be completed depends only on the set placed.
    It is exponential in q on some ideals.

    Sets are bit masks of generator indices.  The colon S : c is
    generated by the quotients g_u & ~c over u in S, and is generated
    by variables iff each quotient contains a variable that is itself
    the quotient of some u in S.  On its first test, candidate c gets a
    row of pairs, one per variable v that is some quotient: the
    generators whose quotient is v, and the generators whose quotient
    contains v (those whose mask contains v).  A test ORs the second
    masks of the pairs that meet S and checks that the result covers S.
    """
    _require_proper_nonzero(ideal)
    gens = ideal.gens
    masks = [g.mask for g in gens]
    if is_equigenerated(ideal) is not None and not _linearly_related(masks):
        return None
    q = len(masks)
    holders: dict[int, int] = {}
    for u, g in enumerate(masks):
        while g:
            v = g & -g
            holders[v] = holders.get(v, 0) | 1 << u
            g ^= v
    rows: list[Optional[list[tuple[int, int]]]] = [None] * q

    def admissible(placed: int, c: int) -> bool:
        row = rows[c]
        if row is None:
            singles: dict[int, int] = {}
            for u, g in enumerate(masks):
                quot = g & ~masks[c]
                if quot and quot & (quot - 1) == 0:
                    singles[quot] = singles.get(quot, 0) | 1 << u
            row = rows[c] = [(s, holders[v]) for v, s in singles.items()]
        covered = 0
        for single, cover in row:
            if placed & single:
                covered |= cover
        return placed & ~covered == 0

    full = (1 << q) - 1
    order: list[int] = []
    dead: set[int] = set()

    def extend(used: int) -> bool:
        if used == full:
            return True
        for c in range(q):
            bit = 1 << c
            if used & bit or used | bit in dead:
                continue
            if admissible(used, c):
                order.append(c)
                if extend(used | bit):
                    return True
                order.pop()
                dead.add(used | bit)
        return False

    if not extend(0):
        return None
    return tuple(gens[i] for i in order)


def _linearly_related(masks: list[int]) -> bool:
    """Whether any two generators u, v are joined by a chain of generators
    dividing lcm(u, v) whose neighbours differ in one variable each.

    For generators of one degree this is necessary for linear quotients
    (the "linearly related" condition of Bigdeli, Herzog and
    Zaare-Nahandi).  In an admissible order take u before v: the
    quotient of u by v is in the colon, so some w before v has w : v a
    single variable dividing u; then w divides lcm(u, v) and differs from
    v in one variable, and induction on the position of v joins u to w.
    """
    q = len(masks)
    near = [0] * q
    for u in range(q):
        for w in range(u):
            if (masks[u] ^ masks[w]).bit_count() == 2:
                near[u] |= 1 << w
                near[w] |= 1 << u
    for u in range(q):
        for v in range(u + 1, q):
            if near[u] >> v & 1:
                continue
            lcm = masks[u] | masks[v]
            inside = sum(1 << w for w, g in enumerate(masks) if g | lcm == lcm)
            reach = frontier = 1 << u
            while frontier and not reach >> v & 1:
                step = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    step |= near[low.bit_length() - 1]
                frontier = step & inside & ~reach
                reach |= frontier
            if not reach >> v & 1:
                return False
    return True


def recursive_linear_check(ideal: PolarizedNeuralIdeal, pivot: str = "last") -> bool:
    """Homology-free linearity test for ideals generated in the full degree n.

    Recurses through I = x_i*J + y_i*K: linear iff both branches are
    linear, J ∩ K is generated by the shared generators (equivalently,
    in degree n - 1), and that shared-generator ideal is recursively
    linear.  A zero branch reduces to the other branch alone (scaling
    by a variable preserves linearity).  Base case n = 1: any subset of
    {x1, y1}.

    The recursion runs on the ideal's `truth_table`: the 2^n-bit int
    with bit c set iff the degree-n generator with y-bits c is present.
    Splitting at neuron k + 1 keeps the points with bit k clear (J) and
    those with bit k set (K), each renumbered with bit k removed; the
    shared generators are J & K.

    pivot: "last" always splits at the highest neuron; "smallest" picks
    the neuron giving the most even branch sizes, the lowest on ties.
    The outcome is pivot-independent.
    """
    inner = ideal.inner
    _require_proper_nonzero(inner)
    n = inner.n
    if is_equigenerated(inner) != n:
        raise NotEquigeneratedDegreeNError(
            f"{inner} is not generated in the full degree n = {n}"
        )
    if pivot not in ("last", "smallest"):
        raise ValueError(f"unknown pivot rule {pivot!r}")
    table = truth_table(inner)
    patterns = _bit_clear_patterns(n)  # their low 2^m bits serve level m

    @functools.cache  # one memo per call
    def linear(t: int, m: int) -> bool:
        if m == 1:
            return True  # subsets of {x1, y1} are variable ideals
        j, k = _halves(t, m, m - 1 if pivot == "last" else _most_even_bit(t, m, patterns),
                       patterns)
        if not (j and k):
            return linear(j | k, m - 1)
        return (_shared_divide_lcms(j, k, j & k, patterns[:m - 1]) and linear(j, m - 1)
                and linear(k, m - 1) and linear(j & k, m - 1))

    return linear(table, n)


def _most_even_bit(t: int, m: int, patterns: tuple[int, ...]) -> int:
    """The lowest k < m minimizing |2 * (points with bit k clear) - q|, for
    a 2^m-bit table t and bit-clear patterns of at least m levels."""
    q = t.bit_count()
    return min(range(m), key=lambda b: abs(2 * (t & patterns[b]).bit_count() - q))


def _halves(t: int, m: int, k: int, patterns: tuple[int, ...]) -> tuple[int, int]:
    """The points of the 2^m-bit table t with bit k clear and with bit k set,
    each renumbered with bit k removed (swaps of neighbouring index bits
    carry bit k to the top); `patterns` has at least m levels."""
    for b in range(k, m - 1):
        d = (t ^ t >> (1 << b)) & ~patterns[b] & patterns[b + 1]
        t ^= d | d << (1 << b)
    half = 1 << (m - 1)
    return t & ((1 << half) - 1), t >> half


def _shared_divide_lcms(j: int, k: int, shared: int, patterns: tuple[int, ...]) -> bool:
    """Whether a shared generator divides every lcm(a, b), a in J, b in K,
    for tables of 2^len(patterns) bits.

    c divides lcm(a, b) iff b agrees with c wherever c differs from a, so the
    b that pass for a are the shared points closed under moving bits off a's."""
    rest = j & ~shared
    while rest:
        low = rest & -rest
        rest ^= low
        if k & ~_subcube_closure(shared, patterns, low.bit_length() - 1):
            return False
    return True


# --- named witness families ---------------------------------------------------


def family_prop32(n: int, k: int) -> PolarizedNeuralIdeal:
    """k generators x_j * (all y's except y_j); dominant, pd = k - 1."""
    if not 1 <= k <= n:
        raise FamilyParameterError(f"need 1 <= k <= n, got k = {k}, n = {n}")
    all_y = ((1 << n) - 1) << n
    gens = [
        Monomial((1 << (j - 1)) | (all_y & ~(1 << (n + j - 1))), n)
        for j in range(1, k + 1)
    ]
    return validate_polarized_neural(minimalize(gens, n))


def family_prop33(n: int, k: int) -> PolarizedNeuralIdeal:
    """Two degree-n generators with regularity n + k - 1."""
    if not 1 <= k <= n:
        raise FamilyParameterError(f"need 1 <= k <= n, got k = {k}, n = {n}")
    all_x = (1 << n) - 1
    second = 0
    for i in range(1, k + 1):
        second |= 1 << (n + i - 1)
    for j in range(k + 1, n + 1):
        second |= 1 << (j - 1)
    gens = [Monomial(all_x, n), Monomial(second, n)]
    return validate_polarized_neural(minimalize(gens, n))


def family_prop34_pd(n: int, i: int) -> PolarizedNeuralIdeal:
    """The ideal of the first i + 1 variables; pd = i."""
    if not 0 <= i <= 2 * n - 1:
        raise FamilyParameterError(f"need 0 <= i <= 2n-1, got i = {i}, n = {n}")
    gens = [Monomial(1 << b, n) for b in range(i + 1)]
    return validate_polarized_neural(minimalize(gens, n))


def family_prop34_reg(n: int, j: int) -> PolarizedNeuralIdeal:
    """A pair-excluding ideal with regularity exactly j.

    For j <= n a single degree-j monomial works.  A pair-excluding
    monomial cannot exceed degree n, so for j > n the two-generator
    regularity family with k = j - n + 1 supplies the value instead.
    """
    if not 1 <= j <= 2 * n - 1:
        raise FamilyParameterError(f"need 1 <= j <= 2n-1, got j = {j}, n = {n}")
    if j <= n:
        gens = [Monomial((1 << j) - 1, n)]
        return validate_polarized_neural(minimalize(gens, n))
    return family_prop33(n, j - n + 1)


def family_thm36(n: int, k: int) -> PolarizedNeuralIdeal:
    """The product (x_1,y_1)(x_2,y_2)...(x_k,y_k): 2^k degree-k generators, pd = reg = k.

    k is capped at MAX_CODE_NEURONS, the code pipeline's cap on its 2^n
    generators.
    """
    if not 1 <= k <= n:
        raise FamilyParameterError(f"need 1 <= k <= n, got k = {k}, n = {n}")
    if k > MAX_CODE_NEURONS:
        raise FamilyParameterError(
            f"k = {k} would give 2^{k} generators, above the limit k <= {MAX_CODE_NEURONS}")
    # generator `choice` takes y_i where bit i-1 of choice is set and x_i
    # elsewhere.  Distinct monomials of one degree are an antichain, and the
    # y bits `choice << n` sit above every x bit, so ascending choice is the
    # canonical (degree, mask) order: no `minimalize` needed
    low = (1 << k) - 1
    gens = tuple(Monomial(choice << n | low & ~choice, n) for choice in range(1 << k))
    return validate_polarized_neural(MonomialIdeal(n, gens))


FAMILIES = {
    "prop32": (family_prop32, "k", lambda n, k: {"pd": k - 1}),
    "prop33": (family_prop33, "k", lambda n, k: {"reg": n + k - 1}),
    "prop34-pd": (family_prop34_pd, "i", lambda n, i: {"pd": i}),
    "prop34-reg": (family_prop34_reg, "j", lambda n, j: {"reg": j}),
    "thm36": (family_thm36, "k", lambda n, k: {"pd": k, "reg": k}),
}
