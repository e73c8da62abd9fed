"""Structural machinery: pivot splittings, linear-quotient search, the
recursive linearity test, and the named witness families.

The central decomposition: a pair-excluding ideal generated in the full
degree n splits uniquely at any neuron i as I = x_i*J + y_i*K, with J
and K living on the remaining neurons.  Everything downstream (the
splitting-based invariant prediction and the homology-free linearity
test) runs on that decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .betti import BettiTable, _require_proper_nonzero, betti_table, has_linear_resolution
from .homology import FieldTag
from .monomials import (
    Monomial,
    MonomialIdeal,
    PolarizedNeuralIdeal,
    UnitOrZeroIdealError,
    intersect,
    is_equigenerated,
    minimalize,
    scale,
    validate_polarized_neural,
)


class NotSplittableError(ValueError):
    """Some generator is divisible by neither variable of the pivot pair."""

    def __init__(self, neuron: int, generator: Monomial):
        self.neuron = neuron
        self.generator = generator
        super().__init__(
            f"generator {generator} is divisible by neither x{neuron} nor y{neuron}"
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


def _drop_bits(bits: int, i: int) -> int:
    """Delete bit position i-1 from a width-n slice, shifting higher bits down."""
    low = bits & ((1 << (i - 1)) - 1)
    return low | (bits >> i << (i - 1))


def drop_neuron(ideal: MonomialIdeal, i: int) -> MonomialIdeal:
    """Reinterpret an ideal not using pair i over n-1 neurons, renumbering."""
    n = ideal.n
    xbit = 1 << (i - 1)
    ybit = 1 << (n + i - 1)
    gens = []
    for g in ideal.gens:
        if g.mask & (xbit | ybit):
            raise ValueError(f"generator {g} still uses pair {i}")
        x_part = _drop_bits(g.mask & ((1 << n) - 1), i)
        y_part = _drop_bits(g.mask >> n, i)
        gens.append(Monomial(x_part | y_part << (n - 1), n - 1))
    return minimalize(gens, n - 1)


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
    + beta_{i-1,b}(x_iJ ∩ y_iK).  Refuses (rather than guesses) when
    the hypothesis fails.
    """
    J, K = split.J, split.K
    if not (J.is_proper_nonzero and K.is_proper_nonzero):
        raise UnitOrZeroIdealError("splitting prediction needs proper nonzero J and K")
    tj = betti_table(J, field_tag)
    if not has_linear_resolution(J, field_tag, table=tj):
        raise JNotLinearError(f"J branch {J} does not have linear resolution")
    n = ideal.n
    x = Monomial.x(split.pivot, n)
    y = Monomial.y(split.pivot, n)
    xJ = scale(x, J)
    yK = scale(y, K)
    meet = intersect(xJ, yK)
    tk = betti_table(K, field_tag)
    tm = betti_table(intersect(J, K), field_tag)
    pd_pred = max(tj.pd, tk.pd, tm.pd + 1)
    reg_pred = max(tj.reg + 1, tk.reg + 1, tm.reg + 1)
    fine: dict[tuple[int, int], int] = {}
    for (i, b), r in betti_table(xJ, field_tag).fine.items():
        fine[(i, b)] = fine.get((i, b), 0) + r
    for (i, b), r in betti_table(yK, field_tag).fine.items():
        fine[(i, b)] = fine.get((i, b), 0) + r
    for (i, b), r in betti_table(meet, field_tag).fine.items():
        fine[(i + 1, b)] = fine.get((i + 1, b), 0) + r
    return SplitPrediction(pd_pred, reg_pred, fine)


def linear_quotients_search(ideal: MonomialIdeal) -> Optional[tuple[Monomial, ...]]:
    """Find a linear-quotient order of the minimal generators, or None.

    In an order g_1, ..., g_q every colon (g_1, ..., g_{j-1}) : g_j must
    be generated by variables; the colon depends only on the set placed
    before g_j.  Call a generator set R orderable when |R| <= 1 or some
    c in R is admissible after R - {c} and R - {c} is orderable.

    The search first decides whether the full set is orderable by
    peeling admissible last generators off it, memoizing the sets found
    not orderable; an ideal without linear quotients reaches few of
    them.  Only when the full set is orderable does it build the order:
    a forward backtracking over prefix sets, memoizing dead prefixes,
    that returns the lexicographically least admissible order under the
    canonical generator order.

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

    not_orderable: set[int] = set()

    def orderable(r: int) -> bool:
        if r & (r - 1) == 0:
            return True
        if r in not_orderable:
            return False
        rest = r
        while rest:
            bit = rest & -rest
            rest ^= bit
            if admissible(r ^ bit, bit.bit_length() - 1) and orderable(r ^ bit):
                return True
        not_orderable.add(r)
        return False

    full = (1 << q) - 1
    if not orderable(full):
        return None
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

    extend(0)
    return tuple(gens[i] for i in order)


def recursive_linear_check(ideal: PolarizedNeuralIdeal, pivot: str = "last") -> bool:
    """Homology-free linearity test for ideals generated in the full degree n.

    Recurses through I = x_i*J + y_i*K: linear iff both branches are
    linear, J ∩ K is generated by the shared generators (equivalently,
    in degree n - 1), and that shared-generator ideal is recursively
    linear.  When one branch contains the other the shared-generator
    ideal is just the smaller branch.  A zero branch reduces to the
    other branch alone (scaling by a variable preserves linearity).
    Base case n = 1: any subset of {x1, y1}.

    pivot: "last" always splits at the highest neuron; "smallest" picks
    the neuron giving the most even branch sizes.  The outcome is
    pivot-independent.
    """
    inner = ideal.inner
    _require_proper_nonzero(inner)
    if is_equigenerated(inner) != inner.n:
        raise NotEquigeneratedDegreeNError(
            f"{inner} is not generated in the full degree n = {inner.n}"
        )
    if pivot not in ("last", "smallest"):
        raise ValueError(f"unknown pivot rule {pivot!r}")
    return _recursive_check(inner, pivot)


def _pick_pivot(ideal: MonomialIdeal, rule: str) -> int:
    if rule == "last":
        return ideal.n
    best, best_score = ideal.n, None
    for i in range(1, ideal.n + 1):
        xbit = 1 << (i - 1)
        nx = sum(1 for g in ideal.gens if g.mask & xbit)
        score = abs(2 * nx - len(ideal.gens))
        if best_score is None or score < best_score:
            best, best_score = i, score
    return best


def _recursive_check(ideal: MonomialIdeal, rule: str) -> bool:
    n = ideal.n
    if n == 1:
        return True  # subsets of {x1, y1} are variable ideals
    i = _pick_pivot(ideal, rule)
    split = split_at_neuron(PolarizedNeuralIdeal(ideal), i)
    J = drop_neuron(split.J, i)
    K = drop_neuron(split.K, i)
    if J.is_zero:
        return _recursive_check(K, rule)
    if K.is_zero:
        return _recursive_check(J, rule)
    if not (_recursive_check(J, rule) and _recursive_check(K, rule)):
        return False
    common = set(J.gens) & set(K.gens)
    # J ∩ K is generated in degree n-1 iff every pairwise lcm is divisible
    # by a shared generator; only then can the splitting keep reg at n
    for a in J.gens:
        for b in K.gens:
            l = a.lcm(b)
            if not any(c.divides(l) for c in common):
                return False
    return _recursive_check(minimalize(sorted(common, key=Monomial.sort_key), n - 1), rule)


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
    """The product (x_1,y_1)(x_2,y_2)...(x_k,y_k): 2^k degree-k generators, pd = reg = k."""
    if not 1 <= k <= n:
        raise FamilyParameterError(f"need 1 <= k <= n, got k = {k}, n = {n}")
    gens = []
    for choice in range(1 << k):
        mask = 0
        for i in range(1, k + 1):
            if choice >> (i - 1) & 1:
                mask |= 1 << (n + i - 1)
            else:
                mask |= 1 << (i - 1)
        gens.append(Monomial(mask, n))
    return validate_polarized_neural(minimalize(gens, n))


FAMILIES = {
    "prop32": (family_prop32, "k", lambda n, k: {"pd": k - 1}),
    "prop33": (family_prop33, "k", lambda n, k: {"reg": n + k - 1}),
    "prop34-pd": (family_prop34_pd, "i", lambda n, i: {"pd": i}),
    "prop34-reg": (family_prop34_reg, "j", lambda n, j: {"reg": j}),
    "thm36": (family_thm36, "k", lambda n, k: {"pd": k, "reg": k}),
}
