"""Squarefree monomials and monomial ideals in the paired ring k[x_1..x_n, y_1..y_n].

A monomial is a bit set over the 2n variables: bit i-1 holds x_i, bit
n+i-1 holds y_i.  An ideal whose generators are all degree-n and
pair-excluding is also a 2^n-bit truth table, one bit per generator;
`degree_n_ideal` and `truth_table` convert between the two.  The
kernels on 2^m-bit tables live here too: bit-clear patterns, the subcube
closure, the points of transversal generators in a cube and the
renumbering of a mask's bits; no table exceeds 2^MAX_LCM_DEGREE cells.  All operations are exact and purely
combinatorial.  Everything here is an immutable value; functions never
mutate their arguments.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from functools import cache

MAX_NEURONS = 32  # 2n must fit a single machine word

# A table over 2^s cells, the Euler check's byte lanes or a truth table
# on s neurons: the check peaks near 6.4 * 2^s bytes, 102 MB at s = 24.
MAX_LCM_DEGREE = 24


class NeuronCountError(ValueError):
    """Neuron count outside [1, MAX_NEURONS]."""


class MonomialParseError(ValueError):
    """Malformed monomial or ideal text."""


class NonSquarefreeProductError(ValueError):
    """Multiplying monomials that share a variable would leave the squarefree world."""


class PairViolationError(ValueError):
    """A generator is divisible by some x_i * y_i."""

    def __init__(self, neuron: int, generator: "Monomial"):
        self.neuron = neuron
        self.generator = generator
        super().__init__(f"generator {generator} is divisible by x{neuron}*y{neuron}")


class NotSplittableError(ValueError):
    """Some generator is divisible by neither variable of the pivot pair."""

    def __init__(self, neuron: int, generator: "Monomial"):
        self.neuron = neuron
        self.generator = generator
        super().__init__(
            f"generator {generator} is divisible by neither x{neuron} nor y{neuron}"
        )


class ZeroIdealError(ValueError):
    """Operation undefined on the zero ideal."""


class UnitOrZeroIdealError(ValueError):
    """Operation undefined on the unit ideal or the zero ideal."""


class LcmDegreeError(ValueError):
    """A table of 2^s cells with s above MAX_LCM_DEGREE: the Euler check
    or an upper Koszul complex of an ideal whose lcm has degree s, or a
    truth table on s neurons."""


def _require_table_size(s: int, subject: str) -> None:
    """Refuse, before any 2^s work, a table above the budget."""
    if s > MAX_LCM_DEGREE:
        raise LcmDegreeError(
            f"{subject} needs 2^{s} table cells, above the limit 2^{MAX_LCM_DEGREE}")


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise NeuronCountError(f"neuron count must be a positive integer, got {n!r}")
    if n > MAX_NEURONS:
        raise NeuronCountError(f"neuron count {n} exceeds the supported maximum {MAX_NEURONS}")


def variable_name(bit: int, n: int) -> str:
    """Name of the variable sitting at bit position `bit` (0-based)."""
    return f"x{bit + 1}" if bit < n else f"y{bit - n + 1}"


@cache
def _byte_texts(n: int) -> tuple[tuple[str, ...], ...]:
    """For each byte of a 2n-bit mask, the texts of its 256 values: the
    names of the variables on its set bits, each followed by `*` (one
    tuple per n, built on first use)."""
    names = [variable_name(b, n) + "*" for b in range(2 * n)]
    return tuple(
        tuple("".join(name for j, name in enumerate(names[k:k + 8]) if v >> j & 1)
              for v in range(256))
        for k in range(0, 2 * n, 8))


def mask_text(mask: int, n: int) -> str:
    """The text of the squarefree monomial `mask` over n neurons: `x1*y2`, or `1`."""
    tables = _byte_texts(n)
    return "".join([table[v] for table, v in zip(
        tables, mask.to_bytes(len(tables), "little"))])[:-1] or "1"


class _Value:
    """A plain value class, equal to another of its class with equal fields (`vars`)."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented


class _Frozen(_Value):
    """A `_Value` whose `__init__` sets each field once, by `_set`
    (`object.__setattr__`): assigning or deleting a field later raises
    AttributeError, and the value hashes as the tuple of its fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(tuple(vars(self).values()))


_set = object.__setattr__


class Monomial(_Frozen):
    """A squarefree monomial over x_1..x_n, y_1..y_n, stored as a bit mask."""

    __slots__ = ("mask", "n")

    def __init__(self, mask: int, n: int):
        _check_n(n)
        if mask < 0 or mask >> (2 * n):
            raise ValueError(f"mask {mask:#x} does not fit 2n = {2 * n} bits")
        _set_mask(self, mask)
        _set_n(self, n)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.mask == other.mask and self.n == other.n
        return NotImplemented

    def __hash__(self):
        return hash((self.mask, self.n))

    def __reduce__(self):
        return Monomial, (self.mask, self.n)

    @classmethod
    def one(cls, n: int) -> "Monomial":
        return cls(0, n)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    @property
    def is_unit(self) -> bool:
        return self.mask == 0

    def divides(self, other: "Monomial") -> bool:
        return self.mask | other.mask == other.mask

    def __mul__(self, other: "Monomial") -> "Monomial":
        shared = self.mask & other.mask
        if shared:
            raise NonSquarefreeProductError(
                f"{self} * {other} is not squarefree (shared variable "
                f"{variable_name((shared & -shared).bit_length() - 1, self.n)})"
            )
        return Monomial(self.mask | other.mask, self.n)

    def pair_violation(self) -> int | None:
        """The least neuron i with both x_i and y_i dividing self, if any."""
        both = self.mask & (self.mask >> self.n)
        if both:
            return (both & -both).bit_length()
        return None

    def sort_key(self) -> tuple[int, int]:
        return (self.degree, self.mask)

    def __str__(self) -> str:
        return mask_text(self.mask, self.n)


# the slots' own setters, which the frozen `__setattr__` does not guard
_set_mask, _set_n = Monomial.mask.__set__, Monomial.n.__set__


_TOKEN_RE = re.compile(r"^([xy])(\d+)$")


def parse_monomial(text: str, n: int) -> Monomial:
    """Parse `x1*y2` / `x1 y2` style text; the literal `1` is the unit monomial."""
    _check_n(n)
    tokens = [t for t in re.split(r"[*\s]+", text.strip()) if t]
    if not tokens:
        raise MonomialParseError("empty monomial")
    if tokens == ["1"]:
        return Monomial.one(n)
    mask = 0
    for tok in tokens:
        m = _TOKEN_RE.match(tok)
        if not m:
            raise MonomialParseError(f"bad variable token {tok!r}")
        i = int(m.group(2))
        if not 1 <= i <= n:
            raise MonomialParseError(f"variable index out of range in {tok!r} (n = {n})")
        bit = i - 1 if m.group(1) == "x" else n + i - 1
        if mask >> bit & 1:
            raise MonomialParseError(f"repeated variable {tok!r} (monomials are squarefree)")
        mask |= 1 << bit
    return Monomial(mask, n)


class MonomialIdeal(_Frozen):
    """A monomial ideal given by its unique minimal generating set.

    `gens` is an antichain under divisibility, sorted by (degree, mask)
    and duplicate-free.  The zero ideal has no generators; the unit
    ideal is the sentinel generator set {1}.  Use `minimalize` to build
    one from an arbitrary generator list.
    """

    def __init__(self, n: int, gens: tuple[Monomial, ...]):
        _set(self, "n", n)
        _set(self, "gens", gens)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_unit

    @property
    def is_proper_nonzero(self) -> bool:
        return bool(self.gens) and not self.is_unit

    def max_degree(self) -> int:
        if self.is_zero:
            raise ZeroIdealError("the zero ideal has no generator degrees")
        return max(g.degree for g in self.gens)

    def lcm_of_gens(self) -> Monomial:
        if self.is_zero:
            raise ZeroIdealError("the zero ideal has no generators")
        mask = 0
        for g in self.gens:
            mask |= g.mask
        return Monomial(mask, self.n)

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def minimalize(gens: Iterable[Monomial], n: int) -> MonomialIdeal:
    """The ideal generated by `gens`, reduced to its minimal generating antichain.

    Idempotent and independent of input order.  An empty input yields
    the zero ideal; any unit among the generators yields the unit ideal.
    """
    _check_n(n)
    masks = set()
    for g in gens:
        if g.n != n:
            raise ValueError(f"generator {g} lives over n = {g.n}, expected {n}")
        masks.add(g.mask)
    return _masks_ideal(masks, n)


def _minimal_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """The minimal masks among `masks`, in (degree, mask) order, in which a
    mask's proper divisors come first.  Each mask is tested only against
    the kept masks of lower degree: distinct masks of one degree never
    divide each other."""
    kept: list[int] = []
    lower, degree = (), 0
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if m.bit_count() > degree:
            lower, degree = tuple(kept), m.bit_count()
        if not any(k | m == m for k in lower):
            kept.append(m)
    return tuple(kept)


def _masks_ideal(masks: Iterable[int], n: int) -> MonomialIdeal:
    """`minimalize` on int masks, each minimal one wrapped in a `Monomial` once."""
    _check_n(n)
    return MonomialIdeal(n, tuple(Monomial(m, n) for m in _minimal_masks(masks)))


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """I ∩ J, generated by the pairwise lcms (joined masks) of minimal generators."""
    if a.n != b.n:
        raise ValueError("intersect requires ideals over the same neuron count")
    return _masks_ideal({g.mask | h.mask for g in a.gens for h in b.gens}, a.n)


def scale(u: Monomial, ideal: MonomialIdeal) -> MonomialIdeal:
    """The ideal u*I for a multiplier u sharing no variable with any generator:
    the products keep the generators' (degree, mask) order and stay an antichain."""
    if u.n != ideal.n:
        raise ValueError(f"multiplier {u} lives over n = {u.n}, expected {ideal.n}")
    for g in ideal.gens:
        if g.mask & u.mask:
            raise NonSquarefreeProductError(
                f"multiplier {u} shares a variable with generator {g}"
            )
    return MonomialIdeal(ideal.n, tuple(Monomial(g.mask | u.mask, u.n) for g in ideal.gens))


def restrict(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """The subideal generated by the minimal generators dividing m.

    A subset of a sorted antichain is a sorted antichain, so the kept
    generators are already the minimal ones, in canonical order.
    """
    return MonomialIdeal(ideal.n, tuple(g for g in ideal.gens if g.divides(m)))


def is_equigenerated(ideal: MonomialIdeal) -> int | None:
    """The common generator degree, or None if generators have mixed degrees."""
    if ideal.is_zero:
        raise ZeroIdealError("equigeneration is undefined for the zero ideal")
    degrees = {g.degree for g in ideal.gens}
    return degrees.pop() if len(degrees) == 1 else None


def _cube_points(gens: list[int], n: int) -> tuple[tuple[int, ...], int] | None:
    """The generator masks `gens` as points of {0,1}^V, when each is a
    transversal of one neuron set N: one of x_i and y_i for each neuron
    of N and no other variable, as for a degree-n ideal, its pivot
    halves, thm36 and the ideal of a code.  V is the neurons on which
    they differ, those with both x_i and y_i in their lcm; off V they
    all agree, so a generator is the point with bit k set iff it takes
    y_i at the k-th neuron of V.  Returns the positions of V and the
    2^|V|-bit table of the points, or None for any other generator set,
    for a single generator, and for |V| > MAX_LCM_DEGREE / 2, whose
    tables would exceed the budget: deg lcm = |N| + |V| >= 2 |V|."""
    full = (1 << n) - 1
    support = (gens[0] | gens[0] >> n) & full
    lcm = 0
    for g in gens:
        if g & g >> n or (g | g >> n) & full != support:
            return None
        lcm |= g
    varying = lcm & lcm >> n
    if not varying or 2 * varying.bit_count() > MAX_LCM_DEGREE:
        return None
    positions = _positions(varying)
    table = 0
    for g in gens:
        table |= 1 << _compress(g >> n, positions)
    return positions, table


def _lcm_masks(gens: list[int]) -> set[int]:
    """The lcm closure of the masks `gens`: the lcm of every nonempty subset.

    Each round joins the masks first reached in the round before with
    every generator, so the closure costs |closure| * q joins.
    """
    closure = frontier = set(gens)
    while frontier:
        frontier = {a | g for a in frontier for g in gens} - closure
        closure |= frontier
    return closure


def lcm_closure(ideal: MonomialIdeal) -> list[Monomial]:
    """Closure of the generator multidegrees under pairwise lcm, sorted canonically.

    Multigraded Betti numbers vanish off this set, so it is the only
    multidegree range the homology oracle ever needs to scan.
    """
    out = [Monomial(m, ideal.n) for m in _lcm_masks([g.mask for g in ideal.gens])]
    out.sort(key=Monomial.sort_key)
    return out


class PolarizedNeuralIdeal(_Frozen):
    """A squarefree monomial ideal none of whose generators x_i*y_i divides.

    Wraps a plain MonomialIdeal; construct via `validate_polarized_neural`
    so the pair-exclusion invariant is always checked.
    """

    def __init__(self, inner: MonomialIdeal):
        _set(self, "inner", inner)

    @property
    def n(self) -> int:
        return self.inner.n

    def __str__(self) -> str:
        return str(self.inner)


def validate_polarized_neural(ideal: MonomialIdeal) -> PolarizedNeuralIdeal:
    """Wrap `ideal` after checking pair exclusion; report the first offending pair."""
    for g in ideal.gens:
        neuron = g.pair_violation()
        if neuron is not None:
            raise PairViolationError(neuron, g)
    return PolarizedNeuralIdeal(ideal)


def degree_n_ideal(table: int, n: int) -> PolarizedNeuralIdeal:
    """The degree-n ideal of a truth table: one generator per set bit.

    Bit c stands for the generator with y-bits c and x-bits full ^ c,
    the polarized indicator of the word full ^ c; `table` 0 is the zero
    ideal.  Ascending c is the canonical (degree, mask) order and
    distinct masks of one degree form an antichain, so the generators
    are the minimal ones as built.
    """
    _check_n(n)
    _require_table_size(n, f"a truth table on {n} neurons")
    if table < 0 or table.bit_length() > 1 << n:
        raise ValueError(f"truth table {table:#x} does not fit 2^{n} bits")
    full = (1 << n) - 1
    gens = tuple(Monomial(c << n | full ^ c, n)
                 for c, bit in enumerate(reversed(f"{table:b}")) if bit == "1")
    return PolarizedNeuralIdeal(MonomialIdeal(n, gens))


def truth_table(ideal: MonomialIdeal) -> int:
    """Inverse of `degree_n_ideal`: bit c set iff the generator with y-bits c is present.

    A generator divisible by neither x_i nor y_i raises NotSplittableError
    (least such i); one divisible by both raises PairViolationError.
    """
    n = ideal.n
    _require_table_size(n, f"a truth table on {n} neurons")
    full = (1 << n) - 1
    table = 0
    for g in ideal.gens:
        c = g.mask >> n
        neither = full & ~(g.mask | c)
        if neither:
            raise NotSplittableError((neither & -neither).bit_length(), g)
        if g.mask != c << n | full ^ c:
            raise PairViolationError(g.pair_violation(), g)
        table |= 1 << c
    return table


def _bit_clear_patterns(s: int) -> tuple[int, ...]:
    """For k < s, the 2^s-bit int whose bit c is set iff bit k of c is clear.

    Bit k of the index is clear in runs of 2^k indices that repeat with
    period 2^(k+1), so each pattern is one run doubled until it fills
    2^s bits by s - k - 1 shift-ORs, with no big-int division.  The low
    2^m bits of each pattern are the pattern for m < s, so one tuple
    serves every table of at most 2^s bits.
    """
    size = 1 << s
    out = []
    for k in range(s):
        pattern, width = (1 << (1 << k)) - 1, 2 << k
        while width < size:
            pattern |= pattern << width
            width <<= 1
        out.append(pattern)
    return tuple(out)


def _subcube_closure(table: int, patterns: tuple[int, ...], down: int = 0) -> int:
    """The points of `table` closed under setting index bit k where bit k
    of `down` is clear and clearing it where it is set, for each k below
    len(patterns): one shift-OR per bit with its bit-clear pattern."""
    for k, clear in enumerate(patterns):
        if down >> k & 1:
            table |= table >> (1 << k) & clear
        else:
            table |= (table & clear) << (1 << k)
    return table


def _positions(mask: int) -> tuple[int, ...]:
    """The set bit positions of mask, ascending: bit k of a renumbered mask
    stands for the k-th of them."""
    return tuple(p for p in range(mask.bit_length()) if mask >> p & 1)


def _compress(mask: int, positions: tuple[int, ...]) -> int:
    """The part of mask on `positions`, renumbered to bits 0..len - 1.

    Ascending positions whose last is len - 1 are 0..len - 1 themselves,
    and renumbering them changes nothing.
    """
    if not positions or positions[-1] == len(positions) - 1:
        return mask & (1 << len(positions)) - 1
    return sum(1 << k for k, p in enumerate(positions) if mask >> p & 1)


def _expand(c: int, positions: tuple[int, ...]) -> int:
    """Inverse of `_compress`: the bit mask of the renumbered c."""
    return sum(1 << p for k, p in enumerate(positions) if c >> k & 1)


def _content_lines(text: str) -> list[str]:
    """The lines of a file's text without `#` comments, stripped, blanks dropped."""
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [line for line in lines if line]


def parse_ideal(text: str, n: int | None = None) -> MonomialIdeal:
    """Parse an ideal file: one monomial per line, `#` comments, blanks ignored.

    The printed form `(m1, m2, ...)` of a `MonomialIdeal`, possibly over
    several lines, is read as well; `(0)` is the zero ideal.  When `n`
    is not given it is inferred as the largest variable index seen (at
    least 1).
    """
    lines = _content_lines(text)
    body = " ".join(lines)
    if body.startswith("(") and body.endswith(")"):
        lines = [] if body[1:-1].strip() == "0" else body[1:-1].split(",")
    if n is None:
        n = 1
        for line in lines:
            for tok in re.split(r"[*\s]+", line):
                m = _TOKEN_RE.match(tok)
                if m:
                    n = max(n, int(m.group(2)))
    gens = [parse_monomial(line, n) for line in lines]
    return minimalize(gens, n)


def render_ideal(ideal: MonomialIdeal) -> str:
    """One minimal generator per line, in canonical order."""
    return "\n".join(str(g) for g in ideal.gens) + ("\n" if ideal.gens else "")
