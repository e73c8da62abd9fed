"""Slow reference versions of the package's kernels, for differential tests.

Each function is the direct enumeration that a kernel in `neuralideals`
replaced: loops over all 2^q generator subsets, over all submasks of a
multidegree or of the generators' lcm, over a list of 2^s ints for the
subset Mobius transform, over pairwise lcms until nothing new appears, over sorted
vertex tuples of faces, over the generators of an ideal, over the columns of a
dense integer matrix, over every prefix of a generator order, over the
`Monomial` generators of each branch of a pivot split, over the six
Betti tables of a split and its scaled branches, over a sorted
list of all 2^n degree-n monomials, or over the indicator
pseudomonomials of a code's non-codewords.  They are exact and
obviously correct, and only usable for small inputs.  Alongside them
sit small helpers that `neuralideals` no longer needs and the tests
still do: colon ideals, monomial membership, single variables, the
irrelevant-complex test and the repunit form of the bit-clear patterns.
`restrict` reduces the kept generators again with `minimalize`, which
the package's version skips, and `compress` is the bit loop that
`_compress` skips for positions 0..len - 1.  `cube_points` reads each
generator's letter at each neuron through `Monomial.divides`, where
`_cube_points` works on whole masks.  `restriction_failures`
recomputes the Betti table and the linear-quotient search of every
restriction, which `verify` looks up among the verdicts of its own run.
`betti_json_dict` and `betti_text` render a Betti table through one
`Monomial` per fine entry, named by the loop over its support that
`Monomial.__str__` replaced, and `family_thm36` reduces its generators
with `minimalize`, which the package's version skips.  `cube_ranks`
builds the cells of a cubical complex from its codewords on every call
and ranks any complex with a square by `chain_ranks`, every map
eliminated, where `betti._cube_ranks` counts them off the subcube
sweep's cell table and eliminates only the maps that the counts and its
lemma leave open; `cube_cell_counts` counts the cells by testing every
point of every subcube.  `rank_rational` is the fraction-free (Bareiss)
elimination of a dense integer matrix, and `rank_fractions` the
Gauss-Jordan elimination on Fractions that checks it on small matrices.
`lcm_levels` maps each mask of the lcm closure to the fewest generators
whose lcm it is, by the breadth-first search that the package's
`_lcm_masks` runs without levels, and `reg_upper_bound_levels` walks
all of those levels, where `betti.reg_upper_bound_lcm` stops at the
level that decides the bound.  `scale` reduces the products u*g again
with `minimalize`, which the package's version skips.
`minimal_masks` keeps the masks that no other one divides by a scan of
every pair, where `monomials._minimal_masks` tests each mask only
against the kept masks of lower degree.
`random_polarized_ideal` and `random_dominant_ideal` are `verify`'s
draws as they were, through a `Monomial` per drawn mask and
`minimalize`, with the dominance re-check; `code_suite` finds each
generator's support by scanning every word, where `verify` grows it
from the generator's free neurons.
"""

import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from neuralideals import betti, codes, structure
from neuralideals.betti import BettiTable, dominant_check, has_linear_resolution
from neuralideals.codes import LengthMismatchError, NeuralCode, word_to_string
from neuralideals.homology import FieldTag, SimplicialComplex, chain_ranks, rank_f2
from neuralideals.monomials import (
    MAX_LCM_DEGREE,
    Monomial,
    MonomialIdeal,
    NonSquarefreeProductError,
    PolarizedNeuralIdeal,
    UnitOrZeroIdealError,
    is_equigenerated,
    minimalize,
    validate_polarized_neural,
    variable_name,
)
from neuralideals.structure import (
    JNotLinearError,
    NeuronSplit,
    SplitPrediction,
    split_at_neuron,
)


def _subset_lcms(ideal: MonomialIdeal):
    """(subset, lcm mask) for every nonempty generator subset, incrementally."""
    masks = [g.mask for g in ideal.gens]
    lcms = [0] * (1 << len(masks))
    for s in range(1, 1 << len(masks)):
        low = (s & -s).bit_length() - 1
        lcms[s] = lcms[s & (s - 1)] | masks[low]
        yield s, lcms[s]


def euler_discrepancy(ideal: MonomialIdeal, table: BettiTable) -> dict[int, int]:
    """Alternating Betti sum minus the signed count of subsets with each lcm."""
    coeff: dict[int, int] = {}
    for (i, m), rank in table.fine.items():
        coeff[m] = coeff.get(m, 0) + (-1) ** i * rank
    for s, m in _subset_lcms(ideal):
        sign = -1 if s.bit_count() % 2 == 0 else 1
        coeff[m] = coeff.get(m, 0) - sign
    return {m: c for m, c in coeff.items() if c}


def mobius_transform(values: list[int]) -> None:
    """In place, values[c] <- sum over submasks d of c of (-1)^|c-d| * values[d]:
    the inverse of the zeta transform over the subset lattice, by s * 2^(s-1)
    subtractions on a list of 2^s ints."""
    size = len(values)
    step = 1
    while step < size:
        for base in range(step, size, 2 * step):
            for c in range(base, base + step):
                values[c] -= values[c - step]
        step *= 2


def mobius_euler_discrepancy(ideal: MonomialIdeal, table: BettiTable) -> dict[int, int]:
    """Alternating Betti sum minus the Mobius transform of the membership
    table, which is the signed count of generator subsets with each lcm,
    at every one of the 2^s submasks of lcm(gens)."""
    coeff: dict[int, int] = {}
    for (i, m), rank in table.fine.items():
        coeff[m] = coeff.get(m, 0) + (-1) ** i * rank
    signed = list(membership_table(ideal))
    mobius_transform(signed)
    positions = lcm_positions(ideal)
    for c, count in enumerate(signed):
        if count:
            m = sum(1 << p for k, p in enumerate(positions) if c >> k & 1)
            coeff[m] = coeff.get(m, 0) - count
    return {m: c for m, c in coeff.items() if c}


def reg_upper_bound_lcm(ideal: MonomialIdeal) -> int:
    """1 + max over nonempty generator subsets A of deg(lcm(A)) - |A|."""
    return 1 + max(m.bit_count() - s.bit_count() for s, m in _subset_lcms(ideal))


def lcm_levels(gens: list[int]) -> dict[int, int]:
    """Each lcm-closure mask of `gens` mapped to the fewest generators whose lcm it is.

    Breadth-first search: level k+1 joins every mask first reached at
    level k with one more generator, so a mask's level is the size of
    its smallest generating subset.
    """
    levels = dict.fromkeys(gens, 1)
    frontier = list(levels)
    level = 1
    while frontier:
        level += 1
        new = []
        for a in frontier:
            for g in gens:
                c = a | g
                if c not in levels:
                    levels[c] = level
                    new.append(c)
        frontier = new
    return levels


def reg_upper_bound_levels(ideal: MonomialIdeal) -> int:
    """The same bound over the whole lcm closure, each mask at the fewest
    generators whose lcm it is, with no stop."""
    levels = lcm_levels([g.mask for g in ideal.gens])
    return 1 + max(b.bit_count() - k for b, k in levels.items())


def lcm_closure(ideal: MonomialIdeal) -> list[Monomial]:
    """Join every known mask with every other until the set stops growing."""
    masks = {g.mask for g in ideal.gens}
    while True:
        new = {a | b for a in masks for b in masks} - masks
        if not new:
            break
        masks |= new
    return sorted((Monomial(m, ideal.n) for m in masks), key=Monomial.sort_key)


def upper_koszul(ideal: MonomialIdeal, b: Monomial) -> SimplicialComplex:
    """Test every submask tau of b: a face iff some generator divides b and avoids tau."""
    relevant = [g.mask for g in ideal.gens if g.divides(b)]
    faces = set()
    if relevant:
        sub = b.mask
        while True:
            if any(g & sub == 0 for g in relevant):
                faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & b.mask
    return SimplicialComplex(b.mask, frozenset(faces))


def x_var(i: int, n: int) -> Monomial:
    """The variable x_i (1-indexed)."""
    return Monomial(1 << (i - 1), n)


def y_var(i: int, n: int) -> Monomial:
    """The variable y_i (1-indexed)."""
    return Monomial(1 << (n + i - 1), n)


def contains(ideal: MonomialIdeal, m: Monomial) -> bool:
    """Monomial membership: m lies in the ideal iff some generator divides it."""
    return any(g.divides(m) for g in ideal.gens)


def colon(ideal: MonomialIdeal, u: Monomial) -> MonomialIdeal:
    """The colon ideal I : u, via m -> m / gcd(u, m) over the minimal generators."""
    return minimalize((Monomial(g.mask & ~u.mask, ideal.n) for g in ideal.gens), ideal.n)


def minimal_masks(masks: list[int]) -> tuple[int, ...]:
    """The distinct masks that no other one divides, in (degree, mask) order."""
    distinct = set(masks)
    return tuple(sorted((m for m in distinct if not any(k | m == m != k for k in distinct)),
                        key=lambda m: (m.bit_count(), m)))


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """I ∩ J as the minimal generators of the pairwise lcms, each built as
    a validated `Monomial` from the OR of two masks."""
    if a.n != b.n:
        raise ValueError("intersect requires ideals over the same neuron count")
    return minimalize((Monomial(g.mask | h.mask, a.n) for g in a.gens for h in b.gens), a.n)


def scale(u: Monomial, ideal: MonomialIdeal) -> MonomialIdeal:
    """u*I as the minimal generators of the products u*g, each checked
    squarefree by `Monomial.__mul__`."""
    for g in ideal.gens:
        if g.mask & u.mask:
            raise NonSquarefreeProductError(
                f"multiplier {u} shares a variable with generator {g}"
            )
    return minimalize((u * g for g in ideal.gens), ideal.n)


def restrict(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """The generators dividing m, reduced again to a minimal antichain."""
    return minimalize((g for g in ideal.gens if g.divides(m)), ideal.n)


def restriction_failures(ideal: MonomialIdeal,
                         field_tag: FieldTag = FieldTag.F2) -> list[str]:
    """The restriction suite: LR and LQ must pass to I_{<=m} for each m in the
    lcm closure, both decided again for every restriction."""
    lr = has_linear_resolution(ideal, field_tag)
    lq = structure.linear_quotients_search(ideal) is not None
    fails = []
    if lr or lq:
        for m in lcm_closure(ideal):
            sub = restrict(ideal, m)
            if not sub.is_proper_nonzero or sub == ideal:
                continue
            if lr and not has_linear_resolution(sub, field_tag):
                fails.append(f"restriction to {m} loses linear resolution")
            if lq and structure.linear_quotients_search(sub) is None:
                fails.append(f"restriction to {m} loses linear quotients")
    return fails


def compress(mask: int, positions: tuple[int, ...]) -> int:
    """Bit k set iff mask has the k-th of `positions` set."""
    return sum(1 << k for k, p in enumerate(positions) if mask >> p & 1)


def cube_points(ideal: MonomialIdeal) -> Optional[tuple[tuple[int, ...], int]]:
    """`_cube_points` by a scan of each generator at each neuron: the
    letter, x or y, it takes at each neuron it touches, then the neurons
    of one touched set where the letters differ, at most MAX_LCM_DEGREE / 2
    of them, and each generator's point: bit k set iff it takes y at the
    k-th of them."""
    n = ideal.n
    letters = []
    for g in ideal.gens:
        row = {}
        for i in range(1, n + 1):
            has_x, has_y = x_var(i, n).divides(g), y_var(i, n).divides(g)
            if has_x and has_y:
                return None
            if has_x or has_y:
                row[i] = "y" if has_y else "x"
        letters.append(row)
    if any(row.keys() != letters[0].keys() for row in letters):
        return None
    varying = [i for i in letters[0] if len({row[i] for row in letters}) == 2]
    if not varying or 2 * len(varying) > MAX_LCM_DEGREE:
        return None
    points = 0
    for row in letters:
        points |= 1 << sum(1 << k for k, i in enumerate(varying) if row[i] == "y")
    return tuple(i - 1 for i in varying), points


def is_irrelevant(complex_: SimplicialComplex) -> bool:
    """The complex {∅}: only the empty face."""
    return complex_.faces == {0}


def bit_clear_patterns(s: int) -> tuple[int, ...]:
    """For k < s, the 2^s-bit int whose bit c is set iff bit k of c is clear:
    one run of 2^k ones times the repunit of period 2^(k+1), by big-int division."""
    size = 1 << s
    out = []
    for k in range(s):
        period = 2 << k
        repunit = ((1 << size) - 1) // ((1 << period) - 1)
        out.append(((1 << (1 << k)) - 1) * repunit)
    return tuple(out)


def subcube_closure(table: int, m: int, down: int) -> int:
    """The points c < 2^m above some point p of `table` in the order that
    reverses bit k for each bit k of `down`: (p ^ down) inside (c ^ down)."""
    points = [p for p in range(1 << m) if table >> p & 1]
    return sum(1 << c for c in range(1 << m)
               if any((p ^ down) & ~(c ^ down) == 0 for p in points))


def lcm_positions(ideal: MonomialIdeal) -> list[int]:
    """The variables of lcm(gens), as bit positions in increasing order."""
    top = 0
    for g in ideal.gens:
        top |= g.mask
    return [p for p in range(top.bit_length()) if top >> p & 1]


def membership_table(ideal: MonomialIdeal) -> bytes:
    """Byte c for every submask c of lcm(gens), its variables renumbered
    in increasing bit order: 1 iff some generator lies inside c."""
    positions = lcm_positions(ideal)
    out = []
    for c in range(1 << len(positions)):
        mask = sum(1 << p for k, p in enumerate(positions) if c >> k & 1)
        out.append(int(any(g.mask & ~mask == 0 for g in ideal.gens)))
    return bytes(out)


def _boundary_rank(lower: list[tuple[int, ...]], upper: list[tuple[int, ...]],
                   field: FieldTag) -> int:
    """Rank of the boundary map from the span of `upper` to the span of `lower`.

    Faces are given as sorted vertex tuples; `lower` holds the faces one
    dimension down (possibly the single empty face for the augmentation).
    Over Q every map is ranked as a dense integer matrix by `rank_rational`.
    """
    if not upper or not lower:
        return 0
    index = {f: i for i, f in enumerate(lower)}
    if field is FieldTag.F2:
        rows = []
        for face in upper:
            row = 0
            for k in range(len(face)):
                sub = face[:k] + face[k + 1:]
                row |= 1 << index[sub]
            rows.append(row)
        return rank_f2(rows)
    rows = []
    for face in upper:
        row = [0] * len(lower)
        for k in range(len(face)):
            row[index[face[:k] + face[k + 1:]]] = -1 if k % 2 else 1
        rows.append(row)
    return rank_rational(rows)


def reduced_homology_ranks(complex_: SimplicialComplex,
                           field: FieldTag = FieldTag.F2) -> dict[int, int]:
    """Reduced homology ranks from faces turned into sorted vertex tuples,
    with boundary rows built by slicing one vertex out of each tuple."""
    if complex_.is_void:
        return {}
    by_dim: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for f in complex_.faces:
        face = tuple(v for v in range(f.bit_length()) if f >> v & 1)
        by_dim[len(face) - 1].append(face)
    for faces in by_dim.values():
        faces.sort()
    top = max(by_dim)
    boundary_ranks: dict[int, int] = {}
    for d in range(0, top + 1):
        boundary_ranks[d] = _boundary_rank(by_dim.get(d - 1, []), by_dim.get(d, []), field)
    out: dict[int, int] = {}
    for d in range(-1, top + 1):
        dim_cd = len(by_dim.get(d, []))
        rank = dim_cd - boundary_ranks.get(d, 0) - boundary_ranks.get(d + 1, 0)
        if rank:
            out[d] = rank
    return out


def cube_ranks(codewords: int, free: int, field_tag: FieldTag) -> dict[int, int]:
    """The ranks `betti._cube_ranks` gives for the subcube with free set
    `free` whose codewords are the set bits of `codewords`, from cells
    built dimension by dimension out of the codewords alone: the cell
    c + span(g + j), j above the bits of g and clear in c, exists iff
    c + span(g) and c + j + span(g) do.  A complex with no square is
    ranked by `_graph_ranks`, any other by `homology.chain_ranks`; its
    dimension d is dimension k - 2 - d of K^b.  No rank is assumed zero."""
    bits = [1 << t for t in range(free.bit_length()) if free >> t & 1]
    k = len(bits)
    if not codewords:  # K^b is the whole sphere
        return {k - 1: 1}
    # the bit-clear pattern of each bit j, over 2^v bits past every codeword
    v = max(free.bit_length(), (codewords.bit_length() - 1).bit_length())
    clear = {1 << t: p for t, p in enumerate(bit_clear_patterns(v))}
    levels = [{0: codewords}]
    while True:
        grown = {}
        for g, bases in levels[-1].items():
            for j in bits:
                if j > g:
                    wide = bases & bases >> j & clear[j]
                    if wide:
                        grown[g | j] = wide
        if not grown:
            break
        levels.append(grown)
    if len(levels) <= 2:
        return _graph_ranks(codewords, levels[1] if len(levels) == 2 else {}, k)
    cells = [[g << 16 | c for g, bases in level.items()
              for c in range(bases.bit_length()) if bases >> c & 1] for level in levels]
    ranks = chain_ranks(cells, betti._cube_boundary, field_tag)
    return {k - 2 - d: rank for d, rank in ranks.items()}


def cube_cell_counts(codewords: int, c: int, free: int) -> list[int]:
    """The cells of each dimension 0..k of the cubical complex of the
    codewords (set bits of `codewords`) in the subcube c + span(free), by
    a scan of every subcube c' + span(g) of it, point by point."""
    bits = [1 << t for t in range(free.bit_length()) if free >> t & 1]
    subsets = [sum(j for t, j in enumerate(bits) if s >> t & 1) for s in range(1 << len(bits))]
    counts = [0] * (len(bits) + 1)
    for g in subsets:
        for base in subsets:
            if not base & g and all(codewords >> (c | base | s) & 1
                                    for s in subsets if not s & ~g):
                counts[g.bit_count()] += 1
    return counts


def _graph_ranks(points: int, edges: dict[int, int], k: int) -> dict[int, int]:
    """`cube_ranks` for a cubical complex with no square: a graph on
    `points`, with an edge from c to c + j for each base point c of
    edges[j].  With V points, E edges and C components, H̃_0 = C - 1 and
    H̃_1 = E - V + C over every field; each component is grown from its
    lowest point by shifts along the edge sets."""
    components, rest = 0, points
    while rest:
        component, reached = 0, rest & -rest
        while reached != component:
            component = reached
            for j, lower in edges.items():
                reached |= (component & lower) << j | component >> j & lower
        rest &= ~component
        components += 1
    cycles = sum(map(int.bit_count, edges.values())) - points.bit_count() + components
    return {dim: rank for dim, rank in ((k - 2, components - 1), (k - 3, cycles)) if rank}


def betti_table(ideal: MonomialIdeal, field_tag: FieldTag = FieldTag.F2) -> BettiTable:
    """Betti table from the submask-enumerated upper Koszul complexes and
    the tuple-based homology above, at every lcm-closure multidegree."""
    fine, coarse = {}, {}
    for b in lcm_closure(ideal):
        for dim, rank in reduced_homology_ranks(upper_koszul(ideal, b), field_tag).items():
            fine[(dim + 1, b.mask)] = rank
            key = (dim + 1, b.degree)
            coarse[key] = coarse.get(key, 0) + rank
    return BettiTable(ideal.n, fine, coarse)


def monomial_text(m: Monomial) -> str:
    """`x1*y2` text of m, one `variable_name` per variable of its support."""
    if m.mask == 0:
        return "1"
    return "*".join(variable_name(b, m.n) for b in range(2 * m.n) if m.mask >> b & 1)


def fine_entries(table: BettiTable) -> list[tuple[int, Monomial, int]]:
    """The fine entries with one `Monomial` each, by i, then `Monomial.sort_key`."""
    out = [(i, Monomial(m, table.n), r) for (i, m), r in table.fine.items()]
    out.sort(key=lambda t: (t[0], t[1].sort_key()))
    return out


def betti_json_dict(table: BettiTable) -> dict:
    """The Betti payload as plain dicts, its fine entries rendered through
    `fine_entries` above: `json.dumps(indent=2)` of it is the reference
    for `cli.json_text` of `BettiTable._json_payload`."""
    return {
        "fine": [
            {"i": i, "b": monomial_text(m), "rank": r} for i, m, r in fine_entries(table)
        ],
        "coarse": [
            {"i": i, "j": j, "rank": r}
            for (i, j), r in sorted(table.coarse.items())
        ],
        "pd": table.pd,
        "reg": table.reg,
    }


def betti_text(table: BettiTable) -> str:
    """What `neuralideals betti` prints without --json, through `fine_entries`."""
    return "\n".join([f"pd {table.pd}, reg {table.reg}",
                      *(f"  i={i} b={monomial_text(m)}  rank {r}"
                        for i, m, r in fine_entries(table))])


def rank_rational(rows: list[list[int]]) -> int:
    """Rank over the rationals of a dense integer matrix, by fraction-free
    (Bareiss) elimination.  Step k, with pivot entry p_k in the pivot row
    P, replaces each row below it by (p_k * row - row[col] * P) / p_{k-1},
    p_0 = 1; by Sylvester's identity every entry is then a minor of the
    input, so the division is exact and every entry stays an int.  A row
    with 0 in the pivot column is only scaled by p_k / p_{k-1}, and over
    a run of such steps the scales telescope, so each row keeps the pivot
    `level` it was last brought to and is scaled once, to p_{k-1} /
    level, when a step next needs it."""
    mat = [[list(r), 1] for r in rows if any(r)]
    rank, previous = 0, 1
    for col in range(len(mat[0][0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][0][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow, level = mat[rank]
        if level != previous:
            prow = [x * previous // level for x in prow]
        p = prow[col]
        for entry in mat[rank + 1:]:
            row, level = entry
            if row[col]:
                if level != previous:
                    row = [x * previous // level for x in row]
                factor = row[col]
                entry[:] = [(p * x - factor * y) // previous for x, y in zip(row, prow)], p
        previous = p
        rank += 1
    return rank


def rank_fractions(rows: list[list[int]]) -> int:
    """Rank over the rationals of a dense matrix, by Gauss-Jordan on
    Fractions: the check of `rank_rational` on small matrices."""
    if not rows:
        return 0
    mat = [[Fraction(v) for v in r] for r in rows]
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        inv = 1 / prow[col]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col] * inv
                row = mat[r]
                for c in range(col, ncols):
                    row[c] -= factor * prow[c]
        rank += 1
        if rank == len(mat):
            break
    return rank


def _step_admissible(prefix_masks: list[int], candidate: int) -> bool:
    """Is colon(prefix, candidate) generated by variables?

    The colon generators are p & ~candidate over the prefix; the colon
    is variable-generated iff every such quotient contains some
    single-bit quotient.
    """
    quots = [p & ~candidate for p in prefix_masks]
    singles = 0
    for q in quots:
        if q.bit_count() == 1:
            singles |= q
    return all(q & singles for q in quots)


def linear_quotients_search(ideal: MonomialIdeal) -> Optional[tuple[Monomial, ...]]:
    """Forward backtracking over prefix sets: the lex-least admissible order, or None."""
    gens = ideal.gens
    q = len(gens)
    full = (1 << q) - 1
    order: list[int] = []
    dead: set[int] = set()

    def backtrack(used: int) -> bool:
        if used == full:
            return True
        prefix = [gens[o].mask for o in order]
        for idx in range(q):
            bit = 1 << idx
            if used & bit or used | bit in dead:
                continue
            if _step_admissible(prefix, gens[idx].mask):
                order.append(idx)
                if backtrack(used | bit):
                    return True
                order.pop()
                dead.add(used | bit)
        return False

    if backtrack(0):
        return tuple(gens[i] for i in order)
    return None


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
            l = a.mask | b.mask
            if not any(c.mask | l == l for c in common):
                return False
    return _recursive_check(minimalize(sorted(common, key=Monomial.sort_key), n - 1), rule)


def recursive_linear_check(ideal: PolarizedNeuralIdeal, pivot: str = "last") -> bool:
    """The pivot recursion on `MonomialIdeal` branches, renumbering each
    branch with `drop_neuron` and testing every pairwise lcm against the
    shared generators.  Expects a degree-n pair-excluding ideal."""
    return _recursive_check(ideal.inner, pivot)


def betti_splitting_predict(ideal: MonomialIdeal, split: NeuronSplit,
                            field_tag: FieldTag = FieldTag.F2) -> SplitPrediction:
    """The splitting prediction from six Betti tables: J, K and J ∩ K for
    pd and reg, and the scaled branches x_iJ, y_iK and their intersection
    x_iJ ∩ y_iK for the fine table."""
    J, K = split.J, split.K
    if not (J.is_proper_nonzero and K.is_proper_nonzero):
        raise UnitOrZeroIdealError("splitting prediction needs proper nonzero J and K")
    tj = betti.betti_table(J, field_tag)
    if tj.reg != is_equigenerated(J):
        raise JNotLinearError(J)
    n = ideal.n
    xJ = scale(x_var(split.pivot, n), J)
    yK = scale(y_var(split.pivot, n), K)
    tk = betti.betti_table(K, field_tag)
    tm = betti.betti_table(intersect(J, K), field_tag)
    fine: dict[tuple[int, int], int] = {}
    for shift, scaled in ((0, xJ), (0, yK), (1, intersect(xJ, yK))):
        for (i, b), r in betti.betti_table(scaled, field_tag).fine.items():
            fine[(i + shift, b)] = fine.get((i + shift, b), 0) + r
    return SplitPrediction(max(tj.pd, tk.pd, tm.pd + 1),
                           max(tj.reg + 1, tk.reg + 1, tm.reg + 1), fine)


def degree_n_universe(n: int) -> list[Monomial]:
    """All 2^n full-degree pair-excluding monomials, canonically sorted."""
    out = []
    for choice in range(1 << n):
        mask = 0
        for i in range(n):
            mask |= 1 << (n + i) if choice >> i & 1 else 1 << i
        out.append(Monomial(mask, n))
    out.sort(key=Monomial.sort_key)
    return out


def family_thm36(n: int, k: int) -> PolarizedNeuralIdeal:
    """(x_1,y_1)...(x_k,y_k), one bit per variable, reduced by `minimalize`."""
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


def ideal_from_subset(universe: list[Monomial], subset: int) -> PolarizedNeuralIdeal:
    """The ideal of the universe members at the set bits of `subset`."""
    gens = [universe[i] for i in range(len(universe)) if subset >> i & 1]
    return validate_polarized_neural(minimalize(gens, universe[0].n))


@dataclass(frozen=True)
class Pseudomonomial:
    """prod_{i in sigma} x_i * prod_{j in tau} (1 - x_j) over neurons 1..n."""

    sigma: frozenset[int]
    tau: frozenset[int]
    n: int

    def __post_init__(self):
        if self.sigma & self.tau:
            raise ValueError(f"sigma and tau overlap: {sorted(self.sigma & self.tau)}")
        for i in self.sigma | self.tau:
            if not 1 <= i <= self.n:
                raise ValueError(f"index {i} out of range for n = {self.n}")


def evaluate(p: Pseudomonomial, word: int, n: int) -> int:
    """1 iff the word is 1 on sigma and 0 on tau."""
    if n != p.n or word < 0 or word >> n:
        raise LengthMismatchError(f"codeword {word:#x} over n = {n}, pseudomonomial over {p.n}")
    if any(not word >> (i - 1) & 1 for i in p.sigma):
        return 0
    return 0 if any(word >> (j - 1) & 1 for j in p.tau) else 1


def vanishing_generators(code: NeuralCode) -> set[Pseudomonomial]:
    """One indicator pseudomonomial per non-codeword: sigma its support, tau the rest."""
    n = code.n
    out = set()
    for v in range(1 << n):
        if v not in code.words:
            sigma = frozenset(i for i in range(1, n + 1) if v >> (i - 1) & 1)
            out.add(Pseudomonomial(sigma, frozenset(range(1, n + 1)) - sigma, n))
    return out


def pseudo_divides(p: Pseudomonomial, q: Pseudomonomial) -> bool:
    """Containment of both index sets."""
    return p.sigma <= q.sigma and p.tau <= q.tau


def minimize_pseudos(ps: set[Pseudomonomial]) -> set[Pseudomonomial]:
    """Keep only the divisibility-minimal pseudomonomials."""
    return {p for p in ps if not any(q != p and pseudo_divides(q, p) for q in ps)}


def polarize(p: Pseudomonomial) -> Monomial:
    """x-bits at sigma, y-bits at tau."""
    mask = sum(1 << (i - 1) for i in p.sigma) + sum(1 << (p.n + j - 1) for j in p.tau)
    return Monomial(mask, p.n)


def code_to_polarized_ideal(code: NeuralCode) -> PolarizedNeuralIdeal:
    """Vanishing generators -> minimize -> polarize -> minimalize."""
    pseudos = minimize_pseudos(vanishing_generators(code))
    return validate_polarized_neural(minimalize((polarize(p) for p in pseudos), code.n))


def random_polarized_ideal(rng: random.Random, n: int, max_gens: int = 6,
                           neurons: Optional[list[int]] = None) -> MonomialIdeal:
    """`verify.random_polarized_ideal` through `Monomial` and `minimalize`."""
    pool = neurons if neurons is not None else list(range(1, n + 1))
    while True:
        gens = []
        for _ in range(rng.randint(1, max_gens)):
            mask = 0
            for i in pool:
                r = rng.random()
                if r < 1 / 3:
                    mask |= 1 << (i - 1)
                elif r < 2 / 3:
                    mask |= 1 << (n + i - 1)
            if mask:
                gens.append(Monomial(mask, n))
        ideal = minimalize(gens, n)
        if ideal.is_proper_nonzero:
            return ideal


def random_dominant_ideal(rng: random.Random, n: int) -> MonomialIdeal:
    """`verify.random_dominant_ideal`, drawing again until `minimalize`
    keeps q generators and `dominant_check` passes."""
    while True:
        variables = list(range(2 * n))
        rng.shuffle(variables)
        q = rng.randint(1, min(4, 2 * n))
        private, shared = variables[:q], variables[q:]
        gens = []
        for k in range(q):
            mask = 1 << private[k]
            for b in shared:
                if rng.random() < 0.3:
                    mask |= 1 << b
            gens.append(Monomial(mask, n))
        ideal = minimalize(gens, n)
        if len(ideal.gens) == q and dominant_check(ideal) is not None:
            return ideal


def code_suite(report, trials: int, seed: int, n_max: int = 4) -> None:
    """`verify.code_suite`, scanning every word for each generator's support."""
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(1, n_max)
        words = frozenset(w for w in range(1 << n) if rng.random() < 0.5)
        code = NeuralCode(n, words)
        ideal = codes.code_to_polarized_ideal(code)
        full = (1 << n) - 1
        non_words = (1 << n) - len(words)
        fails = []
        covered = set()
        for g in ideal.inner.gens:
            # g is 1 at w iff its x-bits lie in w and its y-bits miss w
            hits = [w for w in range(1 << n)
                    if not g.mask & full & ~w and not (g.mask >> n) & w]
            fails.extend(f"{g} does not vanish on codeword {word_to_string(w, n)}"
                         for w in hits if w in words)
            covered.update(hits)
        if covered != set(range(1 << n)) - words:
            fails.append("generator supports do not cover exactly the non-codewords")
        if len(ideal.inner.gens) != non_words:
            fails.append(f"{len(ideal.inner.gens)} generators for {non_words} non-codewords")
        if any(g.degree != n for g in ideal.inner.gens):
            fails.append("pipeline output not equigenerated in degree n")
        report.record("code-pipeline", lambda: ",".join(code.word_strings()) or "{}", fails)
