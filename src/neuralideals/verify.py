"""Verification harness: exhaustive / sampled checking of the structural results.

Drives every invariant suite over the degree-n universe (all ideals
generated by full-degree pair-excluding monomials), plus the random-set
suites for dominant closed forms, scaling, and the code pipeline.  A
correct implementation produces a report with zero counterexamples.
"""

from __future__ import annotations

import functools
import os
import random
import time
from collections.abc import Callable, Iterator

from . import codes as codes_mod
from .betti import (
    betti_table,
    dominant_invariants,
    euler_discrepancy,
    has_linear_resolution,
    reg_upper_bound_lcm,
)
from .homology import FieldTag
from .monomials import (
    MAX_NEURONS,
    Monomial,
    MonomialIdeal,
    NeuronCountError,
    PolarizedNeuralIdeal,
    _Value,
    _lcm_masks,
    _masks_ideal,
    _require_table_size,
    degree_n_ideal,
    mask_text,
    minimalize,
    scale,
)
from .structure import (
    JNotLinearError,
    betti_splitting_predict,
    linear_quotients_search,
    recursive_linear_check,
    split_at_neuron,
)


class Counterexample(_Value):
    def __init__(self, suite: str, subject: str, detail: str):
        self.suite = suite
        self.subject = subject
        self.detail = detail

    def to_json_dict(self) -> dict:
        return {"suite": self.suite, "subject": self.subject, "detail": self.detail}


class VerificationReport(_Value):
    """Outcome of one verification run; deterministic given (n, mode, seed)."""

    def __init__(self, n: int, mode: str, seed: int, examined: int = 0,
                 field_tag: str = FieldTag.F2.value):
        self.n = n
        self.mode = mode
        self.seed = seed
        self.examined = examined
        self.field_tag = field_tag
        self.suite_passes: dict[str, int] = {}
        self.suite_checked: dict[str, int] = {}
        self.counterexamples: list[Counterexample] = []
        self.findings: list[str] = []
        self.timings: dict[str, float] = {}

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def record(self, suite: str, subject: Callable[[], str], failures: list[str]) -> None:
        """Count one check of `suite`; `subject` gives the text naming what
        was checked, and is called only when there are failures."""
        self.suite_checked[suite] = self.suite_checked.get(suite, 0) + 1
        if failures:
            text = subject()
            for f in failures:
                self.counterexamples.append(Counterexample(suite, text, f))
        else:
            self.suite_passes[suite] = self.suite_passes.get(suite, 0) + 1

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "mode": self.mode,
            "seed": self.seed,
            "field": self.field_tag,
            "examined": self.examined,
            "suites": {
                suite: {
                    "checked": self.suite_checked[suite],
                    "passed": self.suite_passes.get(suite, 0),
                }
                for suite in sorted(self.suite_checked)
            },
            "counterexamples": [c.to_json_dict() for c in self.counterexamples],
            "findings": list(self.findings),
            "timings": {k: round(v, 3) for k, v in sorted(self.timings.items())},
        }


def enumerate_degree_n_subsets(n: int) -> Iterator[int]:
    yield from range(1, 1 << (1 << n))


def sample_degree_n_subsets(n: int, count: int, seed: int) -> list[int]:
    """Uniform over nonempty subsets of the degree-n universe, with replacement."""
    rng = random.Random(seed)
    top = 1 << (1 << n)
    return [rng.randrange(1, top) for _ in range(count)]


def check_degree_n_ideal(ideal: PolarizedNeuralIdeal,
                         field_tag: FieldTag = FieldTag.F2,
                         exhaustive: bool = True,
                         verdict: list[bool] | None = None,
                         memo: dict | None = None) -> dict[str, list[str]]:
    """Run every per-ideal suite; returns suite name -> list of failures.

    `exhaustive` adds the F2-against-Q table comparison, which only
    exhaustive runs afford.  A `verdict` list, when given, receives the
    ideal's linear resolution and linear quotients verdicts, in that
    order: `run_verification` decides the restriction suite from them
    once every ideal is checked.  A `memo` dict is handed to the
    splitting suite's `betti_splitting_predict`, which keeps the pivot
    halves' verdicts and tables in it; `run_verification` keeps one for
    each chunk of ideals it checks.
    """
    inner = ideal.inner
    n = inner.n
    results: dict[str, list[str]] = {}
    table = betti_table(inner, field_tag)
    pd, reg = table.pd, table.reg

    fails = []
    if not 0 <= pd <= 2 * n - 1:
        fails.append(f"pd = {pd} outside [0, {2 * n - 1}]")
    if not 1 <= reg <= 2 * n - 1:
        fails.append(f"reg = {reg} outside [1, {2 * n - 1}]")
    if pd > n:
        fails.append(f"pd = {pd} exceeds n = {n} for a degree-n ideal")
    if reg < n:
        fails.append(f"reg = {reg} below n = {n} for a degree-n ideal")
    results["bounds"] = fails

    fails = []
    disc = euler_discrepancy(inner, table)
    if disc:
        fails.append(f"Euler identity off at multidegrees {sorted(disc)}")
    gen_masks = {g.mask for g in inner.gens}
    beta0 = {b: r for (i, b), r in table.fine.items() if i == 0}
    if beta0 != {m: 1 for m in gen_masks}:
        fails.append(f"beta_0 multidegrees {sorted(beta0)} != mingens {sorted(gen_masks)}")
    if reg < inner.max_degree():
        fails.append(f"reg = {reg} below max generator degree {inner.max_degree()}")
    bound = reg_upper_bound_lcm(inner)
    if reg > bound:
        fails.append(f"reg = {reg} exceeds the lcm-subset bound {bound}")
    results["oracle"] = fails

    fails = []
    lr = table.reg == n  # degree-n equigenerated
    rlc = recursive_linear_check(ideal, pivot="last")
    rlc_alt = recursive_linear_check(ideal, pivot="smallest")
    lq = linear_quotients_search(inner)
    if rlc != lr:
        fails.append(f"recursive check {rlc} != oracle linear resolution {lr}")
    if (lq is not None) != lr:
        fails.append(f"linear quotients {'found' if lq else 'absent'} but oracle LR is {lr}")
    if rlc_alt != rlc:
        fails.append("recursive check depends on the pivot rule")
    results["agreement"] = fails

    if verdict is not None:
        verdict[:] = lr, lq is not None

    fails = []
    split = split_at_neuron(ideal, n)
    if split.J.is_proper_nonzero and split.K.is_proper_nonzero:
        try:
            pred = betti_splitting_predict(inner, split, field_tag, memo)
        except JNotLinearError:
            pred = None
        if pred is not None:
            if (pred.pd, pred.reg) != (pd, reg):
                fails.append(
                    f"splitting predicts (pd, reg) = ({pred.pd}, {pred.reg}), "
                    f"oracle gives ({pd}, {reg})"
                )
            if pred.fine != table.fine:
                fails.append("termwise Betti splitting identity fails")
    results["splitting"] = fails

    if exhaustive:
        other = betti_table(inner, FieldTag.RATIONALS if field_tag is FieldTag.F2
                            else FieldTag.F2)
        results["field-compare"] = (["Betti table differs between F2 and the rationals"]
                                    if other.fine != table.fine else [])

    return results


def _check_subsets(args) -> list[tuple[dict[str, list[str]], list[bool] | None]]:
    """(suite failures, verdicts) for each truth table of a chunk: the
    (LR, LQ) verdicts in exhaustive runs, None in sampled ones.  One
    splitting memo serves the whole chunk and ends with it."""
    n, subsets, field_value, exhaustive = args
    field_tag = FieldTag(field_value)
    memo: dict = {}
    outcomes = []
    for subset in subsets:
        verdict = [] if exhaustive else None
        results = check_degree_n_ideal(degree_n_ideal(subset, n), field_tag, exhaustive,
                                       verdict, memo)
        outcomes.append((results, verdict))
    return outcomes


def _table_text(table: int, n: int) -> str:
    """The printed form of the degree-n ideal with truth table `table`."""
    return str(degree_n_ideal(table, n))


def _divisor_tables(n: int) -> list[int]:
    """For each mask m over the 2n variables, the truth table of the degree-n
    generators that divide m: the restriction I_{<=m} of the ideal with
    table T has table T & divisors[m]."""
    gens = degree_n_ideal((1 << (1 << n)) - 1, n).inner.gens
    return [sum(1 << c for c, g in enumerate(gens) if g.mask | m == m)
            for m in range(1 << 2 * n)]


def _restriction_failures(table: int, n: int, verdicts: dict[int, list[bool]],
                          divisors: list[int]) -> list[str]:
    """The restriction suite of the ideal I with truth table `table`: linear
    resolution and linear quotients pass to I_{<=m} for each m in the lcm
    closure, taken in canonical (degree, mask) order.

    `verdicts` maps every nonzero degree-n table to the (LR, LQ) verdicts
    of its own check and `divisors` is `_divisor_tables(n)`, so each
    restriction's verdicts are looked up, not decided again.
    """
    lr, lq = verdicts[table]
    fails = []
    if not (lr or lq):
        return fails
    gens = [c << n | (1 << n) - 1 ^ c for c in range(1 << n) if table >> c & 1]
    for m in sorted(_lcm_masks(gens), key=lambda m: (m.bit_count(), m)):
        # m is an lcm of generators, so the restriction is nonzero
        sub = table & divisors[m]
        if sub == table:
            continue
        sub_lr, sub_lq = verdicts[sub]
        if lr and not sub_lr:
            fails.append(f"restriction to {mask_text(m, n)} loses linear resolution")
        if lq and not sub_lq:
            fails.append(f"restriction to {mask_text(m, n)} loses linear quotients")
    return fails


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def random_polarized_ideal(rng: random.Random, n: int,
                           max_gens: int = 6,
                           neurons: list[int] | None = None) -> MonomialIdeal:
    """A random pair-excluding squarefree ideal, optionally confined to `neurons`."""
    pool = neurons if neurons is not None else list(range(1, n + 1))
    if not pool:
        raise ValueError("an empty neuron pool draws only the unit monomial")
    while True:
        masks = []
        for _ in range(rng.randint(1, max_gens)):
            mask = 0
            for i in pool:
                r = rng.random()
                if r < 1 / 3:
                    mask |= 1 << (i - 1)
                elif r < 2 / 3:
                    mask |= 1 << (n + i - 1)
            if mask:
                masks.append(mask)
        ideal = _masks_ideal(masks, n)
        if ideal.is_proper_nonzero:
            return ideal


def _invariants_once(seen: dict, ideal: MonomialIdeal) -> tuple[int, int]:
    """(pd, reg) by `betti_table`, kept in `seen` by (n, generator masks)."""
    key = ideal.n, tuple(g.mask for g in ideal.gens)
    got = seen.get(key)
    if got is None:
        table = betti_table(ideal)
        got = seen[key] = table.pd, table.reg
    return got


def scaling_suite(report: VerificationReport, trials: int, seed: int, n: int = 3) -> None:
    """pd(uI) = pd(I) and reg(uI) = reg(I) + deg(u) for variable-disjoint u."""
    rng = random.Random(seed)
    seen: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}
    for _ in range(trials):
        k = rng.randint(1, n - 1)
        inside = sorted(rng.sample(range(1, n + 1), k))
        outside = [i for i in range(1, n + 1) if i not in inside]
        ideal = random_polarized_ideal(rng, n, neurons=inside)
        umask = 0
        for i in outside:
            r = rng.random()
            if r < 0.45:
                umask |= 1 << (i - 1)
            elif r < 0.9:
                umask |= 1 << (n + i - 1)
        u = Monomial(umask, n)
        scaled = scale(u, ideal)
        pd0, reg0 = _invariants_once(seen, ideal)
        pd1, reg1 = _invariants_once(seen, scaled)
        fails = []
        if pd1 != pd0:
            fails.append(f"pd changed {pd0} -> {pd1} under scaling by {u}")
        if reg1 != reg0 + u.degree:
            fails.append(f"reg {reg0} + deg {u.degree} != {reg1} under scaling by {u}")
        report.record("scaling", lambda: f"{u} * {ideal}", fails)


def random_dominant_ideal(rng: random.Random, n: int) -> MonomialIdeal:
    """A random ideal whose minimal generators form a dominant set: each of
    the q drawn generators holds a variable that no other one holds."""
    variables = list(range(2 * n))
    rng.shuffle(variables)
    q = rng.randint(1, min(4, 2 * n))
    private, shared = variables[:q], variables[q:]
    masks = []
    for k in range(q):
        mask = 1 << private[k]
        for b in shared:
            if rng.random() < 0.3:
                mask |= 1 << b
        masks.append(mask)
    return _masks_ideal(masks, n)


def dominant_suite(report: VerificationReport, trials: int, seed: int, n_max: int = 4) -> None:
    """Closed-form dominant (pd, reg) equals the homology oracle exactly."""
    rng = random.Random(seed)
    seen: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}
    for _ in range(trials):
        n = rng.randint(1, n_max)
        ideal = random_dominant_ideal(rng, n)
        closed = dominant_invariants(ideal)
        pd, reg = _invariants_once(seen, ideal)
        fails = []
        if closed != (pd, reg):
            fails.append(f"closed form {closed} != oracle ({pd}, {reg})")
        report.record("dominant", ideal.__str__, fails)


def code_suite(report: VerificationReport, trials: int, seed: int, n_max: int = 4) -> None:
    """Pipeline soundness for random codes: vanishing, sharpness, ideal shape."""
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(1, n_max)
        words = frozenset(w for w in range(1 << n) if rng.random() < 0.5)
        code = codes_mod.NeuralCode(n, words)
        ideal = codes_mod.code_to_polarized_ideal(code)
        full = (1 << n) - 1
        non_words = (1 << n) - len(words)
        codewords = sum(1 << w for w in words)  # bit w set iff w is a codeword
        fails, covered = [], 0
        for g in ideal.inner.gens:
            # g is 1 at w iff its x-bits lie in w and its y-bits miss w: at
            # x plus any set of its free neurons, or nowhere if x and y meet
            x, y = g.mask & full, g.mask >> n & full
            support = 0 if x & y else 1 << x
            free = full & ~(x | y)
            while free:
                support |= support << (free & -free)
                free &= free - 1
            covered |= support
            if support & codewords:
                fails.extend(f"{g} does not vanish on codeword {codes_mod.word_to_string(w, n)}"
                             for w in sorted(words) if support >> w & 1)
        if covered != (1 << (1 << n)) - 1 ^ codewords:
            fails.append("generator supports do not cover exactly the non-codewords")
        # for the full code this is the zero-ideal check
        if len(ideal.inner.gens) != non_words:
            fails.append(f"{len(ideal.inner.gens)} generators for {non_words} non-codewords")
        if any(g.degree != n for g in ideal.inner.gens):
            fails.append("pipeline output not equigenerated in degree n")
        report.record("code-pipeline", lambda: ",".join(code.word_strings()) or "{}", fails)


def lr_lq_witness_findings(n: int, degree: int, trials: int, seed: int) -> list[str]:
    """Search sub-maximal-degree ideals for a linear-resolution-without-
    linear-quotients witness; reports, never asserts."""
    rng = random.Random(seed)
    universe = [Monomial(m, n) for m in range(1, 1 << (2 * n))
                if m.bit_count() == degree and not m & m >> n]
    witnesses = []
    for _ in range(trials):
        count = rng.randint(1, min(6, len(universe)))
        gens = rng.sample(universe, count)
        ideal = minimalize(gens, n)
        if not ideal.is_proper_nonzero:
            continue
        lr = has_linear_resolution(ideal)
        lq = linear_quotients_search(ideal) is not None
        if lr != lq:
            witnesses.append(f"{ideal}: linear resolution {lr}, linear quotients {lq}")
    if witnesses:
        return [f"LR/LQ disagreement at n={n}, degree {degree}: {w}" for w in witnesses]
    return [
        f"no LR/LQ disagreement found among {trials} sampled degree-{degree} "
        f"ideals at n={n}"
    ]


def run_verification(n: int, mode: str = "exhaustive", seed: int = 0,
                     count: int = 500, field_tag: FieldTag = FieldTag.F2,
                     jobs: int = 1) -> VerificationReport:
    """Full verification pass; see the CLI `verify` subcommand.  With `jobs`
    > 1 and more than one usable CPU the ideals are checked in a process
    pool, imported only then; the report is the same for every `jobs`."""
    if mode not in ("exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 1 <= n <= MAX_NEURONS:
        raise NeuronCountError(f"neuron count must lie in [1, {MAX_NEURONS}], got {n}")
    # generators that differ at every neuron have an lcm of degree 2n
    _require_table_size(2 * n, f"verify at n = {n}, an lcm of degree {2 * n}")
    if mode == "exhaustive" and n > 3:
        raise ValueError("exhaustive mode is limited to n <= 3")
    # one sampled ideal took 3.4-4.7 s at n = 10, 40-60 s at n = 11 (2 cores)
    if mode == "sample" and n > 10:
        raise ValueError(f"sample mode is limited to n <= 10, got n = {n}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if mode == "sample" and count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    report = VerificationReport(n=n, mode=mode, seed=seed, field_tag=field_tag.value)
    exhaustive = mode == "exhaustive"

    t0 = time.perf_counter()
    if exhaustive:
        subsets = list(enumerate_degree_n_subsets(n))
    else:
        subsets = sample_degree_n_subsets(n, count, seed)
    # the output does not depend on the worker count, and a pool forks
    # all its workers up front
    workers = min(jobs, len(subsets), _usable_cpus())
    if workers > 1:
        # contiguous chunks, so that each chunk's memo sees tables that
        # share their pivot halves
        bounds = [len(subsets) * w // workers for w in range(workers + 1)]
        chunks = [(n, subsets[a:b], field_tag.value, exhaustive)
                  for a, b in zip(bounds, bounds[1:])]
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = [o for chunk in pool.map(_check_subsets, chunks) for o in chunk]
    else:
        outcomes = _check_subsets((n, subsets, field_tag.value, exhaustive))
    if exhaustive:
        # every nonzero table is checked, so every restriction is looked up
        verdicts = {s: verdict for s, (_, verdict) in zip(subsets, outcomes)}
        divisors = _divisor_tables(n)
    for s, (results, _) in zip(subsets, outcomes):
        subject = functools.partial(_table_text, s, n)
        for suite, failures in results.items():
            report.record(suite, subject, failures)
        if exhaustive:
            report.record("restriction", subject,
                          _restriction_failures(s, n, verdicts, divisors))
    report.examined = len(subsets)
    report.timings["degree-n-ideals"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    scaling_suite(report, trials=100, seed=seed + 1, n=min(n, 3) if n >= 2 else 2)
    report.timings["scaling"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    dominant_suite(report, trials=200, seed=seed + 2, n_max=min(n, 4))
    report.timings["dominant"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    code_suite(report, trials=100, seed=seed + 3, n_max=min(n, 4))
    report.timings["code-pipeline"] = time.perf_counter() - t0

    if exhaustive and n >= 3:
        t0 = time.perf_counter()
        report.findings.extend(lr_lq_witness_findings(n, n - 1, trials=100, seed=seed + 4))
        report.timings["lr-lq-witness"] = time.perf_counter() - t0
    if exhaustive and not any(c.suite == "field-compare" for c in report.counterexamples):
        report.findings.append(
            f"Betti tables agree between F2 and the rationals on all "
            f"{report.examined} degree-{n} ideals"
        )
    return report
