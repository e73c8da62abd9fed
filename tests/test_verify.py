"""The verification harness itself: enumeration, sampling, reporting."""

import concurrent.futures
import hashlib
import json
import random
import sys
from collections import Counter, defaultdict

import brute_force
import pytest

from neuralideals import betti, codes, monomials, structure, verify
from neuralideals.betti import (
    BettiTable,
    dominant_check,
    dominant_invariants,
    has_linear_resolution,
)
from neuralideals.codes import NeuralCode
from neuralideals.homology import FieldTag
from neuralideals.monomials import (
    Monomial,
    MonomialIdeal,
    PolarizedNeuralIdeal,
    degree_n_ideal,
    intersect,
    minimalize,
)
from neuralideals.structure import JNotLinearError
from neuralideals.verify import (
    Counterexample,
    VerificationReport,
    check_degree_n_ideal,
    code_suite,
    dominant_suite,
    enumerate_degree_n_subsets,
    run_verification,
    sample_degree_n_subsets,
    scaling_suite,
)


def _replace_everywhere(monkeypatch, original, replacement) -> None:
    """Patch every package module, and the reference, that holds `original`."""
    holders = [m for name, m in list(sys.modules.items())
               if name == "neuralideals" or name.startswith("neuralideals.")]
    for module in holders + [brute_force]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def planted_faults(monkeypatch):
    """At n = 2 and n = 3, a wrong oracle on each ideal of two generators
    that differ at one neuron, all of them LR: it gives the table of two
    generators that differ at every neuron, and so does the linearity
    verdict that stops at the first entry off the strand.  A
    linear-quotient ideal of three generators gets a search that finds
    no order."""
    wrong_table, no_order = {}, set()
    for n in (2, 3):
        non_lr = degree_n_ideal(1 | 1 << (1 << n) - 1, n).inner
        for c in range(1 << n):
            for k in range(n):
                wrong_table[degree_n_ideal(1 << c | 1 << (c ^ 1 << k), n).inner] = non_lr
        no_order.add(degree_n_ideal(0b0111, n).inner)
    oracle, search = betti.betti_table, structure.linear_quotients_search
    linear = structure._linear_verdict

    def faulty_oracle(ideal, field_tag=FieldTag.F2):
        return oracle(wrong_table.get(ideal, ideal), field_tag)

    def faulty_linear(ideal, field_tag):
        return linear(wrong_table.get(ideal, ideal), field_tag)

    def faulty_search(ideal):
        return None if ideal in no_order else search(ideal)

    _replace_everywhere(monkeypatch, oracle, faulty_oracle)
    # the linearity verdict reads the same wrong tables
    _replace_everywhere(monkeypatch, linear, faulty_linear)
    _replace_everywhere(monkeypatch, search, faulty_search)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap the process pool for an in-process one; lists each pool's max_workers."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    # run_verification imports the pool class from here when it forks
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


class TestEnumeration:
    def test_universe_sizes(self):
        assert len(degree_n_ideal(0b1111, 2).inner.gens) == 4
        assert len(degree_n_ideal(0xFF, 3).inner.gens) == 8

    def test_universe_is_pair_excluding_full_degree(self):
        for mono in degree_n_ideal(0xFF, 3).inner.gens:
            assert mono.degree == 3
            assert mono.pair_violation() is None

    def test_subset_counts(self):
        assert sum(1 for _ in enumerate_degree_n_subsets(2)) == 15
        assert sum(1 for _ in enumerate_degree_n_subsets(3)) == 255

    def test_sampling_is_deterministic(self):
        assert sample_degree_n_subsets(4, 50, 7) == sample_degree_n_subsets(4, 50, 7)
        assert sample_degree_n_subsets(4, 50, 7) != sample_degree_n_subsets(4, 50, 8)

    def test_ideal_from_subset(self):
        P = degree_n_ideal(0b0011, 2)
        assert [str(g) for g in P.inner.gens] == ["x1*x2", "x2*y1"]


class TestPerIdealChecks:
    def test_clean_on_known_linear_ideal(self):
        for subset in (1, 0b1111, 0b0110):
            results = check_degree_n_ideal(degree_n_ideal(subset, 2))
            assert all(not fails for fails in results.values()), results


class TestCodeSuite:
    def test_empty_code_and_zero_word_code_have_distinct_subjects(self, monkeypatch):
        # a pipeline that always returns the zero ideal fails every code
        # but the full one; at n = 1 the draws include {} and {0}
        monkeypatch.setattr(codes, "code_to_polarized_ideal",
                            lambda code: degree_n_ideal(0, code.n))
        report = VerificationReport(n=1, mode="sample", seed=0)
        code_suite(report, trials=40, seed=3, n_max=1)
        subjects = {c.subject for c in report.counterexamples}
        assert {"{}", "0"} <= subjects


def _drop_last_neuron(ideal):
    """The ideal with neuron n's letter dropped from every generator:
    generators with a free neuron, whose supports hold two words."""
    n = ideal.n
    keep = ~(1 << n - 1 | 1 << 2 * n - 1)
    gens = [Monomial(g.mask & keep, n) for g in ideal.inner.gens]
    return PolarizedNeuralIdeal(minimalize(gens, n))


PIPELINE_FAULTS = {
    "none": lambda pipeline, code: pipeline(code),
    "zero ideal": lambda pipeline, code: degree_n_ideal(0, code.n),
    "word 0 toggled": lambda pipeline, code: pipeline(NeuralCode(code.n, code.words ^ {0})),
    "every degree-n generator": lambda pipeline, code:
        degree_n_ideal((1 << (1 << code.n)) - 1, code.n),
    "last neuron dropped": lambda pipeline, code: _drop_last_neuron(pipeline(code)),
    "x1*y1 only": lambda pipeline, code:
        PolarizedNeuralIdeal(MonomialIdeal(code.n, (Monomial(1 | 1 << code.n, code.n),))),
}


class TestCodeSuiteAgainstScan:
    """Each generator's support grown from its free neurons gives the
    counterexamples that scanning every word gave, for faulty pipelines."""

    @pytest.mark.parametrize("fault", PIPELINE_FAULTS)
    def test_same_counterexamples(self, monkeypatch, fault):
        pipeline = codes.code_to_polarized_ideal
        monkeypatch.setattr(codes, "code_to_polarized_ideal",
                            lambda code: PIPELINE_FAULTS[fault](pipeline, code))
        ours = VerificationReport(n=5, mode="sample", seed=0)
        ref = VerificationReport(n=5, mode="sample", seed=0)
        code_suite(ours, trials=150, seed=11, n_max=5)
        brute_force.code_suite(ref, trials=150, seed=11, n_max=5)
        assert ours.counterexamples == ref.counterexamples
        assert ours.suite_checked == ref.suite_checked == {"code-pipeline": 150}
        assert bool(ours.counterexamples) == (fault != "none")


class TestDrawsAgainstReference:
    """The mask-level draws give the ideals that a `Monomial` per mask and
    `minimalize` gave, and leave the generator in the same state."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_polarized_draws(self, n):
        shapes = [None] + [[i + 1 for i in range(n) if s >> i & 1] for s in range(1, 1 << n)]
        for seed, neurons in enumerate(shapes):
            ours, ref = random.Random(seed), random.Random(seed)
            for max_gens in (1, 2, 6, 8):
                for _ in range(4):
                    assert verify.random_polarized_ideal(ours, n, max_gens, neurons) == \
                        brute_force.random_polarized_ideal(ref, n, max_gens, neurons)
                    assert ours.getstate() == ref.getstate()

    @pytest.mark.parametrize("n", [1, 3])
    def test_empty_neuron_pool_is_refused(self, n):
        # every mask drawn from no neuron is the unit, so a draw would never end
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match="empty neuron pool"):
            verify.random_polarized_ideal(rng, n, neurons=[])
        assert rng.getstate() == state

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dominant_draws(self, n):
        ours, ref = random.Random(n), random.Random(n)
        for _ in range(300):
            assert verify.random_dominant_ideal(ours, n) == \
                brute_force.random_dominant_ideal(ref, n)
            assert ours.getstate() == ref.getstate()

    def test_dominant_draws_are_dominant_with_q_generators(self):
        # q is drawn right after the shuffle; a copy of the generator reads it
        rng = random.Random(28)
        for _ in range(10_000):
            n = rng.randint(1, 6)
            peek = random.Random()
            peek.setstate(rng.getstate())
            peek.shuffle(list(range(2 * n)))
            q = peek.randint(1, min(4, 2 * n))
            ideal = verify.random_dominant_ideal(rng, n)
            assert len(ideal.gens) == q and dominant_check(ideal) is not None


class TestOracleOncePerDistinctIdeal:
    """The scaling and dominant suites ask `betti_table` once per distinct
    ideal in one call, and still record every trial."""

    @staticmethod
    def spy(monkeypatch):
        asked = []
        oracle = verify.betti_table
        monkeypatch.setattr(verify, "betti_table",
                            lambda ideal, *a: asked.append(ideal) or oracle(ideal, *a))
        return asked

    @pytest.mark.parametrize("suite, kwargs, draws", [
        (scaling_suite, dict(trials=100, n=3), 200),
        (dominant_suite, dict(trials=200, n_max=4), 200),
    ])
    def test_one_call_per_distinct_ideal(self, monkeypatch, suite, kwargs, draws):
        asked = self.spy(monkeypatch)
        report = VerificationReport(n=4, mode="sample", seed=0)
        suite(report, seed=7, **kwargs)
        # seed 7 repeats ideals, so the draws outnumber the distinct ideals
        assert len(asked) == len(set(asked)) < draws
        assert sum(report.suite_checked.values()) == kwargs["trials"]
        assert report.ok

    def test_wrong_table_fails_every_draw_of_its_ideal(self, monkeypatch):
        rng = random.Random(7)
        draws = [verify.random_dominant_ideal(rng, rng.randint(1, 4)) for _ in range(200)]
        target, times = Counter(draws).most_common(1)[0]
        assert times > 1
        oracle = verify.betti_table
        wrong = BettiTable(target.n, coarse={(9, 10): 1})
        monkeypatch.setattr(verify, "betti_table",
                            lambda ideal, *a: wrong if ideal == target else oracle(ideal, *a))
        report = VerificationReport(n=4, mode="sample", seed=0)
        dominant_suite(report, trials=200, seed=7, n_max=4)
        detail = f"closed form {dominant_invariants(target)} != oracle (9, 1)"
        assert [(c.subject, c.detail) for c in report.counterexamples] == \
            [(str(target), detail)] * times


class TestRefusalText:
    def test_refused_splits_name_no_monomial(self, monkeypatch):
        """A J refusal inside `check_degree_n_ideal` builds no message."""
        named = []
        text = monomials.mask_text
        _replace_everywhere(monkeypatch, text, lambda *a: named.append(a) or text(*a))
        refusals = []
        predict = verify.betti_splitting_predict

        def counting(ideal, split, *args):
            try:
                return predict(ideal, split, *args)
            except JNotLinearError as exc:
                refusals.append((exc, split))
                raise

        monkeypatch.setattr(verify, "betti_splitting_predict", counting)
        for table in sample_degree_n_subsets(4, 40, 28):
            check_degree_n_ideal(degree_n_ideal(table, 4), exhaustive=False)
        assert refusals and named == []
        # the refused J stays on the exception, to be named when read
        assert all(exc.J is split.J for exc, split in refusals)


class TestRunVerification:
    def test_exhaustive_n2_all_green(self):
        report = run_verification(2, "exhaustive", seed=0)
        assert report.ok
        assert report.examined == 15
        assert report.suite_passes["agreement"] == 15
        assert report.suite_passes["bounds"] == 15

    def test_sample_mode_small(self):
        report = run_verification(4, "sample", seed=3, count=20)
        assert report.ok
        assert report.examined == 20
        assert "restriction" not in report.suite_checked

    def test_exhaustive_rejects_large_n(self):
        with pytest.raises(ValueError):
            run_verification(4, "exhaustive")

    def test_report_json_deterministic(self):
        a = run_verification(2, "exhaustive", seed=5).to_json_dict()
        b = run_verification(2, "exhaustive", seed=5).to_json_dict()
        a.pop("timings")
        b.pop("timings")
        assert json.dumps(a) == json.dumps(b)

    def test_report_counts_sum(self):
        report = run_verification(2, "exhaustive", seed=0)
        for suite in ("bounds", "oracle", "agreement", "splitting"):
            assert report.suite_checked[suite] == report.examined

    def test_parallel_matches_serial(self, monkeypatch):
        # two workers even on a one-CPU machine, so that the pool runs
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        serial = run_verification(3, "exhaustive", seed=1).to_json_dict()
        parallel = run_verification(3, "exhaustive", seed=1, jobs=2).to_json_dict()
        serial.pop("timings")
        parallel.pop("timings")
        assert serial == parallel

    @pytest.mark.parametrize("jobs, cpus, mode, expected", [
        (100_000, 4, "exhaustive", [4]),
        (100_000, 64, "exhaustive", [15]),
        (100_000, 64, "sample", [5]),
        (3, 64, "exhaustive", [3]),
        (2, 1, "exhaustive", []),
    ])
    def test_pool_is_capped(self, monkeypatch, pool_sizes, jobs, cpus, mode, expected):
        """min(jobs, ideals, CPUs) workers; a single one runs in process, with no pool."""
        monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
        report = run_verification(2, mode, seed=0, count=5, jobs=jobs)
        assert pool_sizes == expected
        assert report.ok


class TestRestrictionSuite:
    """The suite looks each restriction's verdicts up among the run's own;
    `brute_force.restriction_failures` decides them again."""

    @staticmethod
    def reference(n: int) -> dict[str, list[str]]:
        out = {}
        for table in enumerate_degree_n_subsets(n):
            ideal = degree_n_ideal(table, n)
            fails = brute_force.restriction_failures(ideal.inner)
            if fails:
                out[str(ideal)] = fails
        return out

    @pytest.mark.parametrize("n, faulty", [(2, False), (3, False), (2, True), (3, True)])
    def test_matches_reference_on_every_ideal(self, request, n, faulty):
        if faulty:
            request.getfixturevalue("planted_faults")
        report = run_verification(n, "exhaustive", seed=0)
        got = defaultdict(list)
        for c in report.counterexamples:
            if c.suite == "restriction":
                got[c.subject].append(c.detail)
        want = self.reference(n)
        assert dict(got) == want
        assert bool(want) == faulty
        assert report.suite_checked["restriction"] == report.examined

    def test_planted_faults_give_the_reference_counterexamples(self, planted_faults):
        report = run_verification(3, "exhaustive", seed=0)
        # the suites outside the degree-n loop are not part of the change
        want = [c for c in report.counterexamples
                if c.suite in ("scaling", "dominant", "code-pipeline")]
        for table in enumerate_degree_n_subsets(3):
            ideal = degree_n_ideal(table, 3)
            results = check_degree_n_ideal(ideal)
            results["restriction"] = brute_force.restriction_failures(ideal.inner)
            want += [Counterexample(suite, str(ideal), f)
                     for suite, fails in results.items() for f in fails]

        def key(c):
            return c.suite, c.subject, c.detail

        assert sorted(report.counterexamples, key=key) == sorted(want, key=key)
        assert any(c.suite == "restriction" for c in want)


# the pivot halves of degree-3 tables: J is the low nibble, K the high one
WRONG_K_HALF = 0b0011


def half_ideal(half: int) -> MonomialIdeal:
    """The K branch at neuron 3 of the degree-3 table with high nibble `half`;
    it is also the J branch of the table with low nibble `half`."""
    return structure.split_at_neuron(degree_n_ideal(half << 4, 3), 3).K


@pytest.fixture
def wrong_k_table(monkeypatch):
    """An oracle that gives the K branch of high nibble WRONG_K_HALF the
    table of the non-linear branch of nibble 0b1001; lists each ideal it
    was asked for."""
    target, wrong = half_ideal(WRONG_K_HALF), half_ideal(0b1001)
    oracle, asked = betti.betti_table, []

    def faulty_oracle(ideal, field_tag=FieldTag.F2):
        asked.append(ideal)
        return oracle(wrong if ideal == target else ideal, field_tag)

    _replace_everywhere(monkeypatch, oracle, faulty_oracle)
    return target, asked


class TestSplittingMemo:
    """A run decides each distinct J, K and J ∩ K once, and predicts what
    `brute_force.betti_splitting_predict` predicts from six tables."""

    @staticmethod
    def recorded_predictions(monkeypatch):
        """(ideal, split, field, memo, prediction or refusal) of every
        prediction `check_degree_n_ideal` asks for from here on."""
        calls = []
        predict = verify.betti_splitting_predict

        def recording(ideal, split, field_tag, memo):
            try:
                got = predict(ideal, split, field_tag, memo)
            except JNotLinearError as exc:
                calls.append((ideal, split, field_tag, memo, (JNotLinearError, str(exc))))
                raise
            calls.append((ideal, split, field_tag, memo, (got.pd, got.reg, got.fine)))
            return got

        monkeypatch.setattr(verify, "betti_splitting_predict", recording)
        return calls

    @pytest.mark.parametrize("field", list(FieldTag))
    @pytest.mark.parametrize("n, mode, count, seed", [
        (1, "exhaustive", 0, 0), (2, "exhaustive", 0, 0), (3, "exhaustive", 0, 0),
        (4, "sample", 40, 11), (5, "sample", 8, 13),
    ])
    def test_memoized_run_matches_the_reference(self, monkeypatch, n, mode, count, seed,
                                                field):
        calls = self.recorded_predictions(monkeypatch)
        report = run_verification(n, mode, seed=seed, count=count, field_tag=field)
        assert report.ok
        tables = (list(enumerate_degree_n_subsets(n)) if mode == "exhaustive"
                  else sample_degree_n_subsets(n, count, seed))
        splits = [verify.split_at_neuron(degree_n_ideal(t, n), n) for t in tables]
        assert len(calls) == sum(s.J.is_proper_nonzero and s.K.is_proper_nonzero
                                 for s in splits)
        # one memo for the whole serial run
        assert len({id(memo) for *_, memo, _ in calls}) <= 1
        assert all(isinstance(memo, dict) for *_, memo, _ in calls)
        for ideal, split, field_tag, memo, outcome in calls:
            assert field_tag is field
            try:
                want = brute_force.betti_splitting_predict(ideal, split, field)
            except JNotLinearError as exc:
                assert outcome == (JNotLinearError, str(exc))
            else:
                assert outcome == (want.pd, want.reg, want.fine)

    def test_one_memo_across_neuron_counts_and_fields(self):
        # first a split whose K is the ideal of the 6-vertex real
        # projective plane, whose table has torsion: F2 and Q predict apart.
        # The keys leave n out: one set of masks at n = 2 and at n = 3
        # names other variables but has the same Betti numbers
        n = 4
        rp2 = ["x1*x2*y1", "x2*x3*y1", "x1*x2*y2", "x1*x3*y2", "x3*y1*y2",
               "x1*x3*y3", "x2*x3*y3", "x1*y1*y3", "x2*y2*y3", "y1*y2*y3"]
        K = minimalize([monomials.parse_monomial(t, n) for t in rp2], n)
        J = minimalize([monomials.parse_monomial("x1", n)], n)
        ideal = minimalize([Monomial(1 | 1 << 3, n)]
                           + [Monomial(g.mask | 1 << 7, n) for g in K.gens], n)
        splits = [(ideal, structure.NeuronSplit(4, J, K))]
        for n in (2, 3):
            for table in enumerate_degree_n_subsets(n):
                P = degree_n_ideal(table, n)
                split = structure.split_at_neuron(P, n)
                if split.J.is_proper_nonzero and split.K.is_proper_nonzero:
                    splits.append((P.inner, split))
        memo = {}
        for field in FieldTag:
            for ideal, split in splits:
                outcomes = []
                for m in (memo, None):
                    try:
                        outcomes.append(structure.betti_splitting_predict(
                            ideal, split, field, m))
                    except JNotLinearError as exc:
                        assert exc.J is split.J
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1]
        torsion = [structure.betti_splitting_predict(*splits[0], field).fine
                   for field in FieldTag]
        assert torsion[0] != torsion[1]

    def test_halves_are_decided_once_per_run(self, monkeypatch):
        # at n = 3, 15 J verdicts for 225 ideals, and for the 195 of them
        # with a linear J, 15 K tables and 42 J ∩ K tables
        linear, oracle = structure._linear_verdict, betti.betti_table
        asked = Counter()

        def counting_linear(ideal, field_tag):
            asked["J"] += 1
            return linear(ideal, field_tag)

        def counting_oracle(ideal, field_tag=FieldTag.F2):
            asked["table"] += 1
            return oracle(ideal, field_tag)

        monkeypatch.setattr(structure, "_linear_verdict", counting_linear)
        monkeypatch.setattr(structure, "betti_table", counting_oracle)
        calls = self.recorded_predictions(monkeypatch)
        verify._check_subsets((3, list(enumerate_degree_n_subsets(3)), "f2", True))
        assert len(calls) == 225
        assert len({split.J for _, split, *_ in calls}) == 15
        predicted = [split for _, split, *_, outcome in calls if isinstance(outcome[0], int)]
        Ks = {split.K for split in predicted}
        meets = {intersect(split.J, split.K) for split in predicted}
        assert (len(predicted), len(Ks), len(meets)) == (195, 15, 42)
        # a K and a J ∩ K with the same generators share one table
        assert asked == {"J": 15, "table": len(Ks | meets)}

    def test_a_wrong_k_table_fails_every_ideal_with_that_half(self, wrong_k_table):
        target, asked = wrong_k_table
        report = run_verification(3, "exhaustive", seed=0)
        got = {c.subject for c in report.counterexamples if c.suite == "splitting"}
        # every ideal with that K half and a linear J fails, not only the
        # first one, whose check filled the memo
        failing = set()
        for table in enumerate_degree_n_subsets(3):
            P = degree_n_ideal(table, 3)
            if table >> 4 == WRONG_K_HALF and table & 0xF:
                if has_linear_resolution(structure.split_at_neuron(P, 3).J):
                    failing.add(str(P))
        assert len(failing) == 13 and failing <= got
        # the same splitting counterexamples as checking each ideal alone
        want = []
        for table in enumerate_degree_n_subsets(3):
            P = degree_n_ideal(table, 3)
            want += [(str(P), f) for f in check_degree_n_ideal(P)["splitting"]]
        assert sorted((c.subject, c.detail) for c in report.counterexamples
                      if c.suite == "splitting") == sorted(want)
        # one run's checks asked the oracle for that table once
        asked.clear()
        verify._check_subsets((3, list(enumerate_degree_n_subsets(3)), "f2", True))
        assert asked.count(target) == 1

    def test_pool_chunks_are_contiguous_with_one_memo_each(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        chunks, memos = [], []
        check_chunk, check = verify._check_subsets, verify.check_degree_n_ideal

        def recording_chunk(args):
            chunks.append(args[1])
            memos.append([])
            return check_chunk(args)

        def recording_check(ideal, field_tag, exhaustive, verdict, memo):
            memos[-1].append(memo)
            return check(ideal, field_tag, exhaustive, verdict, memo)

        monkeypatch.setattr(verify, "_check_subsets", recording_chunk)
        monkeypatch.setattr(verify, "check_degree_n_ideal", recording_check)
        parallel = run_verification(3, "exhaustive", seed=1, jobs=2).to_json_dict()
        assert pool_sizes == [2]
        assert [t for chunk in chunks for t in chunk] == list(enumerate_degree_n_subsets(3))
        assert [len(chunk) for chunk in chunks] == [127, 128]
        assert [len({id(m) for m in ms}) for ms in memos] == [1, 1]
        assert memos[0][0] is not memos[1][0]
        serial = run_verification(3, "exhaustive", seed=1).to_json_dict()
        parallel.pop("timings")
        serial.pop("timings")
        assert parallel == serial


class TestCounterexampleText:
    """Subjects are built only when a suite fails; the text must not change."""

    @pytest.fixture
    def failing_suites(self, monkeypatch):
        # every degree-n ideal fails the oracle suite, every scaling trial
        # with a multiplier of positive degree, every dominant trial, and
        # every code whose ideal is not zero
        monkeypatch.setattr(verify, "euler_discrepancy", lambda ideal, table: {1: 1})
        monkeypatch.setattr(verify, "scale", lambda u, ideal: ideal)
        monkeypatch.setattr(verify, "dominant_invariants", lambda ideal: (-1, -1))
        monkeypatch.setattr(codes, "code_to_polarized_ideal",
                            lambda code: degree_n_ideal(0, code.n))

    def test_planted_failures(self, failing_suites):
        report = run_verification(2, "exhaustive", seed=0)
        by_suite = defaultdict(list)
        for c in report.counterexamples:
            by_suite[c.suite].append((c.subject, c.detail))
        assert {suite: len(cs) for suite, cs in by_suite.items()} == {
            "oracle": 15, "scaling": 88, "dominant": 200, "code-pipeline": 172}
        assert by_suite["oracle"][2] == ("(x1*x2, x2*y1)",
                                         "Euler identity off at multidegrees [1]")
        assert by_suite["scaling"][2] == ("x1 * (x2, y2)",
                                          "reg 1 + deg 1 != 1 under scaling by x1")
        assert by_suite["dominant"][1] == ("(x1, y1)", "closed form (-1, -1) != oracle (1, 1)")
        assert by_suite["code-pipeline"][2] == (
            "01,10", "generator supports do not cover exactly the non-codewords")
        # the whole list, as recorded when every subject was built eagerly
        text = json.dumps([c.to_json_dict() for c in report.counterexamples])
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "de3d3449b94d80fdc80bf2025c7f22158392eaa7dc87a93917d34a6b495bd124"

    def test_passing_suites_build_no_subject(self, monkeypatch):
        built = []
        text = verify._table_text
        monkeypatch.setattr(verify, "_table_text", lambda *a: built.append(a) or text(*a))
        report = run_verification(3, "exhaustive", seed=0)
        assert report.ok and built == []
