"""The verification harness itself: enumeration, sampling, reporting."""

import json

import pytest

from neuralideals import codes
from neuralideals.monomials import degree_n_ideal
from neuralideals.verify import (
    VerificationReport,
    check_degree_n_ideal,
    code_suite,
    enumerate_degree_n_subsets,
    run_verification,
    sample_degree_n_subsets,
)


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

    def test_parallel_matches_serial(self):
        serial = run_verification(2, "exhaustive", seed=1)
        parallel = run_verification(2, "exhaustive", seed=1, jobs=2)
        assert serial.to_json_dict()["suites"] == parallel.to_json_dict()["suites"]
