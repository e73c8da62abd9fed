"""CLI surface: subcommands, formats, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import brute_force
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_betti import three_generators

import neuralideals
from neuralideals import cli
from neuralideals.betti import BettiTable, betti_table
from neuralideals.cli import main
from neuralideals.homology import FieldTag
from neuralideals.monomials import degree_n_ideal, parse_ideal, parse_monomial, render_ideal
from neuralideals.verify import random_polarized_ideal


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def koszul_file(tmp_path):
    path = tmp_path / "pair.ideal"
    path.write_text("x1\ny1\n")
    return str(path)


class TestInvariantsCommand:
    def test_simple_pair(self, capsys, koszul_file):
        code, out, _ = run_cli(capsys, "invariants", koszul_file)
        assert code == 0
        assert "pd:  1" in out and "reg: 1" in out

    def test_prop33_regularity(self, capsys, tmp_path):
        path = tmp_path / "reg.ideal"
        path.write_text("x1*x2\ny1*x2\n")
        code, out, _ = run_cli(capsys, "invariants", str(path))
        assert code == 0 and "reg: 2" in out

    def test_pair_violation_exit_3(self, capsys, tmp_path):
        path = tmp_path / "bad.ideal"
        path.write_text("x1*y1\n")
        code, _, err = run_cli(capsys, "invariants", str(path))
        assert code == 3 and "x1*y1" in err

    def test_raw_allows_pair_violation(self, capsys, tmp_path):
        path = tmp_path / "bad.ideal"
        path.write_text("x1*y1\n")
        code, out, _ = run_cli(capsys, "invariants", "--raw", str(path))
        assert code == 0 and "pd:  0" in out

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "junk.ideal"
        path.write_text("z9**\n")
        code, _, err = run_cli(capsys, "invariants", str(path))
        assert code == 2 and "error" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "invariants", "/no/such/file")
        assert code == 2

    @pytest.mark.parametrize("command", ["invariants", "check-linear"])
    def test_pivot_option_exit_2(self, capsys, koszul_file, command):
        # the recursive check's verdict is the same under either pivot rule,
        # so there is no option to choose one
        code, out, err = run_cli(capsys, command, "--pivot", "last", koszul_file)
        assert (code, out) == (2, "") and "--pivot" in err

    @pytest.mark.parametrize("command",
                             ["invariants", "betti", "check-linear", "from-code", "polarize"])
    def test_non_utf8_file_exit_2(self, capsys, tmp_path, command):
        path = tmp_path / "binary.ideal"
        path.write_bytes(b"x1*x2\n\xff\n")
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (2, "") and err.startswith(f"error: cannot read {path}: ")

    def test_json_schema(self, capsys, koszul_file):
        code, out, _ = run_cli(capsys, "invariants", "--json", koszul_file)
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["pd"] == 1 and payload["reg"] == 1

    def test_json_deterministic(self, capsys, koszul_file):
        _, first, _ = run_cli(capsys, "invariants", "--json", koszul_file)
        _, second, _ = run_cli(capsys, "invariants", "--json", koszul_file)
        assert first == second

    def test_reads_printed_ideal(self, capsys, tmp_path):
        # str(ideal), the form of every `verify` counterexample subject
        lines = tmp_path / "lines.ideal"
        lines.write_text("x1*x2*x3\nx2*x3*y1\n")
        printed = tmp_path / "printed.ideal"
        printed.write_text(str(parse_ideal(lines.read_text())) + "\n")
        assert printed.read_text() == "(x1*x2*x3, x2*x3*y1)\n"
        code, out, _ = run_cli(capsys, "invariants", "--json", str(printed))
        assert code == 0
        assert run_cli(capsys, "invariants", "--json", str(lines)) == (0, out, "")

    def test_dense_degree_5_ideal(self, capsys, tmp_path):
        # 30 of the 32 degree-5 generators, without linear quotients
        removed = {"x2*x3*x4*x5*y1", "x1*x3*x4*x5*y2"}
        every = degree_n_ideal((1 << 32) - 1, 5).inner.gens
        gens = [str(g) for g in every if str(g) not in removed]
        path = tmp_path / "dense.ideal"
        path.write_text("\n".join(gens) + "\n")
        code, out, _ = run_cli(capsys, "invariants", "--json", str(path))
        payload = json.loads(out)
        assert code == 0 and len(payload["ideal"]) == 30
        assert payload["reg"] == 6 and payload["linear_quotients"] is None

    @pytest.mark.parametrize("n", [28, 32])
    def test_wide_two_generator_ideal(self, capsys, tmp_path, n):
        # x1*...*xn and y1*...*yn: the linear-quotient refusal answers at
        # once, and the recursive check's truth table is refused
        path = tmp_path / "wide.ideal"
        path.write_text("".join("*".join(f"{c}{i}" for i in range(1, n + 1)) + "\n"
                                for c in "xy"))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "invariants", str(path))
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        assert err == (f"error: a truth table on {n} neurons needs 2^{n} table cells, "
                       "above the limit 2^24\n")


class TestBettiCommand:
    def test_json_table(self, capsys, koszul_file):
        code, out, _ = run_cli(capsys, "betti", "--json", koszul_file)
        payload = json.loads(out)
        assert payload["coarse"] == [
            {"i": 0, "j": 1, "rank": 2}, {"i": 1, "j": 2, "rank": 1}]

    def test_rational_field_flag(self, capsys, koszul_file):
        code, out, _ = run_cli(capsys, "betti", "--field", "q", "--json", koszul_file)
        assert code == 0 and json.loads(out)["pd"] == 1


# the 6-vertex real projective plane as K^b at the top multidegree: it has
# 2-torsion, so its Betti tables over F2 and Q differ
RP2_IDEAL = ("x1*x2*y1\nx2*x3*y1\nx1*x2*y2\nx1*x3*y2\nx3*y1*y2\n"
             "x1*x3*y3\nx2*x3*y3\nx1*y1*y3\nx2*y2*y3\ny1*y2*y3\n")


def indented(payload):
    return json.dumps(payload, indent=2)


class TestBettiRenderingAgainstMonomials:
    """Betti entries named from int masks and written by `cli.json_text`
    print the same bytes as `json.dumps(indent=2)` of the reference that
    builds one `Monomial` and one dict per entry."""

    def test_every_degree_3_ideal(self, capsys, tmp_path):
        path = tmp_path / "d3.ideal"
        for subset in range(1, 256):
            ideal = degree_n_ideal(subset, 3).inner
            table = betti_table(ideal)
            assert cli.json_text(table._json_payload()) == indented(
                brute_force.betti_json_dict(table))
            path.write_text(render_ideal(ideal))
            code, out, _ = run_cli(capsys, "betti", "-n", "3", str(path))
            assert code == 0 and out == brute_force.betti_text(table) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 6), st.integers(0, 2 ** 32))
    def test_random_polarized_ideals(self, n, seed):
        table = betti_table(random_polarized_ideal(random.Random(seed), n))
        assert cli.json_text(table._json_payload()) == indented(brute_force.betti_json_dict(table))

    @pytest.mark.parametrize("field", ["f2", "q"])
    def test_projective_plane(self, capsys, tmp_path, field):
        path = tmp_path / "rp2.ideal"
        path.write_text(RP2_IDEAL)
        table = betti_table(parse_ideal(RP2_IDEAL), FieldTag(field))
        code, out, _ = run_cli(capsys, "betti", "--raw", "--json", "--field", field, str(path))
        assert code == 0
        assert out == indented({"schema": 1, "n": 3, **brute_force.betti_json_dict(table)}) + "\n"
        code, out, _ = run_cli(capsys, "betti", "--raw", "--field", field, str(path))
        assert code == 0 and out == brute_force.betti_text(table) + "\n"


@st.composite
def betti_tables(draw, max_entries=30):
    """A `BettiTable` with 0, 1 or many fine entries and a nonempty coarse part."""
    n = draw(st.integers(1, 6))
    fine = draw(st.dictionaries(
        st.tuples(st.integers(0, 2 * n), st.integers(0, (1 << 2 * n) - 1)),
        st.integers(1, 1000), max_size=max_entries))
    coarse = draw(st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                                  st.integers(1, 1000), min_size=1, max_size=6))
    return BettiTable(n, fine, coarse)


_SCALARS = (st.none() | st.booleans() | st.integers(-10 ** 12, 10 ** 12) | st.floats()
            | st.text(max_size=6)
            | st.sampled_from(['"', "\\", "\u00e9", "\u2603\n", "\U0001f600"]))


def _writer_payloads():
    """(payload, reference) pairs: the reference replaces each Betti "fine"
    list by the dicts of `brute_force.betti_json_dict`; json writes a
    tuple as a list."""
    leaves = _SCALARS.map(lambda v: (v, v)) | betti_tables(max_entries=4).map(
        lambda t: (t._json_payload()["fine"], brute_force.betti_json_dict(t)["fine"]))

    def containers(children):
        return (st.tuples(st.sampled_from([list, tuple]), st.lists(children, max_size=4)).map(
                    lambda a: (a[0](v for v, _ in a[1]), [r for _, r in a[1]]))
                | st.dictionaries(st.text(max_size=4), children, max_size=4).map(
                    lambda d: ({k: v for k, (v, _) in d.items()},
                               {k: r for k, (_, r) in d.items()})))
    return st.recursive(leaves, containers, max_leaves=16)


class TestJsonWriter:
    """`cli.json_text` writes the bytes of `json.dumps(payload, indent=2)`."""

    @settings(max_examples=400, deadline=None)
    @given(_writer_payloads())
    def test_generated_payloads(self, pair):
        payload, reference = pair
        assert cli.json_text(payload) == indented(reference)

    @pytest.mark.parametrize("payload", [{}, [], None, True, False, -7, "a\"b\\c\u00e9",
                                         {"": []}, [{}, [[]]], {"k": [None, -1, "\u2603"]}])
    def test_edge_payloads(self, payload):
        assert cli.json_text(payload) == indented(payload)

    @settings(max_examples=100, deadline=None)
    @given(betti_tables())
    @example(BettiTable(1, {}, {(0, 0): 1}))
    @example(BettiTable(1, {(0, 1): 1}, {(0, 1): 1}))
    def test_fine_lists_at_cli_depths(self, table):
        """The `betti` payload holds its fine list at depth 1, the
        `invariants` and `from-code` reports at depth 2."""
        for wrap in (lambda b: {"schema": 1, "n": table.n, **b},
                     lambda b: {"schema": 1, "n": table.n, "betti": b, "dominant": None}):
            assert cli.json_text(wrap(table._json_payload())) == indented(
                wrap(brute_force.betti_json_dict(table)))


class TestParserReuse:
    """`main` builds its parser once per process and reuses it."""

    @staticmethod
    def outcome(capsys, argv):
        """(how `main` ended, stdout, stderr): ("return", status) or ("exit", code)."""
        try:
            ended = ("return", main(argv))
        except SystemExit as exc:
            ended = ("exit", exc.code)
        captured = capsys.readouterr()
        return ended, captured.out, captured.err

    def test_reused_parser_answers_like_a_fresh_one(self, capsys, koszul_file, tmp_path):
        code_file = tmp_path / "two.code"
        code_file.write_text("00\n11\n")
        sequence = [
            ["invariants", "--json", koszul_file],
            ["invariants", "--field", "r", koszul_file],
            ["betti", koszul_file],
            ["polarize", str(code_file)],
            ["from-code", "--invariants", "--json", str(code_file)],
            ["family", "thm36", "--n", "3", "--k", "3", "--check"],
        ]
        reused = [self.outcome(capsys, argv) for argv in sequence]
        fresh = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        assert reused == fresh
        assert [ended for ended, _, _ in reused] == [
            ("return", 0), ("exit", 2), ("return", 0), ("return", 0), ("return", 0),
            ("return", 0)]
        _, out, err = reused[1]
        assert out == "" and err.startswith("usage: neuralideals invariants")
        assert cli.build_parser() is cli.build_parser()


class TestCheckLinear:
    def test_linear_case(self, capsys, tmp_path):
        path = tmp_path / "lin.ideal"
        path.write_text("x1*x2\ny1*x2\nx1*y2\n")
        code, out, _ = run_cli(capsys, "check-linear", str(path))
        assert code == 0
        assert out.count("yes") == 3

    def test_nonlinear_case(self, capsys, tmp_path):
        path = tmp_path / "nonlin.ideal"
        path.write_text("x1*x2\ny1*y2\n")
        code, out, _ = run_cli(capsys, "check-linear", str(path))
        assert code == 0
        assert out.count("no") == 3

    @pytest.mark.parametrize("text, linear", [
        ("x1*x2\ny1*x2\nx1*y2\n", True),
        ("x1*x2\ny1*y2\n", False),
    ])
    def test_json_matches_invariants(self, capsys, tmp_path, text, linear):
        path = tmp_path / "ideal.ideal"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "check-linear", "--json", str(path))
        report_code, report_out, _ = run_cli(capsys, "invariants", "--json", str(path))
        assert code == report_code == 0
        checked, report = json.loads(out), json.loads(report_out)
        assert list(checked) == ["schema", "n", "ideal", "linear_resolution",
                                 "linear_quotients", "recursive_linear_check"]
        assert checked == {key: report[key] for key in checked}
        assert checked["linear_resolution"] is linear

    def test_mixed_degree_linear_quotients_agree(self, capsys, tmp_path):
        # linear quotients without linear resolution is no disagreement
        # when the generators have different degrees
        path = tmp_path / "mixed.ideal"
        path.write_text("x1\nx2*y3\n")
        code, out, err = run_cli(capsys, "check-linear", str(path))
        assert code == 0 and "DISAGREEMENT" not in err
        assert "linear resolution (oracle): n/a (not equigenerated)" in out
        assert "linear quotients (search):  yes" in out

    def test_equigenerated_disagreement_exit_4(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "lin.ideal"
        path.write_text("x1*x2\ny1*x2\nx1*y2\n")
        monkeypatch.setattr(cli, "linear_quotients_search", lambda ideal: None)
        code, out, err = run_cli(capsys, "check-linear", str(path))
        assert code == 4 and "DISAGREEMENT" in err
        assert "linear resolution (oracle): yes" in out


class TestCodeCommands:
    def test_from_code(self, capsys, tmp_path):
        path = tmp_path / "code.txt"
        path.write_text("00\n11\n")
        code, out, _ = run_cli(capsys, "from-code", str(path))
        assert code == 0
        assert out == "x2*y1\nx1*y2\n"

    def test_from_code_invariants(self, capsys, tmp_path):
        path = tmp_path / "code.txt"
        path.write_text("00\n11\n")
        code, out, _ = run_cli(capsys, "from-code", "--invariants", str(path))
        assert code == 0 and "reg: 3" in out

    def test_full_code_zero_notice(self, capsys, tmp_path):
        path = tmp_path / "full.txt"
        path.write_text("0\n1\n")
        code, out, _ = run_cli(capsys, "from-code", str(path))
        assert code == 0 and "zero ideal" in out

    def test_single_word_n1(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1\n")
        code, out, _ = run_cli(capsys, "from-code", str(path))
        assert code == 0 and out == "y1\n"

    def test_malformed_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("01\n011\n")
        code, _, _ = run_cli(capsys, "from-code", str(path))
        assert code == 2

    @pytest.mark.parametrize("command", ["from-code", "polarize"])
    def test_word_longer_than_max_neurons_exit_2(self, capsys, tmp_path, command):
        path = tmp_path / "long.txt"
        path.write_text("0" * 33 + "\n")
        code, _, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert err.startswith("error: ") and "33" in err

    @pytest.mark.parametrize("command", ["from-code", "polarize"])
    @pytest.mark.parametrize("length", [17, 32])
    def test_word_past_code_pipeline_limit_exit_2(self, capsys, tmp_path, command, length):
        path = tmp_path / "wide.txt"
        path.write_text("1" * length + "\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: ") and f"{length} neurons" in err

    def test_polarize(self, capsys, tmp_path):
        path = tmp_path / "code.txt"
        path.write_text("00\n11\n")
        code, out, _ = run_cli(capsys, "polarize", str(path))
        assert code == 0 and out == "x2*y1\nx1*y2\n"

    @pytest.mark.parametrize("words", [["0", "1"], ["101"], ["00", "11"]],
                             ids=["full", "one-word", "two-word"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_polarize_is_from_code(self, capsys, tmp_path, words, json_flag):
        path = tmp_path / "code.txt"
        path.write_text("".join(w + "\n" for w in words))
        polarized = run_cli(capsys, "polarize", *json_flag, str(path))
        assert polarized[0] == 0 and polarized[1]
        assert polarized == run_cli(capsys, "from-code", *json_flag, str(path))

    def test_full_code_json_marks_zero(self, capsys, tmp_path):
        path = tmp_path / "full.txt"
        path.write_text("0\n1\n")
        for command in ("polarize", "from-code"):
            code, out, _ = run_cli(capsys, command, "--json", str(path))
            assert code == 0
            assert json.loads(out) == {"schema": 1, "n": 1, "ideal": [], "zero": True}

    def test_roundtrip_through_parser(self, capsys, tmp_path):
        path = tmp_path / "code.txt"
        path.write_text("000\n101\n110\n")
        _, out, _ = run_cli(capsys, "from-code", str(path))
        assert render_ideal(parse_ideal(out)) == out


def three_generator_file(tmp_path, n):
    """Three generators whose lcm has all 2n variables, so the membership
    table has 2^(2n) cells."""
    path = tmp_path / f"three{n}.ideal"
    path.write_text(render_ideal(three_generators(n)))
    return str(path)


class TestCostLimits:
    """Membership and truth tables are capped at 2^24 cells; beyond it an
    ideal of three or more generators, a degree-n ideal on more than 24
    neurons, or `verify` on more than 12 exits 2 before any 2^s work.
    Sampled `verify` also exits 2 above n = 10, where one sampled ideal
    takes a minute or more."""

    def timed(self, capsys, *argv):
        start = time.perf_counter()
        result = run_cli(capsys, *argv)
        return result, time.perf_counter() - start

    def test_n11_three_generators_fast(self, capsys, tmp_path):
        (code, out, _), seconds = self.timed(
            capsys, "invariants", "--json", three_generator_file(tmp_path, 11))
        assert code == 0 and seconds < 1.0
        assert (json.loads(out)["pd"], json.loads(out)["reg"]) == (1, 20)

    def test_n12_three_generators_at_the_limit(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "betti", "--json", three_generator_file(tmp_path, 12))
        assert code == 0 and json.loads(out)["reg"] == 22

    def test_n13_three_generators_refused(self, capsys, tmp_path):
        (code, out, err), seconds = self.timed(
            capsys, "invariants", three_generator_file(tmp_path, 13))
        assert code == 2 and out == "" and seconds < 1.0
        assert err.startswith("error: ") and "degree 26" in err

    @pytest.mark.parametrize("command", ["invariants", "check-linear"])
    @pytest.mark.parametrize("letter", ["x", "y"])
    def test_n28_one_monomial_refused(self, capsys, tmp_path, command, letter):
        # one generator needs no membership table, but its truth table has 2^28 bits
        path = tmp_path / "one.ideal"
        path.write_text("*".join(f"{letter}{i}" for i in range(1, 29)) + "\n")
        (code, out, err), seconds = self.timed(capsys, command, str(path))
        assert code == 2 and out == "" and seconds < 2.0
        assert err.startswith("error: ") and "28 neurons" in err

    def test_n24_one_monomial_at_the_limit(self, capsys, tmp_path):
        path = tmp_path / "one.ideal"
        path.write_text("*".join(f"x{i}" for i in range(1, 25)) + "\n")
        code, out, _ = run_cli(capsys, "check-linear", "--json", str(path))
        assert code == 0 and json.loads(out)["recursive_linear_check"] is True

    def test_verify_past_the_limit_refused_before_sampling(self, capsys):
        (code, out, err), seconds = self.timed(
            capsys, "verify", "--n", "22", "--mode", "sample", "--count", "1")
        assert code == 2 and out == "" and seconds < 2.0
        assert err.startswith("error: ") and "degree 44" in err

    def test_verify_sample_past_n10_refused(self, capsys):
        (code, out, err), seconds = self.timed(
            capsys, "verify", "--n", "11", "--mode", "sample", "--count", "1")
        assert code == 2 and out == "" and seconds < 2.0
        assert err.startswith("error: sample mode is limited to n <= 10")

    def test_one_word_n10_code(self, capsys, tmp_path):
        # 1,023 generators: the linear-quotient search places each one in
        # a loop, not a recursive call, and the order it returns is valid
        path = tmp_path / "one.code"
        path.write_text("1" * 10 + "\n")
        (code, out, _), seconds = self.timed(capsys, "from-code", "--invariants", "--json",
                                             str(path))
        payload = json.loads(out)
        assert code == 0 and seconds < 60 and (payload["pd"], payload["reg"]) == (9, 10)
        order = [parse_monomial(g, 10).mask for g in payload["linear_quotients"]]
        assert len(order) == 1023
        assert all(brute_force._step_admissible(order[:k], order[k])
                   for k in range(1, len(order)))

    def test_one_word_n14_code_refused(self, capsys, tmp_path):
        path = tmp_path / "one.code"
        path.write_text("1" * 14 + "\n")
        (code, out, err), seconds = self.timed(capsys, "from-code", "--invariants", str(path))
        assert code == 2 and out == "" and seconds < 1.0
        assert err.startswith("error: 16383 generators") and "degree 28" in err


class TestFamilyCommand:
    def test_thm36_check(self, capsys):
        code, out, _ = run_cli(capsys, "family", "thm36", "--n", "3", "--k", "3",
                               "--check")
        assert code == 0 and "pd = 3" in out

    def test_prop32_check(self, capsys):
        code, out, _ = run_cli(capsys, "family", "prop32", "--n", "4", "--k", "1",
                               "--check")
        assert code == 0 and "pd = 0" in out

    def test_prop34_reg_check(self, capsys):
        code, out, _ = run_cli(capsys, "family", "prop34-reg", "--n", "3", "--j", "5",
                               "--check")
        assert code == 0 and "reg = 5" in out

    def test_missing_parameter(self, capsys):
        code, _, err = run_cli(capsys, "family", "prop32", "--n", "3")
        assert code == 2 and "needs --k" in err

    def test_out_of_range(self, capsys):
        code, _, _ = run_cli(capsys, "family", "prop32", "--n", "3", "--k", "9")
        assert code == 2

    def test_neuron_count_too_large_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "family", "prop32", "--n", "40", "--k", "1")
        assert code == 2 and "neuron count" in err

    def test_thm36_above_the_generator_cap_exit_2(self, capsys):
        # 2^32 generators: refused before any is built
        code, out, err = run_cli(capsys, "family", "thm36", "--n", "32", "--k", "32")
        assert code == 2 and out == "" and err.startswith("error: k = 32")

    def test_json_check_uses_one_table(self, capsys, monkeypatch):
        real_betti_table, tables = cli.betti_table, []

        def counting_betti_table(*args):
            tables.append(real_betti_table(*args))
            return tables[-1]

        monkeypatch.setattr(cli, "betti_table", counting_betti_table)
        code, out, _ = run_cli(capsys, "family", "thm36", "--n", "3", "--k", "3",
                               "--check", "--json")
        payload = json.loads(out)
        assert code == 0 and len(tables) == 1
        assert payload["computed"] == {"pd": tables[0].pd, "reg": tables[0].reg}
        assert payload["computed"] == payload["expected"]

    def test_json_check_failure_reports_the_same_values(self, capsys, monkeypatch):
        builder, param, _ = cli.FAMILIES["thm36"]
        monkeypatch.setitem(cli.FAMILIES, "thm36",
                            (builder, param, lambda n, k: {"pd": 99}))
        code, out, err = run_cli(capsys, "family", "thm36", "--n", "3", "--k", "3",
                                 "--check", "--json")
        computed = json.loads(out)["computed"]
        assert code == 4
        assert f"CHECK FAILED: pd = {computed['pd']}, expected 99" in err

    def test_family_output_parses_back(self, capsys):
        _, out, _ = run_cli(capsys, "family", "prop33", "--n", "3", "--k", "2")
        ideal_lines = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        assert len(parse_ideal(ideal_lines, n=3).gens) == 2


class TestVerifyCommand:
    def test_exhaustive_n2(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2")
        assert code == 0
        assert "15 ideals examined" in out

    def test_json_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--n", "2", "--seed", "3", "--json")
        _, second, _ = run_cli(capsys, "verify", "--n", "2", "--seed", "3", "--json")
        assert first == second
        payload = json.loads(first)
        assert payload["schema"] == 1 and payload["counterexamples"] == []

    def test_sample_mode_default_for_n4(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "4", "--count", "10")
        assert code == 0 and "mode=sample" in out

    def test_neuron_count_too_large_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "33", "--count", "1")
        assert code == 2 and "neuron count" in err

    def test_neuron_count_zero_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "0")
        assert code == 2 and "neuron count" in err

    def test_jobs_below_one_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "2", "--jobs", "0")
        assert code == 2 and "jobs" in err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_exit_2(self, capsys, count):
        code, _, err = run_cli(capsys, "verify", "--n", "3", "--mode", "sample",
                               "--count", count)
        assert code == 2 and "count" in err


class TestDeterminismAcrossHashSeeds:
    """JSON output must not depend on string hashing or set order: the
    same command under two hash seeds prints the same bytes."""

    @pytest.fixture
    def mixed_file(self, tmp_path):
        path = tmp_path / "mixed.ideal"
        path.write_text("x1*x2\ny1*x2\nx1*y3\ny2*x3\n")
        return str(path)

    @staticmethod
    def stdout_under(hash_seed, argv):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                   PYTHONPATH=str(Path(neuralideals.__file__).parents[1]))
        code = "import sys; from neuralideals.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    @pytest.fixture
    def code_file(self, tmp_path):
        path = tmp_path / "three.code"
        path.write_text("000\n101\n110\n")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["invariants", "--json", "--field", "q", "IDEAL"],
        ["betti", "--json", "IDEAL"],
        ["check-linear", "--json", "IDEAL"],
        ["from-code", "--invariants", "--json", "CODE"],
        ["polarize", "--json", "CODE"],
        ["family", "thm36", "--n", "3", "--k", "3", "--check", "--json"],
        ["verify", "--n", "2", "--json"],
    ], ids=["invariants", "betti", "check-linear", "from-code", "polarize", "family",
            "verify"])
    def test_byte_identical_stdout(self, mixed_file, code_file, argv):
        argv = [{"IDEAL": mixed_file, "CODE": code_file}.get(a, a) for a in argv]
        first = self.stdout_under(0, argv)
        assert first and first == self.stdout_under(1, argv)
