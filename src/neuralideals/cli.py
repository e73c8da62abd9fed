"""Command-line surface.

Subcommands: invariants, betti, check-linear, from-code, polarize,
family, verify.  Exit codes: 0 success, 2 parse error or refused input,
3 pair violation (without --raw), 4 verification/check failure.

Every `cmd_*` returns (status, payload, text, notes): the exit status,
the JSON payload that --json prints, the text printed otherwise, and
the lines for stderr.  `main` alone writes them: the payload or the
text on stdout, then the notes on stderr.  A command refuses its input
by raising `_Refused`; the Betti oracle refuses a too-large ideal with
`LcmDegreeError`.  `main` prints either as `error: <message>` on
stderr, with nothing on stdout.

The argument parser is built once per process, on the first `main`
call, and reused by every later call; importing the module builds
nothing, and loads no process pool (`verify --jobs` imports one only
when it forks workers), no dataclass machinery, and not `verify` itself,
which only `cmd_verify` imports.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from .betti import LcmDegreeError, betti_table, dominant_check
from .codes import CodeParseError, code_to_polarized_ideal, parse_code
from .homology import FieldTag
from .monomials import (
    NeuronCountError,
    PairViolationError,
    is_equigenerated,
    mask_text,
    parse_ideal,
    validate_polarized_neural,
    variable_name,
)
from .structure import (
    FAMILIES,
    FamilyParameterError,
    NotEquigeneratedDegreeNError,
    linear_quotients_search,
    recursive_linear_check,
)

EXIT_PARSE = 2
EXIT_PAIR_VIOLATION = 3
EXIT_VERIFY = 4


class _Refused(Exception):
    """Input a command refuses; `main` reports it and exits with `status`."""

    def __init__(self, message: str, status: int = EXIT_PARSE):
        super().__init__(message)
        self.status = status


def _read_text(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Refused(f"cannot read {path}: {exc}") from None


def _load_ideal(args):
    text = _read_text(args.file)
    try:
        ideal = parse_ideal(text, n=args.n)
    except ValueError as exc:
        raise _Refused(str(exc)) from None
    if not args.raw:
        try:
            validate_polarized_neural(ideal)
        except PairViolationError as exc:
            raise _Refused(f"{exc} (use --raw to allow any squarefree ideal)",
                           EXIT_PAIR_VIOLATION) from None
    if not ideal.is_proper_nonzero:
        raise _Refused("the zero/unit ideal has no invariants")
    return ideal


def json_text(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2)` byte for byte, for str keys, without the
    pure-Python encoder that `indent` selects; a callable (a Betti payload's
    "fine" list) writes itself, given the indent it opens at."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:  # a bool is an int that json writes as true/false
        return repr(value)
    inner = indent + "  "
    if isinstance(value, dict) and value:
        return "{\n" + ",\n".join([
            f"{inner}{encode_basestring_ascii(key)}: {json_text(item, inner)}"
            for key, item in value.items()]) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        return "[\n" + ",\n".join([
            inner + json_text(item, inner) for item in value]) + "\n" + indent + "]"
    return value(indent) if callable(value) else json.dumps(value)


def _yes_no(flag) -> str:
    return "yes" if flag else "no"


def _ideal_report(ideal, field_tag: FieldTag) -> dict:
    table = betti_table(ideal, field_tag)
    lq = linear_quotients_search(ideal)
    dom = dominant_check(ideal)
    try:
        rlc = recursive_linear_check(validate_polarized_neural(ideal))
    except (NotEquigeneratedDegreeNError, PairViolationError):
        rlc = None
    return {
        "schema": 1,
        "n": ideal.n,
        "ideal": [str(g) for g in ideal.gens],
        "pd": table.pd,
        "reg": table.reg,
        "betti": table.to_json_dict(),
        # None == reg for mixed degrees: no linear resolution
        "linear_resolution": table.reg == is_equigenerated(ideal),
        "linear_quotients": [str(m) for m in lq] if lq is not None else None,
        "dominant": (
            {str(g): variable_name(b, ideal.n) for g, b in dom.items()}
            if dom is not None else None
        ),
        "recursive_linear_check": rlc,
    }


def _report_text(payload: dict) -> str:
    lq, dom = payload["linear_quotients"], payload["dominant"]
    lines = [
        f"ideal: ({', '.join(payload['ideal'])})",
        f"pd:  {payload['pd']}",
        f"reg: {payload['reg']}",
        "betti (coarse):",
        *(f"  i={e['i']} j={e['j']}  rank {e['rank']}" for e in payload["betti"]["coarse"]),
        f"linear resolution: {_yes_no(payload['linear_resolution'])}",
        f"linear quotients:  {'yes: ' + ', '.join(lq) if lq else 'no'}",
        "dominant: " + ("yes (" + ", ".join(f"{g} -> {v}" for g, v in dom.items()) + ")"
                        if dom else "no"),
    ]
    if payload["recursive_linear_check"] is not None:
        lines.append(f"recursive linear check: {_yes_no(payload['recursive_linear_check'])}")
    return "\n".join(lines)


def cmd_invariants(args):
    payload = _ideal_report(_load_ideal(args), FieldTag(args.field))
    return 0, payload, _report_text(payload), []


def cmd_betti(args):
    ideal = _load_ideal(args)
    table = betti_table(ideal, FieldTag(args.field))
    text = "\n".join([f"pd {table.pd}, reg {table.reg}",
                      *(f"  i={i} b={mask_text(m, ideal.n)}  rank {r}"
                        for i, m, r in table.fine_entries())])
    return 0, {"schema": 1, "n": ideal.n, **table.to_json_dict()}, text, []


def cmd_check_linear(args):
    ideal = _load_ideal(args)
    report = _ideal_report(ideal, FieldTag(args.field))
    payload = {key: report[key] for key in (
        "schema", "n", "ideal", "linear_resolution", "linear_quotients",
        "recursive_linear_check")}
    # linear resolution is defined for equigenerated ideals only, and mixed
    # degrees can have linear quotients without it
    lr = payload["linear_resolution"] if is_equigenerated(ideal) is not None else None
    lq, rlc = payload["linear_quotients"], payload["recursive_linear_check"]
    text = "\n".join([
        "linear resolution (oracle): " + ("n/a (not equigenerated)" if lr is None else _yes_no(lr)),
        f"linear quotients (search):  {_yes_no(lq)}",
        "recursive check:            "
        + ("n/a (not generated in degree n)" if rlc is None else _yes_no(rlc)),
    ])
    agreeing = {lq is not None} | {check for check in (lr, rlc) if check is not None}
    if len(agreeing) > 1:
        return EXIT_VERIFY, payload, text, ["DISAGREEMENT between linearity checks"]
    return 0, payload, text, []


def cmd_from_code(args):
    """`from-code`; `polarize` is the same command without --invariants."""
    text = _read_text(args.file)
    try:
        code = parse_code(text)
        ideal = code_to_polarized_ideal(code).inner
    except (CodeParseError, NeuronCountError) as exc:
        raise _Refused(str(exc)) from None
    if ideal.is_zero:
        return (0, {"schema": 1, "n": code.n, "ideal": [], "zero": True},
                "zero ideal (the code is all of {0,1}^n)", [])
    if args.invariants:
        payload = _ideal_report(ideal, FieldTag(args.field))
        return 0, payload, _report_text(payload), []
    gens = [str(g) for g in ideal.gens]
    return 0, {"schema": 1, "n": code.n, "ideal": gens}, "\n".join(gens), []


def cmd_family(args):
    builder, param_name, expected_fn = FAMILIES[args.name]
    param = getattr(args, param_name)
    if param is None:
        raise _Refused(f"family {args.name} needs --{param_name}")
    try:
        ideal = builder(args.n, param).inner
    except (FamilyParameterError, NeuronCountError) as exc:
        raise _Refused(str(exc)) from None
    expected = expected_fn(args.n, param)
    payload = {"schema": 1, "n": args.n, "family": args.name, param_name: param,
               "ideal": [str(g) for g in ideal.gens], "expected": expected}
    lines = [*payload["ideal"],
             "# expected " + ", ".join(f"{k} = {v}" for k, v in expected.items())]
    if args.check:
        table = betti_table(ideal, FieldTag(args.field))
        computed = payload["computed"] = {"pd": table.pd, "reg": table.reg}
        for key, value in expected.items():
            if computed[key] != value:
                return (EXIT_VERIFY, payload, "\n".join(lines),
                        [f"CHECK FAILED: {key} = {computed[key]}, expected {value}"])
        lines.append("# check passed: " + ", ".join(f"{k} = {computed[k]}" for k in expected))
    return 0, payload, "\n".join(lines), []


def cmd_verify(args):
    from .verify import run_verification  # only this subcommand loads it, and `random`

    try:
        report = run_verification(
            n=args.n, mode=args.mode or ("exhaustive" if args.n <= 3 else "sample"),
            seed=args.seed, count=args.count, field_tag=FieldTag(args.field), jobs=args.jobs,
        )
    except ValueError as exc:
        raise _Refused(str(exc)) from None
    payload = report.to_json_dict()
    timings = payload.pop("timings")  # keep JSON byte-identical across runs
    text = "\n".join([
        f"verify n={report.n} mode={report.mode} seed={report.seed} "
        f"field={report.field_tag}: {report.examined} ideals examined",
        *(f"  {suite:14s} {c['passed']}/{c['checked']} passed"
          for suite, c in payload["suites"].items()),
        *(f"  note: {finding}" for finding in report.findings),
        *(f"  time {phase}: {secs}s" for phase, secs in timings.items()),
    ])
    if report.ok:
        return 0, payload, text, []
    return EXIT_VERIFY, payload, text, ["COUNTEREXAMPLES:", *(
        f"  [{c.suite}] {c.subject}: {c.detail}" for c in report.counterexamples)]


# the arguments that several subcommands share, by name
_SHARED_ARGUMENTS = {
    "file": {},
    "-n": dict(type=int, default=None, help="neuron count (default: inferred)"),
    "--n": dict(type=int, required=True),
    "--field": dict(choices=["f2", "q"], default="f2",
                    help="coefficient field for the homology oracle"),
    "--json": dict(action="store_true", help="machine-readable output"),
    "--raw": dict(action="store_true",
                  help="allow squarefree ideals violating pair exclusion"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neuralideals",
        description="Homological invariants of polarized neural ideals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *arguments, **defaults):
        """A subparser running `fn`; each argument is a shared name or a
        (name, options) pair."""
        p = sub.add_parser(name, help=help)
        for argument in arguments:
            flag, options = ((argument, _SHARED_ARGUMENTS[argument])
                             if isinstance(argument, str) else argument)
            p.add_argument(flag, **options)
        p.set_defaults(fn=fn, **defaults)

    command("invariants", cmd_invariants, "pd, reg, Betti table and linearity status",
            "file", "-n", "--field", "--json", "--raw")
    command("betti", cmd_betti, "full multigraded Betti table",
            "file", "-n", "--field", "--json", "--raw")
    command("check-linear", cmd_check_linear, "compare the three linearity checks",
            "file", "-n", "--field", "--json", "--raw")
    command("from-code", cmd_from_code, "polarized ideal of a binary code file", "file",
            ("--invariants", dict(action="store_true",
                                  help="also compute the full invariant report")),
            "--field", "--json")
    command("polarize", cmd_from_code, "from-code without --invariants", "file", "--json",
            invariants=False)
    parameter = dict(type=int, default=None)
    command("family", cmd_family, "named witness families with expected invariants",
            ("name", dict(choices=sorted(FAMILIES))), "--n",
            ("--k", parameter), ("--i", parameter), ("--j", parameter),
            ("--check", dict(action="store_true",
                             help="recompute via the oracle and assert the expected values")),
            "--field", "--json")
    command("verify", cmd_verify, "run the verification suites", "--n",
            ("--mode", dict(choices=["exhaustive", "sample"], default=None)),
            ("--seed", dict(type=int, default=0)),
            ("--count", dict(type=int, default=500, help="sample size in sample mode")),
            ("--jobs", dict(type=int, default=1,
                            help="worker processes for the per-ideal suites")),
            "--field", "--json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status, payload, text, notes = args.fn(args)
    except (_Refused, LcmDegreeError) as exc:
        status, payload, notes = getattr(exc, "status", EXIT_PARSE), None, [f"error: {exc}"]
    if payload is not None:
        print(json_text(payload) if args.json else text)
    for note in notes:
        print(note, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
