"""Command-line surface.

Subcommands: invariants, betti, check-linear, from-code, polarize,
family, verify.  Exit codes: 0 success, 2 parse error, 3 pair violation
(without --raw), 4 verification/check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .betti import betti_table, dominant_check, has_linear_resolution
from .codes import CodeParseError, code_to_polarized_ideal, parse_code
from .homology import FieldTag
from .monomials import (
    MonomialParseError,
    NeuronCountError,
    PairViolationError,
    is_equigenerated,
    parse_ideal,
    render_ideal,
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
from .verify import run_verification

EXIT_PARSE = 2
EXIT_PAIR_VIOLATION = 3
EXIT_VERIFY = 4


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _load_ideal(args):
    text = _read_text(args.file)
    try:
        ideal = parse_ideal(text, n=args.n)
    except (MonomialParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    if not getattr(args, "raw", False):
        try:
            validate_polarized_neural(ideal)
        except PairViolationError as exc:
            print(f"error: {exc} (use --raw to allow any squarefree ideal)",
                  file=sys.stderr)
            raise SystemExit(EXIT_PAIR_VIOLATION)
    if not ideal.is_proper_nonzero:
        print("error: the zero/unit ideal has no invariants", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    return ideal


def _field(args) -> FieldTag:
    return FieldTag(args.field)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _ideal_report(ideal, field_tag: FieldTag, pivot: str) -> dict:
    table = betti_table(ideal, field_tag)
    lq = linear_quotients_search(ideal)
    lr = has_linear_resolution(ideal, field_tag, table=table) \
        if len({g.degree for g in ideal.gens}) == 1 else False
    dom = dominant_check(ideal)
    payload = {
        "schema": 1,
        "n": ideal.n,
        "ideal": [str(g) for g in ideal.gens],
        "pd": table.pd,
        "reg": table.reg,
        "betti": table.to_json_dict(),
        "linear_resolution": lr,
        "linear_quotients": [str(m) for m in lq] if lq is not None else None,
        "dominant": (
            {str(g): variable_name(b, ideal.n) for g, b in dom.items()}
            if dom is not None else None
        ),
    }
    try:
        payload["recursive_linear_check"] = recursive_linear_check(
            validate_polarized_neural(ideal), pivot=pivot)
    except (NotEquigeneratedDegreeNError, PairViolationError):
        payload["recursive_linear_check"] = None
    return payload


def _print_report(payload: dict) -> None:
    print(f"ideal: ({', '.join(payload['ideal'])})")
    print(f"pd:  {payload['pd']}")
    print(f"reg: {payload['reg']}")
    print("betti (coarse):")
    for entry in payload["betti"]["coarse"]:
        print(f"  i={entry['i']} j={entry['j']}  rank {entry['rank']}")
    lr = payload["linear_resolution"]
    print(f"linear resolution: {'yes' if lr else 'no'}")
    lq = payload["linear_quotients"]
    print(f"linear quotients:  {'yes: ' + ', '.join(lq) if lq else 'no'}")
    dom = payload["dominant"]
    if dom:
        witness = ", ".join(f"{g} -> {v}" for g, v in dom.items())
        print(f"dominant: yes ({witness})")
    else:
        print("dominant: no")
    rlc = payload.get("recursive_linear_check")
    if rlc is not None:
        print(f"recursive linear check: {'yes' if rlc else 'no'}")


def cmd_invariants(args) -> int:
    ideal = _load_ideal(args)
    payload = _ideal_report(ideal, _field(args), args.pivot)
    if args.json:
        _emit_json(payload)
    else:
        _print_report(payload)
    return 0


def cmd_betti(args) -> int:
    ideal = _load_ideal(args)
    table = betti_table(ideal, _field(args))
    payload = {"schema": 1, "n": ideal.n, **table.to_json_dict()}
    if args.json:
        _emit_json(payload)
    else:
        print(f"pd {table.pd}, reg {table.reg}")
        for i, m, r in table.fine_entries():
            print(f"  i={i} b={m}  rank {r}")
    return 0


def cmd_check_linear(args) -> int:
    ideal = _load_ideal(args)
    report = _ideal_report(ideal, _field(args), args.pivot)
    payload = {key: report[key] for key in (
        "schema", "n", "ideal", "linear_resolution", "linear_quotients",
        "recursive_linear_check")}
    # linear resolution is defined for equigenerated ideals only, and mixed
    # degrees can have linear quotients without it
    lr = payload["linear_resolution"] if is_equigenerated(ideal) is not None else None
    lq = payload["linear_quotients"]
    rlc = payload["recursive_linear_check"]
    if args.json:
        _emit_json(payload)
    else:
        print("linear resolution (oracle): "
              + ("n/a (not equigenerated)" if lr is None else ("yes" if lr else "no")))
        print(f"linear quotients (search):  {'yes' if lq else 'no'}")
        print("recursive check:            "
              + ("n/a (not generated in degree n)" if rlc is None
                 else ("yes" if rlc else "no")))
    agreeing = {lq is not None} | {check for check in (lr, rlc) if check is not None}
    if len(agreeing) > 1:
        print("DISAGREEMENT between linearity checks", file=sys.stderr)
        return EXIT_VERIFY
    return 0


def _load_code(args):
    """The code in args.file and its polarized neural ideal; exit 2 when either fails."""
    text = _read_text(args.file)
    try:
        code = parse_code(text)
        return code, code_to_polarized_ideal(code).inner
    except (CodeParseError, NeuronCountError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def cmd_from_code(args) -> int:
    code, ideal = _load_code(args)
    if ideal.is_zero:
        if args.json:
            _emit_json({"schema": 1, "n": code.n, "ideal": [], "zero": True})
        else:
            print("zero ideal (the code is all of {0,1}^n)")
        return 0
    if args.invariants:
        payload = _ideal_report(ideal, _field(args), "last")
        if args.json:
            _emit_json(payload)
        else:
            _print_report(payload)
    else:
        if args.json:
            _emit_json({"schema": 1, "n": code.n,
                        "ideal": [str(g) for g in ideal.gens]})
        else:
            print(render_ideal(ideal), end="")
    return 0


def cmd_polarize(args) -> int:
    code, ideal = _load_code(args)
    if args.json:
        _emit_json({"schema": 1, "n": code.n,
                    "ideal": [str(g) for g in ideal.gens]})
    elif ideal.is_zero:
        print("zero ideal (the code is all of {0,1}^n)")
    else:
        print(render_ideal(ideal), end="")
    return 0


def cmd_family(args) -> int:
    builder, param_name, expected_fn = FAMILIES[args.name]
    param = getattr(args, param_name.replace("-", "_"), None)
    if param is None:
        print(f"error: family {args.name} needs --{param_name}", file=sys.stderr)
        return EXIT_PARSE
    try:
        ideal = builder(args.n, param)
    except (FamilyParameterError, NeuronCountError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    expected = expected_fn(args.n, param)
    computed = None
    if args.check:
        table = betti_table(ideal.inner, _field(args))
        computed = {"pd": table.pd, "reg": table.reg}
    if args.json:
        payload = {"schema": 1, "n": args.n, "family": args.name,
                   param_name: param,
                   "ideal": [str(g) for g in ideal.inner.gens],
                   "expected": expected}
        if computed is not None:
            payload["computed"] = computed
        _emit_json(payload)
    else:
        print(render_ideal(ideal.inner), end="")
        print("# expected " + ", ".join(f"{k} = {v}" for k, v in expected.items()))
    if computed is not None:
        for key, value in expected.items():
            if computed[key] != value:
                print(f"CHECK FAILED: {key} = {computed[key]}, expected {value}",
                      file=sys.stderr)
                return EXIT_VERIFY
        if not args.json:
            print("# check passed: " + ", ".join(
                f"{k} = {computed[k]}" for k in expected))
    return 0


def cmd_verify(args) -> int:
    try:
        report = run_verification(
            n=args.n, mode=args.mode, seed=args.seed, count=args.count,
            field_tag=_field(args), jobs=args.jobs,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    payload = report.to_json_dict()
    if args.json:
        payload.pop("timings")  # keep JSON byte-identical across runs
        _emit_json(payload)
    else:
        print(f"verify n={report.n} mode={report.mode} seed={report.seed} "
              f"field={report.field_tag}: {report.examined} ideals examined")
        for suite, counts in payload["suites"].items():
            print(f"  {suite:14s} {counts['passed']}/{counts['checked']} passed")
        for finding in report.findings:
            print(f"  note: {finding}")
        for phase, secs in payload["timings"].items():
            print(f"  time {phase}: {secs}s")
    if not report.ok:
        print("COUNTEREXAMPLES:", file=sys.stderr)
        for c in report.counterexamples:
            print(f"  [{c.suite}] {c.subject}: {c.detail}", file=sys.stderr)
        return EXIT_VERIFY
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neuralideals",
        description="Homological invariants of polarized neural ideals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, raw=True):
        p.add_argument("--field", choices=["f2", "q"], default="f2",
                       help="coefficient field for the homology oracle")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if raw:
            p.add_argument("--raw", action="store_true",
                           help="allow squarefree ideals violating pair exclusion")

    p = sub.add_parser("invariants", help="pd, reg, Betti table and linearity status")
    p.add_argument("file")
    p.add_argument("-n", type=int, default=None, help="neuron count (default: inferred)")
    p.add_argument("--pivot", choices=["last", "smallest"], default="last")
    add_common(p)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("betti", help="full multigraded Betti table")
    p.add_argument("file")
    p.add_argument("-n", type=int, default=None)
    add_common(p)
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("check-linear", help="compare the three linearity checks")
    p.add_argument("file")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--pivot", choices=["last", "smallest"], default="last")
    add_common(p)
    p.set_defaults(fn=cmd_check_linear)

    p = sub.add_parser("from-code", help="polarized ideal of a binary code file")
    p.add_argument("file")
    p.add_argument("--invariants", action="store_true",
                   help="also compute the full invariant report")
    add_common(p, raw=False)
    p.set_defaults(fn=cmd_from_code)

    p = sub.add_parser("polarize", help="emit only the polarized ideal of a code file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_polarize)

    p = sub.add_parser("family", help="named witness families with expected invariants")
    p.add_argument("name", choices=sorted(FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--check", action="store_true",
                   help="recompute via the oracle and assert the expected values")
    add_common(p, raw=False)
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive", "sample"], default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=500,
                   help="sample size in sample mode")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the per-ideal suites")
    add_common(p, raw=False)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify" and args.mode is None:
        args.mode = "exhaustive" if args.n <= 3 else "sample"
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
