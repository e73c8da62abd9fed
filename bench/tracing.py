"""Span tracing of the package's public functions, from outside the package.

The traced process replaces each listed function with a wrapper in every
`neuralideals` module that holds a reference to it, so calls made through
module globals (`from .betti import betti_table`) are seen as well.  Each
call becomes one span: name, start, end, parent span and op id.  Spans
are kept in compact arrays and turned into per-layer metrics at the end.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array

# module -> public functions that get `<module>.<fn>.calls` and `.self_s`
TRACED = {
    "monomials": ("lcm_closure", "minimalize", "restrict", "intersect"),
    "codes": ("code_to_polarized_ideal",),
    "homology": ("reduced_homology_ranks", "rank_f2", "rank_rational"),
    "betti": ("betti_table", "upper_koszul", "euler_discrepancy", "reg_upper_bound_lcm"),
    "structure": ("linear_quotients_search", "recursive_linear_check",
                  "betti_splitting_predict", "split_at_neuron"),
    "verify": ("run_verification", "check_degree_n_ideal", "scaling_suite",
               "dominant_suite", "code_suite", "lr_lq_witness_findings"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _degree(b) -> int:
    return b.degree if hasattr(b, "degree") else int(b).bit_count()


def _subsets(args, kwargs, result) -> int:
    return (1 << len(args[0].gens)) - 1


# work counts taken from the arguments and result at the span boundary
COUNTERS = {
    "monomials.lcm_closure": ("size", lambda a, k, r: len(r)),
    "betti.upper_koszul": ("submasks", lambda a, k, r: 1 << _degree(a[1])),
    "homology.reduced_homology_ranks": ("faces", lambda a, k, r: len(a[0].faces)),
    "betti.euler_discrepancy": ("subsets", _subsets),
    "betti.reg_upper_bound_lcm": ("subsets", _subsets),
    "structure.linear_quotients_search": ("found", lambda a, k, r: int(r is not None)),
}
REFUSAL = ("structure.betti_splitting_predict", "JNotLinearError")


def per_layer_names() -> list[tuple[str, str, str]]:
    """(metric name, unit, better) for every per-layer metric, in report order."""
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    for name, (counter, _) in COUNTERS.items():
        if counter != "found":
            out.append((f"{name}.{counter}", "count", "lower"))
    out += [
        ("betti.betti_table.memo_hit_ratio", "ratio", "higher"),
        ("structure.linear_quotients_search.found_ratio", "ratio", "higher"),
        ("structure.betti_splitting_predict.refused", "count", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.coverage", "ratio", "higher"),
    ]
    return out


class Tracer:
    """Records one span per call of the wrapped functions (single thread)."""

    def __init__(self, op_root: str):
        self.op_root = op_root
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.ops = 0
        self.counts: dict[str, int] = {}
        self.unavailable: set[str] = set()
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, pkg) -> None:
        """Wrap every traced function in every module of `pkg` that refers to it."""
        modules = [pkg.module] + [getattr(pkg, m) for m in TRACED]
        for mod_name, fns in TRACED.items():
            home = getattr(pkg, mod_name)
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        self.names.append(name)
        name_idx = len(self.names) - 1
        counter = COUNTERS.get(name)
        refusal = REFUSAL[1] if name == REFUSAL[0] else None
        is_root = name == self.op_root
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            idx = len(tracer.start)
            if is_root:
                op = tracer.ops
                tracer.ops += 1
            else:
                op = tracer.op[stack[-1]] if stack else -1
            tracer.name_of.append(name_idx)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(op)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.end[idx] = clock()
                stack.pop()
                if refusal and type(exc).__name__ == refusal:
                    tracer._count(f"{name}.refused", 1)
                raise
            tracer.end[idx] = clock()
            stack.pop()
            if counter is not None:
                key = f"{name}.{counter[0]}"
                try:
                    tracer._count(key, counter[1](args, kwargs, result))
                except (AttributeError, TypeError, IndexError):
                    tracer.unavailable.add(key)
            return result

        return wrapper

    def _count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def self_times(self) -> array:
        """Span duration minus the durations of its direct children."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        selfs = array("d", own)
        for idx, p in enumerate(self.parent):
            if p >= 0:
                selfs[p] -= own[idx]
        return selfs

    def metrics(self, traced_wall: float, overhead_frac: float) -> tuple[dict, dict]:
        """Per-layer metrics and a consistency summary derived from the spans.

        `overhead_frac` is the traced pass's wall time over the untraced
        pass's, minus 1, measured by the caller over the same units.
        """
        selfs = self.self_times()
        calls = {n: 0 for n in SPAN_NAMES}
        self_s = {n: 0.0 for n in SPAN_NAMES}
        for idx, name_idx in enumerate(self.name_of):
            name = self.names[name_idx]
            calls[name] += 1
            self_s[name] += selfs[idx]
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name, (counter, _) in COUNTERS.items():
            if counter != "found":
                out[f"{name}.{counter}"] = self.counts.get(f"{name}.{counter}", 0)
        koszul = calls["betti.upper_koszul"]
        out["betti.betti_table.memo_hit_ratio"] = (
            1 - calls["homology.reduced_homology_ranks"] / koszul if koszul else 0.0)
        searches = calls["structure.linear_quotients_search"]
        out["structure.linear_quotients_search.found_ratio"] = (
            self.counts.get("structure.linear_quotients_search.found", 0) / searches
            if searches else 0.0)
        out["structure.betti_splitting_predict.refused"] = self.counts.get(
            "structure.betti_splitting_predict.refused", 0)
        out["trace.overhead_frac"] = overhead_frac
        out["trace.coverage"] = sum(selfs) / traced_wall

        # every op's spans must account for the op's own wall time
        op_wall: dict[int, float] = {}
        op_self: dict[int, float] = {}
        for idx, op in enumerate(self.op):
            if op < 0:
                continue
            op_self[op] = op_self.get(op, 0.0) + selfs[idx]
            if self.names[self.name_of[idx]] == self.op_root:
                op_wall[op] = self.end[idx] - self.start[idx]
        worst = max((abs(op_self[o] - w) / w for o, w in op_wall.items() if w > 0),
                    default=0.0)
        check = {
            "ops": len(op_wall),
            "spans": len(self.start),
            "op_self_vs_wall_max_rel_gap": worst,
            "refusal_attempts": calls[REFUSAL[0]],
            "missing_functions": self.missing,
            "unavailable_counters": sorted(self.unavailable),
        }
        return out, check

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent, op] (gzip JSON)."""
        spans = [
            [self.names[n], s, e, p, o]
            for n, s, e, p, o in zip(self.name_of, self.start, self.end,
                                     self.parent, self.op)
        ]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"op_root": self.op_root, "spans": spans}, fh)
