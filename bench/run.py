"""Benchmark of the neuralideals pipeline, measured from outside the package.

    python3 bench/run.py --workload verify-n4-sample --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  Every output is checked against the
digests recorded on the seed commit (`bench/golden.json`).  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

    --workload all   every workload in turn, in this one process
    --record         recompute golden.json from the checkout's code
    --self-test      confirm that a wrong golden digest is caught

See bench/README.md for the workloads and what each metric should show.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# bytecode is cached in the benchmark's scratch directory, never in the
# tree, whatever PYTHONDONTWRITEBYTECODE says
sys.pycache_prefix = str(ROOT / ".bench-work" / "pycache")
sys.dont_write_bytecode = False

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import tempfile
import time

sys.path.insert(0, str(BENCH))

from calibrate import REFERENCE_S, time_reference  # noqa: E402
from tracing import Tracer, per_layer_names  # noqa: E402
from workloads import WORKLOADS, import_package  # noqa: E402

GOLDEN = BENCH / "golden.json"
WORK = ROOT / ".bench-work"
OUT = ROOT / ".bench-out"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "neuralideals").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_metadata() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
    }


def set_up(name: str, workdir: Path, golden: dict):
    """Import the package afresh and build the workload's inputs in memory.

    Returns the workload and the seconds this took.  Input files are
    written later, untimed: file-system latency on a shared disk is not
    the program's cost.
    """
    gc.collect()  # an earlier import's modules may be garbage now
    t0 = time.perf_counter()
    workload = WORKLOADS[name](import_package(ROOT / "src"), workdir,
                               golden.get(name, {}))
    return workload, time.perf_counter() - t0


def seeded_order(workload, seed: int) -> list[int]:
    order = list(range(workload.pool_size()))
    random.Random(f"{workload.name}/{seed}").shuffle(order)
    return order


def run_units(workload, units) -> tuple[list[float], int, list[str], float]:
    latencies, failed, mismatches = [], 0, []
    t0 = time.perf_counter()
    for i in units:
        r = workload.run_unit(i)
        latencies += r.latencies
        failed += r.failed
        mismatches += r.mismatches
    return latencies, failed, mismatches, time.perf_counter() - t0


def run_timed(workload, order, seconds: float, set_up_again):
    """Closed loop, one client: the next unit starts when the last one ends.

    Before every unit a throwaway set-up is timed, so that set-up time is
    sampled across the run as the units are.  Then the reference kernel
    runs; it runs after the last unit too.  Neither is part of the
    measured wall time.
    """
    latencies, failed, mismatches, refs, setups = [], 0, [], [], []
    wall = 0.0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        setups.append(set_up_again())
        gc.collect()
        refs.append(time_reference())
        t0 = time.perf_counter()
        r = workload.run_unit(order[i % len(order)])
        wall += time.perf_counter() - t0
        latencies += r.latencies
        failed += r.failed
        mismatches += r.mismatches
        i += 1
        if time.perf_counter() >= deadline:
            break
    refs.append(time_reference())
    return latencies, failed, mismatches, wall, i, refs, setups


def end_to_end(name, seed, seconds, workdir, golden):
    workload, first_setup = set_up(name, workdir, golden)
    workload.write_inputs()
    latencies, failed, mismatches, wall, units, refs, setups = run_timed(
        workload, seeded_order(workload, seed), seconds,
        lambda: set_up(name, workdir, golden)[1])
    setups.insert(0, first_setup)
    ops = len(latencies)
    ranked = sorted(latencies)
    tail_idx = math.ceil(workload.tail_pct / 100 * ops) - 1  # nearest rank
    raw = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / wall,
        "op_ms_p50": statistics.median(latencies) * 1000,
        "op_ms_tail": ranked[tail_idx] * 1000,
    }
    # times at nominal machine speed: see calibrate.py
    scale = REFERENCE_S / statistics.fmean(refs)
    metrics = {
        "setup_s": raw["setup_s"] * scale,
        "ops_per_s": raw["ops_per_s"] / scale,
        "op_ms_p50": raw["op_ms_p50"] * scale,
        "op_ms_tail": raw["op_ms_tail"] * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    meta = {
        "units": units,
        "wall_s": wall,
        "failed_frac": failed / ops,
        "op_ms_tail_percentile": workload.tail_pct,
        "op_ms_tail_samples": ops,
        "op_ms_tail_beyond": ops - 1 - tail_idx,
        "setup_s_samples": setups,
        "time_scale": scale,
        "reference_s": refs,
        "unscaled": raw,
    }
    units_of = {k: END_TO_END[k] for k in metrics}
    return metrics, units_of, ops, failed, mismatches, meta


def traced(name, seed, seconds, workdir, golden):
    """An untraced pass and a traced pass over the same units.

    The unit count depends only on --seconds, so the counts repeat exactly
    for a given seed.
    """
    workload, setup_s = set_up(name, workdir, golden)
    workload.write_inputs()
    order = seeded_order(workload, seed)
    count = max(1, round(seconds / (3 * workload.unit_s)))
    units = [order[i % len(order)] for i in range(count)]
    gc.collect()
    refs = [time_reference()]
    _, _, _, untraced_wall = run_units(workload, units)
    refs.append(time_reference())
    tracer = Tracer(workload.op_root)
    tracer.install(workload.pkg)
    gc.collect()
    try:
        latencies, failed, mismatches, traced_wall = run_units(workload, units)
    finally:
        tracer.uninstall()
    refs.append(time_reference())
    # each pass at nominal machine speed, so that drift between them is not
    # mistaken for tracing overhead
    overhead = ((traced_wall / (refs[1] + refs[2]))
                / (untraced_wall / (refs[0] + refs[1])) - 1)
    metrics, check = tracer.metrics(traced_wall, overhead)
    if check["op_self_vs_wall_max_rel_gap"] > 1e-6:
        mismatches.append("span self times do not account for an op's wall time")
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{name}-seed{seed}.json.gz"
    tracer.dump(spans_file)
    units_of = {m: u for m, u, _ in per_layer_names()}
    meta = {
        "units": count,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "reference_s": refs,
        "spans_file": str(spans_file.relative_to(ROOT)),
        "setup_s": setup_s,
        **check,
    }
    return metrics, units_of, len(latencies), failed, mismatches, meta


def run_workload(name, seed, seconds, trace, golden):
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{name}-") as workdir:
        fn = traced if trace else end_to_end
        return fn(name, seed, seconds, Path(workdir), golden)


def print_block(name, seed, metrics, units_of, meta):
    print(f"== {name} seed={seed}")
    for key, value in metrics.items():
        print(f"  {key:50s} {value:14.6g} {units_of[key]}")
    if "failed_frac" in meta:
        print(f"  {'failed_frac':50s} {meta['failed_frac']:14.6g} ratio")
        print(f"  op_ms_tail is p{meta['op_ms_tail_percentile']} of "
              f"{meta['op_ms_tail_samples']} ops, {meta['op_ms_tail_beyond']} beyond it")
    print("meta " + json.dumps(meta, sort_keys=True))


def record(names) -> int:
    """Recompute golden digests for every pool unit of `names`."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    WORK.mkdir(exist_ok=True)
    for name in names:
        with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{name}-") as workdir:
            workload = WORKLOADS[name](import_package(ROOT / "src"), Path(workdir), {})
            workload.write_inputs()
            digests = {}
            for i in range(workload.pool_size()):
                digests.update(workload.unit_digests(i))
            golden[name] = digests
        print(f"recorded {len(digests)} digests for {name}", flush=True)
    golden["recorded_on"] = run_metadata()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def self_test() -> int:
    """A unit with a wrong golden digest must count as failed; a right one not."""
    golden = json.loads(GOLDEN.read_text())
    WORK.mkdir(exist_ok=True)
    ok = True
    with tempfile.TemporaryDirectory(dir=WORK, prefix="self-test-") as workdir:
        pkg = import_package(ROOT / "src")
        for name, key in (("reports-q-n5", "0/0"), ("verify-n3-exhaustive", "0")):
            good = golden[name]
            bad = dict(good, **{key: "0" * 16})
            for table, expect_fail in ((good, False), (bad, True)):
                workload = WORKLOADS[name](pkg, Path(workdir), table)
                workload.write_inputs()
                r = workload.run_unit(0)
                caught = r.failed > 0 and bool(r.mismatches)
                print(f"{name} with {'wrong' if expect_fail else 'golden'} digest: "
                      f"{r.failed}/{len(r.latencies)} ops failed")
                ok &= caught == expect_fail
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    if not (ROOT / "src" / "neuralideals").is_dir():
        print(f"error: no package source at {ROOT / 'src' / 'neuralideals'}",
              file=sys.stderr)
        return 2
    if args.record:
        return record(names)
    if args.self_test:
        return self_test()
    golden = json.loads(GOLDEN.read_text())

    meta_common = run_metadata()
    print("run " + json.dumps(dict(meta_common, seed=args.seed, seconds=args.seconds,
                                   trace=args.trace), sort_keys=True))
    all_metrics, attempted, failed, mismatches = {}, 0, 0, []
    for name in names:
        metrics, units_of, ops, bad, wrong, meta = run_workload(
            name, args.seed, args.seconds, args.trace, golden)
        print_block(name, args.seed, metrics, units_of, meta)
        for line in wrong[:5]:
            print(f"  MISMATCH {line}")
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in metrics.items():
            all_metrics[prefix + key] = {"value": value, "unit": units_of[key]}
        attempted += ops
        failed += bad
        mismatches += wrong
    print(json.dumps({
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": all_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
