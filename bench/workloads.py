"""The four benchmark workloads: inputs, units of work and golden digests.

Every workload draws its units from a fixed pool, so that each unit's
deterministic output has a digest recorded on the seed commit
(`golden.json`).  The workload seed picks the order in which a run
visits the pool; a run visits units until its time is up.

- verify-n3-exhaustive: unit = run_verification(n=3, "exhaustive", seed=u),
  u in 0..63 (255 ops each).
- verify-n4-sample: unit = run_verification(n=4, "sample", seed=u, count=100),
  u in 0..63.
- verify-n5-sample: unit = run_verification(n=5, "sample", seed=u, count=16)
  for the first 48 seeds u whose sample's generator counts fit
  N5_PROFILE (recorded in golden.json).  See README.md for why.
- reports-q-n5: unit = one block of 9 in-process `cli.main` requests on
  n=5 inputs with --field q, blocks 0..31.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

MODULES = ("monomials", "codes", "homology", "betti", "structure", "verify", "cli")

N5_COUNT = 16
# sorted generator counts of a typical sample with a largest q of 19
# with four 16s in the middle, the median op falls among ideals with q = 16
N5_PROFILE = (19, 18, 18, 17, 17, 16, 16, 16, 16, 15, 15, 14, 14, 13, 12, 11)
N5_EXACT = 9
N5_POOL = 48
REPORT_BLOCKS = 32
# one invariants and one from-code request per stratum: about the 10th,
# 50th (twice) and 90th percentiles of q ~ Bin(32, 1/2), the generator
# count of a uniformly random degree-5 ideal; the doubled median makes the
# median request of a block one with q = 16
REPORT_STRATA = (13, 16, 16, 19)
FAMILY_ARGV = ["family", "thm36", "--n", "5", "--k", "5", "--check", "--json",
               "--field", "q"]


@dataclass
class Package:
    """Freshly imported `neuralideals` modules of one checkout."""

    module: object
    monomials: object = None
    codes: object = None
    homology: object = None
    betti: object = None
    structure: object = None
    verify: object = None
    cli: object = None


def import_package(src: Path) -> Package:
    """Import `neuralideals` from `src`, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "neuralideals"
                 or m.startswith("neuralideals.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    module = importlib.import_module("neuralideals")
    origin = Path(module.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"neuralideals was imported from {origin}, not from {src}")
    pkg = Package(module)
    for name in MODULES:
        setattr(pkg, name, importlib.import_module(f"neuralideals.{name}"))
    return pkg


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class UnitResult:
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)


class OpTimer:
    """Times each `check_degree_n_ideal` call made inside `run_verification`.

    The wrapper replaces the module global that the harness calls, so an
    op is one degree-n ideal checked by the program.
    """

    def __init__(self, verify_module):
        self.latencies: list[float] = []
        self.failed = 0
        original = verify_module.check_degree_n_ideal
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                results = original(*args, **kwargs)
            except Exception:
                self.latencies.append(clock() - t0)
                self.failed += 1
                raise
            self.latencies.append(clock() - t0)
            if any(results.values()):
                self.failed += 1
            return results

        verify_module.check_degree_n_ideal = timed

    def take(self) -> tuple[list[float], int]:
        out = self.latencies, self.failed
        self.latencies, self.failed = [], 0
        return out


def verify_digest(report) -> str:
    payload = report.to_json_dict()
    payload.pop("timings", None)
    return digest(json.dumps(payload, sort_keys=True))


def n5_seeds() -> list[int]:
    """The first N5_POOL sample seeds whose generator counts fit N5_PROFILE.

    Replays the sampler of `run_verification` (uniform nonempty subsets
    of the 32 degree-5 monomials) to read each sample's generator counts q.
    Sorted from the largest, the first N5_EXACT counts must equal the
    profile and every other count must be within 1 of it.
    """
    seeds = []
    u = 0
    while len(seeds) < N5_POOL:
        rng = random.Random(u)
        qs = sorted((rng.randrange(1, 1 << 32).bit_count() for _ in range(N5_COUNT)),
                    reverse=True)
        if qs[:N5_EXACT] == list(N5_PROFILE[:N5_EXACT]) and all(
                abs(q - t) <= 1 for q, t in zip(qs[N5_EXACT:], N5_PROFILE[N5_EXACT:])):
            seeds.append(u)
        u += 1
    return seeds


def _choice_monomial(choice: int, n: int) -> str:
    """The degree-n monomial picking y_i where bit i-1 of `choice` is set."""
    return "*".join(f"{'y' if choice >> i & 1 else 'x'}{i + 1}" for i in range(n))


def report_block(block: int, workdir: Path) -> tuple[list[list[str]], dict[Path, str]]:
    """One block's 9 CLI argument lists and the input files they read."""
    rng = random.Random(f"reports-q-n5/{block}")
    requests, files = [], {}
    for q in REPORT_STRATA:
        chosen = sorted(rng.sample(range(32), q))
        path = workdir / f"b{block}-{len(requests)}.ideal"
        files[path] = "".join(_choice_monomial(c, 5) + "\n" for c in chosen)
        requests.append(["invariants", "--json", "--field", "q", str(path)])
    for q in REPORT_STRATA:
        # the ideal of a code has one generator per non-codeword
        words = sorted(set(range(32)) - set(rng.sample(range(32), q)))
        path = workdir / f"b{block}-{len(requests)}.code"
        files[path] = "".join(format(w, "05b") + "\n" for w in words)
        requests.append(["from-code", "--invariants", "--json", "--field", "q",
                         str(path)])
    requests.append(list(FAMILY_ARGV))
    return requests, files


def run_cli(cli_module, argv: list[str]) -> tuple[int, str, float]:
    """One in-process CLI request: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli_module.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), elapsed


class Workload:
    """A named pool of units; `run_unit(i)` runs unit i and checks it."""

    name: str
    op_root: str
    unit_s: float  # rough unit cost at the seed commit, sizes the traced run
    # op_ms_tail percentile: the highest of 80/90/99 with at least ten ops
    # beyond it in a 25 s run at the seed commit; fixed, so that two commits
    # are compared at the same percentile however many ops each completes
    tail_pct: int

    def __init__(self, pkg: Package, workdir: Path, golden: dict[str, str]):
        self.pkg = pkg
        self.golden = golden

    def pool_size(self) -> int:
        raise NotImplementedError

    def write_inputs(self) -> None:
        """Write the input files that set-up generated, if any."""

    def run_unit(self, i: int) -> UnitResult:
        raise NotImplementedError

    def unit_digests(self, i: int) -> dict[str, str]:
        """Digests of unit i's outputs, keyed as in golden.json."""
        raise NotImplementedError


class VerifyWorkload(Workload):
    op_root = "verify.check_degree_n_ideal"

    def __init__(self, pkg, workdir, golden):
        super().__init__(pkg, workdir, golden)
        self.kwargs = self.make_kwargs()
        self.timer = OpTimer(pkg.verify)

    def make_kwargs(self) -> list[dict]:
        raise NotImplementedError

    def pool_size(self) -> int:
        return len(self.kwargs)

    def _call(self, i: int):
        return self.pkg.verify.run_verification(**self.kwargs[i])

    def run_unit(self, i: int) -> UnitResult:
        key = str(self.kwargs[i]["seed"])
        try:
            report = self._call(i)
        except Exception as exc:
            latencies, _ = self.timer.take()
            return UnitResult(latencies, max(1, len(latencies)),
                              [f"{key}: {type(exc).__name__}: {exc}"])
        latencies, failed = self.timer.take()
        got = verify_digest(report)
        if got != self.golden.get(key):
            return UnitResult(latencies, len(latencies),
                              [f"{key}: digest {got} != golden {self.golden.get(key)}"])
        return UnitResult(latencies, failed)

    def unit_digests(self, i: int) -> dict[str, str]:
        report = self._call(i)
        self.timer.take()
        return {str(self.kwargs[i]["seed"]): verify_digest(report)}


class VerifyN3(VerifyWorkload):
    name = "verify-n3-exhaustive"
    unit_s = 0.9
    tail_pct = 99

    def make_kwargs(self):
        return [dict(n=3, mode="exhaustive", seed=u) for u in range(64)]


class VerifyN4(VerifyWorkload):
    name = "verify-n4-sample"
    unit_s = 0.8
    tail_pct = 99

    def make_kwargs(self):
        return [dict(n=4, mode="sample", seed=u, count=100) for u in range(64)]


class VerifyN5(VerifyWorkload):
    name = "verify-n5-sample"
    unit_s = 2.3
    tail_pct = 90

    def make_kwargs(self):
        # the scan takes about two seconds, so runs take the seeds recorded with
        # the golden digests; only --record (no golden yet) scans
        seeds = sorted(int(u) for u in self.golden) or n5_seeds()
        return [dict(n=5, mode="sample", seed=u, count=N5_COUNT) for u in seeds]


class ReportsQN5(Workload):
    name = "reports-q-n5"
    op_root = "cli.main"
    unit_s = 3.0
    tail_pct = 80

    def __init__(self, pkg, workdir, golden):
        super().__init__(pkg, workdir, golden)
        self.blocks, self.files = [], {}
        for b in range(REPORT_BLOCKS):
            requests, files = report_block(b, workdir)
            self.blocks.append(requests)
            self.files.update(files)

    def pool_size(self) -> int:
        return len(self.blocks)

    def write_inputs(self) -> None:
        for path, text in self.files.items():
            path.write_text(text)

    def run_unit(self, i: int) -> UnitResult:
        result = UnitResult()
        for j, argv in enumerate(self.blocks[i]):
            key = f"{i}/{j}"
            try:
                code, out, elapsed = run_cli(self.pkg.cli, argv)
            except Exception as exc:
                result.latencies.append(0.0)
                result.failed += 1
                result.mismatches.append(f"{key}: {type(exc).__name__}: {exc}")
                continue
            result.latencies.append(elapsed)
            got = digest(f"{code}\n{out}")
            if code != 0 or got != self.golden.get(key):
                result.failed += 1
                result.mismatches.append(
                    f"{key}: exit {code}, digest {got} != golden {self.golden.get(key)}")
        return result

    def unit_digests(self, i: int) -> dict[str, str]:
        out = {}
        for j, argv in enumerate(self.blocks[i]):
            code, text, _ = run_cli(self.pkg.cli, argv)
            out[f"{i}/{j}"] = digest(f"{code}\n{text}")
        return out


WORKLOADS: dict[str, Callable[..., Workload]] = {
    w.name: w for w in (VerifyN3, VerifyN4, VerifyN5, ReportsQN5)
}
