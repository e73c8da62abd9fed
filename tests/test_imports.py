"""Importing the package, and a serial verify run, load no class-building
or process-pool machinery, and importing the CLI loads no `verify`: each
check runs in a fresh interpreter and compares `sys.modules` before and
after."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = {"dataclasses", "inspect", "concurrent.futures", "multiprocessing", "typing"}


def newly_loaded(code: str, *flags: str) -> set[str]:
    """The modules that running `code` adds to a fresh interpreter's `sys.modules`."""
    script = ("import sys\nbefore = set(sys.modules)\n" + code
              + "\nprint(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    return set(out.stdout.split())


def test_importing_the_cli_loads_no_heavy_module():
    loaded = newly_loaded("import neuralideals.cli")
    assert "neuralideals.cli" in loaded
    assert loaded & HEAVY == set()


def test_importing_the_cli_loads_no_verify():
    # -S: a site hook may have loaded `random` before the import
    loaded = newly_loaded("import neuralideals.cli", "-S")
    assert "neuralideals.cli" in loaded
    assert loaded & {"neuralideals.verify", "random"} == set()


def test_the_package_loads_verify_on_first_use():
    loaded = newly_loaded("import neuralideals\n"
                          "assert 'neuralideals.verify' not in sys.modules\n"
                          "from neuralideals import VerificationReport, run_verification\n"
                          "assert run_verification is neuralideals.verify.run_verification\n"
                          "assert set(neuralideals.__all__) <= set(dir(neuralideals))")
    assert "neuralideals.verify" in loaded


def test_a_serial_verify_run_loads_no_pool():
    loaded = newly_loaded("from neuralideals.verify import run_verification\n"
                          "assert run_verification(n=2).ok")
    assert loaded & HEAVY == set()


def test_a_forking_verify_run_loads_the_pool():
    loaded = newly_loaded("from neuralideals import verify\n"
                          "verify._usable_cpus = lambda: 2\n"
                          "assert verify.run_verification(n=2, jobs=2).ok")
    assert "concurrent.futures" in loaded
