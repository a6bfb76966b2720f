"""Golden outputs: small runs of every subcommand must reproduce the stored CSVs byte for byte.

The files under ``tests/golden/`` pin the exact bits of the chain update, the
coupling and the CSV writer.  A change that alters any of them on purpose
regenerates the affected files and says which rows changed and why.
"""
from pathlib import Path

import pytest

from gibbscert.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
N4 = ["--x", "2", "--b", "3", "--a", "1,2,3,4,5", "--seed", "3"]
N3 = ["--x", "1", "--b", "2", "--a", "1,2,3,4", "--seed", "3"]
SMALL_VERIFY = ["--quick", "--replicas", "300", "--horizon", "20", "--t-grid", "2,5"]
SMALL_PI = ["--n-samples", "2000"]

# name -> (argv, extra files the command writes besides its --output)
CASES = {
    "constants_n4": (["constants", *N4], ()),
    "constants_n3": (["constants", *N3], ()),
    "bound_n4": (["bound", *N4, "--t-grid", "0,5,50,500"], ()),
    "bound_n3": (["bound", *N3, "--t-grid", "0,5,50,500"], ()),
    "min_t_n4": (["min-t", *N4, "--epsilon", "1e-4"], ()),
    "min_t_n3": (["min-t", *N3, "--epsilon", "1e-4"], ()),
    "simulate_n4": (["simulate", *N4, "--replicas", "300", "--horizon", "20"], ("trajectory_n4",)),
    "simulate_n3": (["simulate", *N3, "--replicas", "300", "--horizon", "20"], ("trajectory_n3",)),
    "verify_n4": (["verify", *N4, *SMALL_VERIFY], ()),
    "verify_n3": (["verify", *N3, *SMALL_VERIFY], ()),
    "estimate_pi_n4": (["estimate-pi", *N4, *SMALL_PI], ()),
    "estimate_pi_n3": (["estimate-pi", *N3, *SMALL_PI], ()),
}


def run_case(name, outdir):
    """Run one case, writing ``<name>.csv`` (and any dump) into ``outdir``; returns the exit code."""
    argv, extra = CASES[name]
    argv = [*argv, "--workers", "1", "--output", str(Path(outdir) / f"{name}.csv")]
    for dump in extra:
        argv += ["--dump-trajectory", str(Path(outdir) / f"{dump}.csv")]
    return main(argv)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    assert run_case(name, tmp_path) == 0
    for stem in (name, *CASES[name][1]):
        got = (tmp_path / f"{stem}.csv").read_bytes()
        assert got == (GOLDEN / f"{stem}.csv").read_bytes(), f"{stem}.csv differs from tests/golden"
