"""``verify`` on worker processes under the benchmark's tracer.

The benchmark's warm-up repetition always runs traced: ``bench/layers.py``
wraps ``gibbscert`` entry points in closures and hands ``verify._run_chunked``
a lambda.  These runs fail if a wrapped attribute is missing or if a job's
callable has to be pickled to reach a worker process.
"""
import csv
import multiprocessing
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

from gibbscert.cli import main  # noqa: E402

N4 = ["--x", "2", "--b", "3", "--a", "1,2,3,4,5"]


@pytest.mark.parametrize("sizes", [["--quick"], ["--replicas", "8300", "--horizon", "10", "--t-grid", "2,5"]],
                         ids=["quick", "two_chunks"])
def test_traced_verify_on_two_workers_passes(sizes, tmp_path):
    out = tmp_path / "verify.csv"
    with Tracer() as tracer:
        layers.install(tracer)
        rc = tracer.run(layers.ROOT_SPAN, main, (["verify", *N4, *sizes, "--workers", "2", "--output", str(out)],))
    assert rc == 0
    assert multiprocessing.active_children() == []
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["passed"] == "True" for r in rows)
    assert any(s.name == "verify.verify_suite" for s in tracer.spans)
