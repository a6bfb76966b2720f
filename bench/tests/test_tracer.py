"""Tests for the benchmark's tracer, layer wiring and output checks.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""
import sys
import threading
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gibbscert.verify as verify  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from gibbscert.rng import RngStream  # noqa: E402
from tracer import Tracer, self_times, totals  # noqa: E402


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _program():
    """A three-level call tree whose functions look each other up at call time."""
    ns = types.SimpleNamespace()
    ns.leaf = lambda: _spin(0.002)

    def mid():
        _spin(0.001)
        ns.leaf()

    def outer():
        for _ in range(3):
            ns.mid()
        ns.leaf()

    ns.mid, ns.outer = mid, outer
    return ns


def test_self_times_sum_to_wall_on_one_thread():
    ns = _program()
    with Tracer() as tracer:
        for name in ("outer", "mid", "leaf"):
            tracer.wrap(ns, name, name)
        start = time.perf_counter_ns()
        tracer.run("root", ns.outer)
        wall = time.perf_counter_ns() - start
    root = next(s for s in tracer.spans if s.name == "root")
    own = self_times(tracer.spans)
    assert sum(own.values()) == root.end - root.start
    assert abs(sum(own.values()) - wall) <= 0.01 * wall
    agg = totals(tracer.spans)
    assert agg["mid"][0] == 3 and agg["leaf"][0] == 4
    assert agg["leaf"][2] == agg["leaf"][1]           # a leaf's self time is all of it
    assert agg["outer"][2] < agg["outer"][1]


def test_pool_spans_link_to_their_submitter():
    cfg = verify.McConfig(n_replicas=400, workers=2, chunk_size=100)

    def chunk(chunk_id, m):
        _spin(0.01)
        return RngStream(1, chunk_id).gamma(2.0, size=m).sum()

    with Tracer() as tracer:
        layers.install(tracer)
        main = threading.get_ident()
        start = time.perf_counter()
        tracer.run(layers.ROOT_SPAN, verify._run_chunked, (chunk, cfg.n_replicas, cfg))
        wall = time.perf_counter() - start

    pool = next(s for s in tracer.spans if s.name == "verify.pool")
    chunks = [s for s in tracer.spans if s.name == "verify.chunk"]
    assert len(chunks) == 4
    assert all(c.cause == pool.id for c in chunks)
    assert all(c.thread != main for c in chunks)
    by_id = {s.id: s for s in tracer.spans}
    draws = [s for s in tracer.spans if s.name == "rng.gamma"]
    assert len(draws) == 4
    assert all(by_id[d.cause].name == "verify.chunk" and by_id[d.cause].thread == d.thread for d in draws)
    # worker time is not subtracted from the waiting submitter
    assert self_times(tracer.spans)[pool.id] == pool.end - pool.start

    m = layers.metrics(tracer.spans, steps=400, workers=2, wall_s=wall)
    assert m["verify.chunks"] == 4
    assert m["rng.variates"] == 400 and m["rng.calls"] == 4
    assert 0.0 < m["verify.worker_busy_share"] <= 1.0
    assert m["verify.pool_wait_s"] == pytest.approx((pool.end - pool.start) / 1e9)
    assert m["trace.accounted_share"] == pytest.approx(1.0, abs=0.01)


def test_every_wrapper_is_removed_on_exit():
    import gibbscert.cli as cli
    import gibbscert.ratio_drift as ratio_drift

    owners = (cli, verify, ratio_drift, RngStream)
    before = {(o, k): v for o in owners for k, v in vars(o).items()}
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            layers.install(tracer)
            assert verify.ratio_step is not before[(verify, "ratio_step")]
            assert vars(RngStream)["gamma"] is not before[(RngStream, "gamma")]
            raise RuntimeError("leave the block early")
    after = {(o, k): v for o in owners for k, v in vars(o).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    recorded = len(tracer.spans)
    RngStream(1).gamma(2.0, size=3)
    assert len(tracer.spans) == recorded


def _write(tmp_path, text):
    path = tmp_path / "out.csv"
    path.write_text(text)
    return path


def test_sweep_check_flags_a_rising_mean(tmp_path):
    rows = ["t,mean_R,mean_R_minus_1,se_R"] + [
        f"{t},{4.0 / (t + 1) + 1.0},{4.0 / (t + 1)},0.1" for t in range(workloads.SWEEP_HORIZON + 1)]
    assert workloads.check_sweep(_write(tmp_path, "\n".join(rows) + "\n")) == []
    rows[10] = "9,9.0,8.0,0.1"
    assert any("increases" in p for p in workloads.check_sweep(_write(tmp_path, "\n".join(rows) + "\n")))


def test_certify_check_flags_failed_and_missing_rows(tmp_path):
    head = "check,estimate,ci_halfwidth,target,passed,n,note\n"
    problems = workloads.check_certify(_write(tmp_path, head + "pathwise_suite,0.0,0.0,0.0,False,10,\n"))
    assert any("did not pass" in p for p in problems)
    assert any("missing check tv_decay_n4" in p for p in problems)
    assert any("every replica-step" in p for p in problems)
