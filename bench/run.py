"""gibbscert benchmark: time to certificate and chain steps per second.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout (the program is imported from ``src/``).  Each
repetition is one workload command in a fresh process (``child.py``), with
``--workers`` set to the CPUs this process may use.  A traced warm-up
repetition comes first and its times are not used; repetitions then go on
until the next one would overrun ``--seconds``.  Every repetition's output
is checked.  With ``--trace 0`` the last stdout line reports the end-to-end
metrics as medians over the repetitions; with ``--trace 1`` untraced and
traced repetitions alternate and it reports the per-layer metrics (medians
over the traced ones) and the tracing overhead.  The line before it is the
run record: machine, versions, seed, output digests and every raw sample.
Files go to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, command  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3          # untraced repetitions in a --trace 0 run
MIN_PAIRS = 2         # untraced + traced pairs in a --trace 1 run
CHILD_TIMEOUT_S = 120
HARD_STOP_S = 150     # never start a repetition that could end after this


def run_child(mode, workload, seed, workers, outdir):
    """One fresh process; returns its result dict and wall time, or problems."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, workload, str(seed), str(workers), str(outdir)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"{mode} child timed out after {CHILD_TIMEOUT_S} s"]}, time.monotonic() - start
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"problems": [f"{mode} child exited {proc.returncode}: {' | '.join(tail)}"]}, elapsed
    return json.loads(lines[-1]), elapsed


def source_digest():
    """sha256 over the paths and bytes of every file under src/."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def measure(workload, seed, seconds, trace, workers, outdir):
    """Repetitions within the time budget: (warm-up, untraced, traced) results.

    The warm-up is a traced repetition that fills the file cache and counts
    the variates for the run record; its times are not used.
    """
    start = time.monotonic()
    warm = run_child("trace", workload, seed, workers, outdir)[0]
    plain, traced, took = [], [], []
    while True:
        t = time.monotonic()
        plain.append(run_child("run", workload, seed, workers, outdir)[0])
        if trace:
            traced.append(run_child("trace", workload, seed, workers, outdir)[0])
        took.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        nxt = statistics.median(took)
        if elapsed + nxt > HARD_STOP_S:
            break
        if len(took) >= (MIN_PAIRS if trace else MIN_REPS) and elapsed + nxt > seconds:
            break
    return warm, plain, traced


def median_of(results, key):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gibbscert" / "__init__.py").is_file():
        sys.stderr.write(f"error: no gibbscert sources under {ROOT / 'src'}; run from a source checkout\n")
        return 2

    spec = WORKLOADS[args.workload]
    workers = len(os.sched_getaffinity(0))
    outdir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    warm, plain, traced = measure(args.workload, args.seed, args.seconds, args.trace, workers, outdir)

    every = [warm] + plain + traced
    failed = sum(1 for r in every if r.get("problems"))
    digests = sorted({r["sha256"] for r in every if "sha256" in r})
    consistent = len(digests) == 1
    wall = median_of(plain, "wall_s")
    if wall is None:
        sys.stderr.write("error: no repetition produced a timing\n")
        for r in every:
            sys.stderr.write("".join(r.get("problems", [])) + "\n")
        return 1

    if args.trace:
        per_rep = [r["layers"] for r in traced if "layers" in r]
        metrics = {name: statistics.median(rep[name] for rep in per_rep)
                   for name in per_rep[0]} if per_rep else {}
        metrics["constants.compute_s"] = median_of(traced, "constants_s")
        metrics["setup.import_s"] = median_of(traced, "import_s")
        traced_wall = median_of(traced, "wall_s")
        metrics["trace.overhead_share"] = None if traced_wall is None else (traced_wall - wall) / wall
    else:
        metrics = {
            "setup_s": median_of(plain, "setup_s"),
            "wall_s": wall,
            "steps_per_s": spec["steps"] / wall,
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "se_rel": median_of(plain, "se_rel"),
        }
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    report = {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]} for m in listed}
    missing = [name for name, v in report.items() if v["value"] is None]

    first = next((r for r in every if "versions" in r), {})
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "command": command(args.workload, args.seed, workers, "<out.csv>"),
        "nominal_steps": spec["steps"], "workers": workers, "nproc": os.cpu_count(),
        "commit": git_commit(), "src_sha256": source_digest(),
        "versions": first.get("versions"), "chunk_size": first.get("chunk_size"),
        "rng_variates": warm.get("layers", {}).get("rng.variates"),
        "output_sha256": digests, "attempted": len(every), "failed": failed,
        "fail_ratio": failed / len(every),
        "problems": [p for r in every for p in r.get("problems", [])][:10],
        "missing_metrics": missing,
        "samples": {key: [r.get(key) for r in plain] for key in ("setup_s", "wall_s", "peak_rss_mb")},
        "traced_wall_s": [r.get("wall_s") for r in traced],
        "warmup_wall_s": warm.get("wall_s"),
    }
    (outdir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and consistent and not missing,
        "attempted": len(every),
        "failed": failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
