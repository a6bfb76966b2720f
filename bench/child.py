"""Run one workload command in this fresh process and print one JSON line.

    python3 bench/child.py MODE WORKLOAD SEED WORKERS OUTDIR

MODE is ``run`` (untraced command) or ``trace`` (command with every layer
wrapped).  Set-up is the import of gibbscert with numpy and scipy plus
``compute_constants`` for the workload's model; the command then runs
in-process through ``gibbscert.cli.main``.
"""
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(mode, name, seed, workers, outdir):
    spec = workloads.WORKLOADS[name]
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import gibbscert
    import gibbscert.cli as cli
    from gibbscert.chain import ModelParams
    from gibbscert.constants import compute_constants
    t_import = time.perf_counter()
    compute_constants(ModelParams(**spec["model"]))
    t_setup = time.perf_counter()
    if Path(gibbscert.__file__).resolve().parent != ROOT / "src" / "gibbscert":
        raise SystemExit(f"gibbscert was imported from {gibbscert.__file__}, not from {ROOT / 'src'}")
    result = {
        "setup_s": t_setup - t0, "import_s": t_import - t0, "constants_s": t_setup - t_import,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "gibbscert": gibbscert.__version__},
        "chunk_size": gibbscert.McConfig().chunk_size,
    }
    import layers
    import tracer as tracing

    out_csv = Path(outdir) / f"{mode}.csv"
    if out_csv.exists():
        out_csv.unlink()
    argv = workloads.command(name, seed, workers, str(out_csv))
    problems = []
    tracer = tracing.Tracer()
    if mode == "trace":
        layers.install(tracer)
    start = time.perf_counter()
    try:
        rc = tracer.run(layers.ROOT_SPAN, cli.main, (argv,)) if mode == "trace" else cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        problems.append(traceback.format_exc(limit=3))
    wall = time.perf_counter() - start
    tracer.uninstall()
    result["wall_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rc != 0:
        problems.append(f"exit code {rc}")
    if out_csv.is_file():
        result["sha256"] = hashlib.sha256(out_csv.read_bytes()).hexdigest()
        try:
            problems += spec["check"](out_csv)
            result["se_rel"] = spec["se_rel"](out_csv)
        except (KeyError, IndexError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    else:
        problems.append("no output file")
    result["problems"] = problems
    if mode == "trace":
        result["layers"] = layers.metrics(tracer.spans, spec["steps"], workers, wall)
        tracing.save(tracer.spans, Path(outdir) / "spans.tsv")
    return result


if __name__ == "__main__":
    mode, name, seed, workers, outdir = sys.argv[1:6]
    out = main(mode, name, int(seed), int(workers), outdir)
    sys.stdout.flush()
    print(json.dumps(out))
