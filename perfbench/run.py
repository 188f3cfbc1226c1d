"""Run one g2sf benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload desk_cli --seed 7 --seconds 15 --trace 0

Run from the repository root. Set-up runs three to seven times (more while
it is cheap), each in a child process, and ``setup_s`` is the median. The
timed phase repeats whole passes until ``--seconds`` have elapsed (at least
one pass) and reports the median pass. ``--trace 1`` runs one traced pass
instead and reports its per-layer metrics.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records the environment and the workload-specific detail
metrics. Exit code 0 means the benchmark ran; a failed check shows as
``"correct": false``.
"""
import os

# BLAS and OpenMP read these once, when numpy first loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# At least three set-ups, more while they are cheap, for a steadier median.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_SECONDS = 3, 7, 5.0
E2E_PER_PASS = ("wall_s", "cpu_s", "fit_s", "val_loss")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
             "fit_s": "s", "val_loss": "loss"}


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "threads": {v: os.environ[v] for v in THREAD_VARS}, "cli_threads": 1,
            "seed": seed}


def set_up(workloads, name, seed, work, shape):
    """One set-up in a child process, then the in-process load; returns (s, state)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    child = (f"import sys; sys.path[:0] = {[str(SRC), str(HERE)]!r}; import workloads; "
             f"workloads.setup_child({name!r}, {seed!r}, {str(work)!r})")
    # The child's stdout (CLI progress) goes to stderr; the result lines own stdout.
    subprocess.run([sys.executable, "-c", child], check=True, stdout=sys.stderr)
    state = workloads.WORKLOADS[name].load(work, shape)
    return time.perf_counter() - t0, state


def one_pass(workload, state, index, gate, traced):
    from tracer import Tracer, patched

    tr = Tracer()
    with patched(tr) if traced else nullcontext():
        with tr.span("pass", cpu=True) as span:
            raw = workload.run(state, tr, index)
    metrics, detail = workload.finish(state, raw, tr, gate)
    metrics.update(wall_s=span.end - span.start, cpu_s=span.cpu)
    return metrics, detail, tr


def measure(name, seed, seconds, trace, work):
    import workloads
    from tracer import COMPUTED, layer_metrics

    workload = workloads.WORKLOADS[name]
    shape = workloads.PaperShape()
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or (
            len(setups) < SETUP_MAX_REPEATS and sum(s for s, _ in setups) < SETUP_MIN_SECONDS):
        setups.append(set_up(workloads, name, seed, work, shape))
    state = setups[-1][1]
    # Values a set-up measures in its child (paper_inspect's fit) take the median too.
    measured = [st.get("setup", {}) for _, st in setups]
    state["setup"] = {k: statistics.median(m[k] for m in measured) for k in measured[-1]}
    gate = workloads.Gate()
    if trace:
        traced, detail, tr = one_pass(workload, state, 0, gate, traced=True)
        workloads.check_reference(gate, name, seed, {**traced, **detail})
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(tr).items()}
        metrics["trace.overhead_s"] = {"value": tr.overhead, "unit": "s"}
        return gate, metrics, {"traced_wall_s": traced["wall_s"], "computed": list(COMPUTED)}

    passes = []
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        metrics, detail, _ = one_pass(workload, state, len(passes), gate, traced=False)
        workloads.check_reference(gate, name, seed, {**metrics, **detail})
        passes.append((metrics, detail))
    values = {k: statistics.median(p[k] for p, _ in passes) for k in E2E_PER_PASS}
    values["setup_s"] = statistics.median(s for s, _ in setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    detail = {k: statistics.median(d[k] for _, d in passes) for k in passes[0][1]}
    detail["pass_wall_s"] = [p["wall_s"] for p, _ in passes]
    metrics = {k: {"value": values[k], "unit": E2E_UNITS[k]} for k in E2E_UNITS}
    return gate, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk_cli", "paper_fit", "paper_inspect"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "g2sf").is_dir() or not (ROOT / "configs" / "desk.cfg").is_file():
        print(f"error: run from a g2sf checkout; {SRC / 'g2sf'} or configs/desk.cfg is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        gate, metrics, detail = measure(args.workload, args.seed, args.seconds,
                                        bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made
    for failure in gate.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "env": environment(args.seed),
                      "detail": detail}))
    print(json.dumps({"correct": not gate.failures, "attempted": gate.attempted,
                      "failed": len(gate.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
