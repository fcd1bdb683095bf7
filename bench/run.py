"""astvec benchmark: one workload in this process, on one thread.

    python3 bench/run.py --workload {train,ingest,evaluate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src. Inputs
are generated from --seed. The set-up runs three times and setup_s is the
time to import astvec plus the median set-up. After one untimed warm-up pass,
the timed section repeats while the next pass still fits in --seconds, and
the end-to-end metrics are medians over the passes. With --trace 1, untraced and traced passes alternate instead and
the per-layer metrics are printed; spans are written to
.bench_work/traces/<workload>-seed<N>.jsonl when the run ends.

The machine this was built on is shared, and other tenants slow every
process on it by up to 2x for tens of seconds at a time. So a fixed
calibration kernel runs before and after every set-up and every pass, and
each end-to-end time is scaled by CALIBRATION_REF_S over the mean of its two
neighbouring kernel times: the time the pass would take at the speed where
the kernel takes CALIBRATION_REF_S. The kernel is the benchmark's own code,
so a change to astvec moves the scaled times just as it moves the raw ones,
which the readable report prints as well.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report.
"""

import os

# One thread per workload process: pin BLAS and OpenMP pools before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# The kernel's time on the baseline machine when it was quiet; any constant
# works, this one keeps the scaled times close to quiet-machine seconds.
CALIBRATION_REF_S = 0.18

HIGHER_IS_BETTER = {"work_per_s", "cparse.tokens_per_s"}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a checkout
    that is not a repository gives 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        return (git / head[5:]).read_text().strip()
    except OSError:
        pass
    return "unknown"


def environment(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
    }


def calibration_kernel(np) -> float:
    """Seconds for a fixed mix of the three kinds of work astvec does: string
    and container handling in the interpreter (the parser), small matrix-vector
    products in a Python loop (the coder) and mid-sized matrix products (the
    classifiers). A mix tracks the slowdown of every workload better than any
    one part alone."""
    t0 = time.perf_counter()
    total = 0
    for i in range(30000):
        tokens = f"int f(int a) {{ return a + {i}; }}".replace("(", " ( ").split()
        total += len({"kind": tokens[0], "children": [(t, len(t)) for t in tokens]})
    rng = np.random.default_rng(0)
    small = rng.standard_normal((30, 30)) / 6
    v = np.ones(30)
    for _ in range(24000):
        v = np.tanh(small @ v + 0.1)
    x = rng.standard_normal((132, 44))
    w1 = rng.standard_normal((44, 64)) / 8
    w2 = rng.standard_normal((64, 64)) / 8
    for _ in range(800):
        h = np.tanh(np.tanh(x @ w1) @ w2)
        total += int((h.T @ h)[0, 0] > 0)
    return time.perf_counter() - t0


class Calibrated:
    """Times steps and scales each by the calibration kernel around it."""

    def __init__(self, np):
        self._np = np
        self.first = self._last = calibration_kernel(np)
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def time(self, step) -> float:
        t0 = time.perf_counter()
        step()
        raw = time.perf_counter() - t0
        after = calibration_kernel(self._np)
        self.raw.append(raw)
        self.scaled.append(raw * CALIBRATION_REF_S / ((self._last + after) / 2))
        self._last = after
        return raw

    def take(self) -> tuple[list[float], list[float]]:
        """The scaled and raw times so far; starts new lists."""
        taken = self.scaled, self.raw
        self.scaled, self.raw = [], []
        return taken


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "ingest", "evaluate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the benchmark's self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "astvec" / "__init__.py").is_file():
        log(f"error: {src}/astvec not found; run from the root of an astvec checkout")
        return 2

    import numpy as np  # a fixed cost astvec cannot change, so not in setup_s

    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import layers
    import workloads
    from tracer import Tracer
    import_s = time.perf_counter() - t0
    if not Path(layers.cli.__file__).resolve().is_relative_to(src.resolve()):
        log(f"error: astvec was imported from {layers.cli.__file__}, not {src}")
        return 2
    # The CLI's INFO lines ("wrote ...") would flood stderr; warnings still show.
    logging.getLogger("astvec").setLevel(logging.WARNING)

    env = environment(np, args.seed)
    log("env " + json.dumps(env))
    size = workloads.TINY if args.tiny else workloads.FULL
    checks = workloads.Checks(log)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, size, workdir)
        if args.trace:
            metrics = traced_run(workload, checks, args, work_root, Tracer, layers)
        else:
            metrics = untraced_run(workload, checks, args, import_s, np)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        better = "higher" if name in HIGHER_IS_BETTER else "lower"
        print(f"# {name:40s} {value:>16.6g} {unit:9s} {better}")
    failed_frac = checks.failed / checks.attempted
    print(f"# failed_frac {failed_frac} ({checks.failed} of {checks.attempted} checks)")
    print("# env " + json.dumps(env))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def untraced_run(workload, checks, args, import_s, np) -> dict:
    clock = Calibrated(np)
    import_scaled = import_s * CALIBRATION_REF_S / clock.first
    for _ in range(SETUP_REPEATS):
        clock.time(lambda: workload.setup(checks))
    setups, raw_setups = clock.take()
    workload.write_inputs()
    # One untimed pass fills caches and finishes lazy set-up; its outputs are
    # the reference that later passes are checked against.
    clock.time(lambda: workload.run(checks))
    workload.check(checks, traced=False)
    clock.take()
    deadline = time.perf_counter() + args.seconds
    while True:
        raw = clock.time(lambda: workload.run(checks))
        workload.check(checks, traced=False)
        if time.perf_counter() + raw > deadline:
            break
    wall = statistics.median(clock.scaled)
    log(f"{len(clock.raw)} passes of {workload.work} {workload.work_unit}; "
        f"raw median wall {statistics.median(clock.raw):.4f} s, "
        f"raw median set-up {statistics.median(raw_setups):.4f} s, "
        f"raw import {import_s:.4f} s")
    return {
        "setup_s": (import_scaled + statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "work_per_s": (workload.work / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(workload, checks, args, work_root, Tracer, layers) -> dict:
    """Untraced and traced passes alternate, so the overhead is the median
    ratio of each traced pass to the untraced pass before it."""
    run_id = f"{args.workload}-seed{args.seed}"
    setup_tracer = Tracer(run_id + "-setup")
    layers.instrument_setup(setup_tracer)
    try:
        workload.setup(checks)
    finally:
        setup_tracer.restore()
    workload.write_inputs()

    workload.run(checks)  # untimed, as in untraced_run
    workload.check(checks, traced=False)
    tracer = Tracer(run_id)
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        workload.run(checks)
        untraced.append(time.perf_counter() - t0)
        workload.check(checks, traced=False)
        layers.instrument(tracer)
        try:
            t0 = time.perf_counter()
            with tracer.span(layers.PASS_SPAN):
                workload.run(checks)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.restore()
        workload.check(checks, traced=True)
        if time.perf_counter() + untraced[-1] + traced[-1] > deadline:
            break

    traces = work_root / "traces"
    traces.mkdir(exist_ok=True)
    tracer.write(traces / f"{run_id}.jsonl")
    metrics = layers.layer_metrics(tracer, setup_tracer, workload.facts)
    metrics["untraced_wall_s"] = (statistics.median(untraced), "s")
    metrics["trace_overhead_frac"] = (
        statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0, "fraction")
    log(f"{len(traced)} traced and {len(untraced)} untraced passes")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
