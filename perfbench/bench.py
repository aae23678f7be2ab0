"""Benchmark runner: set-up, warm-up, timed units, output checks, report.

Load is a closed loop: one client runs one unit at a time in this single
process.  A run sets up the workload from its seed, runs one tiny warm-up
unit, then times full units for about ``--seconds`` of their own wall
time (at least one unit).  With ``--trace 1`` half of that time
goes to untraced units and half to traced ones, and the per-layer metrics
come from the traced units.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give the measurement conditions and the full timing distribution.
Exit codes: 0 done, 1 a converged solve failed its output check (a wrong
answer), 2 the benchmark could not run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
# Set to 1 by run.py before numpy is first imported.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5  # at least; a probe also follows every untraced unit

# The host's speed drifts: other tenants of the machine slow this process
# by up to 1.4x for tens of seconds at a time.  Every reported time is
# therefore scaled to a fixed host speed, at which REF_LOOP iterations of
# ``reference_loop`` take REF_NOMINAL_S, using the loop's median time
# sampled while the measured work runs (see WORKLOADS.md, "Run-to-run
# spread").  The raw times are printed on the comment lines.
REF_LOOP = 3000
REF_NOMINAL_S = 250e-6
SAMPLE_INTERVAL_S = 0.02  # while a unit runs
BRACKET_SAMPLES = 8  # before and after each set-up

# End-to-end metrics: name -> unit.  Order is the report order.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "newton_iters": "count",
    "peak_rss_mb": "MB",
    "solved_share": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: self-test size")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_LOOP):
        s += i * i % 7
    return time.perf_counter() - t0


def speed_scale(samples) -> float:
    """Factor that turns a time measured alongside ``samples`` into one at
    the reference host speed."""
    return REF_NOMINAL_S / median(samples)


class HostSpeed:
    """Samples ``reference_loop`` every SAMPLE_INTERVAL_S inside its block.

    A SIGALRM handler runs the loop between the bytecodes of the measured
    work; ``overhead`` is the time the samples took, to be subtracted from
    the block's wall and CPU time.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.samples = []
        self.overhead = 0.0

    def __enter__(self):
        if self.active:
            signal.signal(signal.SIGALRM, lambda signum, frame: self.samples.append(reference_loop()))
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.overhead = sum(self.samples)
        if not self.samples:  # a block shorter than one interval
            self.samples.append(reference_loop())
        return False

    @property
    def scale(self) -> float:
        return speed_scale(self.samples)


def _import_hovi():
    """Import hovi from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "hovi", "__init__.py")):
        raise RuntimeError(f"no hovi source tree under {SRC}")
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    import hovi

    if os.path.dirname(os.path.dirname(os.path.abspath(hovi.__file__))) != SRC:
        raise RuntimeError(f"imported hovi from {hovi.__file__}, not from {SRC}")


def set_up(workload: str, seed: int, size: str, workdir: str):
    """Import hovi and generate the seeded inputs.

    Returns (workload, seconds, scale), ``scale`` from reference samples
    taken right before and after.
    """
    ref = [reference_loop() for _ in range(BRACKET_SAMPLES)]
    t0 = time.perf_counter()
    _import_hovi()
    from perfbench import workloads

    work = workloads.prepare(workload, seed, size, workdir)
    seconds = time.perf_counter() - t0
    ref += [reference_loop() for _ in range(BRACKET_SAMPLES)]
    return work, seconds, speed_scale(ref)


def _probe_setup(args) -> tuple:
    """(seconds, scale) of the set-up in a fresh interpreter, as a user
    starting hovi pays it."""
    cmd = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--size", args.size,
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    seconds, scale = out.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(scale)


class Runner:
    """Runs units of one prepared workload and collects their figures."""

    def __init__(self, work, counter):
        self.work = work
        self.counter = counter
        # Per untraced unit: wall and CPU seconds as measured, speed scale.
        self.walls, self.cpus, self.scales, self.iters = [], [], [], []
        self.layer_units = []
        self.attempted = self.failed = 0
        self.wrong = []

    def scaled(self, values: list) -> list:
        """Per-unit seconds at the reference host speed."""
        return [t * k for t, k in zip(values, self.scales)]

    def timed(self, seconds: float, tracer=None, between=None) -> None:
        """Run units for about ``seconds`` in total, at least one.

        A further unit starts only if a unit of the mean length so far
        would end less than half a unit past ``seconds``, so a run of long
        units does not overrun by a whole unit.  Untraced units feed the
        end-to-end figures, traced units the per-layer ones.  ``between``
        runs after each unit, outside the measured time.
        """
        from perfbench import tracing

        measured = 0.0
        units = 0
        while not units or measured + 0.5 * measured / units <= seconds:
            units += 1
            if tracer is not None:
                tracer.reset()
            self.counter.iterations = 0
            with HostSpeed(active=tracer is None) as host:
                c0 = time.process_time()
                t0 = time.perf_counter()
                result = self.work.run_unit()
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
            measured += wall
            wall -= host.overhead
            cpu -= host.overhead
            self.attempted += result.attempted
            self.failed += result.failed
            self.wrong.extend(result.wrong)
            if tracer is None:
                self.walls.append(wall)
                self.cpus.append(cpu)
                self.scales.append(host.scale)
                self.iters.append(self.counter.iterations)
            else:
                self.layer_units.append(
                    tracing.unit_metrics(tracer, wall, self.counter.iterations, result.output_bytes)
                )
            if between is not None:
                between()


def _distribution(values):
    """Median, quartiles, count and the highest percentile with ten samples beyond it."""
    n = len(values)
    q1, q2, q3 = quantiles(values, n=4, method="inclusive") if n > 1 else (values[0],) * 3
    tail = "n/a (needs 11 or more samples)"
    if n >= 11:
        tail = f"p{100 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.4f}"
    return f"median {q2:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n {n}  tail {tail}"


def conditions(args) -> dict:
    """Measurement conditions printed with every result."""
    import numpy

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "hovi")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except OSError:
            pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "not installed"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "commit": commit,
        "hovi_source_sha256": digest.hexdigest()[:16],
        "load": "closed loop, one client, one unit at a time, single process",
    }


def run(args, workdir: str, setup_repeats: int = SETUP_REPEATS) -> tuple[dict, list]:
    """Measure one workload; returns (result object, wrong-answer messages)."""
    work, seconds, scale = set_up(args.workload, args.seed, args.size, os.path.join(workdir, "inputs"))
    setups = [(seconds, scale)]

    def probe():
        setups.append(_probe_setup(args))

    from perfbench import tracing, workloads

    patches = tracing.Patches()
    runner = Runner(work, tracing.IterationCounter())
    try:
        tracing.install_counter(patches, runner.counter)
        warm = workloads.prepare(args.workload, args.seed, "tiny", os.path.join(workdir, "warm"))
        warm.run_unit()
        if args.trace:
            runner.timed(args.seconds / 2)
            tracer = tracing.Tracer()
            tracing.install_tracer(patches, tracer)
            runner.timed(args.seconds / 2, tracer)
            metrics = tracing.median_metrics(runner.layer_units, median(runner.walls))
            units = tracing.PER_LAYER
            spans = tracing.span_table(tracer)
        else:
            # Probes follow each unit, so the set-up median does not hinge
            # on the machine's state at one moment of the run.
            runner.timed(args.seconds, between=probe if setup_repeats > 1 else None)
            while len(setups) < setup_repeats:
                probe()
            metrics = {
                "setup_s": median(t * k for t, k in setups),
                "wall_s": median(runner.scaled(runner.walls)),
                "cpu_s": median(runner.scaled(runner.cpus)),
                "newton_iters": median(runner.iters),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "solved_share": 1.0 - runner.failed / runner.attempted,
            }
            units = END_TO_END
            spans = None
    finally:
        patches.restore()

    print("# conditions " + json.dumps(conditions(args), sort_keys=True))
    print(f"# raw wall_s   {_distribution(runner.walls)}")
    print(f"# raw cpu_s    {_distribution(runner.cpus)}")
    print(f"# raw setup_s  {_distribution([t for t, _ in setups])}")
    print(f"# speed scale  {_distribution(runner.scales)}")
    print(f"# wall_s   {_distribution(runner.scaled(runner.walls))}")
    print(f"# cpu_s    {_distribution(runner.scaled(runner.cpus))}")
    print(f"# setup_s  {_distribution([t * k for t, k in setups])}")
    print(f"# failed_share {runner.failed}/{runner.attempted} = {runner.failed / runner.attempted:.4f}")
    if spans is not None:
        for row in spans:
            print(
                f"# span {row['name']:<40} parent {str(row['parent']):<34} "
                f"calls {row['calls']:>8}  total {row['total_s']:.4f}  self {row['self_s']:.4f}"
            )
    result = {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, runner.wrong


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        if args.setup_probe:
            _, seconds, scale = set_up(args.workload, args.seed, args.size, workdir)
            print(repr(seconds), repr(scale))
            return 0
        result, wrong = run(args, workdir)
    except (RuntimeError, ValueError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    for line in wrong:
        print(f"wrong answer: {line}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    sys.stdout.flush()
    return 1 if wrong else 0
