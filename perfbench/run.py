#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reference --seed 1 --seconds 20 \\
        --trace 0 [--out results.jsonl]

Workloads: ``reference``, ``sdg_session``, ``mc_stream``, ``mc_checkpoint``
(see ``perfbench/workloads.py`` for what each runs and why).

``--trace 0`` is a timed run.  It sets the workload up several times
(``setup_s`` is the median import time, from this process and fresh
interpreters, plus the median set-up), runs the closed loop for
``--seconds``, checks every output it kept, then starts a separate process
for the memory run, which sets up, runs the workload's memory operations
and reports its peak resident set (itself plus its children).  It prints
the end-to-end metrics.

Timed runs count CPU time, not wall time: the CPU time of this process's
threads plus that of its finished child processes.  On a virtual machine
that shares its host, wall time also counts the time the host gives this
machine's cores to others; steal-time accounting keeps that out of CPU
time.  The host's load also slows the cores themselves, which CPU time does
count, so every CPU time is scaled to a reference host speed measured
during the run (``perfbench/calibration.py``).

``--trace 1`` is a traced run of a fixed number of operations, so that its
counts repeat exactly.  It runs set-up and each operation twice, once
untraced and once with every layer hook installed (``perfbench/layers.py``),
and prints the per-layer metrics, the traced and untraced wall times and
their difference, the tracing overhead.  The self times of all spans plus
``trace.unspanned_s`` minus ``trace.overlap_s`` (spans that ran at the same
time on different threads) equal ``trace.wall_s``.  ``--spans`` writes every
span out.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
give the host block, the workload's check figures and, for a traced run,
the per-layer table.  ``--out`` appends the full record (host, seed,
metrics, check figures) to a JSON-lines file that ``perfbench/compare.py``
reads.

The library is imported from ``src/`` next to this directory; without it
the run stops with exit code 2.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for checkpoint and temporary files, one directory per
#: process, each removed when its process exits.
WORK_ROOT = ROOT / ".perfbench_work"

#: Caller-side workers (threads or processes) per workload.
WORKLOADS = {"reference": 1, "sdg_session": 1, "mc_stream": 2,
             "mc_checkpoint": 2}
#: BLAS threads in each worker, so workers x BLAS threads <= cores on two or
#: more cores.  Idle OpenBLAS threads spin, and CPU time would count that.
BLAS_THREADS = 1
SETUP_REPEATS = 5
#: Fresh interpreters that time the imports again; with this process's own
#: import they give the median import time.
IMPORT_REPEATS = 2
MEMORY_TIMEOUT_S = 120
#: Check figures a workload may report; traced runs print them all (0 where
#: the workload has none).
CHECK_FIGURES = (("ref_err_db", "dB"), ("postlayout_err_db", "dB"),
                 ("ref_tol_ratio", "ratio"), ("sdg_err_ratio", "ratio"),
                 ("serve_rel_dev", "ratio"))
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run record to this file")
    parser.add_argument("--spans", help="traced run: write every span to "
                        "this file, one JSON object a line")
    parser.add_argument("--memory-run", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _work_dir() -> Path:
    """This process's scratch directory inside the checkout.

    ``TMPDIR`` points there too, so the files multiprocessing makes for
    worker processes stay inside the checkout.  Call before multiprocessing
    is imported: exit handlers run last-in first-out, so the directory is
    removed after multiprocessing has cleaned up its own files.
    """
    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)

    def remove():
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    atexit.register(remove)
    return work


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child.

    The process's own peak comes from ``VmHWM``: ``ru_maxrss`` survives
    ``exec`` and would include the peak of the process that started us.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass  # no procfs: keep ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # both in KiB


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if Path(lines[0]).resolve() == ROOT else None


def _host(seed, workers):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas_vendor": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": BLAS_THREADS,
            "caller_workers": workers, "numpy": numpy.__version__,
            "python": platform.python_version(), "git_sha": _git_sha(),
            "src_sha256": _source_digest(), "seed": seed}


def _import_seconds(own, host) -> float:
    """Median CPU time to import numpy, the library and the workloads."""
    probe = ("import sys, time; start = time.process_time(); "
             f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
             "import repro, workloads; print(time.process_time() - start)")
    times = [own]
    for __ in range(IMPORT_REPEATS):
        child = subprocess.run([sys.executable, "-c", probe], check=True,
                               capture_output=True, text=True, timeout=60)
        times.append(float(child.stdout))
        host.sample(times[-1])
    return statistics.median(times)


def _run_ops(workload, count, deadline, host):
    """Closed loop: ``count`` operations, then more until the wall-clock
    ``deadline``, each followed by a host-speed sample.  Returns (output,
    CPU seconds) per operation."""
    from calibration import cpu_seconds

    ops = []
    index = 0
    while index < count or time.perf_counter() < deadline:
        start = cpu_seconds()
        output = workload.operation(index)
        seconds = cpu_seconds() - start
        host.sample(seconds)
        ops.append((output, seconds))
        index += 1
    return ops


def _memory_run(args, work):
    """Child process: set up, run the memory operations, report peak RSS."""
    import workloads

    workload = workloads.make(args.workload, str(work))
    workload.setup(args.seed)
    for index in range(workload.memory_ops):
        workload.operation(index)
    print(json.dumps({"peak_rss_mb": _peak_rss_mb()}))
    return 0


def _measure_memory(args) -> float:
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--memory-run"]
    child = subprocess.run(command, capture_output=True, text=True,
                           timeout=MEMORY_TIMEOUT_S, cwd=str(ROOT))
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise RuntimeError(f"memory run exited with {child.returncode}")
    return json.loads(child.stdout.strip().splitlines()[-1])["peak_rss_mb"]


def _timed(args, workload, import_s):
    from calibration import HostSpeed, cpu_seconds

    host = HostSpeed()
    host.sample(import_s)
    setups = []
    for __ in range(SETUP_REPEATS):
        start = cpu_seconds()
        workload.setup(args.seed)
        setups.append(cpu_seconds() - start)
        host.sample(setups[-1])
    start = time.perf_counter()
    ops = _run_ops(workload, workload.min_ops, start + args.seconds, host)
    wall = time.perf_counter() - start
    import_s = _import_seconds(import_s, host)
    speed = host.speed()
    rate, unit, details = workload.throughput(
        [(output, speed * seconds) for output, seconds in ops])
    attempted, failed, checks = workload.check(ops)
    metrics = {"setup_s": (speed * (import_s + statistics.median(setups)),
                           "s"),
               "cpu_throughput": (rate, unit),
               "peak_rss_mb": (_measure_memory(args), "MB")}
    details.update(checks)
    details["host_speed"] = speed
    details["import_cpu_s"] = import_s
    details["setup_median_cpu_s"] = statistics.median(setups)
    details["measured_wall_s"] = wall
    details["measured_cpu_s"] = sum(seconds for __, seconds in ops)
    return metrics, attempted, failed, details


def _traced(args, workload):
    import layers
    from tracing import Tracer

    tracer = Tracer()

    def untraced(step):
        start = time.perf_counter()
        step()
        return time.perf_counter() - start

    def traced(step):
        escalations = layers.escalations()
        layers.install(tracer)
        try:
            start = time.perf_counter()
            output = step()
            return time.perf_counter() - start, output
        finally:
            tracer.restore()
            tracer.count("engine.escalations",
                         layers.escalations() - escalations)

    def twice(step, traced_first):
        """Time ``step`` untraced and traced, in the given order.

        Pairing the two runs, and alternating which goes first, keeps slow
        drifts of the host and order effects out of the overhead figure.
        """
        if traced_first:
            seconds, output = traced(step)
            return untraced(step), seconds, output
        plain = untraced(step)
        return (plain,) + traced(step)

    workload.setup(args.seed)  # warm-up, not measured
    untraced_wall, wall, __ = twice(lambda: workload.setup(args.seed), False)
    ops = []
    for index in range(workload.trace_ops):
        plain, seconds, output = twice(lambda: workload.operation(index),
                                       index % 2 == 0)
        untraced_wall += plain
        wall += seconds
        ops.append((output, seconds))
    for output, __ in ops:
        for name, amount in workload.trace_counts(output).items():
            tracer.count(name, amount)

    attempted, failed, checks = workload.check(ops)
    metrics = layers.collect(tracer)
    self_sum = sum(tracer.self_times().values())
    unspanned = wall - tracer.root_seconds()
    metrics.update({
        "trace.ops": (len(ops), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
        "trace.busy_s": (tracer.busy_seconds(), "s"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.unspanned_s": (unspanned, "s"),
        "trace.overlap_s": (tracer.overlap_seconds(), "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")
    for name, unit in CHECK_FIGURES:
        metrics["check." + name] = (checks.get(name, 0.0), unit)
    metrics["check.failed_frac"] = (failed / attempted, "ratio")
    return metrics, attempted, failed, checks


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return 2
    workers = WORKLOADS[args.workload]
    for variable in BLAS_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    work = _work_dir()
    sys.path[:0] = [str(SRC), str(HERE)]

    start = time.process_time()
    import repro
    import workloads
    import_s = time.process_time() - start
    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.memory_run:
        return _memory_run(args, work)

    workload = workloads.make(args.workload, str(work))
    if args.trace:
        metrics, attempted, failed, details = _traced(args, workload)
    else:
        metrics, attempted, failed, details = _timed(args, workload, import_s)
    details["failed_frac"] = failed / attempted

    host = _host(args.seed, workers)
    print("host " + json.dumps(host, sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name:34s} {value:>16.6g} {unit}")
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "host": host,
              "details": details,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
