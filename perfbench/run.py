#!/usr/bin/env python3
"""mpoqst benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload recover-n10 --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

One run measures one workload in this process for --seconds seconds and
prints every metric by name, unit and sample count; the last line of
stdout is a JSON object {correct, attempted, failed, metrics} holding the
metrics that BENCHMARK.json lists (end_to_end, or per_layer when traced).
``--workload all`` runs each workload in a fresh process, so that set-up
time and peak memory belong to one workload alone.  Full results, with a
machine and provenance block, go to perfbench/out/.  See NOTES.md.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("recover-n10", "sweep-small", "psgd-n8", "measure-n12")
SETUP_REPEATS = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


BLAS_THREADS = 1


def limit_blas_threads() -> None:
    """Run BLAS on one thread, whatever the environment asks.  Must run
    before numpy is imported.

    On a small shared machine a second BLAS thread waits for a CPU that
    other processes hold: under load on one of two CPUs, a psgd-n8
    operation took 1.8x as long with two threads and 1.06x with one.
    The workloads are one caller each, so one thread also matches them.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, nproc()))


def blas_threads():
    """Thread count OpenBLAS reports, read from the loaded library."""
    import ctypes
    import re

    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(index / "size")
    return out


def cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def provenance(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(), "cpu_model": cpu_model(), "cache": cache_sizes(),
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__, "python": platform.python_version(),
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


def timed_loop(workload, seconds, trace_with=None):
    """Closed loop: run operations for about ``seconds``, at least one.

    Untraced, operation i uses inputs i, and the host-speed reference
    (``workload.host``) samples all through the loop.  Traced, every
    operation uses the inputs of operation 0 and runs twice, plain and
    then under the recorder, so the two times compare the same work.
    """
    outcomes, plain_s, traced_s, problems = [], [], [], []
    attempted = 0
    passes = [None] if trace_with is None else [None, trace_with]
    sampling = (workload.host.sampling() if trace_with is None
                else contextlib.nullcontext())
    start = last = time.perf_counter()
    with sampling:
        while True:
            for tracer in passes:
                index = attempted if trace_with is None else 0
                attempted += 1
                try:
                    with (tracer.installed() if tracer
                          else contextlib.nullcontext()):
                        outcome = workload.body(index)
                    bad = workload.check(outcome)
                except Exception:
                    bad = [traceback.format_exc(limit=4)]
                if bad:
                    problems.append({"operation": attempted - 1,
                                     "problems": bad})
                    continue
                # Keep only numbers, so memory does not grow with the run.
                outcomes.append({k: v for k, v in outcome.items()
                                 if _number(v) or isinstance(v, list)
                                 and all(map(_number, v))})
                (traced_s if tracer else plain_s).append(outcome["op_s"])
            # Start no operation that would end past the deadline, judged
            # by the one just finished, so that a run takes about
            # ``seconds``.
            now = time.perf_counter()
            if now + (now - last) - start > seconds:
                return outcomes, attempted, problems, plain_s, traced_s
            last = now


def _number(value) -> bool:
    return isinstance(value, (int, float))


def setup_time(args) -> float:
    """Median wall time of SETUP_REPEATS fresh processes that start, import,
    build the inputs, warm up and exit."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable,
                                  str(Path(__file__).resolve()),
                                  "--workload", args.workload,
                                  "--seed", str(args.seed), "--setup-only"],
                                 cwd=ROOT)
        # wait() with a timeout polls in steps of up to 50 ms, which
        # would round the time; a timer thread kills a hung child instead.
        killer = threading.Timer(120, child.kill)
        killer.start()
        try:
            code = child.wait()
        finally:
            killer.cancel()
            killer.join()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, child.args)
    return statistics.median(times)


def run_one(args) -> int:
    if not (SRC / "mpoqst" / "__init__.py").is_file():
        print(f"no mpoqst sources under {SRC}", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import mpoqst

    if Path(mpoqst.__file__).resolve().parent != SRC / "mpoqst":
        print(f"imported mpoqst from {mpoqst.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import hostspeed
    import spans
    import workloads

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{run_id}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        workload.setup()
        if args.setup_only:
            return 0
        setup_s = None if args.trace else setup_time(args)
        workload.host = None if args.trace else hostspeed.HostSpeed()
        tracer = spans.Tracer(run_id) if args.trace else None
        outcomes, attempted, problems, plain_s, traced_s = timed_loop(
            workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(ROOT / "BENCHMARK.json") as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    failed = len(problems)
    metrics = {"failed_ratio": (failed / attempted, "1", attempted)}
    if args.trace:
        if traced_s and plain_s:
            metrics["trace.overhead_ratio"] = (
                statistics.median(traced_s) / statistics.median(plain_s),
                "1", len(traced_s))
        for name, (value, unit) in tracer.layer_metrics(
                max(len(traced_s), 1)).items():
            metrics[name] = (value, unit, len(traced_s))
        if outcomes and "record_bytes" in outcomes[0]:
            metrics["sampling.record_bytes"] = (
                outcomes[0]["record_bytes"], "bytes", len(outcomes))
    elif outcomes:
        metrics.update(workload.summarize(outcomes))
        unit_s = workload.host.unit_s()
        metrics["op_ref"] = (workload.op_mean_s(outcomes) / unit_s,
                             "ref_block", metrics["op_s"][2])
        metrics["ref_block_ms"] = (unit_s * 1e3, "ms",
                                   workload.host.blocks)
        metrics["setup_s"] = (setup_s, "s", SETUP_REPEATS)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB", 1)

    OUT.mkdir(exist_ok=True)
    result = {"provenance": provenance(args),
              "metrics": {k: list(v) for k, v in metrics.items()},
              "attempted": attempted, "failed": failed,
              "problems": problems,
              "operations": outcomes}
    with open(OUT / f"{run_id}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT / f"{run_id}.spans.json")

    print(f"# {run_id}: " + json.dumps(result["provenance"]))
    for problem in problems:
        print(f"# failed operation {problem['operation']}: "
              + " | ".join(p.strip() for p in problem["problems"]))
    for name in sorted(metrics):
        value, unit, count, *label = metrics[name]
        note = f" {label[0]}" if label else ""
        print(f"{name:36s} {value:14.6g} {unit:6s} n={count}{note}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"# missing metrics: {missing}", file=sys.stderr)
    line = {"correct": failed == 0 and not missing, "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                    "unit": m["unit"]}
                        for m in wanted if m["name"] in metrics}}
    print(json.dumps(line))
    return 0 if failed == 0 and not missing else 1


def run_all(args) -> int:
    """Each workload in a fresh process; relays their output."""
    status, lines = 0, {}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        last = done.stdout.strip().splitlines()[-1:] or ["{}"]
        lines[name] = json.loads(last[0]) if last[0].startswith("{") else {}
    print(json.dumps({"workloads": lines}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
