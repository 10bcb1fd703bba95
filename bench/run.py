"""Benchmark of the adaptive-lqr package: end-to-end metrics and a traced per-layer run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload transient|tracking|certify --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

With `--trace 0` the run sets the workload up SETUP_REPEATS times (timed as
`setup_s`), then runs passes over the workload's fixed pool of ops: at least
MIN_PASSES, and more until `--seconds` seconds of wall time have passed.
Every time is first scaled to a nominal host speed by the calibration task
of `hostspeed.py`, sampled between ops.  Each op's latency is then the mean
of its runs, so every op of the pool weighs the same however many passes
the run made; `op_p50_ms` and `op_tail_ms` are percentiles of these
latencies over the pool, and `ops_per_s` is the number of ops that passed
their check divided by the sum of their latencies.  The run also reports
`setup_s` (the median of the scaled set-up times) and `peak_rss_mb`, and
prints `failed_ratio`, the host speed, the same metrics unscaled and the
plain wall-clock throughput beside them.
With `--trace 1` it runs the workload's first `trace_ops` ops untraced,
traced, and untraced again, on equal inputs, and reports the per-layer
metrics of `tracing.py`; a fixed op count keeps every count identical
between two traced runs of one seed.

Every run of an op is checked (a failed check or an exception counts in
`failed`), and every run after the first must reproduce the op's first
output bit for bit, or the run is incorrect.  The last line of standard
output is the JSON result; the full result, with a provenance header, is
written to bench/out/, with the spans of a traced run beside it.
`--workload all` runs each workload in its own child process, one after
another, and prints every metric by name and unit.

The run uses one process and one thread: BLAS threads are pinned to 1 here,
before numpy loads.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

SCRIPT_START = perf_counter()
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pinning)

import hostspeed  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("transient", "tracking", "certify")
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB"}
SETUP_REPEATS = 7
MIN_PASSES = 2
# Fallback percentiles when a run is too short for the workload's own.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 50.0)


def load_workloads():
    """Import the package from this checkout's src/ (afresh) and the workloads."""
    for name in list(sys.modules):
        if name == "workloads" or name == "adaptive_lqr" or name.startswith("adaptive_lqr."):
            del sys.modules[name]
    module = importlib.import_module("workloads")
    origin = Path(module.lqr.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"adaptive_lqr was imported from {origin}, not from {SRC}")
    return module


def set_up(name: str, seed: int, size: int | None = None):
    """SETUP_REPEATS fresh imports + input generations, the host-speed task
    sampled around each; returns (workload, module, raw and scaled seconds)."""
    speed = hostspeed.Sampler()
    timings = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        start = perf_counter()
        module = load_workloads()
        workload = module.WORKLOADS[name](seed, size)
        timings.append((start, perf_counter() - start))
    speed.sample()
    start, took = (np.asarray(c) for c in zip(*timings))
    scaled = took * speed.factor(start + 0.5 * took)
    return workload, module, {"raw": took.tolist(), "scaled": scaled.tolist()}


def tail_percentile(preferred: float, samples: int) -> float:
    """The preferred percentile, or the highest on the ladder with >= 10 samples beyond it."""
    for pct in (preferred, *TAIL_LADDER):
        if pct <= preferred and samples * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def run_ops(workload, seconds: float | None = None, count: int | None = None,
            min_passes: int = MIN_PASSES, speed: hostspeed.Sampler | None = None) -> dict:
    """Run passes over ops 0 .. size-1: stop after `count` runs of an op, or
    at the first op boundary past `seconds` once `min_passes` passes are done.
    With `speed`, the host-speed task is sampled between ops.

    Returns (op index, start time, latency) of each run that passed its check,
    the digest of each op's first output, and the ops whose later runs did not
    reproduce it.
    """
    timings: list[tuple[int, float, float]] = []
    digests: list[bytes] = []
    mismatched: set[int] = set()
    attempted = failed = passes = 0
    if speed is not None:
        speed.sample()
    start = now = perf_counter()
    while True:
        for i in range(workload.size):
            t = perf_counter()
            try:
                out = workload.op(i)
                latency = perf_counter() - t
                digest = workload.digest(out)
                ok = workload.check(out)
            except Exception:
                digest, ok = b"", False
                print(f"op {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
            attempted += 1
            if passes == 0:
                digests.append(digest)
            elif digest != digests[i]:
                mismatched.add(i)
            if ok:
                timings.append((i, t, latency))
            else:
                failed += 1
            now = perf_counter()
            if speed is not None:
                speed.maybe_sample(now)
            if count is not None and attempted >= count:
                break
            if seconds is not None and passes >= min_passes and now - start >= seconds:
                break
        else:
            passes += 1
            if seconds is None or passes < min_passes or now - start < seconds:
                continue
        break
    if speed is not None:
        speed.sample()
    return {"wall_s": now - start, "attempted": attempted, "failed": failed, "passes": passes,
            "timings": timings, "digests": digests, "mismatched": sorted(mismatched)}


def op_latencies(timings: list, size: int, factor=None) -> np.ndarray:
    """Each op's mean latency over its runs, each run's latency first scaled by
    factor(its midpoint) if given; ops with no run that passed are left out."""
    index, start, latency = (np.asarray(c) for c in zip(*timings))
    if factor is not None:
        latency = latency * factor(start + 0.5 * latency)
    runs = np.bincount(index, minlength=size)
    total = np.bincount(index, weights=latency, minlength=size)
    return total[runs > 0] / runs[runs > 0]


def latency_metrics(op_s: np.ndarray, tail_pct: float) -> tuple[dict, float]:
    """ops_per_s, op_p50_ms and op_tail_ms of per-op latencies; and the tail percentile."""
    lat_ms = op_s * 1e3
    pct = tail_percentile(tail_pct, len(lat_ms))
    return {"ops_per_s": len(op_s) / math.fsum(op_s),
            "op_p50_ms": float(np.percentile(lat_ms, 50)),
            "op_tail_ms": float(np.percentile(lat_ms, pct))}, pct


def digest_prefix(digests: list, limit: int) -> tuple[str, int]:
    """Short SHA-256 over the digests of the first `limit` ops, and how many were there."""
    k = min(limit, len(digests))
    return hashlib.sha256(b"".join(digests[:k])).hexdigest()[:16], k


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from .git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_speed_nominal_task_s": hostspeed.NOMINAL_S,
    }


def measure(args, workload, setup_times) -> tuple[dict, dict, bool]:
    """Untraced run: the end-to-end metrics."""
    first_op_s = perf_counter() - SCRIPT_START
    speed = hostspeed.Sampler()
    run = run_ops(workload, seconds=args.seconds, speed=speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not run["timings"]:
        raise RuntimeError("no op passed its check")
    op_s = op_latencies(run["timings"], workload.size, speed.factor)
    scaled, pct = latency_metrics(op_s, workload.tail_pct)
    raw, _ = latency_metrics(op_latencies(run["timings"], workload.size), workload.tail_pct)
    digest, digest_ops = digest_prefix(run["digests"], workload.trace_ops)
    metrics = {"setup_s": statistics.median(setup_times["scaled"]), **scaled,
               "peak_rss_mb": peak_rss_mb}
    info = {
        "attempted": run["attempted"], "failed": run["failed"],
        "failed_ratio": run["failed"] / run["attempted"],
        "pool_size": workload.size, "passes": run["passes"],
        "host_speed": speed.speed(), "host_speed_samples": len(speed.took),
        "raw": {"setup_s": statistics.median(setup_times["raw"]), **raw},
        "wall_ops_per_s": (run["attempted"] - run["failed"]) / run["wall_s"],
        "latency_samples": len(op_s), "tail_percentile": pct,
        "tail_samples_beyond": int(np.sum(op_s * 1e3 > metrics["op_tail_ms"])),
        "setup_runs_s": setup_times, "first_op_after_script_start_s": first_op_s,
        "replays_mismatched": run["mismatched"],
        "digest": digest, "digest_ops": digest_ops,
    }
    return metrics, info, not run["mismatched"]


def measure_traced(args, workload, module) -> tuple[dict, dict, bool, object]:
    """The first trace_ops ops three times on equal inputs: untraced (warm-up, and
    the digests to match), traced, and untraced again as the base of
    trace.overhead_ratio."""
    count = workload.trace_ops
    warm = run_ops(workload, count=count)
    tracer = tracing.Tracer()
    traced_workload = module.WORKLOADS[args.workload](args.seed, args.size)
    traced_workload.op = tracer.wrap("bench.op", traced_workload.op)
    with tracer.installed(module.lqr):
        traced = run_ops(traced_workload, count=count)
    plain = run_ops(module.WORKLOADS[args.workload](args.seed, args.size), count=count)
    same = warm["digests"] == traced["digests"] == plain["digests"]
    metrics = tracer.metrics(overhead_ratio=traced["wall_s"] / plain["wall_s"])
    digest, digest_ops = digest_prefix(traced["digests"], count)
    info = {
        "attempted": traced["attempted"], "failed": traced["failed"],
        "failed_ratio": traced["failed"] / traced["attempted"],
        "untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
        "traced_replays_untraced": same, "digest": digest, "digest_ops": digest_ops,
        "layers": tracer.summary(), "counts": dict(tracer.counts),
    }
    return metrics, info, same and warm["failed"] == traced["failed"] == plain["failed"], tracer


def run_one(args) -> int:
    if not (SRC / "adaptive_lqr" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'adaptive_lqr'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload, module, setup_times = set_up(args.workload, args.seed, args.size)
    if args.trace:
        metrics, info, correct, tracer = measure_traced(args, workload, module)
        units = tracing.UNITS
    else:
        metrics, info, correct = measure(args, workload, setup_times)
        tracer, units = None, E2E_UNITS
    correct = correct and info["failed"] == 0
    prov = {**provenance(args), "trace_ops": workload.trace_ops,
            "tail_percentile": info.get("tail_percentile", workload.tail_pct)}

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"provenance": prov, "correct": correct, "info": info,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write_spans(stem.with_name(stem.name + "-spans.json"))

    print("provenance: " + json.dumps(prov))
    for key in ("attempted", "failed", "failed_ratio", "pool_size", "passes", "host_speed",
                "raw", "wall_ops_per_s", "tail_percentile", "latency_samples",
                "tail_samples_beyond", "replays_mismatched", "traced_replays_untraced",
                "digest", "digest_ops"):
        if key in info:
            print(f"{key}: {info[key]}")
    for k, v in metrics.items():
        print(f"{k}: {v:.6g} {units[k]}")
    print(json.dumps({"correct": correct, "attempted": info["attempted"], "failed": info["failed"],
                      "metrics": result["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.size:
            cmd += ["--size", str(args.size)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in rows.items():
        ratio = res["failed"] / res["attempted"]
        print(f"[{name}] correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} failed_ratio={ratio:.6g}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:55s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="ops in the pool (default: the workload's own); for quick tries")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
