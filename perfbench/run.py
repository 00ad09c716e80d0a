"""Benchmark of the logdescent package.

    python3 perfbench/run.py --workload {cli,search,pairing,descent}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Every measurement happens in fresh,
single-threaded worker interpreters (perfbench/worker.py); this process
only spawns them one at a time and aggregates. With --trace 0 it prints
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced
worker. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "logdescent"
RESULTS = HERE / "results"

WORKLOADS = ("cli", "search", "pairing", "descent")
# Seconds one round typically takes on a 2-vCPU shared VM (Python 3.11).
# A run measures round(--seconds / ROUND_S) whole rounds, at least one, so
# that the ops of a run, and with them attempted and failed, depend only on
# the seed and --seconds, not on how fast the machine ran. A search round
# is one worker process.
ROUND_S = {"cli": 9.0, "search": 28.0, "pairing": 2.0, "descent": 1.0}
SETUP_SAMPLES = 7       # fresh-interpreter set-ups per run; setup_s is their median
IMPORT_SAMPLES = 3      # fresh imports behind cli.import_ms and cli.sympy_import_ms
WORKER_TIMEOUT = 170.0  # seconds; a run must end within 180
TAIL_BEYOND = 10        # op_tail_ms: the highest percentile with this many ops beyond it,
TAIL_MIN_OPS = 50       # once that percentile is 80 or more; below, the maximum


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # set iteration order, and so the work done, repeats from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    timeout = min(WORKER_TIMEOUT, deadline - time.monotonic())
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    t = time.monotonic()
    # a session of its own, so that a timeout also ends the CLI processes
    # the worker started
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(t)],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{err[-3000:]}")
    return json.loads(lines[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops
    beyond it. With fewer than TAIL_MIN_OPS ops that percentile would sit
    near the median and jump with the op count (a cli run has 20 or 30
    commands of ten kinds), so the maximum is taken instead."""
    s = sorted(latencies)
    n = len(s)
    if n < TAIL_MIN_OPS:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def n_rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    base = [workload, "--seed", str(seed)]
    # set-up-only workers on both sides of the timed ones, so that a slow
    # spell of the machine does not fall on all set-up samples at once
    setup_only = [spawn(base + ["--setup-only"], deadline)
                  for _ in range((SETUP_SAMPLES - 1) // 2)]
    rounds = n_rounds(workload, seconds)
    if workload == "search":   # a search worker runs one round only
        runs = [spawn(base + ["--rounds", "1"], deadline) for _ in range(rounds)]
    else:
        runs = [spawn(base + ["--rounds", str(rounds)], deadline)]
    timed = sum(r["timed_s"] for r in runs)
    while len(setup_only) + len(runs) < SETUP_SAMPLES:
        setup_only.append(spawn(base + ["--setup-only"], deadline))
    setups = [r["setup_s"] for r in setup_only + runs]
    latencies = [x for r in runs for x in r["latencies_s"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    tail_s, tail_pct = tail(latencies)
    rss_key = "children_rss_mb" if workload == "cli" else "rss_mb"
    p50 = statistics.median(latencies)
    if workload == "search":
        # a candidate is not a call of its own: its typical latency is the
        # mean over the run, which pools all three curves
        p50 = timed / attempted
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": ((attempted - failed) / timed, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (max(r[rss_key] for r in runs), "MB"),
    }
    notes = {"op_tail_percentile": tail_pct,
             "latency_n": len(latencies), "timed_s": timed,
             "rounds": sum(r["rounds"] for r in runs), "setup_samples": setups}
    return _result(runs, metrics, notes)


def per_layer(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    imports = [spawn(["--imports"], deadline) for _ in range(IMPORT_SAMPLES)]
    base = [workload, "--seed", str(seed)]
    # the CLI is traced in-process, so its untraced reference runs there too
    if workload == "cli":
        base.append("--inprocess")
    ref = spawn(base + ["--rounds", str(n_rounds(workload, seconds / 2))], deadline)
    RESULTS.mkdir(exist_ok=True)
    trace_file = RESULTS / f"trace-{workload}-seed{seed}.json.gz"
    traced = spawn(base + ["--rounds", str(ref["rounds"]), "--trace-out", str(trace_file)],
                   deadline)
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["cli.import_ms"] = (statistics.median(i["import_ms"] for i in imports), "ms")
    metrics["cli.sympy_import_ms"] = (
        statistics.median(i["sympy_import_ms"] for i in imports), "ms")
    metrics["trace_overhead"] = (traced["timed_s"] / ref["timed_s"], "ratio")
    notes = {"trace_file": str(trace_file.relative_to(ROOT)), "rounds": ref["rounds"],
             "untraced_timed_s": ref["timed_s"], "traced_timed_s": traced["timed_s"]}
    return _result([ref, traced], metrics, notes)


def _result(runs, metrics, notes) -> dict:
    kinds = {}
    for r in runs:
        for k, v in r["failure_kinds"].items():
            kinds[k] = kinds.get(k, 0) + v
    return {"correct": not any(r["unexpected"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics, "failure_kinds": kinds, "notes": notes,
            "sympy": runs[0]["sympy"]}


def metadata(args, result) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE.glob("*.py")))
    return {"git_sha": sha, "python": platform.python_version(), "sympy": result["sympy"],
            "nproc": os.cpu_count(), "seed": args.seed, "seconds": args.seconds,
            "workload": args.workload, "trace": args.trace, "n": result["attempted"],
            "src_lines": src_lines}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package at {PACKAGE}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT
    measure = per_layer if args.trace else end_to_end
    try:
        result = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta = metadata(args, result)
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for name, value in result["notes"].items():
        print(f"{args.workload} note {name} = {value}")
    print(f"{args.workload} fail_ratio = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']}; {result['failure_kinds']})")
    print("meta " + json.dumps(meta))
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, meta=meta)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
