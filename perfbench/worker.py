"""One fresh interpreter of a benchmark run.

    python3 perfbench/worker.py WORKLOAD --seed N --spawned-at T [options]

Imports the package, builds the workload's fixtures, then runs --rounds
whole rounds of ops, or fewer if the workload has no more. It checks every
answer and prints one JSON line. The timed phase is the sum of the op
latencies; checks are not timed.

    python3 perfbench/worker.py --imports     import times of sympy and the CLI
    PYTHONPATH=src python3 perfbench/worker.py --record-goldens
        rewrite perfbench/goldens from the checked-out package
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _imports() -> dict:
    t0 = time.perf_counter()
    import sympy  # noqa: F401
    t1 = time.perf_counter()
    import logdescent.cli  # noqa: F401
    t2 = time.perf_counter()
    return {"sympy_import_ms": (t1 - t0) * 1e3, "import_ms": (t2 - t0) * 1e3}


def _record_goldens() -> None:
    import workloads as w

    for name in w.CLI_COMMANDS:
        for fmt in w.CLI_FORMATS:
            rc, out = w.cli_subprocess(w.cli_argv(name, fmt))
            if rc != 0:
                raise SystemExit(f"{name} --format {fmt} exited with {rc}")
            path = w.golden_path(name, fmt)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(out)
    rows = {label: w.search_rows(w.descent.quadratic_point_search(E, P, p, xbound))
            for label, (E, P, p, xbound) in w.search_inputs().items()}
    body = ",\n".join(f" {json.dumps(label)}: [\n"
                      + ",\n".join(f"  {json.dumps(r)}" for r in rs) + "\n ]"
                      for label, rs in rows.items())
    w.SEARCH_GOLDEN.write_text("{\n" + body + "\n}\n")


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", nargs="?")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--inprocess", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--imports", action="store_true")
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args()

    if args.imports:
        print(json.dumps(_imports()))
        return 0
    if args.record_goldens:
        _record_goldens()
        return 0

    import workloads as w

    wl = w.WORKLOADS[args.workload](args.seed, tiny=args.tiny, corrupt=args.corrupt,
                                    inprocess=args.inprocess)
    tracer = None
    if args.trace_out:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    wl.setup()
    ready = time.monotonic()
    setup_s = ready - args.spawned_at if args.spawned_at is not None else None
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    latencies = []      # per op, seconds; a search candidate gets its call's mean
    attempted = 0       # ops: calls, or candidates for the search
    failed = 0
    kinds = {}          # failure kind -> occurrences
    timed = 0.0
    rounds = 0
    for rnd in wl.rounds():
        for unit in rnd:
            lat, n, bad, fails = unit.run(tracer)
            latencies += [x / (unit.size or 1) for x in lat]
            timed += sum(lat)
            attempted += n
            failed += bad
            for kind in fails.values():
                kinds[kind] = kinds.get(kind, 0) + 1
        rounds += 1
        if rounds >= args.rounds:
            break

    result.update({
        "rounds": rounds, "attempted": attempted, "failed": failed,
        "failure_kinds": kinds,
        "unexpected": sorted(k for k in kinds if k not in w.KNOWN_DEFECTS),
        "timed_s": timed, "latencies_s": latencies,
        "rss_mb": _rss_mb(resource.RUSAGE_SELF),
        "children_rss_mb": _rss_mb(resource.RUSAGE_CHILDREN),
    })
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(args.trace_out)
    import sympy
    result["sympy"] = sympy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
