"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs one tiny round of every workload, which must pass its checks, and the
same round with a deliberately corrupted expected answer, which must fail.
The second half proves that the checker can fail. Exits 0 when both hold
for every workload.
"""

from __future__ import annotations

import sys
import time

from run import WORKLOADS, BenchError, spawn


def main() -> int:
    bad = []
    for workload in WORKLOADS:
        args = [workload, "--seed", "0", "--tiny", "--rounds", "1"]
        t = time.monotonic()
        try:
            good = spawn(args, t + 120)
            corrupt = spawn(args + ["--corrupt"], t + 240)
        except BenchError as exc:
            bad.append(f"{workload}: {exc}")
            continue
        ok = not good["unexpected"] and good["attempted"] > 0
        caught = corrupt["failed"] > 0 and bool(corrupt["unexpected"])
        print(f"{workload}: clean run {good['failed']}/{good['attempted']} failed "
              f"{good['failure_kinds']}; corrupted run {corrupt['failed']}/"
              f"{corrupt['attempted']} failed {corrupt['failure_kinds']}")
        if not ok:
            bad.append(f"{workload}: clean run failed {good['unexpected']}")
        if not caught:
            bad.append(f"{workload}: corrupted expected answer was not caught")
    for line in bad:
        print("FAIL " + line)
    print("smoke: " + ("FAIL" if bad else "ok"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
