"""The executable lines of src/logdescent that tier-1 never runs, per module.

    PYTHONPATH=src python tests/unreached_lines.py [pytest args] > tests/goldens/unreached.txt

Runs the tier-1 suite (pytest on tests/, or on the given arguments) in this
process under a standard-library sys.settrace line collector restricted to
src/logdescent, and prints each module's executable lines (those of its
compiled code objects) that never ran; pytest reports on stderr. CLI tests
that spawn a process (python -m, python -O) are not counted: their lines run
in another interpreter. The hypothesis tests draw new examples on each run,
so a line or two may move between runs. Pytest does not collect this file.
"""

import contextlib
import os
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(TESTS), "src", "logdescent")


def executable_lines(path: str) -> set[int]:
    with open(path) as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(n for _, _, n in code.co_lines() if n)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args: list[str]) -> int:
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if path.startswith(PACKAGE):
            ran.setdefault(path, set()).add(frame.f_lineno)
            return local
        return None

    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [TESTS])])
    finally:
        sys.settrace(None)
    total = 0
    print("# executable lines of src/logdescent that tier-1 never ran, in process")
    for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        path = os.path.join(PACKAGE, name)
        missed = sorted(executable_lines(path) - ran.get(path, set()))
        total += len(missed)
        if missed:
            print(f"{name} {len(missed)}: {' '.join(map(str, missed))}")
    print(f"total {total}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
