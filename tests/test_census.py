"""The answer census: every descent and class group of a fixed field window,
compared line by line with the committed golden ``tests/goldens/census.txt``.

The window is every squarefree 0 < |m| < 300 (365 fields) with the three
benchmark isogenies 11a1, 35a and 158, 1095 descents in all. Each field gives
one line with its factor-base labels, class-group divisors, U and U^-1; each
descent gives one line with #S_1, #S_2, dim Sel^phi, dim Sel^phihat,
sel_p_dim_if_applicable, the Selmer basis and the class-group divisors, or
the type and message of the exception it raised.

A change that means to alter an answer re-records the golden with

    python tests/test_census.py --record

and lists every changed line.
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from logdescent import descent
from logdescent.ellcurve import curve_from_rational
from logdescent.ideals import class_group
from logdescent.qfield import format_element, make_field

GOLDEN = Path(__file__).resolve().parent / "goldens" / "census.txt"
WINDOW = 300
# label: (a-invariants, p, P)
ISOGENIES = {
    "11a1": ((0, -1, 1, -10, -20), 5, (5, 5)),
    "35a": ((0, 1, 1, 9, 1), 3, (1, 3)),
    "158": ((1, 1, 1, -420, 3109), 5, (13, -15)),
}


def _squarefree(n: int) -> bool:
    n = abs(n)
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def census_fields() -> list[int]:
    return [m for m in range(-WINDOW + 1, WINDOW) if m not in (0, 1) and _squarefree(m)]


def _field_line(m: int) -> str:
    cg = class_group(make_field(m))
    fb = ",".join(p.label() for p in cg.factor_base)
    return f"field {m} fb=[{fb}] div={cg.divisors} U={cg.coker.U} Uinv={cg.coker.Uinv}"


def _descent_line(m: int, label: str) -> str:
    ainvs, p, (px, py) = ISOGENIES[label]
    K = make_field(m)
    try:
        E = curve_from_rational(K, ainvs)
        ctx = descent.DescentContext(E, E.point(K(px), K(py)), p)
        sel = descent.selmer_phi(ctx)
        dual = descent.selmer_phihat_dim(ctx, sel)
        selp = descent.sel_p_dim_if_applicable(ctx, sel)
        basis = [format_element(x) for x in sel.basis_elements()]
        out = (f"S1={len(ctx.S1)} S2={len(ctx.S2)} sel={sel.dim} dual={dual} "
               f"selp={selp} basis={basis} cl={class_group(K).divisors}")
    except Exception as exc:  # the census records failures as answers
        out = f"raised {type(exc).__name__}: {exc}"
    return f"descent {m} {label} {out}"


def census_text() -> str:
    lines = []
    for m in census_fields():
        lines.append(_field_line(m))
        lines.extend(_descent_line(m, label) for label in ISOGENIES)
    return "\n".join(lines) + "\n"


def test_census_matches_golden():
    want = GOLDEN.read_text()
    got = census_text()
    if got != want:
        diff = list(difflib.unified_diff(want.splitlines(), got.splitlines(),
                                         "golden", "now", lineterm="", n=0))
        raise AssertionError("census differs from the golden (re-record with "
                             "`python tests/test_census.py --record` only for an "
                             "intended change):\n" + "\n".join(diff[:40]))


def test_census_window():
    fields = census_fields()
    assert len(fields) == 365
    assert len(fields) * len(ISOGENIES) == 1095


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_census.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(census_text())
    print(f"wrote {GOLDEN}")
