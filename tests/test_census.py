"""The answer census: every descent and class group of a fixed field window,
compared line by line with the committed golden ``tests/goldens/census.txt``.

The window is every squarefree 0 < |m| < 300 (365 fields) with the three
benchmark isogenies 11a1, 35a and 158, 1095 descents in all. Each field gives
one line with its factor-base labels, class-group divisors, U and U^-1; each
descent gives one line with #S_1, #S_2, dim Sel^phi, dim Sel^phihat,
sel_p_dim_if_applicable, the Selmer basis and the class-group divisors, or
the type and message of the exception it raised.

Three worked contexts add their printed local and pairing answers: one
``classify`` line per place (Kodaira types of E and E', direction, a_phi,
a_phihat, c and c'), and for each Mordell-Weil generator G and each
X = a G + b P with a in {1, 2} and 0 <= b < p one ``pairing`` line with
log_pairing(E', X, G) as (place, coefficient) pairs, its class coordinates
in pairing_group(E') and psi_vector(X), 36 lines in all. The point set is
fixed: a later change may add to it but never narrow it.

A change that means to alter an answer re-records the golden with

    python tests/test_census.py --record

and lists every changed line.
"""

from __future__ import annotations

import difflib
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from logdescent import descent, isogeny
from logdescent.ellcurve import curve_from_rational
from logdescent.ideals import class_group
from logdescent.pairing import bad_places, log_pairing, pairing_group
from logdescent.qfield import format_element, make_field, primes_above

GOLDEN = Path(__file__).resolve().parent / "goldens" / "census.txt"
WINDOW = 300
# label: (a-invariants, p, P)
ISOGENIES = {
    "11a1": ((0, -1, 1, -10, -20), 5, (5, 5)),
    "35a": ((0, 1, 1, 9, 1), 3, (1, 3)),
    "158": ((1, 1, 1, -420, 3109), 5, (13, -15)),
}
# label: (m, Mordell-Weil generators G other than P over Q(sqrt(m)), each as
# ((x_a, x_b), (y_a, y_b)) with x = x_a + x_b sqrt(m))
WORKED = {
    "11a1": (-47, [((4, 0), (F(-1, 2), F(1, 2))), ((-2, 0), (F(-1, 2), F(1, 2)))]),
    "158": (-79, [((F(101, 9), 0), (F(-55, 9), F(16, 27)))]),
    "35a": (2, [((F(9, 2), 0), (F(-1, 2), F(35, 4)))]),
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


def _descent_line(m: int, label: str, done: list) -> str:
    """The census line of one descent; (ctx, sel, dual) is appended to done."""
    ainvs, p, (px, py) = ISOGENIES[label]
    K = make_field(m)
    try:
        E = curve_from_rational(K, ainvs)
        ctx = descent.DescentContext(E, E.point(K(px), K(py)), p)
        sel = descent.selmer_phi(ctx)
        dual = descent.selmer_phihat_dim(ctx, sel)
        selp = descent.sel_p_dim_if_applicable(ctx, sel)
        done.append((ctx, sel, dual))
        basis = [format_element(x) for x in sel.basis_elements()]
        out = (f"S1={len(ctx.S1)} S2={len(ctx.S2)} sel={sel.dim} dual={dual} "
               f"selp={selp} basis={basis} cl={class_group(K).divisors}")
    except Exception as exc:  # the census records failures as answers
        out = _raised(exc)
    return f"descent {m} {label} {out}"


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _worked_lines(label: str) -> list[str]:
    """The classify and pairing lines of one worked context."""
    m, gens = WORKED[label]
    ainvs, p, (px, py) = ISOGENIES[label]
    K = make_field(m)
    E = curve_from_rational(K, ainvs)
    P = E.point(K(px), K(py))
    ctx = descent.DescentContext(E, P, p)
    head = f"{label} {m}"
    lines = [f"classify {head} {c.prime.label()} {c.ld_E.kodaira} {c.ld_E2.kodaira} "
             f"{c.direction} a_phi={c.a_phi} a_dual={c.a_dual} c={c.ld_E.c} c'={c.ld_E2.c}"
             for c in ctx.classifications]
    group = pairing_group(E)
    for i, ((xa, xb), (ya, yb)) in enumerate(gens, 1):
        G = E.point(K(xa, xb), K(ya, yb))
        for a in (1, 2):
            for b in range(p):
                X = a * G + b * P
                try:
                    D = log_pairing(E, X, G)
                    pair = (f"log={[(pr.label(), str(c)) for pr, c in D.sorted_items()]} "
                            f"coords={group.class_coords(D)}")
                except Exception as exc:  # recorded as an answer
                    pair = _raised(exc)
                try:
                    psi = f"psi={descent.psi_vector(ctx, X)}"
                except Exception as exc:  # recorded as an answer
                    psi = _raised(exc)
                lines.append(f"pairing {head} G{i} a={a} b={b} {pair} {psi}")
    return lines


def census_text(done: list) -> str:
    lines = []
    for m in census_fields():
        lines.append(_field_line(m))
        lines.extend(_descent_line(m, label, done) for label in ISOGENIES)
    for label in WORKED:
        lines.extend(_worked_lines(label))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def census_run():
    """The census text, the local data of every Tate call it makes (the run
    starts from an empty Tate cache and keeps what it fills), and the
    (ctx, sel, dual) of every descent that did not raise."""
    with pytest.MonkeyPatch.context() as mp:
        cache, done = {}, []
        mp.setattr(isogeny, "_TATE_CACHE", cache)
        return census_text(done), cache, done


def test_census_matches_golden(census_run):
    want = GOLDEN.read_text()
    got = census_run[0]
    if got != want:
        diff = list(difflib.unified_diff(want.splitlines(), got.splitlines(),
                                         "golden", "now", lineterm="", n=0))
        raise AssertionError("census differs from the golden (re-record with "
                             "`python tests/test_census.py --record` only for an "
                             "intended change):\n" + "\n".join(diff[:40]))


def test_census_tate_calls_match_the_walk(census_run, matches_walk):
    calls = census_run[1]
    assert len(calls) > 8000
    for (E, pr), ld in calls.items():
        matches_walk(ld, E, pr)


def _ord(c: int, p: int) -> int:
    return 0 if c % p else 1 + _ord(c // p, p)


def test_census_duality_matches_cassels(census_run):
    # Cassels; Greenberg-Wiles: for phi: E -> E' with E[phi] = mu_p,
    # dim Sel^phi - dim Sel^phihat = dim mu_p(K) - 1 - r_2
    #   + sum_v (ord_p c_v(E') - ord_p c_v(E)) + sum_{v | p} f_v a_v(phi),
    # read off Tamagawa numbers and Neron scalings alone
    for ctx, sel, dual in census_run[2]:
        K, p, E, E2 = ctx.field, ctx.p, ctx.E, ctx.Eprime
        rhs = int(p == 3 and K.radicand == -3) - 1 - int(K.disc < 0)
        for pr in {*bad_places(E), *bad_places(E2)}:
            rhs += _ord(isogeny.tate(E2, pr).c, p) - _ord(isogeny.tate(E, pr).c, p)
        z2 = K(p * p) / ctx.phihat.z_squared
        for pr in primes_above(K, p):
            rhs += pr.f * isogeny.neron_scaling(z2, isogeny.tate(E, pr), isogeny.tate(E2, pr))
        assert sel.dim - dual == rhs, (K.disc, p, E2)
    assert len(census_run[2]) > 1000


def test_census_isogenous_curves_share_bad_places(census_run):
    # DescentContext reads the support of its place table off E' alone
    for ctx, _, _ in census_run[2]:
        assert set(bad_places(ctx.E)) == set(bad_places(ctx.Eprime)), (ctx.field.disc, ctx.p)
    assert len(census_run[2]) > 1000


def test_census_window():
    fields = census_fields()
    assert len(fields) == 365
    assert len(fields) * len(ISOGENIES) == 1095


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_census.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(census_text([]))
    print(f"wrote {GOLDEN}")
