import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logdescent
from logdescent.ellcurve import Curve, curve_from_rational
from logdescent.polyring import Poly, gcd
from logdescent.qfield import make_field

Q = make_field(None)


def E11a1(field=Q):
    return curve_from_rational(field, [0, -1, 1, -10, -20])


def E11a3(field=Q):
    return curve_from_rational(field, [0, -1, 1, 0, 0])


def test_invariants_11a1():
    E = E11a1()
    assert E.disc == Q(-161051)  # -11^5
    assert E.c4 == Q(496)
    assert E.b2 == Q(-4)


def test_group_law_torsion():
    E = E11a1()
    P = E.point(5, 5)
    assert P.order() == 5
    xs = sorted((P * i).x.a for i in (1, 2, 3, 4))
    assert xs == [5, 5, 16, 16]
    assert (P * 2 + P * 3).is_zero()
    assert P * -1 == -P
    E3 = E11a3()
    P3 = E3.point(0, 0)
    assert P3.order() == 5


def test_group_law_over_quadratic_field():
    K = make_field(-47)
    E = E11a1(K)
    half = Fraction(-1, 2)
    Q1 = E.point(K(4), K(half, half))
    Q2 = E.point(K(-2), K(half, half))
    # both are genuine points of infinite order at this scale
    assert not (Q1 * 12).is_zero()
    assert (Q1 + Q2) - Q2 == Q1


def test_transform_roundtrip():
    E = E11a1()
    E2 = E.transform(Fraction(1, 2), 3, 5, 7)
    E3 = E2.transform(2, Fraction(-3, 4) * 16, -10, Fraction(1, 8) * (-7 + 3 * 10 * 4))
    # transforms compose; check invariants transform correctly instead
    assert E2.c4 == E.c4 * 2 ** 4
    assert E2.disc == E.disc * 2 ** 12
    assert E.j_invariant() == E2.j_invariant() == E3.j_invariant()
    P = E.point(5, 5)
    P2 = E.map_point(P, Fraction(1, 2), 3, 5, 7)
    assert E2.is_on(P2.x, P2.y)
    assert E.map_point(P * 2, Fraction(1, 2), 3, 5, 7) == P2 * 2


def test_division_polynomial_roots():
    E = E11a1()
    P = E.point(5, 5)
    psi5 = E.division_poly(5)
    assert psi5.degree == 12
    assert psi5(P.x).a == 0
    assert psi5((P * 2).x).a == 0
    psi3 = E.division_poly(3)
    assert psi3.degree == 4
    # no rational 3-torsion on 11a1: psi3 has no rational roots at small x
    for xv in range(-20, 21):
        assert psi3(Fraction(xv)).a != 0


def test_kernel_polynomial():
    E = E11a1()
    P = E.point(5, 5)
    h = E.kernel_polynomial(P, 5)
    x = Poly.x(Q)
    assert h == (x - 5) * (x - 16)
    # h divides psi5
    psi5 = E.division_poly(5)
    assert (psi5 % h).is_zero()
    assert gcd(psi5, h) == h.monic()


_small = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([None, -47, 2, 5]), st.lists(_small, min_size=5, max_size=5),
       st.one_of(st.just(Fraction(1)), _small.filter(bool)), _small, _small, _small, _small)
def test_transform_carries_the_discriminant(D, ainvs, u, r, s, t, b):
    # transform sets disc' = u^-12 disc instead of recomputing b2..b8; the
    # recomputed discriminant of the same a-invariants is the oracle
    K = make_field(D)
    try:
        E = Curve(K, *ainvs)
    except ValueError:
        return  # singular model
    uK = K(u) if K.is_rational else K(u, b)
    if not uK:
        return
    E2 = E.transform(uK, r, s, t)
    assert E2.disc == Curve(K, *E2.ainvs).disc
    assert E2.disc == E.disc / uK ** 12


def test_named_errors():
    E, E2 = E11a1(), E11a3()
    with pytest.raises(ValueError, match="cannot add points"):
        E.point(5, 5) + E2.point(0, 0)
    with pytest.raises(ValueError, match="base change"):
        E.base_change(Q)
    with pytest.raises(ValueError, match="odd prime"):
        E.kernel_polynomial(E.point(5, 5), 2)
    with pytest.raises(ValueError, match="order 11"):
        E.kernel_polynomial(E.point(5, 5), 11)


def test_adding_points_of_two_curves_raises_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(logdescent.__file__)))
    code = ("from logdescent.ellcurve import curve_from_rational\n"
            "from logdescent.qfield import make_field\n"
            "assert False, 'asserts are on'\n"
            "Q = make_field(None)\n"
            "P = curve_from_rational(Q, [0, -1, 1, -10, -20]).point(5, 5)\n"
            "R = curve_from_rational(Q, [0, -1, 1, 0, 0]).point(0, 0)\n"
            "try:\n"
            "    P + R\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


_RATIONAL = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([None, 2, -79]), st.lists(st.tuples(_RATIONAL, _RATIONAL), min_size=7, max_size=7))
def test_equation_value_matches_the_expanded_form(D, pairs):
    K = make_field(D)
    a1, a2, a3, a4, a6, x, y = (K(a) if K.is_rational else K(a, b) for a, b in pairs)
    try:
        E = Curve(K, a1, a2, a3, a4, a6)
    except ValueError:
        return  # a singular model
    want = y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6
    assert E.equation_value(x, y) == want
