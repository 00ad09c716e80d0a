from fractions import Fraction

import pytest

from logdescent.ellcurve import curve_from_rational
from logdescent.qfield import make_field


@pytest.fixture(scope="session")
def worked_curves():
    """The worked examples over quadratic fields, by label: (E, P, gens), with
    P the rational p-torsion point and gens points of infinite order."""
    out = {}
    for label, d, ainvs, P, gens in (
        ("11a1", -47, (0, -1, 1, -10, -20), (5, 5),
         [(4, (Fraction(-1, 2), Fraction(1, 2))), (-2, (Fraction(-1, 2), Fraction(1, 2)))]),
        ("158", -79, (1, 1, 1, -420, 3109), (13, -15),
         [(Fraction(101, 9), (Fraction(-55, 9), Fraction(16, 27)))]),
        ("35a", 2, (0, 1, 1, 9, 1), (1, 3),
         [(Fraction(9, 2), (Fraction(-1, 2), Fraction(35, 4)))]),
    ):
        K = make_field(d)
        E = curve_from_rational(K, ainvs)
        out[label] = (E, E.point(K(P[0]), K(P[1])), [E.point(K(x), K(*y)) for x, y in gens])
    return out
