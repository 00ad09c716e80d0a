from fractions import Fraction

import pytest

from logdescent import tate
from logdescent.ellcurve import curve_from_rational
from logdescent.qfield import make_field

LD_FIELDS = ("kodaira", "n", "c", "split", "vdisc", "vu", "branches")


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


@pytest.fixture(scope="session")
def matches_walk():
    """check(ld, E, pr) asserts that ld, the local data of E at pr, agrees
    with Tate's algorithm forced down the walk from the cleared model: first
    the data, then the minimal model, which ld may build only now."""
    def check(ld, E, pr):
        walked = tate._walk(*tate._clear(E, pr), pr)
        for name in LD_FIELDS:
            assert getattr(ld, name) == getattr(walked, name), (name, E, pr)
        assert ld.curve_min.ainvs == walked.curve_min.ainvs
        assert ld.urst == walked.urst
    return check
