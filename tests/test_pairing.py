import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import logdescent.pairing as pairing_module
from logdescent.ellcurve import Curve, Point
from logdescent.isogeny import tate
from logdescent.logpic import LogDivisor
from logdescent.pairing import (
    _poles,
    bad_places,
    log_pairing,
    model_places,
    monodromy_pairing,
    pairing_group,
    place_table,
)
from logdescent.qfield import make_field, primes_above
from logdescent.tate import ComponentGroup, LocalData, component_index
from test_model_change import SCALED_158, _changed, _changes


def _intersection_matrix(edges, nc):
    """The integer intersection matrix: self-intersections -2, edges weighted."""
    M = [[-2 * int(i == j) for j in range(nc)] for i in range(nc)]
    for i, j, w in edges:
        M[i][j] += w
        M[j][i] += w
    return M


def _int_solve(A, B):
    """X with A X = B for an invertible integer matrix A and integer B, by
    fraction-free Gauss-Jordan elimination: rows stay integral (divided by
    their content), and only the final quotients are Fractions."""
    n = len(A)
    rows = [list(a) + list(b) for a, b in zip(A, B)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        pc = rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f, g = rows[r][c], pc[c]
                row = [g * x - f * y for x, y in zip(rows[r], pc)]
                d = math.gcd(*row)
                rows[r] = [x // d for x in row]
    return [[Fraction(x, rows[i][i]) for x in rows[i][n:]] for i in range(n)]


def _solve_fibral(edges, nc, jq):
    """Solve Gamma_i . (G + [Q] - [O]) = 0 for i >= 1 with a_0 = 0.

    edges: list of (i, j, weight); all self-intersections are -2.
    Returns the coefficient vector a (a_0 = 0) and checks the Gamma_0 row.
    """
    M = _intersection_matrix(edges, nc)
    # unknowns a_1..a_{nc-1}
    A = [row[1:] for row in M[1:]]
    b = [[-1 if i == jq else 0] for i in range(1, nc)]
    a = [Fraction(0)] + [x for (x,) in _int_solve(A, b)]
    # the identity-component equation must come out as +1
    assert sum(M[0][j] * a[j] for j in range(nc)) == 1
    return a


def _check_monodromy_pairing(G):
    """-G.fibral mod Z is symmetric and bilinear under G.add (SGA 7, IX),
    and G.neg inverts; the labels of Phi_v are 0..#Phi - 1."""
    def pair(i, j):
        return -G.fibral(i, j) % 1
    labels = range(G.order)
    for i in labels:
        assert G.add(i, G.neg(i)) == 0, (G.kodaira, i)
        for j in labels:
            assert pair(i, j) == pair(j, i), (G.kodaira, i, j)
            for k in labels:
                assert pair(G.add(i, k), j) == (pair(i, j) + pair(k, j)) % 1, (G.kodaira, i, k, j)


def test_fibral_table_In_against_intersections():
    for n in [2, 3, 5, 8, 20]:
        edges = [(i, (i + 1) % n, 1) for i in range(n)] if n > 2 else [(0, 1, 2)]
        G = ComponentGroup(f"I{n}", n)
        assert (G.ncomp, G.order) == (n, n)
        for jq in range(1, n):
            a = _solve_fibral(edges, n, jq)
            for jr in range(1, n):
                assert G.fibral(jq, jr) == a[jr]
        _check_monodromy_pairing(G)


def test_fibral_table_III_IV_against_intersections():
    a = _solve_fibral([(0, 1, 2)], 2, 1)
    III, IV = ComponentGroup("III", 0), ComponentGroup("IV", 0)
    assert III.fibral(1, 1) == a[1] == Fraction(1, 2)
    tri = [(0, 1, 1), (1, 2, 1), (0, 2, 1)]
    for jq in (1, 2):
        a = _solve_fibral(tri, 3, jq)
        for jr in (1, 2):
            assert IV.fibral(jq, jr) == a[jr]
    for G in (III, IV, *(ComponentGroup(t, 0) for t in ("I0", "II", "II*"))):
        _check_monodromy_pairing(G)


def test_fibral_table_star_types_against_intersections():
    # In*: legs 0,1 at one end, 2,3 at the other end of a chain of doubles
    for n in range(0, 7):
        last = 4 + n
        edges = [(0, 4, 1), (1, 4, 1), (2, last, 1), (3, last, 1)]
        edges += [(i, i + 1, 1) for i in range(4, last)]
        G = ComponentGroup(f"I{n}*", n)
        assert (G.ncomp, G.order) == (last + 1, 4)
        for jq in (1, 2, 3):
            a = _solve_fibral(edges, last + 1, jq)
            for jr in (1, 2, 3):
                assert G.fibral(jq, jr) == a[jr]
        _check_monodromy_pairing(G)
    # IV*: three arms of length 2 around the triple component 6
    edges = [(0, 3, 1), (3, 6, 1), (1, 4, 1), (4, 6, 1), (2, 5, 1), (5, 6, 1)]
    G = ComponentGroup("IV*", 0)
    for jq in (1, 2):
        a = _solve_fibral(edges, 7, jq)
        assert a[3:] == [Fraction(1), Fraction(5, 3), Fraction(4, 3), Fraction(2)] or jq == 2
        for jr in (1, 2):
            assert G.fibral(jq, jr) == a[jr]
    _check_monodromy_pairing(G)
    # III*: chain 0,2,4,6,5,3,1 with 7 hanging off 6
    edges = [(0, 2, 1), (2, 4, 1), (4, 6, 1), (6, 5, 1), (5, 3, 1), (3, 1, 1), (7, 6, 1)]
    a = _solve_fibral(edges, 8, 1)
    assert a[1] == Fraction(3, 2)
    assert a[2:] == [Fraction(1), Fraction(2), Fraction(2), Fraction(5, 2), Fraction(3), Fraction(3, 2)]
    G = ComponentGroup("III*", 0)
    assert G.fibral(1, 1) == Fraction(3, 2)
    _check_monodromy_pairing(G)


def test_quadratic_example_reduction_types(worked_curves):
    E, P, (Q,) = worked_curves["158"]
    K = E.field
    p2, p2b = primes_above(K, 2)
    p79 = primes_above(K, 79)[0]
    assert bad_places(E) == sorted([p2, p2b, p79], key=lambda p: p.sort_key())
    for pr in (p2, p2b):
        ld = tate(E, pr)
        assert ld.kodaira == "I20" and ld.split
        assert component_index(ld, ld.map_point(P, E)) % 4 == 0  # order 5 in the cycle Z/20
        assert component_index(ld, ld.map_point(Q, E)) % 5 == 0  # order 4
        assert monodromy_pairing(ld, P, Q, E) == 0
        assert monodromy_pairing(ld, P, P, E) != 0
    ld = tate(E, p79)
    assert ld.kodaira == "I2" and not ld.split


def test_quadratic_example_pairing_values(worked_curves):
    E, P, (Q,) = worked_curves["158"]
    K = E.field
    p2, p2b = primes_above(K, 2)
    G = pairing_group(E)
    PQ = log_pairing(E, P, Q)
    # orthogonal under the monodromy pairing, so the value is an ideal class
    assert G.equal(PQ, LogDivisor(K, {p2: Fraction(2)}))
    assert not G.equal(PQ, LogDivisor(K, {p2b: Fraction(2)}))
    assert not G.is_zero(PQ)
    assert G.equal(PQ, log_pairing(E, Q, P))
    assert G.equal(log_pairing(E, P, P), LogDivisor(K, {p2: Fraction(4, 5), p2b: Fraction(4, 5)}))
    assert G.equal(log_pairing(E, Q, Q), LogDivisor(K, {p2: Fraction(1, 4), p2b: Fraction(1, 4)}))


def test_log_pairing_maps_each_point_once_per_place(worked_curves, monkeypatch):
    # a point is mapped onto curve_min at most once per place, and only at a
    # bad place where its image has v(x') >= 1, i.e. meets the singular point;
    # <P, P> reuses the image and the label of P
    E, P, (Q,) = worked_curves["158"]
    maps = Counter()
    image = LocalData._image

    def counted(ld, pt):
        maps[ld.prime, pt] += 1
        return image(ld, pt)
    monkeypatch.setattr(LocalData, "_image", counted)
    bad = bad_places(E)
    for R in (P, Q, P * 2, Q + P, Q * 2):
        maps.clear()
        log_pairing(E, P, R)
        assert max(maps.values(), default=1) == 1
        for pr, pt in maps:
            ld = tate(E, pr)
            assert pr in bad
            assert pr.val(image(ld, pt).x) >= 1
    # P and Q both meet the node at the two places above 2
    maps.clear()
    log_pairing(E, P, Q)
    assert len(maps) == 4


def test_disc_is_factored_once_per_curve(worked_curves, monkeypatch):
    # the place table is built once per curve, also for a curve built by
    # Curve.transform, whatever the mix of calls that read it
    calls = Counter()
    factor = pairing_module.prime_divisors

    def counted(K, x):
        calls[x] += 1
        return factor(K, x)
    monkeypatch.setattr(pairing_module, "prime_divisors", counted)
    urst = (2, 1, 0, 1)
    for E0, P, (G, *_) in worked_curves.values():
        E1 = Curve(E0.field, *E0.ainvs)
        cases = [(E1, [Point(E1, T.x, T.y) for T in (G, P)]),
                 (E0.transform(*urst), [E0.map_point(T, *urst) for T in (G, P)])]
        for E, (Q, R) in cases:
            calls.clear()
            for _ in range(3):
                log_pairing(E, Q, R)
                bad_places(E)
                pairing_group(E)
                log_pairing(E, R, Q + R)
            assert calls[E.disc] == 1, E


@pytest.mark.parametrize("label", ["11a1", "158", "35a"])
def test_log_pairing_evaluates_the_equation_at_most_three_times(worked_curves, monkeypatch, label):
    # Q, R and Q + R are checked on E once each, whatever the number of places
    E, P, gens = worked_curves[label]
    Q, R = gens[0], gens[0] * 2 + P
    calls = Counter()
    is_on = Curve.is_on

    def counted(curve, x, y):
        calls[curve] += 1
        return is_on(curve, x, y)
    monkeypatch.setattr(Curve, "is_on", counted)
    log_pairing(E, Q, R)
    assert sum(calls.values()) <= 3
    assert len(model_places(E) | set(_poles(E.field, place_table(E), (Q, R, Q + R)))) >= 3


def test_log_pairing_rejects_a_point_off_the_curve(worked_curves):
    for E, P, gens in worked_curves.values():
        off = Point(E, P.x, P.y + 1)  # the raw constructor checks nothing
        for Q, R in ((off, gens[0]), (gens[0], off), (off, off)):
            with pytest.raises(ValueError, match="is not on"):
                log_pairing(E, Q, R)


def _e_on_curve_min(ld, Tm):
    """e_v of a point of curve_min, read off its own x-coordinate."""
    return Fraction(0) if Tm.is_zero() else Fraction(-min(ld.prime.val(Tm.x), 0), 2)


# a change of model of 35a on which e read off v(x) wherever v(u) = 0 and r is
# integral goes wrong: s = sqrt(2)/5 is not integral at 5
NONINTEGRAL_S_35A = ((1, 0, 1), (0, 0, 1), (0, 1, 5), (0, 0, 1))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["11a1", "158", "35a"]),
       st.lists(st.integers(-2, 2), min_size=4, max_size=4),
       st.none() | _changes)
@example("158", [1, 0, 0, 1], None)
@example("11a1", [1, 1, -1, 2], None)
@example("35a", [1, 0, 1, 1], NONINTEGRAL_S_35A)
@example("35a", [1, 1, -1, 0], NONINTEGRAL_S_35A)
@example("158", [1, 0, 1, 1], SCALED_158)
@example("11a1", [1, 1, -1, -1], None)  # Q + R = O
def test_log_pairing_matches_the_checked_path(worked_curves, label, coeffs, urst):
    # oracle: at every place, the coefficient of <Q,R> for Q = aQ' + bP and
    # R = cQ' + dP, on the worked curve or on a changed model of it, read off
    # the image of every point on curve_min, each mapped with its own check
    E, P, (G, *_) = worked_curves[label]
    if urst is not None:
        E, image = _changed(E, urst)
        P, G = image(P), image(G)
    a, b, c, d = coeffs
    Q, R = G * a + P * b, G * c + P * d
    val = log_pairing(E, Q, R)
    if Q.is_zero() or R.is_zero():
        assert val.coeffs == {}
        return
    S = Q + R
    K = E.field
    places = model_places(E) | set(_poles(K, place_table(E), (Q, R, S)))
    assert set(val.coeffs) <= places
    for pr in places:
        ld = tate(E, pr)
        Sm, Qm, Rm = (ld.map_point(T, E) for T in (S, Q, R))
        want = (_e_on_curve_min(ld, Sm) - _e_on_curve_min(ld, Qm) - _e_on_curve_min(ld, Rm)
                + Fraction(ld.vu if S.is_zero() else 0) + ld.vu)
        if not ld.is_good:
            want -= ld.phi.fibral(component_index(ld, Qm), component_index(ld, Rm))
        assert val.coeffs.get(pr, 0) == want, (label, coeffs, urst, pr)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: on 158 over Q(sqrt -79) log_pairing is not additive once P "
    "enters a combination; the difference is the class of a prime above 5 "
    "(perfbench/NOTES.md, Known defects)"))
def test_additivity_158_known_defect(worked_curves):
    E, P, (Q,) = worked_curves["158"]
    G = pairing_group(E)
    assert G.equal(log_pairing(E, P, Q + P), log_pairing(E, P, Q) + log_pairing(E, P, P))


def test_additivity_158_multiples_of_generator(worked_curves):
    E, P, (Q,) = worked_curves["158"]
    G = pairing_group(E)
    QQ = log_pairing(E, Q, Q)
    assert G.equal(log_pairing(E, Q, Q * 2), QQ + QQ)


def test_pairing_bilinear_on_rational_curve():
    Q = make_field(None)
    E = Curve(Q, 0, -1, 1, -10, -20)
    P = E.point(Q(5), Q(5))
    G = pairing_group(E)
    vals = {k: log_pairing(E, P, P * k) for k in range(0, 5)}
    assert G.is_zero(vals[0])
    assert not G.is_zero(vals[1])
    for k in range(2, 5):
        assert G.equal(vals[k], vals[k - 1] + vals[1])
    # P has order 5, so <P, 5P> = <P, O> = 0
    assert G.is_zero(log_pairing(E, P, P * 5))
    assert G.is_zero(log_pairing(E, P, E.zero()))


def test_pairing_with_good_reduction_point_is_classgroup_valued():
    # over Q the class group is trivial, so any monodromy-orthogonal value is 0
    Q = make_field(None)
    E = Curve(Q, 0, -1, 1, -10, -20)
    P = E.point(Q(5), Q(5))
    p11 = primes_above(Q, 11)[0]
    ld = tate(E, p11)
    assert ld.kodaira == "I5" and ld.split
    j = component_index(ld, ld.map_point(P, E))
    assert monodromy_pairing(ld, P, P, E) == Fraction(j * j % 5, 5)
