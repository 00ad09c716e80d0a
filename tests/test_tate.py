import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import logdescent.tate as tate_module
from logdescent.ellcurve import Curve, curve_from_rational
from logdescent.isogeny import tate
from logdescent.pairing import bad_places
from logdescent.qfield import (FieldElement, ResidueField, hensel_root, make_field,
                               primes_above, reduce_mod)
from logdescent.tate import component_index, e_entry, tate_local_data

Q = make_field(None)


def kraus_type(vc4, vdisc):
    """Expected Kodaira symbol from valuations, residue char >= 5, minimal."""
    if vdisc == 0:
        return "I0"
    if vc4 == 0:
        return f"I{vdisc}"
    if vdisc == 2:
        return "II"
    if vdisc == 3:
        return "III"
    if vdisc == 4:
        return "IV"
    if vdisc == 6:
        return "I0*"
    if vdisc == 8:
        return "IV*"
    if vdisc == 9:
        return "III*"
    if vdisc == 10:
        return "II*"
    return f"I{vdisc - 6}*"


def test_types_match_kraus_table_random():
    rng = random.Random(11)
    for p in (5, 7):
        pr = primes_above(Q, p)[0]
        count = 0
        seen = set()
        while count < 120:
            ais = [rng.choice([0, 1, p, -p, p * p, rng.randint(-3, 3) * p ** rng.randint(0, 3)])
                   for _ in range(5)]
            try:
                E = curve_from_rational(Q, ais)
            except ValueError:
                continue
            count += 1
            ld = tate_local_data(E, pr)
            vc4 = pr.val(ld.curve_min.c4) if ld.curve_min.c4 else 10 ** 9
            vd = ld.vdisc
            assert ld.kodaira == kraus_type(min(vc4, 10 ** 9), vd), (ais, ld.kodaira, vc4, vd)
            seen.add(ld.kodaira)
            # Ogg at tame places
            if ld.kodaira == "I0":
                assert ld.f == 0
            elif ld.is_multiplicative:
                assert ld.f == 1
            else:
                assert ld.f == 2
        assert any(t.endswith("*") for t in seen)


def test_known_curves_over_q():
    E = curve_from_rational(Q, [0, -1, 1, -10, -20])  # 11a1
    ld = tate_local_data(E, primes_above(Q, 11)[0])
    assert ld.kodaira == "I5" and ld.c == 5 and ld.split is True and ld.f == 1

    E3 = curve_from_rational(Q, [0, -1, 1, 0, 0])  # 11a3, disc -11
    ld3 = tate_local_data(E3, primes_above(Q, 11)[0])
    assert ld3.kodaira == "I1" and ld3.c == 1 and ld3.split is True

    E36 = curve_from_rational(Q, [0, 0, 0, 0, 1])  # 36a1
    ld2 = tate_local_data(E36, primes_above(Q, 2)[0])
    assert ld2.kodaira == "IV" and ld2.c == 3
    ld3b = tate_local_data(E36, primes_above(Q, 3)[0])
    assert ld3b.kodaira == "III" and ld3b.c == 2

    E27 = curve_from_rational(Q, [0, 0, 1, 0, 0])  # 27a3, j = 0
    ld27 = tate_local_data(E27, primes_above(Q, 3)[0])
    assert ld27.kodaira == "II" and ld27.c == 1


def test_nonminimal_input_and_transform_invariance():
    rng = random.Random(3)
    E = curve_from_rational(Q, [0, -1, 1, -10, -20])
    pr = primes_above(Q, 11)[0]
    base = tate_local_data(E, pr)
    for _ in range(5):
        u = Fraction(rng.choice([11, 1, Fraction(1, 11)])) * rng.choice([1, 2])
        r, s, t = (Fraction(rng.randint(-5, 5)) for _ in range(3))
        E2 = E.transform(u, r, s, t)
        ld = tate_local_data(E2, pr)
        assert ld.kodaira == base.kodaira and ld.c == base.c and ld.split == base.split
        assert ld.vdisc == base.vdisc
        # minimal models agree up to v(u) bookkeeping
        assert pr.val(ld.curve_min.disc) == 5


def test_over_quadratic_fields():
    # inert place: type unchanged
    K = make_field(-47)
    E = curve_from_rational(K, [0, -1, 1, -10, -20])
    pr11 = primes_above(K, 11)[0]
    assert pr11.kind == "inert"
    ld = tate_local_data(E, pr11)
    assert ld.kodaira == "I5" and ld.split in (True, False)

    # ramified place: In becomes I2n
    K11 = make_field(-11)
    E2 = curve_from_rational(K11, [0, -1, 1, -10, -20])
    prram = primes_above(K11, 11)[0]
    assert prram.kind == "ramified"
    ld2 = tate_local_data(E2, prram)
    assert ld2.kodaira == "I10" and ld2.n == 10

    # split place of a good prime stays good
    pr5 = primes_above(K, 7)
    for p in pr5:
        assert tate_local_data(E, p).kodaira == "I0"


def test_component_index_split_multiplicative():
    E = curve_from_rational(Q, [0, -1, 1, -10, -20])  # I5 split at 11
    pr = primes_above(Q, 11)[0]
    ld = tate_local_data(E, pr)
    P = E.point(5, 5)
    js = [component_index(ld, ld.map_point(P * i, E)) for i in range(1, 6)]
    j = js[0]
    assert j != 0  # P generates the component group since c = 5
    for i in range(1, 6):
        assert js[i - 1] == (i * j) % 5
    assert component_index(ld, ld.map_point(E.zero(), E)) == 0


def test_component_index_lifts_the_node_once(monkeypatch):
    E = curve_from_rational(Q, [0, -1, 1, -10, -20])  # I5 split at 11
    pr = primes_above(Q, 11)[0]
    ld = tate_local_data(E, pr)
    P = E.point(5, 5)
    pts = [P * i for i in range(1, 6)]
    ld.curve_min  # the walk's transforms happen here
    calls = {"hensel": 0, "transform": 0}
    hensel, transform = tate_module.hensel_root, Curve.transform

    def counted_hensel(*args):
        calls["hensel"] += 1
        return hensel(*args)

    def counted_transform(self, *args):
        calls["transform"] += 1
        return transform(self, *args)

    monkeypatch.setattr(tate_module, "hensel_root", counted_hensel)
    monkeypatch.setattr(Curve, "transform", counted_transform)
    j = component_index(ld, ld.map_point(pts[0], E))
    # x0 and the two tangent slopes, with no change of model
    assert calls == {"hensel": 3, "transform": 0}
    js = [j] + [component_index(ld, ld.map_point(R, E)) for R in pts[1:]]
    assert calls == {"hensel": 3, "transform": 0}
    assert js == [(i * j) % 5 for i in range(1, 6)]


def _gradient(E, x, y):
    """(F_x, F_y) of the equation F of E at (x, y)."""
    return E.a1 * y - 3 * x * x - 2 * E.a2 * x - E.a4, 2 * y + E.a1 * x + E.a3


def _refine_node(E, pr, N):
    """Reference: Newton-lift the critical point of F near (0,0) to
    precision N in both variables at once."""
    K = E.field
    x, y = K.zero(), K.zero()
    prec = 1
    while prec < N:
        prec = min(2 * prec, N)
        fx, fy = _gradient(E, x, y)
        # Jacobian [[-6x - 2a2, a1], [a1, 2]]
        j11, j12, j21, j22 = -6 * x - 2 * E.a2, E.a1, E.a1, K(2)
        dinv = reduce_mod((j11 * j22 - j12 * j21).inverse(), pr, prec)
        x = reduce_mod(x - (j22 * fx - j12 * fy) * dinv, pr, prec + 1)
        y = reduce_mod(y - (j11 * fy - j21 * fx) * dinv, pr, prec + 1)
    assert all(pr.val(f) >= N for f in _gradient(E, x, y))
    return x, y


def _node_by_newton(ld):
    """Reference for LocalData.node: the two-variable Newton lift, then the
    tangent slopes read off the model moved to the lifted node."""
    E, pr, k = ld.curve_min, ld.prime, ld.residue_field
    N = ld.n + 4
    x0, y0 = _refine_node(E, pr, N)
    Et = E.transform(E.field.one(), x0, E.field.zero(), y0)
    assert pr.val(Et.a6) == ld.n
    quad = [-Et.a2, Et.a1, E.field.one()]
    rts = k.roots([k.reduce(c) for c in quad])
    alpha, beta = (hensel_root(quad, pr, k.lift(r), N) for r in rts)
    return x0, y0, alpha, beta


def test_node_matches_the_newton_oracle():
    # split In, n >= 2, at ell = 2, 3, 5, 7 over Q and fields where ell
    # splits, is inert or ramifies: the tangent slopes at (0,0) mod pi are
    # residues alpha != beta, and a point P = (px, py) in pi x pi fixes a6.
    # A random change of model moves the node off (0,0) by a multiple of pi
    rng = random.Random(7)
    cases = [(None, 2), (17, 2), (5, 2), (-1, 2), (None, 3), (7, 3), (-1, 3),
             (6, 3), (None, 5), (-1, 5), (2, 5), (5, 5), (None, 7), (2, 7),
             (-1, 7), (7, 7)]
    kinds, labels = set(), 0
    for m, ell in cases:
        K = make_field(m)

        def rnd():
            return K(rng.randint(-9, 9), rng.randint(-9, 9) if m else 0)
        for pr in primes_above(K, ell):
            k, pi = ResidueField(pr), pr.uniformizer()
            found = 0
            while found < 3:
                al, be = (k.lift(r) for r in rng.sample(k.elements(), 2))
                a1 = -(al + be) + pi * rnd()
                a2 = -al * be + pi * rnd()
                e3 = pi ** rng.randint(1, 3)
                a3, a4 = e3 * rnd(), e3 * rnd()
                px = pi ** rng.randint(1, 2) * rnd()
                py = al * px + pi ** rng.randint(1, 3) * rnd()
                a6 = py * (py + a1 * px + a3) - ((px + a2) * px + a4) * px
                try:
                    E = Curve(K, a1, a2, a3, a4, a6)
                except ValueError:
                    continue
                urst = (K(1), rnd(), rnd(), rnd())
                E2, P = E.transform(*urst), E.map_point(E.point(px, py), *urst)
                ld = tate_local_data(E2, pr)
                if not (ld.is_multiplicative and ld.split and ld.n >= 2):
                    continue
                found += 1
                kinds.add((ell, pr.kind))
                pts = [ld.map_point(P * i, E2) for i in range(1, 5)]
                js = [component_index(ld, Pm) for Pm in pts]
                oracle = _node_by_newton(ld)
                # the labels read the slopes only to low precision, so
                # compare them too
                for a, b in zip(ld.node, oracle):
                    assert pr.val(a - b) >= ld.n + 3, (E2, pr)
                ld.__dict__["node"] = oracle
                assert [component_index(ld, Pm) for Pm in pts] == js, (E2, pr)
                labels += sum(j != 0 for j in js)
    assert kinds == {(ell, kind) for ell in (2, 3, 5, 7)
                     for kind in ("rational", "split", "inert", "ramified")}
    assert labels


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["11a1", "158", "35a"]),
       st.lists(st.integers(-2, 2), min_size=3, max_size=3))
@example("11a1", [0, 0, 0])
@example("158", [0, 0, 0])
def test_map_point_matches_curve_map_point(worked_curves, label, coeffs):
    # oracle: LocalData.map_point reuses the cached minimal model, while
    # Curve.map_point transforms the curve anew
    E, P, gens = worked_curves[label]
    R = E.zero()
    for c, G in zip(coeffs, [P] + gens):
        R = R + G * c
    for pr in bad_places(E):
        ld = tate(E, pr)
        assert ld.map_point(R, E) == E.map_point(R, *ld.urst)


def test_map_point_rejects_a_point_of_another_curve(worked_curves):
    for E, _, _ in worked_curves.values():
        a1, a2, a3, a4, _ = E.ainvs
        other = Curve(E.field, a1, a2, a3, a4, 0).point(0, 0)  # (0, 0) is not on E
        for pr in bad_places(E):
            with pytest.raises(ValueError):
                tate(E, pr).map_point(other, E)


def _multiples(G, j):
    """{m: m j} for m = -1, 2, 3 in the component group G."""
    return {-1: G.neg(j), 2: G.add(j, j), 3: G.add(G.add(j, j), j)}


def test_component_index_additive_respects_group_law():
    # random curves through a chosen point at the singular point, at 5 and 7;
    # a1 = 0, and In* with n >= 2 only where a2/pi = 1 mod pi: the other cases
    # hit the two known defects pinned below
    rng = random.Random(2)
    seen = {}
    for p in (5, 7):
        pr = primes_above(Q, p)[0]
        pi = pr.uniformizer()
        for _ in range(150):
            d = rng.choice([1, 2])  # 2: the starred types need v(a3), v(a4) >= 2
            e = lambda lo: rng.choice([0, p ** lo, -p ** lo,
                                       rng.randint(-3, 3) * p ** rng.randint(lo, 4)])
            a2, a3, a4, x, y = e(1), e(d), e(d), e(1), e(d)
            a6 = y * y + a3 * y - x ** 3 - a2 * x * x - a4 * x
            try:
                E = curve_from_rational(Q, [0, a2, a3, a4, a6])
            except ValueError:
                continue
            ld = tate_local_data(E, pr)
            t = ld.kodaira
            if t not in ("IV", "IV*", "I0*") and not (t.endswith("*") and ld.n >= 1):
                continue
            if seen.get(t, 0) >= 3 or ld.n >= 2 and pr.val(ld.curve_min.a2 - pi) < 2:
                continue
            P = E.point(x, y)
            j = component_index(ld, ld.map_point(P, E))
            if j == 0:
                continue
            seen[t] = seen.get(t, 0) + 1
            for m, jm in _multiples(ld.phi, j).items():
                assert component_index(ld, ld.map_point(P * m, E)) == jm, (t, E.ainvs, m)
    assert {"IV", "IV*", "I0*", "I1*", "I2*", "I3*"} <= set(seen)


# a curve through P = (x, y) with x, y, a3 and a4 in a prime above ell and a6
# fitted, moved by (1, r, s, t): each entry (a, b, k) is (a + b sqrt(m)) pi^k,
# and a1 and a2 may be units
_entry = lambda lo: st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(lo, 3))
_fibre_cases = st.tuples(
    st.sampled_from([None, -1, -3, 2, 5, -7]), st.sampled_from([2, 3, 5, 7]), st.integers(0, 1),
    st.tuples(*(_entry(lo) for lo in (0, 0, 1, 1, 1, 1))),
    st.tuples(*[st.tuples(st.integers(-2, 2), st.integers(-2, 2))] * 3))


def _homomorphism_check(case, known_defect):
    """component_index(mP) = m j(P) for m = -1, 2, 3, on the cases whose
    type is, or is not, a known defect of the labels (ROADMAP item 3): IV,
    and In* with n >= 1, where Tate's algorithm may also raise ValueError."""
    d, ell, idx, entries, rst = case
    K = make_field(d)
    prs = primes_above(K, ell)
    pr = prs[idx % len(prs)]
    a1, a2, a3, a4, x, y = (K(a, b if d else 0) * pr.uniformizer() ** k for a, b, k in entries)
    a6 = y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x
    try:
        E0 = Curve(K, a1, a2, a3, a4, a6)
    except ValueError:  # singular
        return
    urst = (K(1), *(K(a, b if d else 0) for a, b in rst))
    E, P = E0.transform(*urst), E0.map_point(E0.point(x, y), *urst)
    try:
        ld = tate_local_data(E, pr)
    except ValueError:
        if known_defect:
            raise
        return
    if (ld.kodaira == "IV" or ld.kodaira.endswith("*") and ld.n >= 1) != known_defect:
        return
    j = component_index(ld, ld.map_point(P, E))
    for m, jm in _multiples(ld.phi, j).items():
        assert component_index(ld, ld.map_point(P * m, E)) == jm, (E, pr, m)


@settings(max_examples=60, deadline=None)
@given(_fibre_cases)
def test_component_index_is_a_homomorphism(case):
    _homomorphism_check(case, known_defect=False)


@pytest.mark.xfail(strict=True, raises=(AssertionError, ValueError), reason=(
    "known defect (ROADMAP item 3): the IV labels read y/pi alone, and the In* "
    "quadratics omit their leading coefficient a2/pi"))
@settings(max_examples=60, deadline=None, report_multiple_bugs=False)
@given(_fibre_cases)
@example((None, 5, 0, ((1, 0, 0), (1, 0, 0), (0, 0, 1), (0, 0, 1), (1, 0, 1), (0, 0, 1)),
          ((0, 0),) * 3))  # IV: [1, 1, 0, 0, -150] at 5 through (5, 0)
@example((None, 5, 0, ((0, 0, 0), (-1, 0, 1), (0, 0, 0), (0, 0, 1), (-2, 0, 2), (0, 0, 0)),
          ((0, 0),) * 3))  # I2*: [0, -5, 0, 0, 137500] at 5 through (-50, 0)
def test_component_index_is_a_homomorphism_iv_in_star_known_defect(case):
    _homomorphism_check(case, known_defect=True)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: the IV labels read y/pi alone, but with a1 and a2 units "
    "the branch equation also involves x/pi"))
def test_component_index_iv_with_unit_a1_known_defect():
    E = curve_from_rational(Q, [1, 1, 0, 0, -150])
    ld = tate_local_data(E, primes_above(Q, 5)[0])
    assert ld.kodaira == "IV"
    P = E.point(5, 0)
    j = component_index(ld, ld.map_point(P, E))
    assert j in (1, 2) and component_index(ld, ld.map_point(P * 2, E)) == 3 - j


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: the In* quadratic in x/pi^m omits its leading coefficient "
    "a2/pi, so Tamagawa numbers and far-end labels go wrong when a2/pi != 1"))
def test_component_index_in_star_leading_coefficient_known_defect():
    # (27, 0) is a rational 2-torsion point on a far end of this I4* fiber
    E = curve_from_rational(Q, [0, -3, 0, 0, -17496])
    ld = tate_local_data(E, primes_above(Q, 3)[0])
    assert ld.kodaira == "I4*"
    assert ld.c == 4 and component_index(ld, ld.map_point(E.point(27, 0), E)) in (2, 3)


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "known defect: without a2/pi in the even-stage In* quadratic, the wrong "
    "root is moved to 0 and a later quadratic has a coefficient that is not integral"))
def test_in_star_missing_leading_coefficient_not_integral_known_defect():
    # v(c4), v(c6), v(disc) = 2, 3, 8 at the prime above 5: type I2*
    K = make_field(5)
    s = K.sqrt_gen()
    E = Curve(K, K(-10), -30 - s, -200 - 40 * s, -75 + 40 * s, 1000 - 100 * s)
    pr = primes_above(K, 5)[0]
    assert (pr.val(E.c4), pr.val(E.c6), pr.val(E.disc)) == (2, 3, 8)
    assert tate_local_data(E, pr).kodaira == "I2*"


def test_component_index_additivity_random_in():
    # a curve with larger split multiplicative reduction: y^2 + xy = x^3 + x^2 - 10x - 10?
    # use 11a1 over Q(sqrt 3) at a split prime of 11? 11 in disc 12 field:
    K = make_field(-7)
    E = curve_from_rational(K, [0, -1, 1, -10, -20])
    (pr,) = [p for p in primes_above(K, 11) if True][:1]
    ld = tate_local_data(E, pr)
    if ld.split:
        P = E.point(K(5), K(5))
        j1 = component_index(ld, ld.map_point(P, E))
        j2 = component_index(ld, ld.map_point(P * 2, E))
        assert j2 == (2 * j1) % ld.n


def test_e_entry():
    K = make_field(2)
    E = curve_from_rational(K, [0, -1, 1, -10, -20])
    P = E.point(K(Fraction(9, 2)), K(Fraction(-1, 2), Fraction(7, 4)))
    pr2 = primes_above(K, 2)[0]  # ramified, v(2) = 2
    ld2 = tate_local_data(E, pr2)
    assert e_entry(ld2, P) == -2  # v(x') = v(9/2), so e = 1
    pr7 = primes_above(K, 7)[0]
    ld7 = tate_local_data(E, pr7)
    assert e_entry(ld7, P) == 0
    # v(x') is read off the input point whatever the transform to curve_min:
    # u = 2, a non-integral r, a non-integral s and a unit u
    s2 = K(0, 1)
    places = [*primes_above(K, 2), *primes_above(K, 3), *primes_above(K, 5),
              *primes_above(K, 11)]
    for urst in ((2, 0, 0, 0), (1, Fraction(1, 2) + s2 / 3, 0, 1),
                 (1, 0, s2 / 5, 0), (1 + s2, 1, 1, s2)):
        E2 = E.transform(*urst)
        for T in (P, P * 2, P * 3):
            T2 = E.map_point(T, *urst)
            for pr in places:
                ld = tate_local_data(E2, pr)
                assert e_entry(ld, T2) == pr.val(ld.map_point(T2, E2).x), (urst, T, pr)


def test_singular_reduction_flag():
    E = curve_from_rational(Q, [0, -1, 1, -10, -20])
    pr = primes_above(Q, 11)[0]
    ld = tate_local_data(E, pr)
    P = E.point(5, 5)
    Pm = ld.map_point(P, E)
    assert tate_module._at_singular_point(ld, Pm) and component_index(ld, Pm) != 0
    assert component_index(ld, ld.map_point(E.zero(), E)) == 0


def _singular_point_search(E, k):
    """The singular point of the reduced curve, by trying every (x, y) in
    k x k."""
    for x0 in k.elements():
        for y0 in k.elements():
            x, y = k.lift(x0), k.lift(y0)
            if all(k.is_zero(k.reduce(g)) for g in (E.equation_value(x, y), *_gradient(E, x, y))):
                return x0, y0
    raise AssertionError("no singular point")


def _singular_models(ell, fields, seed):
    """(E, k): curves singular at (0, 0) mod pi, moved by a random (r, s, t),
    at the primes above ell of each field; a1 and a2 are 0, in pi or random."""
    rng = random.Random(seed)
    for m in fields:
        K = make_field(m)

        def rnd():
            return K(rng.randint(-9, 9), rng.randint(-9, 9) if m else 0)
        for pr in primes_above(K, ell):
            k, pi = ResidueField(pr), pr.uniformizer()
            for _ in range(25):
                a1, a2 = (rng.choice([K(0), pi * rnd(), rnd()]) for _ in range(2))
                try:
                    E = Curve(K, a1, a2, pi * rnd(), pi * rnd(), pi * rnd())
                except ValueError:
                    continue
                yield E.transform(K(1), rnd(), rnd(), rnd()), k


def test_singular_point_at_three_matches_search():
    # at the primes above 3 of Q and of fields where 3 splits, is inert or
    # ramifies; a1 = a2 = 0 mod pi gives cusps, where f' vanishes mod 3
    kinds = set()
    for E, k in _singular_models(3, (None, 7, -5, -1, 2, 6, -3), 3):
        assert tate_module._singular_point(E, k) == _singular_point_search(E, k)
        kinds.add((k.q, k.is_zero(k.reduce(E.b2))))
    assert kinds == {(3, True), (3, False), (9, True), (9, False)}


def test_singular_point_at_two_matches_search(monkeypatch):
    # at the primes above 2 of Q and of fields where 2 splits (17, -7), is
    # inert (5, -3) or ramifies (-1, 2, 6): closed form, no scan of k
    def no_scan(*args):
        raise AssertionError("the residue field was scanned")
    kinds = set()
    for E, k in _singular_models(2, (None, 17, -7, 5, -3, -1, 2, 6), 2):
        expected = _singular_point_search(E, k)
        with monkeypatch.context() as mp:
            mp.setattr(ResidueField, "elements", no_scan)
            mp.setattr(ResidueField, "_eval", no_scan)
            assert tate_module._singular_point(E, k) == expected
        kinds.add((k.q, k.is_zero(k.reduce(E.a1))))
    assert kinds == {(2, True), (2, False), (4, True), (4, False)}


def test_invariant_errors_name_the_place():
    # Tate's invariants raise RuntimeError, not assert: a smooth reduction
    # has no singular point to move to (0, 0)
    E = curve_from_rational(Q, [0, -1, 1, -10, -20])
    k = ResidueField(primes_above(Q, 7)[0])
    with pytest.raises(RuntimeError, match=r"Tate's algorithm at \(7\): 0 singular"):
        tate_module._singular_point(E, k)
    # in characteristic 2 with a1 = 0, F_y = a3 = 1 vanishes nowhere
    k = ResidueField(primes_above(Q, 2)[0])
    with pytest.raises(RuntimeError, match=r"Tate's algorithm at \(2\): no singular"):
        tate_module._singular_point(E, k)


# -- semistable places read off the invariants ------------------------------

def test_invariant_route_matches_the_walk_random(matches_walk):
    # odd ell at split, inert and ramified primes. Most models are singular
    # at a random point mod pi (a1, a2 units give In); some have c4 = 0, and
    # some have denominators at pr, which the clearing steps remove
    rng = random.Random(17)
    seen = {}
    n_curves = 0
    for m in (None, -1, -3, 5, -7, 3, -47, 13):
        K = make_field(m)
        for ell in (3, 5, 7, 11, 13):
            for pr in primes_above(K, ell):
                pi = pr.uniformizer()

                def rnd():
                    return K(rng.randint(-4, 4), rng.randint(-4, 4) if m else 0)
                for _ in range(40):
                    ais = [rnd() * pi ** rng.choice([0, 1]) for _ in range(2)]
                    ais += [rnd() * pi ** rng.choice([1, 1, 2, 3]) for _ in range(3)]
                    if rng.random() < 0.15:
                        ais[0] = ais[1] = ais[3] = K(0)
                    try:
                        E = Curve(K, *ais).transform(K(1), rnd(), rnd(), rnd())
                    except ValueError:
                        continue
                    cleared = rng.random() < 0.3
                    if cleared:
                        E = E.transform(pi ** rng.randint(1, 2), rnd() / pi, rnd(), rnd() / pi)
                    try:
                        ld = tate_local_data(E, pr)
                    except ValueError as exc:  # the In* defect: the walk raises alike
                        with pytest.raises(type(exc)):
                            tate_module._walk(*tate_module._clear(E, pr), pr)
                        continue
                    n_curves += 1
                    matches_walk(ld, E, pr)
                    if ld.is_multiplicative:
                        key = (pr.kind, cleared)
                        seen[key] = seen.get(key, 0) + 1
                    if not E.c4:
                        seen["c4=0"] = seen.get("c4=0", 0) + 1
    assert n_curves >= 2000
    for kind in ("rational", "split", "inert", "ramified"):
        assert seen.get((kind, False), 0) >= 20 and seen.get((kind, True), 0) >= 5, (kind, seen)
    assert seen["c4=0"] >= 100


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("a2, split", [(2, True), (3, False)])
def test_multiplicative_tamagawa_numbers(matches_walk, n, a2, split):
    # y^2 = x^3 + a2 x^2 + 7^n: a node at (0,0) mod 7 with tangent slopes
    # +-sqrt(a2), and v(disc) = n. Split In has c = n; non-split In has the
    # components 0 and, for even n, n/2 rational
    E = curve_from_rational(Q, [0, a2, 0, 0, 7 ** n])
    pr = primes_above(Q, 7)[0]
    ld = tate_local_data(E, pr)
    assert (ld.kodaira, ld.split, ld.c) == (f"I{n}", split, n if split else 2 - n % 2)
    matches_walk(ld, E, pr)


def test_multiplicative_route_walks_only_when_the_model_is_read(monkeypatch, matches_walk):
    E = curve_from_rational(Q, [0, -1, 1, -10, -20])  # I5 split at 11
    pr = primes_above(Q, 11)[0]

    def no_walk(*args):
        raise AssertionError("walked to the singular point")

    monkeypatch.setattr(tate_module, "_singular_point", no_walk)
    ld = tate_local_data(E, pr)
    assert (ld.kodaira, ld.c, ld.split, ld.vdisc, ld.vu, ld.f) == ("I5", 5, True, 5, 0, 1)
    with pytest.raises(AssertionError, match="walked"):
        ld.curve_min
    monkeypatch.undo()
    matches_walk(ld, E, pr)


@pytest.mark.parametrize("ainvs, ell, kodaira", [
    ((1, 0, 1, 4, -6), 2, "I6"),          # 14a1: multiplicative at 2
    ((0, -1, 1, -10, -20), 3, "I0"),      # 11a1: good at 3
    ((0, 0, 0, 0, 1), 3, "III"),          # 36a1: additive at 3
])
def test_other_places_build_the_model_eagerly(monkeypatch, matches_walk, ainvs, ell, kodaira):
    E = curve_from_rational(Q, ainvs)
    pr = primes_above(Q, ell)[0]
    ld = tate_local_data(E, pr)

    def no_walk(*args):
        raise AssertionError("walked on first read")

    monkeypatch.setattr(tate_module, "_walk", no_walk)
    monkeypatch.setattr(Curve, "transform", no_walk)
    assert ld.kodaira == kodaira
    assert ld.curve_min.ainvs and ld.urst
    monkeypatch.undo()
    matches_walk(ld, E, pr)


def test_lazy_model_checks_the_walk_against_the_invariants():
    E = curve_from_rational(Q, [0, -1, 1, -10, -20])  # I5 split at 11
    pr = primes_above(Q, 11)[0]
    ld = tate_local_data(E, pr)
    ld.c = 1
    with pytest.raises(RuntimeError, match=r"at \(11\): the walk and the invariants"):
        ld.curve_min


def _clear_by_valuations(E, pr):
    """_clear as a valuation loop: scale by 1/pi while some a-invariant has
    v < 0 at pr."""
    K = E.field
    urst = (K.one(), K.zero(), K.zero(), K.zero())
    while any(pr.val(a) < 0 for a in E.ainvs):
        step = (pr.uniformizer().inverse(), K.zero(), K.zero(), K.zero())
        E = E.transform(*step)
        urst = tate_module._compose_urst(urst, step)
    return E, urst


def test_clear_matches_the_valuation_loop():
    # oracle: _clear skips the valuations when ell divides no denominator D.
    # With m = 1 mod 4, (A + B sqrt(m))/2 can be integral though 2 | D, and
    # then the loop decides
    rng = random.Random(19)
    seen = {"skip": 0, "scaled": 0, "integral with ell | D": 0}
    for m in (None, -1, -3, 5, -7, 2, -47, 13):
        K = make_field(m)

        def rnd():
            D = rng.choice([1, 1, 2, 3, 4, 5, 6, 9, 10, 25, 49])
            return FieldElement(K, rng.randint(-9, 9), rng.randint(-9, 9) if m else 0, D)
        for _ in range(30):
            try:
                E = Curve(K, *(rnd() for _ in range(5)))
            except ValueError:
                continue
            for ell in (2, 3, 5, 7):
                for pr in primes_above(K, ell):
                    got = tate_module._clear(E, pr)
                    want = _clear_by_valuations(E, pr)
                    assert got[0].ainvs == want[0].ainvs and got[1] == want[1], (E, pr)
                    if all(a.D % ell for a in E.ainvs):
                        seen["skip"] += 1
                    elif got[0] is E:
                        seen["integral with ell | D"] += 1
                    else:
                        seen["scaled"] += 1
    assert min(seen.values()) >= 20, seen
