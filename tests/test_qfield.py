import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from logdescent.qfield import (
    FieldElement,
    ResidueField,
    _squarefree_part,
    format_element,
    hensel_root,
    invert_mod,
    kronecker,
    make_field,
    parse_element,
    prime_divisors,
    primes_above,
    reduce_mod,
)


def test_make_field_discs():
    assert make_field(None).disc == 1
    assert make_field(-1).disc == -4
    assert make_field(-3).disc == -3
    assert make_field(5).disc == 5
    assert make_field(2).disc == 8
    assert make_field(-47).disc == -47
    assert make_field(-79).disc == -79
    assert make_field(12).disc == 12  # fundamental discriminant of Q(sqrt 3)
    with pytest.raises(ValueError):
        make_field(45)  # 9 * 5: not squarefree, not fundamental
    with pytest.raises(ValueError):
        make_field(20)  # 4 * 5 with 5 = 1 mod 4: not fundamental
    with pytest.raises(ValueError):
        make_field(1)


def test_element_arithmetic():
    K = make_field(-47)
    w = K.omega()
    assert w * w == w * K.omega_trace - K.omega_norm
    x = K(Fraction(1, 2), Fraction(3, 2))
    y = K(2, -1)
    assert (x + y) - y == x
    assert x * y / y == x
    assert (x ** 3) * (x ** -3) == K(1)
    assert x.norm() == x.a * x.a - x.b * x.b * K.radicand
    assert x.trace() == 2 * x.a
    assert (x * x.conj()).b == 0


def test_parse_format_roundtrip():
    K = make_field(2)
    for x in [K(3), K(0, 1), K(Fraction(-1, 2), Fraction(7, 4)), K(0)]:
        assert parse_element(K, format_element(x)) == x
    Q = make_field(None)
    assert parse_element(Q, "-3/4") == Q(Fraction(-3, 4))


def test_kronecker_matches_splitting():
    import sympy

    for D in (-47, -79, 2, 5, -11, 229):
        K = make_field(D)
        for ell in sympy.primerange(2, 60):
            prs = primes_above(K, ell)
            k = kronecker(K.disc, ell)
            if k == 1:
                assert len(prs) == 2 and all(p.kind == "split" for p in prs)
            elif k == -1:
                assert len(prs) == 1 and prs[0].kind == "inert"
            else:
                assert len(prs) == 1 and prs[0].kind == "ramified"


def test_split_prime_with_one_root_raises(monkeypatch):
    # an internal invariant, raised rather than asserted so that -O keeps it
    from logdescent import qfield

    monkeypatch.setattr(qfield, "sqrt_mod", lambda a, p: 0)
    with pytest.raises(RuntimeError, match="split prime 3"):
        primes_above(make_field(-47), 3)


def test_valuations_sum_to_norm():
    import sympy

    for D in (-47, 2, -79, 5):
        K = make_field(D)
        w = K.omega()
        for x in (K(3) + w, K(7) - 2 * w, w * w + K(1), K(Fraction(5, 6)) + w / 3):
            n = x.norm()
            for ell, e in sympy.factorint(n.numerator * n.denominator).items():
                prs = primes_above(K, ell)
                tot = sum(p.val(x) * p.f for p in prs)
                assert tot == n.numerator.__class__(0) + (
                    sympy.multiplicity(ell, n.numerator) - sympy.multiplicity(ell, n.denominator)
                )


def test_prime_divisors_recover_element():
    K = make_field(-47)
    w = K.omega()
    x = (K(3) + w) * (K(2) - w) / K(5)
    fac = prime_divisors(K, x)
    n = Fraction(1)
    for p, e in fac.items():
        n *= Fraction(p.norm()) ** e
    assert abs(x.norm()) == abs(n)
    for p, e in fac.items():
        assert p.val(x) == e


def test_prime_divisors_when_the_norm_cancels():
    # (2 + i)/(2 - i) and (2 + w)/(2 + conj(w)) have norm 1 but are not units
    for D, a in ((-1, 2), (-47, 2), (2, 3)):
        K = make_field(D)
        w = K.omega()
        x = (K(a) + w) / (K(a) + w.conj())
        assert x.norm() == 1
        fac = prime_divisors(K, x)
        assert fac
        small = [q for ell in (2, 3, 5, 7, 11, 13) for q in primes_above(K, ell)]
        assert set(fac) <= set(small)
        for pr in small:
            assert pr.val(x) == fac.get(pr, 0)


def test_uniformizers():
    for D in (-47, 2, -79, -11, 5, -1, -3):
        K = make_field(D)
        for ell in (2, 3, 5, 7, 11, 47, 79):
            for p in primes_above(K, ell):
                pi = p.uniformizer()
                assert p.val(pi) == 1
                if p.kind == "split":
                    assert p.conjugate().val(pi) == 0


def test_residue_field_arithmetic():
    K = make_field(-47)
    for ell in (2, 3, 5, 7, 11):
        for pr in primes_above(K, ell):
            k = ResidueField(pr)
            els = list(k.elements())
            assert len(els) == k.q
            for a in els[: min(8, len(els))]:
                if k.is_zero(a):
                    continue
                assert k.mul(a, k.inv(a)) == k.one()
                assert k.pow(a, k.q - 1) == k.one()


def test_residue_reduce_lift():
    K = make_field(-47)
    w = K.omega()
    for ell in (2, 3, 7, 53):
        for pr in primes_above(K, ell):
            k = ResidueField(pr)
            x = K(5) + 3 * w
            xb = k.reduce(x)
            diff = x - k.lift(xb)
            assert pr.val(diff) >= 1 if diff else True


def test_residue_roots_brute_vs_large():
    K = make_field(-79)
    pr = primes_above(K, 3)[0]  # inert, q = 9
    k = ResidueField(pr)
    # roots of x^2 - x - omega-stuff: just test x^q = x identity roots
    for a in list(k.elements())[:5]:
        coeffs = [k.neg(a), k.one()]  # x - a, constant first
        assert k.roots(coeffs) == [a]
    # quadratic with known roots
    a, b = list(k.elements())[2], list(k.elements())[5]
    poly = [k.mul(a, b), k.neg(k.add(a, b)), k.one()]
    rs = k.roots(poly)
    assert sorted(rs) == sorted({a, b})


def _large_residue_field(which):
    """F_{79^2} (79 is inert in Q(i)) or F_4099, both past the 4096 cutoff
    where roots() stops enumerating the field."""
    if which == 0:
        return ResidueField(primes_above(make_field(-1), 79)[0])
    return ResidueField(primes_above(make_field(None), 4099)[0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1), st.data())
def test_residue_roots_large_fields_brute_force(which, data):
    k = _large_residue_field(which)
    assert k.q > 4096
    elts = k.elements()
    pick = st.integers(0, len(elts) - 1).map(elts.__getitem__)
    if data.draw(st.booleans()):
        # c * prod (x - r), so that roots, repeated ones too, do occur
        cs = [data.draw(pick.filter(lambda c: not k.is_zero(c)))]
        for r in data.draw(st.lists(pick, max_size=3)):
            shifted = [k.zero()] + cs
            cs = [k.sub(a, k.mul(r, b)) for a, b in zip(shifted, cs + [k.zero()])]
    else:
        cs = data.draw(st.lists(pick, max_size=4))
    f = list(cs)
    while f and k.is_zero(f[-1]):
        f.pop()
    brute = [x for x in elts if k.is_zero(k._eval(f, x))] if len(f) > 1 else []
    assert k.roots(cs) == brute


_ODD_PRIMES = [q for q in range(3, 64) if all(q % d for d in range(2, q))]
_RADICANDS = [m for m in range(-60, 61) if m not in (0, 1) and all(m % (d * d) for d in range(2, 8))]


def _scan_roots(k, cs):
    f = list(cs)
    while f and k.is_zero(f[-1]):
        f.pop()
    return [x for x in k.elements() if k.is_zero(k._eval(f, x))] if len(f) > 1 else []


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_RADICANDS + [None]), st.data())
def test_closed_form_roots_and_squares_match_the_scan(D, data):
    # degree 1 and 2 roots are closed-form at odd ell (the discriminant and a
    # Tonelli-Shanks square root), and is_square is Euler's criterion on the
    # norm; the scan over the residue field is the oracle for both. Primes
    # are split, inert (f = 2) or, half the time when there is one, ramified
    K = make_field(D)
    ramified = [q for q in _ODD_PRIMES if K.disc % q == 0]
    ell = data.draw(st.sampled_from(ramified if ramified and data.draw(st.booleans())
                                    else _ODD_PRIMES))
    pr = data.draw(st.sampled_from(primes_above(K, ell)))
    k = ResidueField(pr)
    elts = k.elements()
    pick = st.integers(0, len(elts) - 1).map(elts.__getitem__)
    unit = pick.filter(lambda c: not k.is_zero(c))
    squares = {k.mul(y, y) for y in elts}
    x = data.draw(pick)
    assert k.is_square(x) == (x in squares)
    shape = data.draw(st.sampled_from(["linear", "product", "double", "x^2 - n", "random"]))
    c = data.draw(unit)
    if shape == "linear":
        cs = [data.draw(pick), c]
    elif shape in ("product", "double"):
        r1 = data.draw(pick)
        r2 = r1 if shape == "double" else data.draw(pick)
        cs = [k.mul(c, k.mul(r1, r2)), k.neg(k.mul(c, k.add(r1, r2))), c]
    elif shape == "x^2 - n":
        # n a non-square, so no roots
        cs = [k.neg(data.draw(pick.filter(lambda n: n not in squares))), k.zero(), k.one()]
    else:
        cs = [data.draw(pick), data.draw(pick), c]
    expected = _scan_roots(k, cs)
    assert k.roots(cs) == expected
    if shape in ("product", "double"):
        assert expected == sorted({r1, r2})
    if shape == "x^2 - n":
        assert expected == []


def test_reduce_invert_hensel():
    K = make_field(-47)
    pr = primes_above(K, 7)[0]
    x = K(1) + 2 * K.omega()  # norm 51, a unit above 7
    xm = reduce_mod(x, pr, 4)
    assert pr.val(x - xm) >= 4
    y = invert_mod(x, pr, 4)
    assert pr.val(x * y - 1) >= 4
    # hensel: root of T^2 - 2 mod powers of a split prime of Q(sqrt 2)
    K2 = make_field(2)
    pr7 = primes_above(K2, 7)[0]
    k = ResidueField(pr7)
    rts = k.roots([k.reduce(K2(-2)), k.zero(), k.one()])
    r0 = k.lift(rts[0])
    r = hensel_root([K2(-2), K2(0), K2(1)], pr7, r0, 6)
    assert pr7.val(r * r - 2) >= 6


@settings(max_examples=60, deadline=None)
@given(st.fractions().filter(lambda r: r != 0))
def test_squarefree_part_of_rationals(r):
    d, s = _squarefree_part(r)
    assert d * s * s == r and s > 0
    assert d != 0 and all(e == 1 for e in sympy.factorint(abs(d)).values())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([None, -47, 2, -3]), st.sampled_from([3, 5, 7]),
       st.integers(0, 9), st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
def test_mu_p_log(D, p, i, a, b):
    K = make_field(D)
    ell = [q for q in sympy.primerange(2, 400) if q % p == 1][i]
    x = K(a) if K.is_rational else K(a, b)
    for pr in primes_above(K, ell):
        if pr.val(x) != 0:
            continue
        k = ResidueField(pr)
        zeta = k.zeta(p)
        assert zeta != k.one() and k.pow(zeta, p) == k.one()
        j = k.mu_p_log(x, p)
        assert 0 <= j < p
        assert k.pow(zeta, j) == k.pow(k.reduce(x), (k.q - 1) // p)


# -- the integer representation against a Fraction-pair reference ---------

_ORACLE_FIELDS = [None, -47, -79, 2, 5]
_small = st.fractions(min_value=-60, max_value=60, max_denominator=36)


def _ref_mul(m, x, y):
    return (x[0] * y[0] + m * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_inv(m, x):
    n = x[0] * x[0] - m * x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _ref_pow(m, x, n):
    if n < 0:
        x, n = _ref_inv(m, x), -n
    r = (Fraction(1), Fraction(0))
    for _ in range(n):
        r = _ref_mul(m, r, x)
    return r


def _ref_integer_coords(K, x):
    a, b = x
    ca, cb = (a - b, 2 * b) if K.disc % 4 == 1 else (a, b)
    den = math.lcm(ca.denominator, cb.denominator)
    A, B = int(ca * den), int(cb * den)
    g = math.gcd(A, B, den)
    return A // g, B // g, den // g


def _assert_normalized(K, z):
    assert z.field == K
    assert z.D > 0 and math.gcd(z.A, z.B, z.D) == 1
    assert not (K.is_rational and z.B)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_ORACLE_FIELDS), _small, _small, _small, _small,
       st.integers(-50, 50), _small, st.integers(-5, 5))
def test_field_element_matches_fraction_pairs(D, a1, b1, a2, b2, k, q, n):
    K = make_field(D)
    m = K.radicand
    if K.is_rational:
        b1 = b2 = Fraction(0)
    x, y = K(a1, b1), K(a2, b2)
    X, Y = (a1, b1), (a2, b2)
    kk, qq = (Fraction(k), Fraction(0)), (q, Fraction(0))
    add = lambda u, v: (u[0] + v[0], u[1] + v[1])
    neg = lambda u: (-u[0], -u[1])
    cases = [
        (x, X), (y, Y), (-x, neg(X)), (x.conj(), (a1, -b1)),
        (x + y, add(X, Y)), (x - y, add(X, neg(Y))), (x * y, _ref_mul(m, X, Y)),
        (x + k, add(X, kk)), (k + x, add(X, kk)), (x - k, add(X, neg(kk))),
        (k - x, add(kk, neg(X))), (x * k, _ref_mul(m, X, kk)), (k * x, _ref_mul(m, X, kk)),
        (x + q, add(X, qq)), (q - x, add(qq, neg(X))), (q * x, _ref_mul(m, X, qq)),
    ]
    if any(Y):
        cases += [(x / y, _ref_mul(m, X, _ref_inv(m, Y))), (k / y, _ref_mul(m, kk, _ref_inv(m, Y))),
                  (q / y, _ref_mul(m, qq, _ref_inv(m, Y))), (y.inverse(), _ref_inv(m, Y))]
    else:
        for bad in (lambda: x / y, lambda: k / y, lambda: y.inverse(), lambda: y ** -1):
            with pytest.raises(ZeroDivisionError):
                bad()
    if k:
        cases.append((x / k, (a1 / k, b1 / k)))
    else:
        with pytest.raises(ZeroDivisionError):
            x / k
    if q:
        cases.append((x / q, (a1 / q, b1 / q)))
    if any(X) or n >= 0:
        cases.append((x ** n, _ref_pow(m, X, n)))
    for z, (a, b) in cases:
        _assert_normalized(K, z)
        assert (z.a, z.b) == (a, b)
        assert z.norm() == a * a - m * b * b
        assert z.trace() == 2 * a
        assert z.integer_coords() == _ref_integer_coords(K, (a, b))
        ca, cb = (a - b, 2 * b) if K.disc % 4 == 1 else (a, b)
        assert z.omega_coords() == (ca, cb)
        assert bool(z) == (a != 0 or b != 0)
        # equality against ints, Fractions and elements built another way
        assert (z == a) == (b == 0)
        assert (z == int(a)) == (b == 0 and a.denominator == 1)
        w = K(a, b)
        assert z == w and hash(z) == hash(w)
        assert z == K.from_omega(ca.numerator * cb.denominator, cb.numerator * ca.denominator,
                                 ca.denominator * cb.denominator)
    assert (x == y) == (X == Y)


def test_equal_elements_hash_equal():
    for D in _ORACLE_FIELDS:
        K = make_field(D)
        half = K(Fraction(2, 4))
        assert half == K(1) / 2 == Fraction(1, 2) and half != 1
        assert hash(half) == hash(K(1) / 2) == hash(K(3) / K(6)) == hash(K(1) - Fraction(1, 2))
        assert (half.A, half.B, half.D) == (1, 0, 2)
        if not K.is_rational:
            w = K.omega()
            assert w == K.from_omega(0, 1) == (w * w + w) / (w + 1)
            assert hash(w * 2 / 2) == hash(w)
            assert K(0, Fraction(-3, 6)) == K.sqrt_gen() / -2
        assert K(0) == 0 and K(0).D == 1 and K(-5) / -10 == half
    with pytest.raises(ValueError):
        make_field(None)(1, 1)
    with pytest.raises(ZeroDivisionError):
        FieldElement(make_field(2), 1, 1, 0)


def test_explicit_exceptions():
    K = make_field(2)
    inert, split = primes_above(K, 5)[0], primes_above(K, 7)[0]
    with pytest.raises(ValueError, match="split prime"):
        inert.omega_root_mod(3)
    with pytest.raises(ValueError, match="simple root"):
        hensel_root([K(-2), K(0), K(1)], split, K(0), 4)
