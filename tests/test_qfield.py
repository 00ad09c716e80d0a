import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logdescent.qfield import (
    FieldElement,
    ResidueField,
    _squarefree_part,
    format_element,
    hensel_root,
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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([None, 2, -79]),
       st.fractions(min_value=-100, max_value=100, max_denominator=50),
       st.fractions(min_value=-100, max_value=100, max_denominator=50))
@example(2, Fraction(3), Fraction(0))
@example(2, Fraction(0), Fraction(1))
@example(2, Fraction(-1, 2), Fraction(7, 4))
@example(2, Fraction(0), Fraction(0))
@example(None, Fraction(-3, 4), Fraction(0))
@example(2, Fraction(0), Fraction(2))  # 2*sqrt(2), with no rational part
@example(-79, Fraction(0), Fraction(-35, 4))
@example(2, Fraction(0), Fraction(-35, 4))
@example(2, Fraction(3), Fraction(1, 2))
@example(2, Fraction(0), Fraction(31, 2))  # 31/2*sqrt(2), not 3 + 1/2*sqrt(2)
def test_parse_format_roundtrip(D, a, b):
    K = make_field(D)
    x = K(a, 0 if K.is_rational else b)
    assert parse_element(K, format_element(x)) == x


_FRACTION_TEXT = st.tuples(st.integers(0, 999), st.integers(1, 999)).map(lambda t: f"{t[0]}/{t[1]}")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["", "+", "-"]), _FRACTION_TEXT, _FRACTION_TEXT,
       st.sampled_from(["*", ""]), st.sampled_from([2, -79]))
@example("", "3/4", "1/2", "*", 2)
def test_parse_rejects_juxtaposed_parts(sign, a, b, star, m):
    # <a><b>*sqrt(m) with two fractions and no sign between them has no
    # reading: it is neither a + b*sqrt(m) nor one coefficient of sqrt(m)
    with pytest.raises(ValueError, match="cannot parse"):
        parse_element(make_field(m), f"{sign}{a}{b}{star}sqrt({m})")


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


# (field, ell): above 2 and 11 Q(sqrt -7) splits, above 3 it is inert and
# above 7 ramified; Q(sqrt 2) is ramified at 2, inert at 3 and split at 7
REDUCTION_PRIMES = [(-7, 2), (-7, 11), (-7, 3), (-7, 7), (2, 2), (2, 3), (2, 7), (None, 5)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(REDUCTION_PRIMES), st.integers(-200, 200), st.integers(-200, 200),
       st.integers(0, 3), st.sampled_from([1, 3, 5, 7]), st.integers(1, 4))
@example((-7, 2), 0, 1, 1, 1, 3)  # omega/2: integral at one prime above 2 only
@example((-7, 11), 11, -13, 2, 3, 2)
def test_reduce_mod_and_residue_at_any_denominator(field_prime, A, B, k, cofactor, N):
    # v(x) >= 0: reduce_mod(x, pr, N) is integral and agrees with x to order
    # N, and the residue of x is the residue of that representative and lifts
    # back to x mod pr; v(x) < 0: both raise ValueError
    d, ell = field_prime
    K = make_field(d)
    x = K.from_omega(A, B if d else 0, ell ** k * cofactor)
    for pr in primes_above(K, ell):
        kv = ResidueField(pr)
        if pr.val(x) < 0:
            with pytest.raises(ValueError):
                reduce_mod(x, pr, N)
            with pytest.raises(ValueError):
                kv.reduce(x)
            continue
        y = reduce_mod(x, pr, N)
        assert y.integer_coords()[2] == 1
        assert pr.val(x - y) >= N
        r = kv.reduce(x)
        assert r == kv.reduce(y)
        assert pr.val(x - kv.lift(r)) >= 1


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
    """F_{79^2} (79 is inert in Q(i)) or F_4099, fields too large to scan
    cheaply, where roots() splits cubics and up by Cantor-Zassenhaus."""
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
    # degree 1 roots are closed-form, quadratics and cubics are split by
    # Cantor-Zassenhaus at every odd ell, and is_square is Euler's criterion
    # on the norm; the scan over the residue field is the oracle for all
    # three. Primes are split, inert (f = 2) or, half the time when there is
    # one, ramified
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
    shape = data.draw(st.sampled_from(["linear", "product", "double", "x^2 - n", "random",
                                       "cubic product", "cubic"]))
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
    elif shape == "cubic product":
        # c * (x - r1)(x - r2)(x - r3), repeated roots too
        cs = [c]
        for r in (data.draw(pick) for _ in range(3)):
            cs = [k.sub(a, k.mul(r, b)) for a, b in zip([k.zero()] + cs, cs + [k.zero()])]
    elif shape == "cubic":
        cs = [data.draw(pick), data.draw(pick), data.draw(pick), c]
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
    y = reduce_mod(x.inverse(), pr, 4)
    assert pr.val(x * y - 1) >= 4
    # a unit at pr inside the conjugate prime: its inverse has 7 in the
    # denominator and is still integral at pr
    xbar = pr.conjugate().second_gen()
    assert pr.val(xbar) == 0 and pr.conjugate().val(xbar) >= 1
    assert xbar.inverse().integer_coords()[2] % 7 == 0
    for N in (1, 2, 5):
        y = reduce_mod(xbar.inverse(), pr, N)
        assert y.integer_coords()[2] == 1 and pr.val(xbar * y - 1) >= N
    # hensel: root of T^2 - 2 mod powers of a split prime of Q(sqrt 2)
    K2 = make_field(2)
    pr7 = primes_above(K2, 7)[0]
    k = ResidueField(pr7)
    rts = k.roots([k.reduce(K2(-2)), k.zero(), k.one()])
    r0 = k.lift(rts[0])
    r = hensel_root([K2(-2), K2(0), K2(1)], pr7, r0, 6)
    assert pr7.val(r * r - 2) >= 6


def _lifted_val(pr, x):
    """The valuation as computed with p-adic lifting: from the norm at a
    non-split prime, and at a split one by mapping omega to its root mod
    ell^(v(N) + 1), lifted by Newton from wbar."""
    A, B, den = x.integer_coords()
    ell, tr, nm = pr.ell, x.field.omega_trace, x.field.omega_norm
    vden = sympy.multiplicity(ell, den) * pr.e
    normv = sympy.multiplicity(ell, A * A + A * B * tr + B * B * nm)
    if pr.kind == "inert":
        return normv // 2 - vden
    if pr.kind != "split":
        return normv - vden
    W, mod = pr.wbar, ell ** (normv + 1)
    for _ in range(normv.bit_length() + 1):
        W = (W - (W * W - tr * W + nm) * pow(2 * W - tr, -1, mod)) % mod
    c = (A + B * W) % mod
    return (normv if c == 0 else min(sympy.multiplicity(ell, c), normv)) - vden


_VAL_FIELDS = [-1, -2, -3, -5, -7, -15, -47, -79, 2, 3, 5, 6, 7, 13, 17, 79]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_VAL_FIELDS), st.sampled_from(list(sympy.primerange(2, 60))),
       st.integers(-10 ** 4, 10 ** 4), st.integers(-10 ** 4, 10 ** 4),
       st.integers(0, 3), st.integers(0, 3), st.integers(1, 60), st.integers(0, 2))
@example(-47, 7, 3, 1, 2, 2, 1, 0)
@example(2, 7, 0, 1, 0, 3, 7, 2)
def test_valuation_matches_the_lifted_root(D, ell, a, b, ga, gb, d, gd):
    # A and B carry ell-content ell^ga, ell^gb; the denominator may carry ell
    K = make_field(D)
    A, B, den = a * ell ** ga, b * ell ** gb, d * ell ** gd
    if not (A or B):
        return
    x = K.from_omega(A, B, den)
    for pr in primes_above(K, ell):
        assert pr.val(x) == _lifted_val(pr, x)


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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_ORACLE_FIELDS), st.sampled_from([2, 3, 5, 7, 11, 47, 79]),
       st.fractions(max_denominator=10 ** 6).filter(lambda r: r != 0))
def test_rational_valuations_match_the_norm_route(D, ell, r):
    # a rational r has valuation e * v_ell(r) at each prime above ell, and
    # so has r times the unit 1 + ell*sqrt(m), which takes the norm route
    K = make_field(D)
    want = sympy.multiplicity(ell, r.numerator) - sympy.multiplicity(ell, r.denominator)
    for pr in primes_above(K, ell):
        assert pr.val(K(r)) == pr.e * want
        if not K.is_rational:
            assert pr.val(K(r)) == pr.val(K(r) * K(1, ell))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_ORACLE_FIELDS), _small, _small,
       st.integers(-5, 5) | st.integers(-10 ** 30, 10 ** 30))
def test_int_operands_match_the_coerced_element(D, a, b, n):
    # an int operand skips _coerce; the result is the one of FieldElement(K, n)
    K = make_field(D)
    x = K(a, 0 if K.is_rational else b)
    c = FieldElement(K, n)
    for got, want in ((x + n, x + c), (n + x, c + x), (x - n, x - c), (n - x, c - x),
                      (x * n, x * c), (n * x, c * x)):
        assert type(got) is FieldElement and got.field is K
        assert (got.A, got.B, got.D) == (want.A, want.B, want.D)


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
