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
