from logdescent.polyring import Poly, gcd, interpolate, resultant
from logdescent.qfield import make_field


def test_arithmetic_and_divmod():
    K = make_field(-47)
    x = Poly.x(K)
    f = (x - 1) * (x - 2) * (x + 3)
    g = x - 2
    q, r = divmod(f, g)
    assert r.is_zero()
    assert q == (x - 1) * (x + 3)
    q2, r2 = divmod(f + 5, g)
    assert r2.degree == 0 and r2.coeffs[0] == K(5)
    assert f(2) == K(0) and f(1) == K(0)
    assert f(0) == K(6)


def test_gcd_and_derivative():
    K = make_field(2)
    x = Poly.x(K)
    f = (x - 1) ** 2 * (x + 2)
    g = gcd(f, f.derivative())
    assert g == (x - 1).monic()
    w = K.sqrt_gen()
    h = (x - w) * (x + w)
    assert h == x * x - 2
    assert gcd(h, x - w) == (x - w).monic()


def test_resultant_product_formula():
    K = make_field(None)
    x = Poly.x(K)
    # res(f, g) = lc(f)^deg g * prod g(roots of f)
    f = (x - 1) * (x - 2)
    g = (x - 3) * (x - 5)
    # prod over roots r of f of g(r) = g(1)*g(2) = (−2·−4)(−1·−3) = 8*3
    assert resultant(f, g) == K(g(1).a * g(2).a)
    # swap symmetry up to sign
    assert resultant(g, f) == K(f(3).a * f(5).a)
    # scalar case
    assert resultant(f, Poly(K, [7])) == K(49)


def test_interpolation():
    K = make_field(5)
    pts = [(0, K(1)), (1, K(3)), (2, K(7)), (3, K(13))]
    f = interpolate(K, pts)
    assert f.degree == 2
    for xv, yv in pts:
        assert f(xv) == yv
    # field-valued points
    w = K.omega()
    g = interpolate(K, [(0, w), (1, 2 * w), (2, 3 * w)])
    assert g.degree == 1
    assert g(5) == 6 * w
