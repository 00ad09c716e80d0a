"""Tate's algorithm at a finite place, and component indices of points on
the special fiber of the minimal regular model.

Works over Q and over quadratic fields at any residue characteristic; the
brute-force searches over residue fields only ever see q <= 9 (residue
characteristic 2 or 3 in a quadratic field).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ellcurve import Curve, Point
from .qfield import PrimeIdeal, ResidueField, hensel_root, invert_mod, reduce_mod

NCOMP = {"I0": 1, "II": 1, "III": 2, "IV": 3, "I0*": 5, "IV*": 7, "III*": 8, "II*": 9}
COMP_ORDER = {"I0": 1, "II": 1, "III": 2, "IV": 3, "I0*": 4, "IV*": 3, "III*": 2, "II*": 1}


@dataclass
class LocalData:
    prime: PrimeIdeal
    curve_min: Curve          # minimal model, singular point at (0,0) mod pi
    urst: tuple               # transform input model -> curve_min
    kodaira: str              # "I0", "I5", "II", ..., "I3*"
    n: int                    # index for In / In*, else 0
    ncomp: int                # components of the special fiber over kbar
    comp_order: int           # #Phi(kbar)
    c: int                    # Tamagawa number #Phi(k)
    split: bool | None        # for multiplicative reduction
    vdisc: int                # v(disc of minimal model)
    vu: int                   # v(u) of the transform (>= 0 for integral input)

    @property
    def f(self) -> int:
        # Ogg-Saito
        if self.kodaira == "I0":
            return 0
        return self.vdisc - self.ncomp + 1

    @property
    def is_good(self) -> bool:
        return self.kodaira == "I0"

    @property
    def is_multiplicative(self) -> bool:
        return (self.kodaira[0] == "I" and self.kodaira[1:].isdigit()
                and self.kodaira != "I0")

    def map_point(self, P: Point, source: Curve) -> Point:
        u, r, s, t = self.urst
        return source.map_point(P, u, r, s, t)


def _compose_urst(a, b):
    """First apply a, then b (as model transforms)."""
    u1, r1, s1, t1 = a
    u2, r2, s2, t2 = b
    return (u1 * u2, r1 + u1 * u1 * r2, s1 + u1 * s2,
            t1 + u1 * u1 * s1 * r2 + u1 ** 3 * t2)


def _k_roots(k: ResidueField, coeffs):
    """Roots over the residue field, coefficients given in K (constant
    first)."""
    return k.roots([k.reduce(c) for c in coeffs])


def _k_poly_gcd_roots(k: ResidueField, f_coeffs):
    """Roots of gcd(f, f') over k; f given by K coefficients."""
    f = [k.reduce(c) for c in f_coeffs]
    df = [k.mul(k.from_int(i), c) for i, c in enumerate(f)][1:]
    # in small characteristic the derivative can lose its leading terms
    while df and k.is_zero(df[-1]):
        df.pop()
    g = k._poly_gcd(f, df) if df else f
    return k.roots(g)


def _singular_point(E: Curve, k: ResidueField):
    """The singular point of the reduced curve, as residue field elements."""
    if k.ell >= 5:
        # complete the square: (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2b4 x + b6
        xs = _k_poly_gcd_roots(k, [E.b6, 2 * E.b4, E.b2, E.field(4)])
        assert len(xs) == 1
        x0 = xs[0]
        inv2 = k.inv(k.from_int(2))
        y0 = k.neg(k.mul(inv2, k.add(k.mul(k.reduce(E.a1), x0), k.reduce(E.a3))))
        return x0, y0
    assert k.q <= 81
    a1, a2, a3, a4 = (k.reduce(a) for a in (E.a1, E.a2, E.a3, E.a4))
    for x0 in k.elements():
        for y0 in k.elements():
            if not k.is_zero(k.reduce(E.equation_value(k.lift(x0), k.lift(y0)))):
                continue
            fx = k.sub(k.mul(a1, y0),
                       k.add(k.add(k.mul(k.from_int(3), k.mul(x0, x0)),
                                   k.mul(k.from_int(2), k.mul(a2, x0))), a4))
            fy = k.add(k.add(k.mul(k.from_int(2), y0), k.mul(a1, x0)), a3)
            if k.is_zero(fx) and k.is_zero(fy):
                return x0, y0
    raise RuntimeError("no singular point found on a singular reduction")


def tate_local_data(E_in: Curve, pr: PrimeIdeal) -> LocalData:
    K = E_in.field
    k = ResidueField(pr)
    pi = pr.uniformizer()
    v = pr.val
    one = K.one()
    urst = (one, K.zero(), K.zero(), K.zero())
    E = E_in

    # clear denominators at pr
    while any(v(a) < 0 for a in E.ainvs):
        step = (pi.inverse(), K.zero(), K.zero(), K.zero())
        E = E.transform(*step)
        urst = _compose_urst(urst, step)

    def apply(u, r, s, t):
        nonlocal E, urst
        step = (u, r, s, t)
        E = E.transform(*step)
        urst = _compose_urst(urst, step)

    def done(kodaira, n, ncomp, comp_order, c, split=None):
        return LocalData(pr, E, urst, kodaira, n, ncomp, comp_order, c, split,
                         v(E.disc), v(urst[0]))

    while True:
        if v(E.disc) == 0:
            return done("I0", 0, 1, 1, 1)

        # move the singular point to (0,0)
        x0, y0 = _singular_point(E, k)
        apply(one, k.lift(x0), K.zero(), k.lift(y0))
        assert v(E.a3) >= 1 and v(E.a4) >= 1 and v(E.a6) >= 1

        if v(E.b2) == 0:
            # multiplicative: In with n = v(disc)
            n = v(E.disc)
            split = len(_k_roots(k, [-E.a2, E.a1, one])) == 2
            c = n if split else (2 if n % 2 == 0 else 1)
            return done(f"I{n}", n, n, n, c, split)

        if v(E.a6) < 2:
            return done("II", 0, 1, 1, 1)
        if v(E.b8) < 3:
            return done("III", 0, 2, 2, 2)
        if v(E.b6) < 3:
            rts = _k_roots(k, [-E.a6 / pi ** 2, E.a3 / pi, one])
            return done("IV", 0, 3, 3, 3 if len(rts) == 2 else 1)

        # normalize: v(a1) >= 1, v(a2) >= 1, v(a3) >= 2, v(a4) >= 2, v(a6) >= 3
        if k.ell != 2:
            s = k.lift(k.neg(k.mul(k.reduce(E.a1), k.inv(k.from_int(2)))))
            apply(one, K.zero(), s, K.zero())
            t1 = k.lift(k.neg(k.mul(k.reduce(E.a3 / pi), k.inv(k.from_int(2)))))
            apply(one, K.zero(), K.zero(), pi * t1)
        else:
            s = k.lift(k.sqrt(k.reduce(E.a2)))
            apply(one, K.zero(), s, K.zero())
            t1 = k.lift(k.sqrt(k.reduce(E.a6 / pi ** 2)))
            apply(one, K.zero(), K.zero(), pi * t1)
        assert v(E.a1) >= 1 and v(E.a2) >= 1 and v(E.a3) >= 2 and v(E.a4) >= 2 and v(E.a6) >= 3

        # P(T) = T^3 + a2/pi T^2 + a4/pi^2 T + a6/pi^3
        Pc = [E.a6 / pi ** 3, E.a4 / pi ** 2, E.a2 / pi, one]
        mult_roots = _k_poly_gcd_roots(k, Pc)
        if not mult_roots:
            nroots = len(_k_roots(k, Pc))
            return done("I0*", 0, 5, 4, 1 + nroots)

        r0 = mult_roots[0]
        # test triple root: P(T) = (T - r0)^3 iff P'' (r0) = 0 too
        a21 = k.reduce(E.a2 / pi)
        triple = k.is_zero(k.add(k.mul(k.from_int(3), r0), a21))
        apply(one, pi * k.lift(r0), K.zero(), K.zero())

        if not triple:
            # In* for n >= 1; alternate quadratics in Y and X at growing depth
            assert v(E.a2) == 1 and v(E.a3) >= 2 and v(E.a4) >= 3 and v(E.a6) >= 4
            n = 1
            mx, my = 2, 2
            while True:
                if n % 2 == 1:
                    quad = [-E.a6 / pi ** (mx + my), E.a3 / pi ** my, one]
                else:
                    quad = [E.a6 / pi ** (mx + my), E.a4 / pi ** (mx + 1), one]
                rts = _k_roots(k, quad)
                dbl = _k_poly_gcd_roots(k, quad)
                if not dbl:
                    c = 4 if len(rts) == 2 else 2
                    return done(f"I{n}*", n, n + 5, 4, c)
                if n % 2 == 1:
                    apply(one, K.zero(), K.zero(), pi ** my * k.lift(dbl[0]))
                    my += 1
                else:
                    apply(one, pi ** mx * k.lift(dbl[0]), K.zero(), K.zero())
                    mx += 1
                n += 1
        # triple root path
        assert v(E.a2) >= 2 and v(E.a3) >= 2 and v(E.a4) >= 3 and v(E.a6) >= 4
        quad = [-E.a6 / pi ** 4, E.a3 / pi ** 2, one]
        rts = _k_roots(k, quad)
        dbl = _k_poly_gcd_roots(k, quad)
        if not dbl:
            return done("IV*", 0, 7, 3, 3 if len(rts) == 2 else 1)
        apply(one, K.zero(), K.zero(), pi ** 2 * k.lift(dbl[0]))
        assert v(E.a3) >= 3 and v(E.a6) >= 5
        if v(E.a4) < 4:
            return done("III*", 0, 8, 2, 2)
        if v(E.a6) < 6:
            return done("II*", 0, 9, 1, 1)
        # non-minimal: scale down and restart
        apply(pi, K.zero(), K.zero(), K.zero())


# -- points on the special fiber ------------------------------------------


def e_entry(ld: LocalData, P: Point, source: Curve):
    """e_v(P) = -(1/2) min(v(x), 0) on the minimal model; Fraction-valued."""
    from fractions import Fraction

    if P.is_zero():
        return Fraction(0)
    Pm = ld.map_point(P, source)
    vx = ld.prime.val(Pm.x)
    return Fraction(-min(vx, 0), 2)


def has_singular_reduction(ld: LocalData, P: Point, source: Curve) -> bool:
    if P.is_zero():
        return False
    Pm = ld.map_point(P, source)
    v = ld.prime.val
    if v(Pm.x) < 0:
        return False
    return v(Pm.x) >= 1 and v(Pm.y) >= 1


def _refine_node(E: Curve, pr: PrimeIdeal, N: int):
    """Newton-lift the critical point of F near (0,0) to precision N."""
    K = E.field
    v = pr.val
    x, y = K.zero(), K.zero()
    prec = 1
    while prec < N:
        prec = min(2 * prec, N)
        fx = E.a1 * y - 3 * x * x - 2 * E.a2 * x - E.a4
        fy = 2 * y + E.a1 * x + E.a3
        # Jacobian [[-6x - 2a2, a1], [a1, 2]]
        j11 = -6 * x - 2 * E.a2
        j12 = E.a1
        j21 = E.a1
        j22 = K(2)
        det = j11 * j22 - j12 * j21
        dinv = invert_mod(det, pr, prec)
        dx = (j22 * fx - j12 * fy) * dinv
        dy = (j11 * fy - j21 * fx) * dinv
        x = reduce_mod(x - dx, pr, prec + 1)
        y = reduce_mod(y - dy, pr, prec + 1)
    fx = E.a1 * y - 3 * x * x - 2 * E.a2 * x - E.a4
    fy = 2 * y + E.a1 * x + E.a3
    assert v(fx) >= N and v(fy) >= N
    return x, y


def component_index(ld: LocalData, P: Point, source: Curve) -> int:
    """Index of the component of the special fiber hit by P.

    For In the cycle of components is numbered 0..n-1 with a fixed
    orientation (smaller tangent slope first); the map to Z/n is a
    homomorphism. For additive types the labels match the fibral divisor
    tables: In*: 1 = near end, 2/3 = far ends; IV/IV*: 1/2 the two
    branches; III/III*: 1 the non-identity end; I0*: 1..3 the legs.
    """
    if P.is_zero() or not has_singular_reduction(ld, P, source):
        return 0
    E = ld.curve_min
    pr = ld.prime
    v = pr.val
    k = ResidueField(pr)
    pi = pr.uniformizer()
    Pm = ld.map_point(P, source)
    t = ld.kodaira

    if ld.is_multiplicative:
        n = ld.n
        if not ld.split:
            assert n % 2 == 0, "no rational point on a swapped component"
            return n // 2
        N = n + 4
        x0, y0 = _refine_node(E, pr, N)
        Et = E.transform(E.field.one(), x0, E.field.zero(), y0)
        assert v(Et.a6) == n
        # tangent slopes at the node: roots of T^2 + a1 T - a2
        rts = _k_roots(k, [-Et.a2, Et.a1, E.field.one()])
        assert len(rts) == 2
        rts.sort(key=lambda r: (r,) if k.f == 1 else r)
        alpha = hensel_root([-Et.a2, Et.a1, E.field.one()], pr, k.lift(rts[0]), N)
        beta = hensel_root([-Et.a2, Et.a1, E.field.one()], pr, k.lift(rts[1]), N)
        X = Pm.x - x0
        Y = Pm.y - y0
        la = v(Y - alpha * X)
        lb = v(Y - beta * X)
        j = la if la <= lb else n - lb
        assert 1 <= j <= n - 1
        return j

    if t in ("II", "II*"):
        return 0
    if t in ("III", "III*"):
        return 1
    if t == "IV":
        rts = _k_roots(k, [-E.a6 / pi ** 2, E.a3 / pi, E.field.one()])
        assert len(rts) == 2 and v(Pm.y) >= 1
        rts.sort(key=lambda r: (r,) if k.f == 1 else r)
        ybar = k.reduce(Pm.y / pi)
        return 1 + rts.index(ybar)
    if t == "IV*":
        rts = _k_roots(k, [-E.a6 / pi ** 4, E.a3 / pi ** 2, E.field.one()])
        assert len(rts) == 2
        rts.sort(key=lambda r: (r,) if k.f == 1 else r)
        assert v(Pm.x) >= 2 and v(Pm.y) >= 2
        ybar = k.reduce(Pm.y / pi ** 2)
        assert ybar in rts
        return 1 + rts.index(ybar)
    if t == "I0*":
        Pc = [E.a6 / pi ** 3, E.a4 / pi ** 2, E.a2 / pi, E.field.one()]
        rts = _k_roots(k, Pc)
        rts.sort(key=lambda r: (r,) if k.f == 1 else r)
        xbar = k.reduce(Pm.x / pi)
        assert xbar in rts
        return 1 + rts.index(xbar)
    # In*, n >= 1: follow the point through the reduction stages
    assert t.endswith("*")
    n = ld.n
    Pc = [E.a6 / pi ** 3, E.a4 / pi ** 2, E.a2 / pi, E.field.one()]
    dbl = _k_poly_gcd_roots(k, Pc)
    assert len(dbl) == 1
    xbar = k.reduce(Pm.x / pi)
    if xbar != dbl[0]:
        return 1  # the near simple-root end
    # walk the same stage translations as the algorithm
    Ew = E.transform(E.field.one(), pi * k.lift(dbl[0]), E.field.zero(), E.field.zero())
    Pw = E.map_point(Pm, E.field.one(), pi * k.lift(dbl[0]), E.field.zero(), E.field.zero())
    m = 1
    mx, my = 2, 2
    while True:
        if m % 2 == 1:
            quad = [-Ew.a6 / pi ** (mx + my), Ew.a3 / pi ** my, Ew.field.one()]
        else:
            quad = [Ew.a6 / pi ** (mx + my), Ew.a4 / pi ** (mx + 1), Ew.field.one()]
        rts = _k_roots(k, quad)
        dbl2 = _k_poly_gcd_roots(k, quad)
        if not dbl2:
            assert m == n and len(rts) == 2
            rts.sort(key=lambda r: (r,) if k.f == 1 else r)
            if m % 2 == 1:
                wbar = k.reduce(Pw.y / pi ** my)
            else:
                wbar = k.reduce(Pw.x / pi ** mx)
            assert wbar in rts
            return 2 + rts.index(wbar)
        if m % 2 == 1:
            step = (Ew.field.one(), Ew.field.zero(), Ew.field.zero(), pi ** my * k.lift(dbl2[0]))
            my += 1
        else:
            step = (Ew.field.one(), pi ** mx * k.lift(dbl2[0]), Ew.field.zero(), Ew.field.zero())
            mx += 1
        Pw = Ew.map_point(Pw, *step)
        Ew = Ew.transform(*step)
        m += 1
