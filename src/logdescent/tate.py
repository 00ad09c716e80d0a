"""Tate's algorithm at a finite place, the component group Phi_v of the
special fiber of the minimal regular model, and component indices of points
on that fiber.

Works over Q and over quadratic fields at any residue characteristic.
A bad place of odd characteristic with v(c4) = 0 is read off the invariants
(Cremona, Algorithms for Modular Elliptic Curves, 3.2) and walks to its
minimal model only when that is read (LocalData); every other place walks
at once.

In odd characteristic no residue field is scanned: ResidueField.roots is
closed-form for linear polys and splits every higher degree (the quadratics
of types IV, IV*, In* and the cubic P(T) of type I0*) by Cantor-Zassenhaus,
and the split test of multiplicative reduction asks whether b2 is a square.
In characteristic 2, where q <= 4, the singular point is closed-form and
only ResidueField.roots scans the field (quadratics, split test, P(T)).

Phi_v is one object, ComponentGroup, read off (kodaira, n) alone: the
number of components, #Phi(kbar), the group law on the labels of
component_index and the fibral table of pairing.log_pairing. LocalData.phi
builds it on first use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .ellcurve import Curve, Point, coordinate_change, map_coords
from .qfield import PrimeIdeal, ResidueField, hensel_root

# (components, #Phi(kbar)) of the types other than In and In*
_SHAPES = {"I0": (1, 1), "II": (1, 1), "III": (2, 2), "IV": (3, 3),
           "IV*": (7, 3), "III*": (8, 2), "II*": (9, 1)}


class ComponentGroup:
    """Phi_v over kbar for a Kodaira type and its index n, on the labels of
    component_index: Z/n for In; Z/3 for IV and IV* and Z/2 for III and III*,
    by label; (Z/2)^2 for In* with n even (I0* included), where the labels
    1..3 add as 2-bit vectors; Z/4 for In* with n odd, where the near end 1
    has order 2; trivial for I0, II and II*."""

    def __init__(self, kodaira: str, n: int):
        self.kodaira, self.n = kodaira, n
        if kodaira.endswith("*") and kodaira[1:-1].isdigit():
            self.ncomp, self.order = n + 5, 4
            # label -> element of Z/4, an involution; None for (Z/2)^2
            self._z = (0, 2, 1, 3) if n % 2 else None
        else:
            self.ncomp, self.order = _SHAPES.get(kodaira, (n, n))
            self._z = range(self.order)

    def add(self, i: int, j: int) -> int:
        z = self._z
        return i ^ j if z is None else z[(z[i] + z[j]) % self.order]

    def neg(self, i: int) -> int:
        z = self._z
        return i if z is None else z[-z[i] % self.order]

    def fibral(self, i: int, j: int) -> Fraction:
        """a_j(F_Q) for Q on component i: the coefficient at component j of
        the fibral divisor F_Q that makes [Q] - [O] + F_Q orthogonal to every
        component. -fibral(i, j) mod Z is the monodromy pairing on Phi_v
        (SGA 7, IX), symmetric and bilinear under add."""
        if i == 0 or j == 0:
            return Fraction(0)
        t, n = self.kodaira, self.n
        if t[1:].isdigit():
            return Fraction(min(j * (n - i), i * (n - j)), n)
        if t in ("III", "III*"):
            return Fraction(1 if t == "III" else 3, 2)
        if t in ("IV", "IV*"):
            return Fraction((2 if i == j else 1) * (1 if t == "IV" else 2), 3)
        # In*: 1 the near end, 2 and 3 the far ends
        if 1 in (i, j):
            return Fraction(1) if i == j else Fraction(1, 2)
        return Fraction(n + 4 if i == j else n + 2, 4)


class LocalData:
    """Tate's algorithm at one place: the reduction data, and the minimal
    model curve_min with the transform urst from the input model to it.

    At odd residue characteristic a bad place with v(c4) = 0 on the model
    with denominators cleared is read off the invariants: it is minimal of
    type In with n = v(disc), and split iff -c6 is a square mod pi. Its
    curve_min and urst are built on first use, by the same walk that every
    other place takes at once. The properties past the model are the
    per-place constants of map_point and component_index, each computed on
    first use, so once per place. The component group Phi_v (components,
    #Phi(kbar), its law and the fibral table) is phi, a ComponentGroup read
    off (kodaira, n) on first use."""

    def __init__(self, prime: PrimeIdeal, kodaira: str, n: int, c: int,
                 split: bool | None, vdisc: int, vu: int,
                 branches: tuple = (), cleared: tuple | None = None):
        self.prime = prime
        self.kodaira = kodaira    # "I0", "I5", "II", ..., "I3*"
        self.n = n                # index for In / In*, else 0
        self.c = c                # Tamagawa number #Phi(k)
        self.split = split        # for multiplicative reduction
        self.vdisc = vdisc        # v(disc of minimal model)
        self.vu = vu              # v(u) of urst (>= 0 for integral input)
        # IV, IV*, I0*, In*: (coord, e, roots). A point at the singular point
        # of curve_min lies on the branch of its residue of coord/pi^e among
        # the sorted residue roots of the last equation of the algorithm
        self.branches = branches
        # read off the invariants: (model, urst) with denominators cleared,
        # where the walk to curve_min starts
        self.cleared = cleared

    @cached_property
    def _model(self) -> tuple:
        """(curve_min, urst), walked from the cleared model on first use."""
        ld = _walk(*self.cleared, self.prime)
        _check((ld.kodaira, ld.c, ld.split, ld.vdisc, ld.vu)
               == (self.kodaira, self.c, self.split, self.vdisc, self.vu),
               "the walk and the invariants give different local data",
               self.prime)
        return ld._model

    @property
    def curve_min(self) -> Curve:
        """The minimal model, singular point at (0,0) mod pi."""
        return self._model[0]

    @property
    def urst(self) -> tuple:
        """The transform input model -> curve_min."""
        return self._model[1]

    @property
    def f(self) -> int:
        # Ogg-Saito; 0 at I0, where vdisc = 0 and there is one component
        return self.vdisc - self.phi.ncomp + 1

    @cached_property
    def phi(self) -> ComponentGroup:
        return ComponentGroup(self.kodaira, self.n)

    @property
    def is_good(self) -> bool:
        return self.kodaira == "I0"

    @property
    def is_multiplicative(self) -> bool:
        return (self.kodaira[0] == "I" and self.kodaira[1:].isdigit()
                and self.kodaira != "I0")

    @cached_property
    def residue_field(self) -> ResidueField:
        return ResidueField(self.prime)

    @cached_property
    def uniformizer(self):
        return self.prime.uniformizer()

    @cached_property
    def _to_min(self) -> tuple:
        return coordinate_change(*self.urst)

    def map_point(self, P: Point, source: Curve) -> Point:
        """P, a point of source (the model this data was computed for), on
        curve_min = source.transform(*urst). The on-curve check runs here,
        once, on source: it raises ValueError if P is not a point of source.
        The image is then on curve_min, since the change of model gives
        F_min(x', y') = u^-6 F_source(x, y)."""
        source.check(P)
        return self._image(P)

    def _image(self, P: Point) -> Point:
        """map_point of P, already checked on the source model, without
        evaluating the equation of curve_min."""
        if P.is_zero():
            return self.curve_min.zero()
        return Point(self.curve_min, *map_coords(P.x, P.y, self._to_min))

    @cached_property
    def node(self) -> tuple:
        """(x0, y0, alpha, beta) for split In: the node of curve_min lifted
        to precision n + 4, and the tangent slopes there, lifted from the
        two residue roots in sorted order. At a critical point of F,
        a1 F_y - 2 F_x = 6x^2 + b2 x + b4, which has the simple residue root
        0 (b4 in pi, b2 a unit): x0 lifts it, and y0 solves F_y = 0, or
        F_x = 0 at ell = 2 where a1 is a unit."""
        E, pr, k = self.curve_min, self.prime, self.residue_field
        K, N = E.field, self.n + 4
        x0 = hensel_root([E.b4, E.b2, K(6)], pr, K.zero(), N)
        if pr.ell != 2:
            y0 = -(E.a1 * x0 + E.a3) / 2
        else:
            y0 = ((3 * x0 + 2 * E.a2) * x0 + E.a4) / E.a1
        # a6 of the model moved by (x0, y0) is -F(x0, y0)
        _check(pr.val(E.equation_value(x0, y0)) == self.n, "the lifted node is not on the model", pr)
        # tangent slopes: roots of T^2 + a1 T - a2 on the model moved by
        # (x0, y0), whose a1 is a1 and whose a2 is a2 + 3 x0
        quad = [-(E.a2 + 3 * x0), E.a1, K.one()]
        rts = _k_roots(k, quad)
        _check(len(rts) == 2, f"{len(rts)} tangent slope(s) at a split node", pr)
        alpha, beta = (hensel_root(quad, pr, k.lift(r), N) for r in rts)
        return x0, y0, alpha, beta


def _check(ok: bool, what: str, pr: PrimeIdeal) -> None:
    """Raise for a broken invariant of Tate's algorithm at pr."""
    if not ok:
        raise RuntimeError(f"Tate's algorithm at {pr}: {what}")


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
    if k.ell != 2:
        # complete the square: (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2b4 x + b6
        xs = _k_poly_gcd_roots(k, [E.b6, 2 * E.b4, E.b2, E.field(4)])
        _check(len(xs) == 1, f"{len(xs)} singular x-coordinate(s) on the reduction", k.prime)
        x0 = xs[0]
        inv2 = k.inv(k.from_int(2))
        y0 = k.neg(k.mul(inv2, k.add(k.mul(k.reduce(E.a1), x0), k.reduce(E.a3))))
        return x0, y0
    # characteristic 2: F_y = a1 x + a3 and F_x = a1 y + x^2 + a4 mod pi
    a1, a2, a3, a4, a6 = (k.reduce(a) for a in E.ainvs)
    if not k.is_zero(a1):
        x0 = k.mul(a3, k.inv(a1))
        return x0, k.mul(k.add(k.mul(x0, x0), a4), k.inv(a1))
    _check(k.is_zero(a3), "no singular point on the reduction", k.prime)
    # x -> x^(q/2) is the square root of the characteristic-2 field
    x0 = k.pow(a4, k.q // 2)
    y2 = k.add(k.mul(k.add(k.mul(k.add(x0, a2), x0), a4), x0), a6)
    return x0, k.pow(y2, k.q // 2)


def _multiplicative(n: int, split: bool) -> tuple:
    """(kodaira, n, c, split) of type In."""
    return f"I{n}", n, n if split else 2 - n % 2, split


def _clear(E: Curve, pr: PrimeIdeal) -> tuple:
    """(E', urst): E scaled by 1/pi until it is integral at pr, and the
    transform from E to E'."""
    K = E.field
    urst = (K.one(), K.zero(), K.zero(), K.zero())
    # (A + B sqrt(m))/D is integral at every prime above ell when ell does
    # not divide D
    if all(a.D % pr.ell for a in E.ainvs):
        return E, urst
    v = pr.val
    while any(v(a) < 0 for a in E.ainvs):
        step = (pr.uniformizer().inverse(), K.zero(), K.zero(), K.zero())
        E = E.transform(*step)
        urst = _compose_urst(urst, step)
    return E, urst


def tate_local_data(E_in: Curve, pr: PrimeIdeal) -> LocalData:
    """Local data of E_in at pr (see LocalData)."""
    E, urst = _clear(E_in, pr)
    v = pr.val
    # odd residue characteristic, v(c4) = 0 < v(disc): In with n = v(disc).
    # With the node at (0,0), c4 = b2^2 and c6 = -b2^3 mod pi, so this is the
    # walk's multiplicative branch, and -c6 is a square iff b2 is
    n = v(E.disc)
    if n and pr.ell != 2 and v(E.c4) == 0:
        k = ResidueField(pr)
        split = k.is_square(k.reduce(-E.c6))
        return LocalData(pr, *_multiplicative(n, split), n, v(urst[0]), cleared=(E, urst))
    return _walk(E, urst, pr)


def _walk(E: Curve, urst: tuple, pr: PrimeIdeal) -> LocalData:
    """Tate's algorithm from E, a model integral at pr that urst maps the
    input model to: move the singular point to (0,0) and read the type off
    the valuations, rescaling while the model is not minimal."""
    K = E.field
    k = ResidueField(pr)
    pi = pr.uniformizer()
    v = pr.val
    one = K.one()

    def apply(u, r, s, t):
        nonlocal E, urst
        step = (u, r, s, t)
        E = E.transform(*step)
        urst = _compose_urst(urst, step)

    def done(kodaira, n, c, split=None, branches=()):
        ld = LocalData(pr, kodaira, n, c, split,
                       v(E.disc), v(urst[0]), branches)
        ld._model = (E, urst)
        return ld

    while True:
        if v(E.disc) == 0:
            return done("I0", 0, 1)

        # move the singular point to (0,0)
        x0, y0 = _singular_point(E, k)
        apply(one, k.lift(x0), K.zero(), k.lift(y0))
        _check(v(E.a3) >= 1 and v(E.a4) >= 1 and v(E.a6) >= 1,
               "the singular point did not move to (0,0)", pr)

        if v(E.b2) == 0:
            # multiplicative: In with n = v(disc). Split iff the tangent
            # slopes, the roots of T^2 + a1 T - a2, lie in k; in odd
            # characteristic iff their discriminant b2 is a square
            if k.ell != 2:
                split = k.is_square(k.reduce(E.b2))
            else:
                split = len(_k_roots(k, [-E.a2, E.a1, one])) == 2
            return done(*_multiplicative(v(E.disc), split))

        if v(E.a6) < 2:
            return done("II", 0, 1)
        if v(E.b8) < 3:
            return done("III", 0, 2)
        if v(E.b6) < 3:
            rts = _k_roots(k, [-E.a6 / pi ** 2, E.a3 / pi, one])
            return done("IV", 0, 3 if len(rts) == 2 else 1, branches=("y", 1, rts))

        # normalize: v(a1) >= 1, v(a2) >= 1, v(a3) >= 2, v(a4) >= 2, v(a6) >= 3
        if k.ell != 2:
            s = k.lift(k.neg(k.mul(k.reduce(E.a1), k.inv(k.from_int(2)))))
            apply(one, K.zero(), s, K.zero())
            t1 = k.lift(k.neg(k.mul(k.reduce(E.a3 / pi), k.inv(k.from_int(2)))))
            apply(one, K.zero(), K.zero(), pi * t1)
        else:
            # x -> x^(q/2) is the square root of the characteristic-2 field
            s = k.lift(k.pow(k.reduce(E.a2), k.q // 2))
            apply(one, K.zero(), s, K.zero())
            t1 = k.lift(k.pow(k.reduce(E.a6 / pi ** 2), k.q // 2))
            apply(one, K.zero(), K.zero(), pi * t1)
        _check(v(E.a1) >= 1 and v(E.a2) >= 1 and v(E.a3) >= 2 and v(E.a4) >= 2 and v(E.a6) >= 3,
               "the model did not normalize for P(T)", pr)

        # P(T) = T^3 + a2/pi T^2 + a4/pi^2 T + a6/pi^3
        Pc = [E.a6 / pi ** 3, E.a4 / pi ** 2, E.a2 / pi, one]
        mult_roots = _k_poly_gcd_roots(k, Pc)
        if not mult_roots:
            rts = _k_roots(k, Pc)
            return done("I0*", 0, 1 + len(rts), branches=("x", 1, rts))

        r0 = mult_roots[0]
        # test triple root: P(T) = (T - r0)^3 iff P'' (r0) = 0 too
        a21 = k.reduce(E.a2 / pi)
        triple = k.is_zero(k.add(k.mul(k.from_int(3), r0), a21))
        apply(one, pi * k.lift(r0), K.zero(), K.zero())

        if not triple:
            # In* for n >= 1; alternate quadratics in Y and X at growing depth
            _check(v(E.a2) == 1 and v(E.a3) >= 2 and v(E.a4) >= 3 and v(E.a6) >= 4,
                   "the double root of P(T) did not move to 0", pr)
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
                    last = ("y", my) if n % 2 == 1 else ("x", mx)
                    return done(f"I{n}*", n, c, branches=(*last, rts))
                if n % 2 == 1:
                    apply(one, K.zero(), K.zero(), pi ** my * k.lift(dbl[0]))
                    my += 1
                else:
                    apply(one, pi ** mx * k.lift(dbl[0]), K.zero(), K.zero())
                    mx += 1
                n += 1
        # triple root path
        _check(v(E.a2) >= 2 and v(E.a3) >= 2 and v(E.a4) >= 3 and v(E.a6) >= 4,
               "the triple root of P(T) did not move to 0", pr)
        quad = [-E.a6 / pi ** 4, E.a3 / pi ** 2, one]
        rts = _k_roots(k, quad)
        dbl = _k_poly_gcd_roots(k, quad)
        if not dbl:
            return done("IV*", 0, 3 if len(rts) == 2 else 1, branches=("y", 2, rts))
        apply(one, K.zero(), K.zero(), pi ** 2 * k.lift(dbl[0]))
        _check(v(E.a3) >= 3 and v(E.a6) >= 5, "the double root of the IV* quadratic did not move to 0", pr)
        if v(E.a4) < 4:
            return done("III*", 0, 2)
        if v(E.a6) < 6:
            return done("II*", 0, 1)
        # non-minimal: scale down and restart
        apply(pi, K.zero(), K.zero(), K.zero())


# -- points on the special fiber ------------------------------------------


def e_entry(ld: LocalData, P: Point) -> int:
    """v(x') for P != O, a point of the input model, and x' its x on curve_min:
    x = u^2 x' + r gives v(x') = v(x - r) - 2v(u) for every transform urst,
    so P is not mapped. pairing.log_pairing reads it at each place of the
    curve's place table (and at the pole places): e_v(P) = -(1/2) min(v(x'), 0),
    and at a bad place P meets the singular point (0,0) iff v(x') >= 1, the
    only case where component_index of its image is nonzero."""
    return ld.prime.val(P.x - ld.urst[1]) - 2 * ld.vu


def _at_singular_point(ld: LocalData, Pm: Point) -> bool:
    """Whether Pm, a point of curve_min, reduces to the singular point (0,0)."""
    # a3, a4, a6 in pi: v(x) >= 1 puts y(y + a1 x + a3) in pi, so v(y) >= 1
    return ld.prime.val(Pm.x) >= 1


def component_index(ld: LocalData, Pm: Point) -> int:
    """Index of the component of the special fiber hit by Pm, a point of
    curve_min (see LocalData.map_point). It is 0 unless Pm meets the singular
    point, so pairing.log_pairing asks here only at the bad places of its
    place table where e_entry reads v(x') >= 1.

    For In the cycle of components is numbered 0..n-1 with a fixed
    orientation (smaller tangent slope first); the map to Z/n is a
    homomorphism. For additive types the labels match the fibral divisor
    tables: In*: 1 = near end, 2/3 = far ends; IV/IV*: 1/2 the two
    branches; III/III*: 1 the non-identity end; I0*: 1..3 the legs.
    """
    if Pm.is_zero() or ld.phi.order == 1 or not _at_singular_point(ld, Pm):
        return 0
    v = ld.prime.val
    k = ld.residue_field
    pi = ld.uniformizer
    t = ld.kodaira

    if ld.is_multiplicative:
        n = ld.n
        if not ld.split:
            assert n % 2 == 0, "no rational point on a swapped component"
            return n // 2
        x0, y0, alpha, beta = ld.node
        X = Pm.x - x0
        Y = Pm.y - y0
        la = v(Y - alpha * X)
        lb = v(Y - beta * X)
        j = la if la <= lb else n - lb
        assert 1 <= j <= n - 1
        return j

    if t in ("III", "III*"):
        return 1
    coord, e, rts = ld.branches
    first = 1
    if t not in ("IV", "IV*", "I0*"):
        # In*, n >= 1. curve_min is the model of the algorithm's last stage,
        # where the double root of P(T) = T^3 + a2/pi T^2 + ... is 0
        if not k.is_zero(k.reduce(Pm.x / pi)):
            return 1  # the near simple-root end
        first = 2
    w = k.reduce((Pm.y if coord == "y" else Pm.x) / pi ** e)
    assert w in rts
    return first + rts.index(w)
