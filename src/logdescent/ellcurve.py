"""Weierstrass models over Q or a quadratic field: group law, changes of
variable, division polynomials."""

from __future__ import annotations

import operator
from fractions import Fraction

from .ntheory import power
from .polyring import Poly
from .qfield import FieldElement, QuadField


class Curve:
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    __slots__ = ("field", "a1", "a2", "a3", "a4", "a6", "disc")

    def __init__(self, field: QuadField, a1, a2, a3, a4, a6):
        self.field = field
        self.a1 = field(a1) if not isinstance(a1, FieldElement) else a1
        self.a2 = field(a2) if not isinstance(a2, FieldElement) else a2
        self.a3 = field(a3) if not isinstance(a3, FieldElement) else a3
        self.a4 = field(a4) if not isinstance(a4, FieldElement) else a4
        self.a6 = field(a6) if not isinstance(a6, FieldElement) else a6
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        self.disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if not self.disc:
            raise ValueError("singular model")

    @property
    def ainvs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def b2(self):
        return self.a1 * self.a1 + 4 * self.a2

    @property
    def b4(self):
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self):
        return self.a3 * self.a3 + 4 * self.a6

    @property
    def b8(self):
        return (self.a1 * self.a1 * self.a6 + 4 * self.a2 * self.a6
                - self.a1 * self.a3 * self.a4 + self.a2 * self.a3 * self.a3
                - self.a4 * self.a4)

    @property
    def c4(self):
        return self.b2 * self.b2 - 24 * self.b4

    @property
    def c6(self):
        return -self.b2 ** 3 + 36 * self.b2 * self.b4 - 216 * self.b6

    def j_invariant(self):
        return self.c4 ** 3 / self.disc

    def __eq__(self, other):
        return isinstance(other, Curve) and self.field == other.field and self.ainvs == other.ainvs

    def __hash__(self):
        return hash(self.ainvs)

    def __repr__(self):
        return f"Curve[{', '.join(str(a) for a in self.ainvs)}] over disc {self.field.disc}"

    def equation_value(self, x, y):
        return (y * y + self.a1 * x * y + self.a3 * y
                - x ** 3 - self.a2 * x * x - self.a4 * x - self.a6)

    def is_on(self, x, y) -> bool:
        return not self.equation_value(x, y)

    def zero(self) -> "Point":
        return Point(self, None, None)

    def point(self, x, y) -> "Point":
        x = x if isinstance(x, FieldElement) else self.field(x)
        y = y if isinstance(y, FieldElement) else self.field(y)
        P = Point(self, x, y)
        self.check(P)
        return P

    def check(self, P: "Point") -> None:
        """Raise ValueError unless P is O or its coordinates satisfy this
        model."""
        if not P.is_zero() and not self.is_on(P.x, P.y):
            raise ValueError(f"({P.x}, {P.y}) is not on {self}")

    def base_change(self, field: QuadField) -> "Curve":
        """The same model read over a quadratic extension of Q."""
        if not self.field.is_rational or field.is_rational:
            raise ValueError(f"base change goes from Q to a quadratic field, not {self.field!r} to {field!r}")
        return Curve(field, *[field(a.a) for a in self.ainvs])

    def transform(self, u, r, s, t) -> "Curve":
        """Substitute x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""
        K = self.field
        u = u if isinstance(u, FieldElement) else K(u)
        r = r if isinstance(r, FieldElement) else K(r)
        s = s if isinstance(s, FieldElement) else K(s)
        t = t if isinstance(t, FieldElement) else K(t)
        a1, a2, a3, a4, a6 = self.ainvs
        na1 = a1 + 2 * s
        na2 = a2 - s * a1 + 3 * r - s * s
        na3 = a3 + r * a1 + 2 * t
        na4 = a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t
        na6 = a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1
        disc = self.disc
        if u.B or u.A != u.D:
            # u != 1: scale by u^-i, and disc' = u^-12 disc
            ui = u.inverse()
            ui2 = ui * ui
            ui3 = ui2 * ui
            ui6 = ui3 * ui3
            na1, na2, na3, na4, na6 = na1 * ui, na2 * ui2, na3 * ui3, na4 * ui2 * ui2, na6 * ui6
            disc = disc * ui6 * ui6
        E = object.__new__(Curve)
        E.field = K
        E.a1, E.a2, E.a3, E.a4, E.a6, E.disc = na1, na2, na3, na4, na6, disc
        return E

    def map_point(self, P: "Point", u, r, s, t) -> "Point":
        """Image of P on self.transform(u, r, s, t)."""
        E2 = self.transform(u, r, s, t)
        if P.is_zero():
            return E2.zero()
        K = self.field
        urst = (a if isinstance(a, FieldElement) else K(a) for a in (u, r, s, t))
        return E2.point(*map_coords(P.x, P.y, coordinate_change(*urst)))

    # -- division polynomials (x-only parts) -------------------------------

    def division_poly(self, n: int) -> Poly:
        """For odd n, the polynomial psi_n in x; for even n, psi_n divided
        by (2y + a1 x + a3)."""
        K = self.field
        x = Poly.x(K)
        B = Poly(K, [self.b6, 2 * self.b4, self.b2, 4])  # (2y+a1x+a3)^2
        cache: dict[int, Poly] = {
            0: Poly(K, []),
            1: Poly(K, [1]),
            2: Poly(K, [1]),
            3: (3 * x ** 4 + self.b2 * x ** 3 + 3 * self.b4 * x * x
                + 3 * self.b6 * x + Poly(K, [self.b8])),
            4: (2 * x ** 6 + self.b2 * x ** 5 + 5 * self.b4 * x ** 4
                + 10 * self.b6 * x ** 3 + 10 * Poly(K, [self.b8]) * x * x
                + (self.b2 * self.b8 - self.b4 * self.b6) * x
                + Poly(K, [self.b4 * self.b8 - self.b6 * self.b6])),
        }

        def f(k: int) -> Poly:
            if k in cache:
                return cache[k]
            m = k // 2
            if k % 2 == 1:
                a, b = f(m + 2) * f(m) ** 3, f(m - 1) * f(m + 1) ** 3
                if m % 2 == 0:
                    out = B * B * a - b
                else:
                    out = a - B * B * b
            else:
                out = f(m) * (f(m + 2) * f(m - 1) ** 2 - f(m - 2) * f(m + 1) ** 2)
            cache[k] = out
            return out

        return f(n)

    def kernel_polynomial(self, P: "Point", p: int) -> Poly:
        """prod (x - x(iP)) for i = 1..(p-1)/2, P of odd prime order p."""
        if p % 2 != 1:
            raise ValueError(f"kernel polynomial needs an odd prime, not {p}")
        out = Poly(self.field, [1])
        Q = P
        for _ in range((p - 1) // 2):
            if Q.is_zero():
                raise ValueError(f"{P} does not have order {p}")
            out = out * Poly(self.field, [-Q.x, 1])
            Q = Q + P
        return out


class Point:
    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: Curve, x, y):
        self.curve = curve
        self.x = x
        self.y = y

    def is_zero(self) -> bool:
        return self.x is None

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.curve == other.curve and self.x == other.x and self.y == other.y

    def __hash__(self):
        if self.is_zero():
            return hash((self.curve, None))
        return hash((self.curve, self.x, self.y))

    def __neg__(self):
        if self.is_zero():
            return self
        E = self.curve
        return Point(E, self.x, -self.y - E.a1 * self.x - E.a3)

    def __add__(self, other: "Point") -> "Point":
        E = self.curve
        if other.curve is not E and other.curve != E:
            raise ValueError(f"cannot add points of {E} and {other.curve}")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        if x1 == x2:
            if y2 == -y1 - E.a1 * x1 - E.a3:
                return E.zero()
            num = 3 * x1 * x1 + 2 * E.a2 * x1 + E.a4 - E.a1 * y1
            den = 2 * y1 + E.a1 * x1 + E.a3
            lam = num / den
        else:
            lam = (y2 - y1) / (x2 - x1)
        nu = y1 - lam * x1
        x3 = lam * lam + E.a1 * lam - E.a2 - x1 - x2
        y3 = -(lam + E.a1) * x3 - nu - E.a3
        return Point(E, x3, y3)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, n: int) -> "Point":
        if n < 0:
            return (-self) * (-n)
        return power(self, n, operator.add, self.curve.zero())

    __rmul__ = __mul__

    def order(self, bound: int = 100) -> int | None:
        Q = self
        for n in range(1, bound + 1):
            if Q.is_zero():
                return n
            Q = Q + self
        return None

    def __repr__(self):
        if self.is_zero():
            return "O"
        return f"({self.x} : {self.y})"


def coordinate_change(u: FieldElement, r: FieldElement, s: FieldElement,
                      t: FieldElement) -> tuple:
    """The constants (r, s u^2, t, u^-2, u^-3) with which map_coords applies
    the substitution x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""
    ui = u.inverse()
    ui2 = ui * ui
    return (r, s * u * u, t, ui2, ui2 * ui)


def map_coords(x: FieldElement, y: FieldElement, change: tuple) -> tuple:
    """(x', y') for the point (x, y) under a coordinate_change."""
    r, su2, t, ui2, ui3 = change
    nx = (x - r) * ui2
    return nx, (y - su2 * nx - t) * ui3


def curve_from_rational(field: QuadField, ainvs) -> Curve:
    return Curve(field, *[Fraction(a) for a in ainvs])
