"""Dense univariate polynomials with coefficients in a quadratic field.

Coefficients are stored constant-first. Everything is exact; resultants use
the Euclidean remainder sequence over the fraction field.
"""

from __future__ import annotations

from fractions import Fraction

from .qfield import FieldElement, QuadField


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: QuadField, coeffs):
        cs = [c if isinstance(c, FieldElement) else field(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = cs

    @classmethod
    def x(cls, field: QuadField) -> "Poly":
        return cls(field, [0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> FieldElement:
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> FieldElement:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero()

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.disc, tuple(self.coeffs)))

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, [self[i] + other[i] for i in range(n)])

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, [self[i] - other[i] for i in range(n)])

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return Poly(self.field, [c * other for c in self.coeffs])
        out = [self.field.zero()] * (len(self.coeffs) + len(other.coeffs) - 1) if self and other else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    __rmul__ = __mul__
    __radd__ = __add__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        return Poly(self.field, [other])

    def __pow__(self, n: int) -> "Poly":
        r = Poly(self.field, [1])
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError
        q = Poly(self.field, [])
        r = self
        dlead = other.lc().inverse()
        while not r.is_zero() and r.degree >= other.degree:
            shift = r.degree - other.degree
            c = r.lc() * dlead
            t = Poly(self.field, [0] * shift + [c])
            q = q + t
            r = r - t * other
        return q, r

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self * self.lc().inverse()

    def derivative(self) -> "Poly":
        return Poly(self.field, [i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        if not isinstance(x, FieldElement):
            x = self.field(x)
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"({c})*x^{i}" if i else f"({c})")
        return " + ".join(parts)


def gcd(f: Poly, g: Poly) -> Poly:
    while not g.is_zero():
        f, g = g, f % g
    return f.monic() if not f.is_zero() else f


def resultant(f: Poly, g: Poly) -> FieldElement:
    """res(f, g) via the Euclidean remainder sequence."""
    K = f.field
    if f.is_zero() or g.is_zero():
        return K.zero()
    sign = 1
    acc = K.one()
    while True:
        if g.degree == 0:
            return acc * g.lc() ** f.degree * sign
        r = f % g
        if r.is_zero():
            return K.zero()
        acc = acc * g.lc() ** (f.degree - r.degree)
        if (f.degree * g.degree) % 2 == 1:
            sign = -sign
        f, g = g, r


def interpolate(field: QuadField, points: list[tuple]) -> Poly:
    """Lagrange interpolation through (x_i, y_i) pairs."""
    pts = [(x if isinstance(x, FieldElement) else field(x), y) for x, y in points]
    out = Poly(field, [])
    for i, (xi, yi) in enumerate(pts):
        num = Poly(field, [yi])
        den = field.one()
        for j, (xj, _) in enumerate(pts):
            if j == i:
                continue
            num = num * Poly(field, [-xj, 1])
            den = den * (xi - xj)
        out = out + num * den.inverse()
    return out
