"""Exact arithmetic in Q and quadratic fields Q(sqrt(D)).

Elements are (A + B*sqrt(m))/D with m the squarefree radicand and integers
A, B, D, D > 0, gcd(A, B, D) = 1: each operation is integer arithmetic and one
gcd (Cohen, GTM 138, 4.2). The rational coordinates a, b are read-only views.
Primes are represented explicitly with their splitting data. A valuation is
exact and needs no lifting: the ell-content of an element and one residue
test decide it (Cohen, GTM 138, 5.1). One reduction, reduce_mod, takes every
element integral at a prime to a representative mod a power of it, whatever
its denominators away from that prime; the residue maps and the inverses mod
a prime power read off it.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .ntheory import factorint, isprime, kronecker, power, sqrt_mod

INF = 10 ** 9  # valuation of zero


def _squarefree_part(r) -> tuple[int, Fraction]:
    """r = s^2 * m for a nonzero rational r, with m a squarefree integer and
    s > 0 rational; returns (m, s)."""
    r = Fraction(r)
    exps = factorint(abs(r.numerator))
    for q, e in factorint(r.denominator).items():
        exps[q] = -e
    m, s = (-1 if r < 0 else 1), Fraction(1)
    for q, e in exps.items():
        m *= q ** (e % 2)
        s *= Fraction(q) ** (e // 2)
    return m, s


class QuadField:
    """Q or a quadratic field, determined by a fundamental discriminant."""

    def __init__(self, disc: int | None):
        if disc is None:
            # the rational field
            self.disc = 1
            self.radicand = 1
            self.degree = 1
            self.omega_trace = 0
            self.omega_norm = 0
            return
        self.degree = 2
        self.disc = disc
        self.radicand = disc if disc % 4 == 1 else disc // 4
        if self.disc % 4 == 1:
            self.omega_trace = 1
            self.omega_norm = (1 - self.radicand) // 4
        else:
            self.omega_trace = 0
            self.omega_norm = -self.radicand

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    @property
    def is_real(self) -> bool:
        return self.disc > 0

    @property
    def is_imaginary(self) -> bool:
        return self.degree == 2 and self.disc < 0

    def __call__(self, a, b=0) -> "FieldElement":
        if type(a) is int and type(b) is int:
            return FieldElement(self, a, b)
        a, b = Fraction(a), Fraction(b)
        D = math.lcm(a.denominator, b.denominator)
        return FieldElement(self, a.numerator * (D // a.denominator),
                            b.numerator * (D // b.denominator), D)

    def from_omega(self, A: int, B: int, den: int = 1) -> "FieldElement":
        """(A + B*omega)/den for integers A, B, den."""
        if self.disc % 4 == 1:
            return FieldElement(self, 2 * A + B, B, 2 * den)
        return FieldElement(self, A, B, den)

    def sqrt_gen(self) -> "FieldElement":
        return FieldElement(self, 0, 1)

    def omega(self) -> "FieldElement":
        return self.from_omega(0, 1)

    def zero(self):
        return self(0)

    def one(self):
        return self(1)

    def infinite_places(self) -> int:
        if self.is_rational:
            return 1
        return 2 if self.disc > 0 else 1

    def mu_p_dim(self, p: int) -> int:
        """dim_Fp of the p-th roots of unity inside K, p odd."""
        return 1 if (p == 3 and self.disc == -3) else 0

    def __eq__(self, other):
        return isinstance(other, QuadField) and self.disc == other.disc

    def __hash__(self):
        return hash(("QuadField", self.disc))

    def __repr__(self):
        if self.is_rational:
            return "Q"
        return f"Q(sqrt({self.radicand}))"


def make_field(D: int | None) -> QuadField:
    """Build Q (D=None) or Q(sqrt(D)); D may be a squarefree radicand or a
    fundamental discriminant."""
    if D is None:
        return QuadField(None)
    if D in (0, 1):
        raise ValueError(f"invalid field radicand {D}")
    m, s = _squarefree_part(D)
    if s == 1:
        disc = D if D % 4 == 1 else 4 * D
        return QuadField(disc)
    if s == 2 and D % 4 == 0 and m % 4 in (2, 3):
        return QuadField(D)  # already a fundamental discriminant
    raise ValueError(f"{D} is neither squarefree nor a fundamental discriminant")


class FieldElement:
    """(A + B*sqrt(m))/D for integers A, B, D with D > 0 and gcd(A, B, D) = 1."""

    __slots__ = ("field", "A", "B", "D")

    def __init__(self, field: QuadField, A: int, B: int = 0, D: int = 1):
        if B and field.degree == 1:
            raise ValueError("rational field has no irrational part")
        if D <= 0:
            if not D:
                raise ZeroDivisionError("zero denominator")
            A, B, D = -A, -B, -D
        g = math.gcd(A, B, D)
        if g != 1:
            A, B, D = A // g, B // g, D // g
        self.field = field
        self.A, self.B, self.D = A, B, D

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.D)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.D)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("element of a different field")
            return other
        if isinstance(other, int):
            return FieldElement(self.field, other)
        if isinstance(other, Fraction):
            return FieldElement(self.field, other.numerator, 0, other.denominator)
        return NotImplemented

    # An int operand n skips _coerce: A + n*D and A - n*D keep gcd(., B, D) =
    # gcd(A, B, D) = 1, so sums need no gcd; n*(A, B)/D goes through one.

    def __add__(self, other):
        o = other
        if type(o) is not FieldElement or o.field is not self.field:
            if type(o) is int:
                return _reduced(self.field, self.A + o * self.D, self.B, self.D)
            o = self._coerce(other)
            if o is NotImplemented:
                return NotImplemented
        return _normalized(self.field, self.A * o.D + o.A * self.D,
                           self.B * o.D + o.B * self.D, self.D * o.D)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, -self.A, -self.B, self.D)

    def __sub__(self, other):
        o = other
        if type(o) is not FieldElement or o.field is not self.field:
            if type(o) is int:
                return _reduced(self.field, self.A - o * self.D, self.B, self.D)
            o = self._coerce(other)
            if o is NotImplemented:
                return NotImplemented
        return _normalized(self.field, self.A * o.D - o.A * self.D,
                           self.B * o.D - o.B * self.D, self.D * o.D)

    def __rsub__(self, other):
        if type(other) is int:
            return _reduced(self.field, other * self.D - self.A, -self.B, self.D)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other
        if type(o) is not FieldElement or o.field is not self.field:
            if type(o) is int:
                return _normalized(self.field, o * self.A, o * self.B, self.D)
            o = self._coerce(other)
            if o is NotImplemented:
                return NotImplemented
        return _normalized(self.field, self.A * o.A + self.B * o.B * self.field.radicand,
                           self.A * o.B + self.B * o.A, self.D * o.D)

    __rmul__ = __mul__

    def conj(self) -> "FieldElement":
        return FieldElement(self.field, self.A, -self.B, self.D)

    def norm(self) -> Fraction:
        return Fraction(self.A * self.A - self.B * self.B * self.field.radicand, self.D * self.D)

    def trace(self) -> Fraction:
        return Fraction(2 * self.A, self.D)

    def inverse(self) -> "FieldElement":
        n = self.A * self.A - self.B * self.B * self.field.radicand
        if n == 0:
            raise ZeroDivisionError("zero element")
        return FieldElement(self.field, self.A * self.D, -self.B * self.D, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # x/y = x * D_y * conj(A_y + B_y*sqrt(m)) / (A_y^2 - m*B_y^2)
        n = o.A * o.A - o.B * o.B * self.field.radicand
        if n == 0:
            raise ZeroDivisionError("zero element")
        return FieldElement(self.field, (self.A * o.A - self.B * o.B * self.field.radicand) * o.D,
                            (self.B * o.A - self.A * o.B) * o.D, self.D * n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, operator.mul, FieldElement(self.field, 1))

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except ValueError:
            return NotImplemented
        if o is NotImplemented:
            return NotImplemented
        return self.A == o.A and self.B == o.B and self.D == o.D

    def __hash__(self):
        return hash((self.field.disc, self.A, self.B, self.D))

    def __bool__(self):
        return self.A != 0 or self.B != 0

    def omega_coords(self) -> tuple[Fraction, Fraction]:
        """Coordinates over the integral basis (1, omega)."""
        if self.field.disc % 4 == 1:
            return Fraction(self.A - self.B, self.D), Fraction(2 * self.B, self.D)
        return self.a, self.b

    def integer_coords(self) -> tuple[int, int, int]:
        """(A, B, den) with self = (A + B*omega)/den, gcd(A, B, den) = 1."""
        if self.field.disc % 4 != 1 or not self.B:
            return self.A, self.B, self.D
        # sqrt(m) = 2*omega - 1
        A, B, D = self.A - self.B, 2 * self.B, self.D
        g = math.gcd(A, B, D)
        return A // g, B // g, D // g

    def __repr__(self):
        return format_element(self)


def _reduced(field: QuadField, A: int, B: int, D: int) -> FieldElement:
    """(A + B*sqrt(m))/D already in lowest terms, with D > 0 and B = 0 over Q."""
    x = object.__new__(FieldElement)
    x.field = field
    x.A, x.B, x.D = A, B, D
    return x


def _normalized(field: QuadField, A: int, B: int, D: int) -> FieldElement:
    """(A + B*sqrt(m))/D for D > 0, with B = 0 over Q: the checks of
    FieldElement.__init__ hold by construction, and only the gcd is left."""
    x = object.__new__(FieldElement)
    g = math.gcd(A, B, D)
    if g != 1:
        A, B, D = A // g, B // g, D // g
    x.field = field
    x.A, x.B, x.D = A, B, D
    return x


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def sqrt_element(x: FieldElement) -> FieldElement | None:
    """An exact square root of x in its own field, or None."""
    K = x.field
    m = K.radicand
    if x.b == 0:
        r = _fraction_sqrt(x.a)
        if r is not None:
            return K(r)
        if not K.is_rational:
            r = _fraction_sqrt(x.a / m)
            if r is not None:
                return K(0, r)
        return None
    # (a + b sqrt(m))^2 = x: a^2 + m b^2 = x.a, 2ab = x.b
    d = _fraction_sqrt(x.a * x.a - m * x.b * x.b)
    if d is None:
        return None
    for sign in (1, -1):
        a2 = (x.a + sign * d) / 2
        a = _fraction_sqrt(a2)
        if a and a != 0:
            b = x.b / (2 * a)
            cand = K(a, b)
            if cand * cand == x:
                return cand
    return None


def format_element(x: FieldElement) -> str:
    # str(Fraction) is 'n' or 'n/d'
    if x.b == 0:
        return str(x.a)
    m = x.field.radicand
    if x.b == 1:
        s = f"sqrt({m})"
    elif x.b == -1:
        s = f"-sqrt({m})"
    else:
        s = f"{x.b}*sqrt({m})"
    if x.a == 0:
        return s
    sign = "+" if x.b > 0 else ""
    return f"{x.a}{sign}{s}"


# an unsigned coefficient b only with no rational part before it, so that
# 'a' and 'b' are never juxtaposed, as in 3/41/2*sqrt(2)
_ELT_RE = re.compile(
    r"^(?P<a>[+-]?\d+(?:/\d+)?)?"
    r"(?P<bpart>(?P<b>[+-](?:\d+(?:/\d+)?)?|(?<![\d/])(?:\d+(?:/\d+)?)?)\*?sqrt\((?P<m>-?\d+)\))?$"
)


def parse_element(field: QuadField, s: str) -> FieldElement:
    """Parse 'a', 'a+b*sqrt(m)', 'b*sqrt(m)' with rational a, b."""
    t = "".join(s.split())
    mobj = _ELT_RE.match(t)
    if not mobj or (mobj.group("a") is None and mobj.group("bpart") is None):
        raise ValueError(f"cannot parse field element {s!r}")
    araw, braw = mobj.group("a"), mobj.group("b")
    a = Fraction(araw) if araw else Fraction(0)
    b = Fraction(0)
    if mobj.group("bpart"):
        m = int(mobj.group("m"))
        if field.is_rational or m != field.radicand:
            raise ValueError(f"radicand mismatch in {s!r} for {field!r}")
        if braw in ("", "+"):
            b = Fraction(1)
        elif braw == "-":
            b = Fraction(-1)
        else:
            b = Fraction(braw)
    return field(a, b)


@dataclass(frozen=True)
class PrimeIdeal:
    """A maximal ideal of O_K (or a rational prime for K = Q).

    kind: 'rational' | 'split' | 'inert' | 'ramified'; wbar is the image of
    omega in the residue field for f = 1 kinds (split primes carry one root
    each, distinguishing the conjugate pair).
    """

    field: QuadField
    ell: int
    kind: str
    wbar: int  # root of the omega minimal polynomial mod ell (f=1); 0 for inert

    @property
    def e(self) -> int:
        return 2 if self.kind == "ramified" else 1

    @property
    def f(self) -> int:
        return 2 if self.kind == "inert" else 1

    def norm(self) -> int:
        return self.ell ** self.f

    def second_gen(self) -> FieldElement:
        K = self.field
        if self.kind == "rational":
            return K(self.ell)
        if self.kind == "inert":
            return K(self.ell)
        return K.omega() - self.wbar

    def conjugate(self) -> "PrimeIdeal":
        if self.kind != "split":
            return self
        # the other root of x^2 - tr*x + nm mod ell
        other = (self.field.omega_trace - self.wbar) % self.ell
        return PrimeIdeal(self.field, self.ell, "split", other)

    def uniformizer(self) -> FieldElement:
        K = self.field
        if self.kind in ("rational", "inert"):
            return K(self.ell)
        if self.kind == "ramified":
            m = K.radicand
            if self.ell == 2 and m % 4 == 3:
                return K(1, 1)  # 1 + sqrt(m)
            return K.sqrt_gen()  # sqrt(m), valuation 1 since m squarefree
        g = self.second_gen()
        if self.val(g) == 1:
            return g
        return g + self.ell

    # -- valuations ------------------------------------------------------

    def omega_root_mod(self, N: int) -> int:
        """Root of the minimal polynomial of omega mod ell^N lifting wbar
        (split primes only)."""
        if self.kind != "split":
            raise ValueError(f"omega_root_mod needs a split prime, not {self.kind} {self}")
        tr, nm = self.field.omega_trace, self.field.omega_norm
        ell = self.ell
        W, prec = self.wbar, 1
        while prec < N:
            prec = min(2 * prec, N)
            mod = ell ** prec
            fW = (W * W - tr * W + nm) % mod
            dW = (2 * W - tr) % mod
            W = (W - fW * pow(dW, -1, mod)) % mod
        return W % ell ** N

    def val(self, x: FieldElement) -> int:
        """The normalized valuation of x (INF for x = 0), with no lifting.
        Write x = ell^g (A + B*omega)/den with ell not dividing both A and B.
        Then A + B*omega is prime to ell, so it lies in at most one prime
        above ell: in this one iff A + B*wbar = 0 mod ell (never at an inert
        prime), and there it carries all of v_ell of its norm."""
        if not x:
            return INF
        if self.kind == "rational" and x.field != self.field:
            raise ValueError("field mismatch")
        ell = self.ell
        if not x.B:
            # rational A/D: e * (v_ell(A) - v_ell(D)) at every prime above ell
            return (_int_val(x.A, ell) - _int_val(x.D, ell)) * self.e
        A, B, den = x.integer_coords()
        g = _int_val(math.gcd(A, B), ell)
        if g:
            A, B = A // ell ** g, B // ell ** g
        v = (g - _int_val(den, ell)) * self.e
        if self.kind == "inert" or (A + B * self.wbar) % ell:
            return v
        tr, nm = self.field.omega_trace, self.field.omega_norm
        return v + _int_val(A * A + A * B * tr + B * B * nm, ell)

    def label(self) -> str:
        if self.kind in ("rational", "inert"):
            return f"({self.ell})"
        return f"({self.ell},{format_element(self.second_gen())})"

    def sort_key(self):
        return (self.ell, {"rational": 0, "inert": 0, "ramified": 1, "split": 2}[self.kind], self.wbar)

    def __repr__(self):
        return self.label()


def _int_val(n: int, ell: int) -> int:
    if n == 0:
        return INF
    v = 0
    n = abs(n)
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def primes_above(field: QuadField, ell: int) -> list[PrimeIdeal]:
    """The primes of K above the rational prime ell, deterministic order."""
    if not isprime(ell):
        raise ValueError(f"{ell} is not prime")
    if field.is_rational:
        return [PrimeIdeal(field, ell, "rational", 0)]
    sym = kronecker(field.disc, ell)
    tr, nm = field.omega_trace, field.omega_norm
    if sym == -1:
        return [PrimeIdeal(field, ell, "inert", 0)]
    if ell == 2:
        roots = sorted(r for r in range(2) if (r * r - tr * r + nm) % 2 == 0)
    else:
        s = sqrt_mod(tr * tr - 4 * nm, ell)
        inv2 = pow(2, -1, ell)
        roots = sorted({(tr + s) * inv2 % ell, (tr - s) * inv2 % ell})
    if sym == 0:
        return [PrimeIdeal(field, ell, "ramified", roots[0])]
    if len(roots) != 2:
        raise RuntimeError(f"split prime {ell} gave {len(roots)} root(s)")
    return [PrimeIdeal(field, ell, "split", r) for r in roots]


def prime_divisors(field: QuadField, x: FieldElement) -> dict[PrimeIdeal, int]:
    """Factor the principal fractional ideal (x) into primes."""
    if not x:
        raise ValueError("cannot factor the zero ideal")
    # x = (A + B sqrt(m))/D: every prime of x divides N(A + B sqrt(m)) or D.
    # The reduced norm N(x) is not enough, since the valuations of p and
    # conj(p) may cancel in it, as for (2 + i)/(2 - i).
    n = x.A * x.A - x.B * x.B * field.radicand
    out: dict[PrimeIdeal, int] = {}
    for ell in sorted(set(factorint(abs(n))) | set(factorint(x.D))):
        for pr in primes_above(field, ell):
            v = pr.val(x)
            if v:
                out[pr] = v
    return out


# -- residue fields ------------------------------------------------------


class ResidueField:
    """The residue field at a prime; elements are ints (f=1) or pairs (f=2)
    in the basis (1, omega-bar)."""

    def __init__(self, prime: PrimeIdeal):
        self.prime = prime
        self.ell = prime.ell
        self.f = prime.f
        self.q = prime.norm()
        K = prime.field
        self.tr = K.omega_trace % self.ell if not K.is_rational else 0
        self.nm = K.omega_norm % self.ell if not K.is_rational else 0
        self._zetas: dict[int, object] = {}

    # elements: int in [0, ell) if f == 1 else tuple (a, b)

    def zero(self):
        return 0 if self.f == 1 else (0, 0)

    def one(self):
        return 1 if self.f == 1 else (1, 0)

    def from_int(self, n: int):
        return n % self.ell if self.f == 1 else (n % self.ell, 0)

    def is_zero(self, x) -> bool:
        return x == self.zero()

    def add(self, x, y):
        if self.f == 1:
            return (x + y) % self.ell
        return ((x[0] + y[0]) % self.ell, (x[1] + y[1]) % self.ell)

    def neg(self, x):
        if self.f == 1:
            return (-x) % self.ell
        return ((-x[0]) % self.ell, (-x[1]) % self.ell)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        if self.f == 1:
            return (x * y) % self.ell
        # (a+bw)(c+dw) with w^2 = tr*w - nm
        a, b = x
        c, d = y
        bd = b * d
        return ((a * c - bd * self.nm) % self.ell, (a * d + b * c + bd * self.tr) % self.ell)

    def pow(self, x, n: int):
        if self.f == 1:
            return pow(x, n, self.ell) if n >= 0 else pow(self.inv(x), -n, self.ell)
        if n < 0:
            return self.pow(self.inv(x), -n)
        return power(x, n, self.mul, self.one())

    def inv(self, x):
        if self.is_zero(x):
            raise ZeroDivisionError
        if self.f == 1:
            return pow(x, -1, self.ell)
        a, b = x
        ninv = pow(self._norm(x), -1, self.ell)
        return (((a + b * self.tr) * ninv) % self.ell, ((-b) * ninv) % self.ell)

    def _norm(self, x) -> int:
        """The norm to F_ell of x = a + b*w (f = 2): conj(w) = tr - w, so
        N = a^2 + a b tr + b^2 nm."""
        a, b = x
        return (a * a + a * b * self.tr + b * b * self.nm) % self.ell

    def is_square(self, x) -> bool:
        """Whether x (zero included) is a square: Euler's criterion, applied
        to the norm to F_ell when f = 2 (the norm maps F_q* onto F_ell*)."""
        if self.ell == 2:
            return True
        n = x if self.f == 1 else self._norm(x)
        return pow(n, (self.ell - 1) // 2, self.ell) != self.ell - 1

    def elements(self):
        if self.f == 1:
            return list(range(self.ell))
        return [(a, b) for a in range(self.ell) for b in range(self.ell)]

    def reduce(self, x: FieldElement):
        """The residue of x, read off its representative reduce_mod(x, prime,
        1); ValueError when x is not integral at the prime."""
        A, B, _ = reduce_mod(x, self.prime, 1).integer_coords()
        if self.f == 2:
            return (A, B)
        return (A + B * self.prime.wbar) % self.ell

    def lift(self, xbar) -> FieldElement:
        """Any integral element reducing to xbar."""
        K = self.prime.field
        if self.f == 1:
            return K(xbar)
        return K.from_omega(*xbar)

    def zeta(self, p: int):
        """A generator of mu_p for p | q - 1: the first g^((q-1)/p) != 1 with
        g running through the nonzero elements in elements() order, walked
        lazily."""
        if p not in self._zetas:
            ell = self.ell
            gs = range(1, ell) if self.f == 1 else itertools.product(range(ell), repeat=2)
            for g in gs:
                if self.is_zero(g):
                    continue
                z = self.pow(g, (self.q - 1) // p)
                if z != self.one():
                    self._zetas[p] = z
                    break
            else:
                raise RuntimeError("no p-th root of unity in a field with p | q-1")
        return self._zetas[p]

    def mu_p_log(self, x: FieldElement, p: int) -> int:
        """The j in [0, p) with zeta(p)^j = xbar^((q-1)/p), for a unit x."""
        y = self.pow(self.reduce(x), (self.q - 1) // p)
        zeta = self.zeta(p)
        acc = self.one()
        for j in range(p):
            if acc == y:
                return j
            acc = self.mul(acc, zeta)
        raise RuntimeError("value not in mu_p of the residue field")

    # -- polynomial roots over the residue field ----------------------------

    def roots(self, coeffs: list) -> list:
        """The distinct roots in the residue field, sorted, of the poly with
        the given coefficients (constant first, elements of this field).

        Degree 1 is -c0/c1. At ell = 2, where q <= 4, the field is scanned.
        At odd ell, every higher degree is split by Cantor-Zassenhaus. Sorted
        order is elements() order."""
        cs = list(coeffs)
        while cs and self.is_zero(cs[-1]):
            cs.pop()
        if len(cs) <= 1:
            return []
        if len(cs) == 2:
            return [self.mul(self.neg(cs[0]), self.inv(cs[1]))]
        if self.ell == 2:
            return [x for x in self.elements() if self.is_zero(self._eval(cs, x))]
        return self._cantor_zassenhaus(cs)

    def _eval(self, cs, x):
        acc = self.zero()
        for c in reversed(cs):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def _cantor_zassenhaus(self, cs) -> list:
        """The sorted distinct roots at odd ell: h = gcd(x^q - x, f) is the
        product of the linear factors, split by gcd((x + a)^((q-1)/2) - 1, h)
        for random a (Cohen, GTM 138, 3.4)."""
        import random

        lead_inv = self.inv(cs[-1])
        f = [self.mul(c, lead_inv) for c in cs]
        xq = self._poly_powmod([self.zero(), self.one()], self.q, f)
        g = self._poly_gcd(self._poly_sub(xq, [self.zero(), self.one()]), f)
        rng = random.Random(self.q)
        out = []
        stack = [g]
        while stack:
            h = stack.pop()
            h = self._poly_monic(h)
            if len(h) <= 1:
                continue
            if len(h) == 2:
                out.append(self.neg(h[0]))
                continue
            while True:
                a = self.from_int(rng.randrange(self.q)) if self.f == 1 else (
                    rng.randrange(self.ell), rng.randrange(self.ell))
                t = self._poly_powmod([a, self.one()], (self.q - 1) // 2, h)
                t = self._poly_sub(t, [self.one()])
                d = self._poly_gcd(t, h)
                if 1 < len(d) < len(h):
                    stack.append(d)
                    stack.append(self._poly_divmod(h, d)[0])
                    break
        return sorted(out)

    def _poly_sub(self, u, v):
        n = max(len(u), len(v))
        u = u + [self.zero()] * (n - len(u))
        v = v + [self.zero()] * (n - len(v))
        w = [self.sub(a, b) for a, b in zip(u, v)]
        while w and self.is_zero(w[-1]):
            w.pop()
        return w

    def _poly_monic(self, u):
        if not u:
            return u
        inv = self.inv(u[-1])
        return [self.mul(c, inv) for c in u]

    def _poly_divmod(self, u, v):
        """(quotient, remainder) of u by the monic multiple of v."""
        v = self._poly_monic(v)
        u = list(u)
        q = [self.zero()] * (len(u) - len(v) + 1)
        while len(u) >= len(v):
            top = u.pop()
            if self.is_zero(top):
                continue
            off = len(u) - (len(v) - 1)
            q[off] = top
            for i in range(len(v) - 1):
                u[off + i] = self.sub(u[off + i], self.mul(top, v[i]))
        while u and self.is_zero(u[-1]):
            u.pop()
        return q, u

    def _poly_gcd(self, u, v):
        while v:
            u, v = v, self._poly_divmod(u, v)[1]
        return u

    def _poly_powmod(self, base, n, f):
        """base^n modulo the monic f."""
        def mulmod(u, v):
            return self._poly_divmod(self._mul_plain(u, v), f)[1]

        return power(self._poly_divmod(base, f)[1], n, mulmod, [self.one()])

    def _mul_plain(self, u, v):
        if not u or not v:
            return []
        prod = [self.zero()] * (len(u) + len(v) - 1)
        for i, ui in enumerate(u):
            if self.is_zero(ui):
                continue
            for j, vj in enumerate(v):
                prod[i + j] = self.add(prod[i + j], self.mul(ui, vj))
        return prod


# -- exact Hensel lifting against a prime --------------------------------


def reduce_mod(x: FieldElement, prime: PrimeIdeal, N: int) -> FieldElement:
    """A representative y in O_K of x modulo prime^N: v(x - y) >= N.

    x may have any denominator as long as it is integral at prime; otherwise
    ValueError. The test reads the integral-basis coordinates (A + B*omega)/den,
    gcd(A, B, den) = 1. When ell does not divide den, they are reduced mod
    ell^N, which refines prime^N. When ell^k exactly divides den, k > 0, x is
    integral only at a split prime, whose completion is Z_ell: there omega goes
    to its root mod ell^(N+k), and ell^k is divided out of the image.
    The inverse of a unit at prime mod prime^N is reduce_mod(x.inverse(),
    prime, N): it is integral at prime even when the conjugate prime divides
    x, so that ell divides its denominator.
    """
    A, B, den = x.integer_coords()
    ell = prime.ell
    k = _int_val(den, ell)
    if k:
        # at a non-split prime ell^k would have to divide A and B
        if prime.kind != "split":
            raise ValueError(f"element not integral at {prime}")
        lk = ell ** k
        A = (A + B * prime.omega_root_mod(N + k)) % (lk * ell ** N)
        if A % lk:
            raise ValueError(f"element not integral at {prime}")
        A, B, den = A // lk, 0, den // lk
    mod = ell ** N
    dinv = pow(den % mod, -1, mod)
    return prime.field.from_omega((A * dinv) % mod, (B * dinv) % mod)


def hensel_root(coeffs: list[FieldElement], prime: PrimeIdeal, root0: FieldElement, N: int) -> FieldElement:
    """Lift a simple residue root root0 of the polynomial (coefficients
    constant-first, integral at prime) to a root modulo prime^N, by Newton
    steps that invert the derivative exactly and reduce the inverse."""

    def ev(cs, x):
        acc = x.field.zero()
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
    x = root0
    if prime.val(ev(coeffs, x)) < 1 or prime.val(ev(dcoeffs, x)) != 0:
        raise ValueError(f"{root0} is not a simple root modulo {prime}")
    prec = 1
    while prec < N:
        prec = min(2 * prec, N)
        inv = reduce_mod(ev(dcoeffs, x).inverse(), prime, prec)
        x = x - ev(coeffs, x) * inv
        coefN = (prec + prime.e - 1) // prime.e + 1
        x = reduce_mod(x, prime, coefN)
    if prime.val(ev(coeffs, x)) < N:
        raise RuntimeError(f"Hensel lift at {prime} fell short of precision {N}")
    return x
