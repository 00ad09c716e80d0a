"""Ideals, principality tests, class groups and S-units for quadratic fields.

Class groups are computed from a factor-base relation matrix put into Smith
normal form, then certified by exhaustively testing every nonzero candidate
class for principality (any principal survivor is fed back as a relation).
Relations are read off the integer norms of small elements u + v*omega.

Ideals and classes share one representation, binary quadratic forms (a, b, c)
of discriminant disc(K) (Cohen, GTM 138, sections 5.2-5.7). A ``LatticeIdeal``
is n*[a, (-b + sqrt(D))/2], a content n and a primitive form, and ideals
multiply by composing their forms.

Certification and discrete logs only need a yes or no, and decide it on
reduced forms: a class is principal iff its Gauss-reduced form has a = 1
(imaginary), or iff the rho-cycle of its reduced forms contains one with
|a| = 1 (real). Where a generator is needed, ``LatticeIdeal.is_principal`` is
the one routine, on integer forms: it reduces the form N(x*b1 + y*b2)/N(I) of
the ideal's HNF basis (b1, b2) while carrying the transform, by ``_lagrange``
(imaginary) or ``_rho_cycle`` (real), and the first column (u, v) of the
transform at a form with |a| = 1 gives the generator u*b1 + v*b2.

Real fields have one walk, ``_rho_cycle``: it rho-reduces an indefinite form
and walks one lap of its reduced cycle, carrying the transform from the entry
form. Its four consumers are ``_reduce``, ``_cycle`` (every reduced form of a
class), ``LatticeIdeal.is_principal`` and ``fundamental_unit`` (the first
unit other than +-1 met on the cycle of the unit ideal).

Limits: certification enumerates the claimed group, so its order may be at
most MAX_CERTIFIED_ORDER; the relation search gives up past the box bound
MAX_RELATION_BOUND. Both raise LimitError.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property

from .linalg import hnf, smith_normal_form
from .ntheory import power, primerange
from .qfield import (
    FieldElement,
    PrimeIdeal,
    QuadField,
    primes_above,
)

MAX_CERTIFIED_ORDER = 200000
MAX_RELATION_BOUND = 4096


class LimitError(RuntimeError):
    """A computation passed one of the documented desk-scale limits."""


class LatticeIdeal:
    """The integral ideal n*[a, (-b + sqrt(D))/2] of O_K: a content n and a
    primitive form (a, b, c) of discriminant D = disc(K), with a > 0.

    Products compose the forms (Cohen, GTM 138, 5.4). ``rows`` is the HNF
    basis of the lattice over (1, omega), which ``is_principal`` reads."""

    def __init__(self, field: QuadField, n: int, form: tuple[int, int, int]):
        self.field = field
        self.n = n
        self.form = form

    @classmethod
    def from_prime(cls, prime: PrimeIdeal) -> "LatticeIdeal":
        if prime.kind == "inert":
            return cls(prime.field, prime.ell, _principal_form(prime.field.disc))
        return cls(prime.field, 1, _prime_form(prime))

    @classmethod
    def unit_ideal(cls, field: QuadField) -> "LatticeIdeal":
        return cls(field, 1, _principal_form(field.disc))

    @cached_property
    def rows(self) -> list[list[int]]:
        n, (a, b, _) = self.n, self.form
        # (-b + sqrt(D))/2 = omega - (b + tr)/2
        return hnf([[n * a, 0], [-n * ((b + self.field.omega_trace) // 2), n]])

    def norm(self) -> int:
        return self.n * self.n * self.form[0]

    def __mul__(self, other: "LatticeIdeal") -> "LatticeIdeal":
        f = _compose(self.form, other.form, self.field.disc)
        # the product of the primitive parts is m*[a3, ...], a1*a2 = m^2*a3
        m = math.isqrt(self.form[0] * other.form[0] // f[0])
        return LatticeIdeal(self.field, self.n * other.n * m, f)

    def __pow__(self, n: int) -> "LatticeIdeal":
        if n < 0:
            raise ValueError("negative powers of a lattice ideal are not integral")
        return power(self, n, operator.mul, LatticeIdeal.unit_ideal(self.field))

    def conjugate(self) -> "LatticeIdeal":
        a, b, c = self.form
        return LatticeIdeal(self.field, self.n, (a, -b, c))

    def __repr__(self):
        K = self.field
        return f"<{K.from_omega(*self.rows[0])}, {K.from_omega(*self.rows[1])}>"

    def is_principal(self) -> tuple[bool, FieldElement | None]:
        """(True, g) with (g) = self, or (False, None). The form
        N(x*b1 + y*b2)/N(I) of the HNF basis is reduced while its transform
        is carried, and the first column (u, v) at the first form with
        |a| = 1 gives g = u*b1 + v*b2."""
        K = self.field
        if K.is_rational:
            raise ValueError("principality is trivial over Q")
        (x1, y1), (x2, y2) = self.rows
        tr, nm, n = K.omega_trace, K.omega_norm, self.norm()
        # N(x + y*omega) = x^2 + x*y*tr + y^2*nm, and Tr(b1*conj(b2))
        f = (x1 * x1 + x1 * y1 * tr + y1 * y1 * nm,
             2 * x1 * x2 + (x1 * y2 + x2 * y1) * tr + 2 * y1 * y2 * nm,
             x2 * x2 + x2 * y2 * tr + y2 * y2 * nm)
        if any(x % n for x in f):
            raise RuntimeError(f"the form of the ideal {self} is not integral")
        A, B, C = (x // n for x in f)
        D = B * B - 4 * A * C
        if D != K.disc:
            raise RuntimeError(f"the form of {self} has discriminant {D}, not {K.disc}")
        forms = [_lagrange((A, B, C))] if D < 0 else _rho_cycle((A, B, C), D)
        for (a, _, _), u, v in forms:
            if abs(a) == 1:
                return True, K.from_omega(u * x1 + v * x2, u * y1 + v * y2)
        return False, None


# -- binary quadratic forms ----------------------------------------------
#
# A form is a triple (a, b, c) with b^2 - 4ac = D, the discriminant of K.
# The prime p = [ell, omega - wbar] = [ell, (-b + sqrt(D))/2] has the form
# (ell, b, c) with b = 2*wbar - tr(omega), and ideal classes compose as the
# forms do. Forms are kept with a > 0, so real-field cycles are entered at a
# positive form.


def _prime_form(p: PrimeIdeal) -> tuple[int, int, int]:
    """The form (ell, 2*wbar - tr, N(omega - wbar)/ell) of a split or
    ramified prime."""
    K = p.field
    w, tr, nm = p.wbar, K.omega_trace, K.omega_norm
    return p.ell, 2 * w - tr, (w * w - tr * w + nm) // p.ell


def _principal_form(D: int) -> tuple[int, int, int]:
    """The unreduced form (1, D mod 2, (D mod 2 - D)/4), whose ideal
    [1, (-b + sqrt(D))/2] is O_K itself."""
    b = D % 2
    return 1, b, (b - D) // 4


def _unit_form(D: int) -> tuple[int, int, int]:
    """The reduced form of the principal class."""
    return _reduce(_principal_form(D), D)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with x*a + y*b = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -x0, -y0, -a
    return x0, y0, a


def _compose(f, g, D: int) -> tuple[int, int, int]:
    """Dirichlet composition of two forms with a > 0 (Cohen Def. 5.4.6),
    unreduced."""
    a1, b1, _ = f
    a2, b2, _ = g
    beta = (b1 + b2) // 2
    u1, v1, g1 = _xgcd(a1, a2)
    u2, w, n = _xgcd(g1, beta)
    a3 = a1 * a2 // (n * n)
    b3 = (u1 * u2 * a1 * b2 + v1 * u2 * a2 * b1 + w * ((b1 * b2 + D) // 2)) // n
    b3 %= 2 * a3
    c3, r = divmod(b3 * b3 - D, 4 * a3)
    if r:
        raise RuntimeError(f"composing {f} and {g} gave no form of discriminant {D}")
    return a3, b3, c3


def _rho_step(A: int, B: int, C: int, sq: int) -> tuple[int, int, int, int]:
    """One reduction step; returns (A', B', C', s) with the transform
    [[0,-1],[1,s]]."""
    ac = abs(C)
    base = (-B) % (2 * ac)
    if ac > sq:
        B1 = base if base <= ac else base - 2 * ac
    else:
        B1 = base + ((sq - base) // (2 * ac)) * (2 * ac)
    s = (B + B1) // (2 * C)
    D = B * B - 4 * A * C
    return C, B1, (B1 * B1 - D) // (4 * C), s


def _rho_cycle(f, D: int):
    """Rho-reduce the indefinite form f of discriminant D > 0, then walk one
    lap of its reduced cycle, ending at the entry form again. Yields (g, u, v)
    for each form g of the lap, where (u, v) is the first column of the
    transform from f to g: for f the form of the basis (b1, b2) of an ideal,
    u*b1 + v*b2 has norm a times the ideal's norm (Cohen, GTM 138, 5.6)."""
    a, b, c = f
    sq = math.isqrt(D)
    # (u, v) and (u1, v1) are the two columns of the transform; the step
    # [[0, -1], [1, s]] takes them to (u1, v1) and s*(u1, v1) - (u, v)
    u, v, u1, v1 = 1, 0, 0, 1
    # until reduced: |sqrt(D) - 2|a|| < b < sqrt(D), exact for nonsquare D
    while not (0 < b <= sq and b + 2 * abs(a) >= sq + 1 and 2 * abs(a) - b <= sq):
        a, b, c, s = _rho_step(a, b, c, sq)
        u, v, u1, v1 = u1, v1, s * u1 - u, s * v1 - v
    entry = (a, b, c)
    yield entry, u, v
    for _ in range(10 * D + 100):
        a, b, c, s = _rho_step(a, b, c, sq)
        u, v, u1, v1 = u1, v1, s * u1 - u, s * v1 - v
        yield (a, b, c), u, v
        if (a, b, c) == entry:
            return
    raise RuntimeError("reduction cycle failed to close")


def _lagrange(f):
    """Lagrange-reduce the positive definite form f = (a, b, c) of the basis
    (b1, b2): swap when c < a, else subtract t*b1 from b2 for t = round(b/2a),
    ties to even, until t = 0. Returns (g, u, v) for the reduced form g, with
    (u, v) the first column of the transform from f."""
    a, b, c = f
    # the columns (u, v) and (u1, v1) give b1 and b2 on the entry basis
    u, v, u1, v1 = 1, 0, 0, 1
    while True:
        if c < a:
            a, c, u, v, u1, v1 = c, a, u1, v1, u, v
        t, r = divmod(b + a, 2 * a)  # floor(b/2a + 1/2)
        if r == 0 and t & 1:
            t -= 1  # a tie, rounded to even
        if t == 0:
            return (a, b, c), u, v
        b, c = b - 2 * t * a, c - t * b + t * t * a
        u1, v1 = u1 - t * u, v1 - t * v


def _reduce(f, D: int) -> tuple[int, int, int]:
    """The reduced form of the class of f: Gauss reduction with |b| <= a <= c
    (imaginary), or a reduced form with a > 0 on the rho-cycle (real)."""
    a, b, c = f
    if D < 0:
        while True:
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            c = (r * r - D) // (4 * a)
            b = r
            if a > c:
                a, b, c = c, -b, a
                continue
            if a == c and b < 0:
                b = -b
            return a, b, c
    # the signs of a alternate along the cycle
    for g, _, _ in _rho_cycle(f, D):
        if g[0] > 0:
            return g


def _form_pow(f, e: int, D: int) -> tuple[int, int, int]:
    """The reduced form of the class of f^e; (a, -b, c) is the inverse class."""
    if e < 0:
        f, e = (f[0], -f[1], f[2]), -e
    # the first product is reduce(compose(unit, f)), as a real f's reduced
    # form depends on the form entered
    return power(f, e, lambda g, h: _reduce(_compose(g, h, D), D), _unit_form(D))


def _cycle(f, D: int) -> list[tuple[int, int, int]]:
    """The reduced forms of the ideal class of the reduced real form f: its
    rho-cycle, and the negation (-a, b, -c) of each. The negated cycle is
    the narrow class of f times that of an element of negative norm."""
    lap = [g for g, _, _ in _rho_cycle(f, D)][:-1]
    return lap + [(-a, b, -c) for a, b, c in lap]


def _principal_test(D: int):
    """The principality verdict on reduced forms of discriminant D."""
    if D < 0:
        return lambda f: f[0] == 1
    principal = set(_cycle(_unit_form(D), D))
    return principal.__contains__


def fundamental_unit(field: QuadField) -> FieldElement:
    """The fundamental unit > 1 of a real quadratic field.

    The generators u + v*omega that the rho-cycle of the unit ideal's form
    meets at forms with |a| = 1 are units. The first one other than +-1 is
    taken; if there is none, the unit that closes the cycle (norm +1). A
    unit (A + B*sqrt(m))/D other than +-1 is > 1 iff A > 0 and B > 0, so
    the result is (|A| + |B|*sqrt(m))/D.
    """
    if not (field.degree == 2 and field.is_real):
        raise ValueError("fundamental unit needs a real quadratic field")
    # the unit ideal has the basis (1, omega) and the form (1, tr, nm)
    entry = None
    for (a, _, _), u, v in _rho_cycle((1, field.omega_trace, field.omega_norm), field.disc):
        entry = entry or (u, v)
        if abs(a) == 1 and (v or abs(u) != 1):
            x = field.from_omega(u, v)
            break
    else:
        # the lap multiplied the entry basis by a unit of norm +1
        x = field.from_omega(u, v) / field.from_omega(*entry)
    eps = FieldElement(field, abs(x.A), abs(x.B), x.D)
    if abs(eps.norm()) != 1:
        raise RuntimeError(f"the fundamental unit {eps} has norm {eps.norm()}")
    return eps


# -- fractional ideals in factored form ----------------------------------


def _class_lattice(field: QuadField, pairs) -> tuple[LatticeIdeal, int]:
    """(I * conj(J), N(J)) for prod p^e = I/J over the (prime, exponent)
    pairs, I and J integral. Since J * conj(J) = (N(J)), the lattice lies
    in the class of prod p^e, and a generator g of it gives g / N(J) of
    prod p^e."""
    I = LatticeIdeal.unit_ideal(field)
    J = LatticeIdeal.unit_ideal(field)
    for p, e in pairs:
        if e > 0:
            I = I * LatticeIdeal.from_prime(p) ** e
        elif e < 0:
            J = J * LatticeIdeal.from_prime(p) ** (-e)
    return I * J.conjugate(), J.norm()


def ideal_generator(field: QuadField, powers: dict[PrimeIdeal, int]) -> FieldElement | None:
    """A generator of prod p^e over the map powers, or None if that ideal is
    not principal."""
    L, n = _class_lattice(field, powers.items())
    ok, g = L.is_principal()
    if not ok:
        return None
    gen = g / n
    if any(p.val(gen) != e for p, e in powers.items()):
        raise RuntimeError("an ideal generator has the wrong valuations")
    return gen


# -- finite abelian group presentations ----------------------------------


class Cokernel:
    """Z^n modulo the subgroup generated by given relation vectors."""

    def __init__(self, ngens: int, relations: list[list[int]]):
        self._present(ngens, relations)

    def _present(self, ngens: int, relations: list[list[int]], with_v: bool = False):
        """Put the matrix whose columns are the relations into Smith form
        U*A*V. Keeps U, its inverse and the divisors; returns V if asked
        for (None otherwise)."""
        self.ngens = ngens
        if not relations:
            relations = [[0] * ngens]
        A = [[rel[i] for rel in relations] for i in range(ngens)]  # columns = relations
        self.U, self.Uinv, S, V = smith_normal_form(A, with_v)
        divisors = []
        for i in range(ngens):
            d = S[i][i] if i < len(S[0]) and i < len(S) else 0
            divisors.append(abs(d))
        self.divisors = divisors  # 0 means a free Z factor
        return V

    @property
    def order(self) -> int:
        out = 1
        for d in self.divisors:
            if d == 0:
                return 0  # infinite
            out *= d
        return out

    def coords(self, x: list[int]) -> tuple[int, ...]:
        z = [sum(self.U[i][j] * x[j] for j in range(self.ngens)) for i in range(self.ngens)]
        return tuple(
            z[i] % self.divisors[i] if self.divisors[i] else z[i] for i in range(self.ngens)
        )

    def nontrivial_indices(self) -> list[int]:
        return [i for i, d in enumerate(self.divisors) if d != 1]

    def element_vector(self, coords) -> list[int]:
        """A Z^n vector with the given quotient coordinates."""
        return [
            sum(self.Uinv[j][i] * coords[i] for i in range(self.ngens))
            for j in range(self.ngens)
        ]

    def p_torsion_coords(self, p: int) -> list[tuple[int, ...]]:
        """Coordinate tuples of a basis of the p-torsion subgroup."""
        out = []
        for i, d in enumerate(self.divisors):
            if d and d % p == 0:
                c = [0] * self.ngens
                c[i] = d // p
                out.append(tuple(c))
        return out

    def mod_p_dim(self, p: int) -> int:
        return sum(1 for d in self.divisors if d == 0 or d % p == 0)

    def p_torsion_dim(self, p: int) -> int:
        return sum(1 for d in self.divisors if d and d % p == 0)


# -- class groups ---------------------------------------------------------


class ClassGroup:
    """The ideal class group, with discrete logs against a fixed factor base."""

    def __init__(self, field: QuadField, factor_base: list[PrimeIdeal], coker: Cokernel):
        self.field = field
        self.factor_base = factor_base
        self.coker = coker
        self._prime_dlog_cache: dict[PrimeIdeal, tuple[int, ...]] = {}
        for i, p in enumerate(factor_base):
            e = [0] * len(factor_base)
            e[i] = 1
            self._prime_dlog_cache[p] = coker.coords(e)

    @property
    def order(self) -> int:
        return self.coker.order

    @property
    def divisors(self) -> list[int]:
        return [d for d in self.coker.divisors if d != 1]

    def identity(self) -> tuple[int, ...]:
        return tuple([0] * self.coker.ngens)

    def _ideal_from_fb_vector(self, vec: list[int]) -> LatticeIdeal:
        """An integral ideal in the class of the factor-base vector."""
        return _class_lattice(self.field, zip(self.factor_base, vec))[0]

    def _vector_form(self, vec: list[int]) -> tuple[int, int, int]:
        """The reduced form of the class of the factor-base vector."""
        D = self.field.disc
        f = _unit_form(D)
        for p, e in zip(self.factor_base, vec):
            if e:
                f = _reduce(_compose(f, _form_pow(_prime_form(p), e, D), D), D)
        return f

    def class_forms(self):
        """(coordinates, reduced form) of every element of the presented
        group, in lexicographic order of the coordinates on the nontrivial
        factors, by one composition per element."""
        coker = self.coker
        D = self.field.disc
        idx = coker.nontrivial_indices()
        gens = []
        for i in idx:
            e = [0] * coker.ngens
            e[i] = 1
            gens.append(self._vector_form(coker.element_vector(e)))
        coords = [0] * coker.ngens

        def walk(k, f):
            if k == len(idx):
                yield tuple(coords), f
                return
            i = idx[k]
            for c in range(coker.divisors[i]):
                coords[i] = c
                yield from walk(k + 1, f)
                if c + 1 < coker.divisors[i]:
                    f = _reduce(_compose(f, gens[k], D), D)
            coords[i] = 0

        yield from walk(0, _unit_form(D))

    @cached_property
    def _form_table(self) -> dict[tuple[int, int, int], tuple[int, ...]]:
        """Coordinates of the class of each reduced form (every form of each
        cycle for real fields)."""
        table = {}
        for coords, f in self.class_forms():
            for g in ([f] if self.field.disc < 0 else _cycle(f, self.field.disc)):
                table[g] = coords
        return table

    def dlog_prime(self, prime: PrimeIdeal) -> tuple[int, ...]:
        if prime in self._prime_dlog_cache:
            return self._prime_dlog_cache[prime]
        if prime.kind in ("inert", "rational"):
            out = self.identity()
        else:
            out = self._form_table.get(_reduce(_prime_form(prime), self.field.disc))
            if out is None:
                raise RuntimeError("discrete log failed; class group data inconsistent")
        self._prime_dlog_cache[prime] = out
        return out


_CLASS_GROUP_CACHE: dict[int, ClassGroup] = {}


def class_group(field: QuadField) -> ClassGroup:
    """Certified class group of a quadratic field (trivial for Q)."""
    cg = _CLASS_GROUP_CACHE.get(field.disc)
    if cg is None:
        cg = _CLASS_GROUP_CACHE[field.disc] = _certified_class_group(field)
    return cg


def _certified_class_group(field: QuadField) -> ClassGroup:
    disc = field.disc
    fb: list[PrimeIdeal] = []
    # (ell, index in fb of the first prime above ell, its wbar if ell splits)
    fb_ells: list[tuple[int, int, int | None]] = []
    # over Q, where primes_above would still give a factor base, fb stays empty
    if not field.is_rational:
        if disc < 0:
            mink = math.isqrt(4 * abs(disc)) // 3 + 2  # >= 2*sqrt(|d|)/pi
        else:
            mink = math.isqrt(disc) // 2 + 2
        for ell in primerange(2, mink + 1):
            prs = primes_above(field, ell)
            if prs[0].kind == "inert":
                continue
            fb_ells.append((ell, len(fb), prs[0].wbar if prs[0].kind == "split" else None))
            fb.extend(prs)
    if not fb:
        return ClassGroup(field, [], Cokernel(0, []))

    # (ell) = p^2 or p*conj(p)
    relations: list[list[int]] = []
    for ell, i, w in fb_ells:
        vec = [0] * len(fb)
        if w is None:
            vec[i] = 2
        else:
            vec[i] = vec[i + 1] = 1
        relations.append(vec)

    tr, nm = field.omega_trace, field.omega_norm
    fb_prod = math.prod(ell for ell, _, _ in fb_ells)

    def relation(u: int, v: int, n: int) -> list[int]:
        """The factor-base vector of (u + v*omega), of norm +-n smooth over
        the factor base and gcd(u, v) = 1. For split ell, gcd(u, v) = 1
        keeps (ell) = p*conj(p) from dividing u + v*omega, so only one of
        the two divides it: p = (ell, omega - wbar) iff u + v*wbar = 0 mod
        ell."""
        vec = [0] * len(fb)
        for ell, i, w in fb_ells:
            k = 0
            while n % ell == 0:
                n //= ell
                k += 1
            if k:
                vec[i if w is None or (u + v * w) % ell == 0 else i + 1] = k
            if n == 1:
                break
        return vec

    bound = 12
    prev_sig = None
    stable = 0
    while True:
        for u in range(-bound, bound + 1):
            for v in range(1, bound + 1):
                n = abs(u * u + u * v * tr + v * v * nm)
                # smooth iff n divides a power of the factor-base primes
                if pow(fb_prod, n.bit_length(), n) == 0 and math.gcd(u, v) == 1:
                    relations.append(relation(u, v, n))
        coker = Cokernel(len(fb), relations)
        sig = tuple(coker.divisors)
        if coker.order != 0 and sig == prev_sig:
            stable += 1
        else:
            stable = 0
        prev_sig = sig
        if coker.order != 0 and (stable >= 1 or bound >= 96):
            cg = ClassGroup(field, fb, coker)
            extra = _certify(cg)
            if extra is None:
                return cg
            relations.append(extra)
            stable = 0
            continue
        bound *= 2
        if bound > MAX_RELATION_BOUND:
            raise LimitError(f"class group relation search for disc {disc} passed "
                             f"the box bound {MAX_RELATION_BOUND}")


def _certify(cg: ClassGroup) -> list[int] | None:
    """Check no nonzero claimed class is principal; returns a missing
    relation (factor-base vector) if one is found."""
    if cg.order > MAX_CERTIFIED_ORDER:
        raise LimitError(f"class group order {cg.order} is past the certification "
                         f"limit {MAX_CERTIFIED_ORDER}")
    principal = _principal_test(cg.field.disc)
    for coords, f in cg.class_forms():
        if any(coords) and principal(f):
            return cg.coker.element_vector(list(coords))
    return None


# -- S-units and the field Selmer group ----------------------------------


class FieldSelmerBasis:
    """A basis of H^1(U, mu_p) = {x in K*/(K*)^p : div(x) = 0 mod p off S}.

    unit_gens come from O_{K,S}^* (including the fundamental unit for real
    fields); class_gens realize the p-torsion of Cl(O_{K,S}).
    """

    def __init__(self, field, S, p, unit_gens, class_gens):
        self.field = field
        self.S = list(S)
        self.p = p
        self.unit_gens = unit_gens
        self.class_gens = class_gens

    @property
    def gens(self) -> list[FieldElement]:
        return self.unit_gens + self.class_gens

    @property
    def dim(self) -> int:
        return len(self.unit_gens) + len(self.class_gens)

    def element(self, vec) -> FieldElement:
        """The product of the generators raised to the exponents in vec."""
        x = self.field(1)
        for e, g in zip(vec, self.gens):
            x = x * g ** e
        return x


class SClassGroup(Cokernel):
    """The S-class map Z^S -> Cl(K), v -> [v], from one Smith form.

    As a Cokernel this is Cl(O_{K,S}) presented on the class group's
    generators, with relations d_i e_i first and then [v] for v in S. The
    same Smith form gives the kernel of the map, ``unit_lattice`` (the
    exponent vectors of S-units, in HNF), and preimages (``s_combination``).
    It keeps cg and S, from which its users read K and S.
    """

    def __init__(self, cg: ClassGroup, S: list[PrimeIdeal]):
        self.cg = cg
        self.S = list(S)
        n = cg.coker.ngens
        rels = [[d if i == j else 0 for j in range(n)] for i, d in enumerate(cg.coker.divisors)]
        rels += [list(cg.dlog_prime(pr)) for pr in S]
        V = self._present(n, rels, with_v=True)
        # Cl(K) is finite, so the relation matrix has rank n: the first n
        # columns of V solve the system and the others span its kernel.
        # Only the rows of V that belong to S are kept.
        VS = V[n:] if n else [[int(i == j) for j in range(len(S))] for i in range(len(S))]
        self._lift = [row[:n] for row in VS]
        self.unit_lattice = hnf([list(col) for col in zip(*(row[n:] for row in VS))])
        if len(self.unit_lattice) != len(S):
            raise RuntimeError("the S-unit lattice does not have full rank")

    def s_combination(self, target: list[int]) -> list[int]:
        """The least non-negative a in Z^S, in lexicographic order, with
        sum over S of a_v [v] = target in Cl(K) (class group coordinates)."""
        z = [sum(u * t for u, t in zip(row, target)) for row in self.U]
        if any(zi % d for zi, d in zip(z, self.divisors)):
            raise RuntimeError("no S-combination for the requested class")
        y = [zi // d for zi, d in zip(z, self.divisors)]
        a = [sum(v * c for v, c in zip(row, y)) for row in self._lift]
        # the solutions are a + unit_lattice, whose HNF row i has its pivot
        # in column i: reduce a_i into [0, pivot) row by row
        for i, row in enumerate(self.unit_lattice):
            q = a[i] // row[i]
            a = [x - q * r for x, r in zip(a, row)]
        return a

    def torsion_lifts(self, p: int):
        """For each basis vector c of Cl(O_{K,S})[p], yields the factor-base
        vector of an ideal I_c in the class c and S-exponents a such that
        I_c^p * prod over S of v^(a_v) is principal."""
        for coords in self.p_torsion_coords(p):
            Ic_vec = self.element_vector(list(coords))  # class group coordinates of I_c
            yield (self.cg.coker.element_vector(Ic_vec),
                   self.s_combination([-p * c for c in Ic_vec]))


def s_class_group(cg: ClassGroup, S: list[PrimeIdeal]) -> SClassGroup:
    """The S-class map of cg for the places S, from one new Smith form."""
    return SClassGroup(cg, S)


def theta_image_dim(cg: ClassGroup, S: list[PrimeIdeal], p: int) -> int:
    """t = dim_Fp of the image of theta: (Z/p)^S -> Cl(K)/p, sum n_v * v
    mapped to its class. The cokernel of theta is Cl(O_{K,S})/p."""
    return cg.coker.mod_p_dim(p) - s_class_group(cg, S).mod_p_dim(p)


def s_unit_lattice(cg: ClassGroup, S: list[PrimeIdeal]) -> list[list[int]]:
    """Basis of {n in Z^S : prod v^n_v is principal}, in HNF."""
    return s_class_group(cg, S).unit_lattice


def field_selmer_basis(scl: SClassGroup, p: int) -> FieldSelmerBasis:
    """Basis of H^1(U, mu_p) for U = Spec O_K minus S, p odd, where K and S
    are those of the S-class map scl: its kernel gives the S-units and the
    lifts of Cl(O_{K,S})[p] the class generators."""
    if p == 2 or p % 2 == 0:
        raise ValueError("p must be odd")
    cg, S = scl.cg, scl.S
    field = cg.field
    unit_gens: list[FieldElement] = []
    if field.is_rational:
        for pr in S:
            unit_gens.append(field(pr.ell))
        return FieldSelmerBasis(field, S, p, unit_gens, [])
    if field.is_real:
        unit_gens.append(fundamental_unit(field))
    if field.mu_p_dim(p):
        # zeta_3 for Q(sqrt(-3))
        unit_gens.append(field(Fraction(-1, 2), Fraction(1, 2)))
    for vec in scl.unit_lattice:
        gen = ideal_generator(field, {pr: e for pr, e in zip(S, vec) if e})
        if gen is None:
            raise RuntimeError("an S-unit lattice vector is not principal")
        unit_gens.append(gen)
    class_gens: list[FieldElement] = []
    for gvec, a in scl.torsion_lifts(p):
        L, n = _class_lattice(field, zip(S, a))
        ok, gen = (cg._ideal_from_fb_vector(gvec) ** p * L).is_principal()
        if not ok:
            raise RuntimeError("a lift of Cl(O_{K,S})[p] is not principal")
        class_gens.append(gen / n)
    return FieldSelmerBasis(field, S, p, unit_gens, class_gens)
