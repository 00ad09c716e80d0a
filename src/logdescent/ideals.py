"""Ideals, principality tests, class groups and S-units for quadratic fields.

Class groups are computed from a factor-base relation matrix put into Smith
normal form, then certified by exhaustively testing every nonzero candidate
class for principality (any principal survivor is fed back as a relation).
Principality itself is decided by lattice reduction (imaginary) or by the
reduction cycle of the associated indefinite form (real).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import hnf, smith_normal_form
from .qfield import (
    FieldElement,
    PrimeIdeal,
    QuadField,
    prime_divisors,
    primes_above,
)


class LatticeIdeal:
    """A fractional ideal as a Z-lattice: rows over the basis (1, omega),
    divided by den."""

    def __init__(self, field: QuadField, rows: list[list[int]], den: int = 1):
        self.field = field
        rows = hnf([list(r) for r in rows])
        if len(rows) != 2:
            raise ValueError("ideal lattice must have rank 2")
        g = math.gcd(math.gcd(rows[0][0], rows[1][0]), math.gcd(rows[0][1], rows[1][1]))
        g = math.gcd(g, den) if den else g
        if g > 1:
            rows = [[x // g for x in r] for r in rows]
            den //= g
        self.rows = rows
        self.den = den

    @classmethod
    def from_elements(cls, field: QuadField, gens: list[FieldElement]) -> "LatticeIdeal":
        coords = []
        dens = []
        for g in gens:
            for h in (g, g * field.omega()):
                A, B = h.omega_coords()
                coords.append((A, B))
                dens.append(math.lcm(A.denominator, B.denominator))
        den = math.lcm(*dens) if dens else 1
        rows = [[int(A * den), int(B * den)] for A, B in coords]
        return cls(field, rows, den)

    @classmethod
    def from_prime(cls, prime: PrimeIdeal) -> "LatticeIdeal":
        K = prime.field
        return cls.from_elements(K, [K(prime.ell), prime.second_gen()])

    @classmethod
    def unit_ideal(cls, field: QuadField) -> "LatticeIdeal":
        return cls.from_elements(field, [field(1)])

    def basis_elements(self) -> tuple[FieldElement, FieldElement]:
        K = self.field
        w = K.omega()
        b1 = (K(self.rows[0][0]) + K(self.rows[0][1]) * w) / self.den
        b2 = (K(self.rows[1][0]) + K(self.rows[1][1]) * w) / self.den
        return b1, b2

    def norm(self) -> Fraction:
        det = abs(self.rows[0][0] * self.rows[1][1] - self.rows[0][1] * self.rows[1][0])
        return Fraction(det, self.den * self.den)

    def __mul__(self, other: "LatticeIdeal") -> "LatticeIdeal":
        b1, b2 = self.basis_elements()
        c1, c2 = other.basis_elements()
        return LatticeIdeal.from_elements(self.field, [b1 * c1, b1 * c2, b2 * c1, b2 * c2])

    def __pow__(self, n: int) -> "LatticeIdeal":
        if n < 0:
            raise ValueError("use FracIdeal for negative powers")
        r = LatticeIdeal.unit_ideal(self.field)
        base = self
        while n:
            if n & 1:
                r = r * base
            base = base * base
            n >>= 1
        return r

    def conjugate(self) -> "LatticeIdeal":
        b1, b2 = self.basis_elements()
        return LatticeIdeal.from_elements(self.field, [b1.conj(), b2.conj()])

    def key(self):
        return (tuple(self.rows[0]), tuple(self.rows[1]), self.den)

    def __eq__(self, other):
        return isinstance(other, LatticeIdeal) and self.field == other.field and self.key() == other.key()

    def __hash__(self):
        return hash((self.field.disc,) + self.key())

    def __repr__(self):
        b1, b2 = self.basis_elements()
        return f"<{b1}, {b2}>"

    # -- principality ------------------------------------------------------

    def is_principal(self) -> tuple[bool, FieldElement | None]:
        K = self.field
        if K.is_rational:
            raise ValueError("principality is trivial over Q")
        if K.is_imaginary:
            return self._principal_imaginary()
        return self._principal_real()

    def _principal_imaginary(self):
        b1, b2 = self.basis_elements()

        def N(x):
            return x.norm()

        def B(x, y):
            return (x * y.conj() + y * x.conj()).a / 2

        # Lagrange reduction of the rank-2 lattice under the norm form
        while True:
            if N(b2) < N(b1):
                b1, b2 = b2, b1
            t = B(b1, b2) / N(b1)
            ti = round(t)
            if ti == 0:
                break
            b2 = b2 - ti * b1
        if N(b1) == self.norm():
            return True, b1
        return False, None

    def _principal_real(self):
        found = _real_cycle_search(self)
        if found is None:
            return False, None
        return True, found


def _form_of_ideal(I: LatticeIdeal) -> tuple[int, int, int, FieldElement, FieldElement]:
    """Integral binary form N(x*b1 + y*b2)/N(I) of discriminant disc(K)."""
    b1, b2 = I.basis_elements()
    n = I.norm()
    A = b1.norm() / n
    B = (b1 * b2.conj() + b2 * b1.conj()).a / n
    C = b2.norm() / n
    assert A.denominator == B.denominator == C.denominator == 1
    return int(A), int(B), int(C), b1, b2


def _is_reduced_indef(A: int, B: int, C: int, sq: int) -> bool:
    # |sqrt(D) - 2|A|| < B < sqrt(D), exact for nonsquare D
    return 0 < B <= sq and B + 2 * abs(A) >= sq + 1 and 2 * abs(A) - B <= sq


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


def _mat_mul(m1, m2):
    return [
        [m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0], m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]],
        [m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0], m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]],
    ]


def _real_cycle_search(I: LatticeIdeal, collect_units: bool = False):
    """Walk the reduced cycle of the form of I. Returns a generator element
    if |A| = 1 is hit (principal), else None. With collect_units, returns the
    list of units found along the principal cycle."""
    A, B, C, b1, b2 = _form_of_ideal(I)
    D = B * B - 4 * A * C
    assert D == I.field.disc
    sq = math.isqrt(D)
    M = [[1, 0], [0, 1]]
    while not _is_reduced_indef(A, B, C, sq):
        A, B, C, s = _rho_step(A, B, C, sq)
        M = _mat_mul(M, [[0, -1], [1, s]])
    start = (A, B, C)
    units = []

    def candidate():
        u, v = M[0][0], M[1][0]
        return u * b1 + v * b2

    steps = 0
    while True:
        if abs(A) == 1:
            x = candidate()
            if collect_units:
                if not (x.b == 0 and abs(x.a) == 1):
                    units.append(x)
            else:
                return x
        A, B, C, s = _rho_step(A, B, C, sq)
        M = _mat_mul(M, [[0, -1], [1, s]])
        steps += 1
        if (A, B, C) == start:
            break
        if steps > 10 * D + 100:
            raise RuntimeError("reduction cycle failed to close")
    return units if collect_units else None


# -- real embedding comparisons ------------------------------------------


def real_sign(x: FieldElement) -> int:
    """Sign of x under the embedding sqrt(m) > 0."""
    if not x:
        return 0
    a, b = x.a, x.b
    m = x.field.radicand
    if b == 0:
        return 1 if a > 0 else -1
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    big_a = a * a > b * b * m
    if big_a:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


def real_greater(x: FieldElement, y: FieldElement) -> bool:
    return real_sign(x - y) > 0


def fundamental_unit(field: QuadField) -> FieldElement:
    """The fundamental unit > 1 of a real quadratic field."""
    if not (field.degree == 2 and field.is_real):
        raise ValueError("fundamental unit needs a real quadratic field")
    units = _real_cycle_search(LatticeIdeal.unit_ideal(field), collect_units=True)
    if not units:
        raise RuntimeError("no unit found on the principal cycle")
    normalized = []
    for u in units:
        cands = [u, -u, u.inverse(), -u.inverse()]
        big = [c for c in cands if real_greater(c, c.field(1))]
        normalized.extend(big)
    best = normalized[0]
    for c in normalized[1:]:
        if real_greater(best, c):
            best = c
    assert abs(best.norm()) == 1
    return best


# -- fractional ideals in factored form ----------------------------------


class FracIdeal:
    """Fractional ideal as a finite product of prime powers."""

    def __init__(self, field: QuadField, powers: dict[PrimeIdeal, int] | None = None):
        self.field = field
        self.powers = {p: e for p, e in (powers or {}).items() if e != 0}

    @classmethod
    def principal(cls, x: FieldElement) -> "FracIdeal":
        return cls(x.field, prime_divisors(x.field, x))

    def numerator_lattice(self) -> LatticeIdeal:
        I = LatticeIdeal.unit_ideal(self.field)
        for p, e in self.powers.items():
            if e > 0:
                I = I * LatticeIdeal.from_prime(p) ** e
        return I

    def denominator_lattice(self) -> LatticeIdeal:
        I = LatticeIdeal.unit_ideal(self.field)
        for p, e in self.powers.items():
            if e < 0:
                I = I * LatticeIdeal.from_prime(p) ** (-e)
        return I

    def is_principal(self) -> tuple[bool, FieldElement | None]:
        """Principality, with an exact generator on success."""
        if self.field.is_rational:
            g = Fraction(1)
            for p, e in self.powers.items():
                g *= Fraction(p.ell) ** e
            return True, self.field(g)
        num = self.numerator_lattice()
        den = self.denominator_lattice()
        test = num * den.conjugate()
        ok, g = test.is_principal()
        if not ok:
            return False, None
        gen = g / den.norm()
        # sanity: valuations must match exactly
        for p, e in self.powers.items():
            assert p.val(gen) == e
        return True, gen

    def sorted_items(self):
        return sorted(self.powers.items(), key=lambda kv: kv[0].sort_key())

    def __repr__(self):
        if not self.powers:
            return "(1)"
        return " * ".join(f"{p}^{e}" if e != 1 else f"{p}" for p, e in self.sorted_items())


# -- finite abelian group presentations ----------------------------------


class Cokernel:
    """Z^n modulo the subgroup generated by given relation vectors."""

    def __init__(self, ngens: int, relations: list[list[int]]):
        self._present(ngens, relations)

    def _present(self, ngens: int, relations: list[list[int]]) -> list[list[int]]:
        """Put the matrix whose columns are the relations into Smith form
        U*A*V. Keeps U, its inverse and the divisors; returns V."""
        self.ngens = ngens
        if not relations:
            relations = [[0] * ngens]
        A = [[rel[i] for rel in relations] for i in range(ngens)]  # columns = relations
        U, S, V = smith_normal_form(A)
        self.U = U
        self.Uinv = _int_matrix_inverse(U)
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

    def all_elements(self):
        """Exponent coordinate tuples of every element (finite groups only)."""
        idx = self.nontrivial_indices()
        if not idx:
            yield tuple([0] * self.ngens)
            return
        ranges = [range(self.divisors[i]) for i in idx]
        import itertools

        for combo in itertools.product(*ranges):
            full = [0] * self.ngens
            for i, c in zip(idx, combo):
                full[i] = c
            yield tuple(full)

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


def _int_matrix_inverse(U: list[list[int]]) -> list[list[int]]:
    n = len(U)
    aug = [[Fraction(U[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    out = [[aug[i][n + j] for j in range(n)] for i in range(n)]
    assert all(x.denominator == 1 for row in out for x in row)
    return [[int(x) for x in row] for row in out]


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
        I = LatticeIdeal.unit_ideal(self.field)
        J = LatticeIdeal.unit_ideal(self.field)
        for p, e in zip(self.factor_base, vec):
            if e > 0:
                I = I * LatticeIdeal.from_prime(p) ** e
            elif e < 0:
                J = J * LatticeIdeal.from_prime(p) ** (-e)
        # the class of I/J equals that of I * conj(J)
        return I * J.conjugate()

    def dlog_prime(self, prime: PrimeIdeal) -> tuple[int, ...]:
        if prime in self._prime_dlog_cache:
            return self._prime_dlog_cache[prime]
        out = self._dlog_lattice(LatticeIdeal.from_prime(prime))
        self._prime_dlog_cache[prime] = out
        return out

    def _dlog_lattice(self, I: LatticeIdeal) -> tuple[int, ...]:
        for coords in self.coker.all_elements():
            vec = self.coker.element_vector(list(coords))
            test = I * self._ideal_from_fb_vector([-v for v in vec])
            if test.is_principal()[0]:
                return tuple(coords)
        raise RuntimeError("discrete log failed; class group data inconsistent")

    def coords_add(self, a, b, sign: int = 1):
        return tuple(
            (x + sign * y) % d if (d := self.coker.divisors[i]) else x + sign * y
            for i, (x, y) in enumerate(zip(a, b))
        )


_CLASS_GROUP_CACHE: dict[int, ClassGroup] = {}


def class_group(field: QuadField) -> ClassGroup:
    """Certified class group of a quadratic field (trivial for Q)."""
    if field.disc in _CLASS_GROUP_CACHE:
        return _CLASS_GROUP_CACHE[field.disc]
    if field.is_rational:
        cg = ClassGroup(field, [], Cokernel(0, []))
        _CLASS_GROUP_CACHE[field.disc] = cg
        return cg
    from sympy import primerange

    disc = field.disc
    if disc < 0:
        mink = math.isqrt(4 * abs(disc)) // 3 + 2  # >= 2*sqrt(|d|)/pi
    else:
        mink = math.isqrt(disc) // 2 + 2
    fb: list[PrimeIdeal] = []
    fb_ells: list[int] = []
    for ell in primerange(2, mink + 1):
        prs = primes_above(field, ell)
        if len(prs) == 1 and prs[0].kind == "inert":
            continue
        fb.extend(prs)
        fb_ells.append(ell)
    if not fb:
        cg = ClassGroup(field, [], Cokernel(0, []))
        _CLASS_GROUP_CACHE[field.disc] = cg
        return cg

    idx = {p: i for i, p in enumerate(fb)}
    relations: list[list[int]] = []
    for ell in fb_ells:
        prs = primes_above(field, ell)
        vec = [0] * len(fb)
        if prs[0].kind == "ramified":
            vec[idx[prs[0]]] = 2
        else:
            vec[idx[prs[0]]] = 1
            vec[idx[prs[1]]] = 1
        relations.append(vec)

    K = field
    w = K.omega()

    def smooth_relation(x: FieldElement) -> list[int] | None:
        n = int(x.norm())
        rest = abs(n)
        for ell in fb_ells:
            while rest % ell == 0:
                rest //= ell
        if rest != 1:
            return None
        vec = [0] * len(fb)
        for p in fb:
            v = p.val(x)
            if v:
                vec[idx[p]] = v
        return vec

    bound = 12
    prev_sig = None
    stable = 0
    while True:
        for u in range(-bound, bound + 1):
            for v in range(1, bound + 1):
                if math.gcd(u, v) != 1:
                    continue
                vec = smooth_relation(K(u) + K(v) * w)
                if vec is not None:
                    relations.append(vec)
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
                _CLASS_GROUP_CACHE[field.disc] = cg
                return cg
            relations.append(extra)
            stable = 0
            continue
        bound *= 2
        if bound > 4096:
            raise RuntimeError(f"class group relation search failed for disc {disc}")


def _certify(cg: ClassGroup) -> list[int] | None:
    """Check no nonzero claimed class is principal; returns a missing
    relation (factor-base vector) if one is found."""
    if cg.order > 200000:
        raise RuntimeError("class group too large for certification at desk scale")
    for coords in cg.coker.all_elements():
        if all(c == 0 for c in coords):
            continue
        vec = cg.coker.element_vector(list(coords))
        I = cg._ideal_from_fb_vector(vec)
        ok, _ = I.is_principal()
        if ok:
            # translate back: vec + (conjugate corrections) is principal;
            # conj(p)^e contributes -e at p plus e*(p + pbar) relations, so
            # the plain vector is a valid class relation.
            return vec
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
    """

    def __init__(self, cg: ClassGroup, S: list[PrimeIdeal]):
        self.cg = cg
        n = cg.coker.ngens
        rels = [[d if i == j else 0 for j in range(n)] for i, d in enumerate(cg.coker.divisors)]
        rels += [list(cg.dlog_prime(pr)) for pr in S]
        V = self._present(n, rels)
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
    """Cl(O_{K,S}) presented on the class group's generators."""
    return SClassGroup(cg, S)


def theta_map(cg: ClassGroup, S: list[PrimeIdeal], residues: list[int], p: int) -> tuple[int, ...]:
    """theta: (Z/p)^S -> Cl(K)/p, sum n_v * v mapped to its class mod p."""
    acc = [0] * cg.coker.ngens
    for pr, nv in zip(S, residues):
        t = cg.dlog_prime(pr)
        acc = [a + nv * b for a, b in zip(acc, t)]
    # project to Cl/p coordinates: components with p | d
    out = []
    for i, d in enumerate(cg.coker.divisors):
        if d and d % p == 0:
            out.append(acc[i] % p)
    return tuple(out)


def theta_image_dim(cg: ClassGroup, S: list[PrimeIdeal], p: int) -> int:
    """t = dim_Fp of the image of theta."""
    from .linalg import fp_rank

    rows = [list(theta_map(cg, [pr], [1], p)) for pr in S]
    rows = [r for r in rows if r]
    if not rows or not rows[0]:
        return 0
    return fp_rank(rows, p)


def s_unit_lattice(cg: ClassGroup, S: list[PrimeIdeal]) -> list[list[int]]:
    """Basis of {n in Z^S : prod v^n_v is principal}, in HNF."""
    return s_class_group(cg, S).unit_lattice


def field_selmer_basis(field: QuadField, S: list[PrimeIdeal], p: int) -> FieldSelmerBasis:
    """Basis of H^1(U, mu_p) for U = Spec O_K minus S, p odd."""
    if p == 2 or p % 2 == 0:
        raise ValueError("p must be odd")
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
    cg = class_group(field)
    scl = s_class_group(cg, S)
    for vec in scl.unit_lattice:
        I = FracIdeal(field, {pr: e for pr, e in zip(S, vec)})
        ok, gen = I.is_principal()
        if not ok:
            raise RuntimeError("an S-unit lattice vector is not principal")
        unit_gens.append(gen)
    class_gens: list[FieldElement] = []
    for gvec, a in scl.torsion_lifts(p):
        I = FracIdeal(field, dict(zip(S, a)))
        Ic = cg._ideal_from_fb_vector(gvec)
        J = Ic ** p * I.numerator_lattice() * I.denominator_lattice().conjugate()
        ok, gen = J.is_principal()
        if not ok:
            raise RuntimeError("a lift of Cl(O_{K,S})[p] is not principal")
        gen = gen / I.denominator_lattice().norm()
        class_gens.append(gen)
    return FieldSelmerBasis(field, S, p, unit_gens, class_gens)
