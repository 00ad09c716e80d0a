"""The logarithmic Picard group of Spec O_K with multiplicities at the bad
places of an elliptic curve.

Elements are finite Q-linear combinations of finite places whose coefficient
at a place v has denominator dividing the multiplicity m_v. The group is
presented on generators (1/m_v) v together with generators of the S-class
group, which makes torsion dimensions and equality decidable exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .ideals import Cokernel, SClassGroup, class_group
from .qfield import PrimeIdeal, QuadField


class LogDivisor:
    """Formal Q-combination of finite places."""

    def __init__(self, field: QuadField, coeffs: dict[PrimeIdeal, Fraction] | None = None):
        self.field = field
        self.coeffs = {p: a for p, a in (coeffs or {}).items() if a != 0}

    def __add__(self, other: "LogDivisor") -> "LogDivisor":
        d = dict(self.coeffs)
        for p, a in other.coeffs.items():
            d[p] = d.get(p, Fraction(0)) + a
        return LogDivisor(self.field, d)

    def __sub__(self, other: "LogDivisor") -> "LogDivisor":
        return self + (-1) * other

    def __mul__(self, c) -> "LogDivisor":
        return LogDivisor(self.field, {p: a * c for p, a in self.coeffs.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return -1 * self

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{a} * {p}" for p, a in self.sorted_items())

    def __eq__(self, other):
        return isinstance(other, LogDivisor) and self.coeffs == other.coeffs

    @classmethod
    def of_element(cls, x) -> "LogDivisor":
        from .qfield import prime_divisors

        K = x.field
        return cls(K, {p: Fraction(e) for p, e in prime_divisors(K, x).items()})


class LogPic:
    """logPic(X, S) with X = Spec O_K, where S is the set of places with a
    multiplicity m_v > 1; no place is removed."""

    def __init__(self, field: QuadField, mults: dict[PrimeIdeal, int]):
        self.field = field
        self.mults = {p: m for p, m in mults.items() if m > 1}
        self.places = sorted(self.mults, key=lambda p: p.sort_key())
        self.cg = class_group(field)
        nv = len(self.places)
        ncg = self.cg.coker.ngens
        rels = []
        # m_v * (1/m_v) v = [v] in Cl_S, expressed on the class generators
        for i, p in enumerate(self.places):
            vec = [0] * (nv + ncg)
            vec[i] = self.mults[p]
            if ncg:
                t = self.cg.dlog_prime(p)
                for j in range(ncg):
                    vec[nv + j] = -t[j]
            rels.append(vec)
        # relations of Cl_S itself
        for i in range(ncg):
            d = self.cg.coker.divisors[i]
            vec = [0] * (nv + ncg)
            vec[nv + i] = d
            rels.append(vec)
        self.coker = Cokernel(nv + ncg, rels)
        if self.coker.order == 0:
            raise RuntimeError("the presentation of logPic is not finite")

    def class_coords(self, D: LogDivisor) -> tuple[int, ...]:
        nv = len(self.places)
        ncg = self.cg.coker.ngens
        x = [0] * (nv + ncg)
        clvec = [0] * ncg
        for p, a in D.coeffs.items():
            if p in self.mults:
                m = self.mults[p]
                num = a * m
                if num.denominator != 1:
                    raise ValueError(f"coefficient {a} at {p} not 1/{m}-integral")
                c = int(num) % m
                x[self.places.index(p)] = c
                rest = a - Fraction(c, m)
                if rest.denominator != 1:
                    raise RuntimeError(f"coefficient {a} at {p} leaves a fractional rest")
                e = int(rest)
            else:
                if a.denominator != 1:
                    raise ValueError(f"fractional coefficient {a} at a multiplicity-1 place {p}")
                e = int(a)
            if e and ncg:
                t = self.cg.dlog_prime(p)
                clvec = [u + e * w for u, w in zip(clvec, t)]
        for j in range(ncg):
            x[nv + j] = clvec[j]
        return self.coker.coords(x)

    def is_zero(self, D: LogDivisor) -> bool:
        return all(c == 0 for c in self.class_coords(D))

    def equal(self, D1: LogDivisor, D2: LogDivisor) -> bool:
        return self.is_zero(D1 - D2)

    def order(self) -> int:
        return self.coker.order

    def p_torsion_vector(self, D: LogDivisor, p: int) -> list[int]:
        """F_p coordinates of a p-torsion class on the p-divisible part of
        the presentation."""
        coords = self.class_coords(D)
        row = []
        for c, d in zip(coords, self.coker.divisors):
            if d and d % p == 0:
                # project to the p-torsion coordinate: c must be a
                # multiple of d/p for a p-torsion class
                if c % (d // p):
                    raise ValueError(f"the class of {D} is not {p}-torsion")
                row.append((c // (d // p)) % p)
            elif c:
                raise ValueError(f"the class of {D} is not {p}-torsion")
        return row

    def span_dim(self, divisors: list[LogDivisor], p: int) -> int:
        """dim_Fp of the span of the classes of p-torsion elements."""
        from .linalg import fp_rank

        return fp_rank([self.p_torsion_vector(D, p) for D in divisors], p)

    def nu(self, D: LogDivisor) -> dict[PrimeIdeal, Fraction]:
        """Fractional parts of the coefficients (the monodromy components)."""
        out = {}
        for pr, a in D.coeffs.items():
            f = a % 1
            if f:
                out[pr] = f
        return out


class LogPicTorsion:
    """logPic(X,S)[p] with explicit generators, for the K and S of the
    S-class map scl: (1/p) of the S-unit lattice followed by lifts of
    generators of Cl(O_{K,S})[p]."""

    def __init__(self, scl: SClassGroup, p: int):
        cg = scl.cg
        field = self.field = cg.field
        self.S = scl.S
        self.p = p
        self.group = LogPic(field, {pr: p for pr in self.S})
        # the first part of the torsion is (1/p) L / L where L is the lattice
        # of S-supported principal divisors, not (1/p)v itself: v may have a
        # class of order divisible by p
        gens = []
        for vec in scl.unit_lattice:
            gens.append(LogDivisor(
                field, {pr: Fraction(e, p) for pr, e in zip(self.S, vec) if e}))
        for gvec, a in scl.torsion_lifts(p):
            coeffs = {cg.factor_base[i]: Fraction(e) for i, e in enumerate(gvec) if e}
            for pr, av in zip(self.S, a):
                coeffs[pr] = coeffs.get(pr, Fraction(0)) + Fraction(av, p)
            gens.append(LogDivisor(field, coeffs))
        self.gens = gens
        if not all(self.group.is_zero(p * g) for g in gens):
            raise RuntimeError("a logPic torsion generator is not p-torsion")
        if len(gens) != self.group.coker.p_torsion_dim(p):
            raise RuntimeError("the logPic torsion generators do not span logPic[p]")

    @property
    def dim(self) -> int:
        return len(self.gens)

    def vector(self, D: LogDivisor) -> list[int]:
        return self.group.p_torsion_vector(D, self.p)
