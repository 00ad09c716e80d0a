"""Descent via a degree-p isogeny phi: E -> E' whose kernel is mu_p.

The context is built from the curve E' together with a rational p-torsion
point P generating ker(phihat). The phi-Selmer group is cut out inside
H^1(U_1, mu_p) = {x in K^*/p : div(x) = 0 mod p outside S_1} by the local
conditions at S_2; the class-invariant homomorphism psi factors as
psi_sel o kummer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .ellcurve import Curve, Point, add_with_slope
from .ideals import (FieldSelmerBasis, LimitError, SClassGroup, class_group,
                     field_selmer_basis, s_class_group)
from .isogeny import PlaceClassification, classify_place, isogeny_from_kernel_point
from .linalg import fp_kernel, fp_rank, fp_solve
from .localfield import LocalUnitGroup, local_mu_p_dim
from .logpic import LogDivisor, LogPicTorsion
from .ntheory import isprime, primerange
from .pairing import bad_places, log_pairing
from .qfield import (FieldElement, PrimeIdeal, QuadField, ResidueField,
                     _squarefree_part, make_field, primes_above)


class HypothesisError(Exception):
    """A named hypothesis fails for the given context."""


class DescentContext:
    """phi: E -> E' of degree p with ker(phihat) = <P>, P in E'(K)[p]."""

    def __init__(self, Eprime: Curve, P: Point, p: int):
        if p == 2 or not isprime(p):
            raise ValueError("p must be an odd prime")
        if P.curve != Eprime:
            raise ValueError("P is not a point of E'")
        if P.is_zero() or not (p * P).is_zero():
            raise ValueError("P is not a p-torsion point")
        # z_phi^2 z_phihat^2 = p^2 needs Aut(E') = {+-1}
        if not (Eprime.c4 and Eprime.c6):
            raise ValueError("j = 0, 1728 not handled")
        self.field: QuadField = Eprime.field
        self.Eprime = Eprime
        self.P = P
        self.p = p
        self.phihat = isogeny_from_kernel_point(Eprime, P, p)
        self.E = self.phihat.codomain
        self.classifications = self._classify()
        self.S1 = [c.prime for c in self.classifications if c.in_S1]
        self.S2 = [c.prime for c in self.classifications if c.in_S2]
        self.failures = self._check_hypotheses()

    def _classify(self) -> list[PlaceClassification]:
        K = self.field
        # a good place away from p adds nothing to S_1, S_2 or the hypotheses,
        # so the table is the same on every model of E and E'; isogenous
        # curves have the same bad places, so E' alone gives them
        supp = {*primes_above(K, self.p), *bad_places(self.Eprime)}
        z2_phi = K(self.p * self.p) / self.phihat.z_squared
        return [classify_place(self.E, self.Eprime, z2_phi, pr, self.p)
                for pr in sorted(supp, key=lambda q: q.sort_key())]

    def _check_hypotheses(self) -> list[str]:
        fails = []
        p = self.p
        for c in self.classifications:
            for name, ld in (("E", c.ld_E), ("E'", c.ld_E2)):
                if p == 3 and ld.kodaira in ("IV", "IV*"):
                    fails.append(f"Hyp 4: {name} has a fibre of type {ld.kodaira} "
                                 f"at {c.prime}")
                if not ld.is_good and not ld.is_multiplicative and ld.c % p == 0:
                    fails.append(f"Hyp 4: {name} has Tamagawa number divisible by {p} "
                                 f"at {c.prime}")
            if c.direction == "mixed":
                fails.append(f"Hyp 5: place {c.prime} above {p} neither forward nor backward")
            if c.direction == "backward" and c.prime.ell == p and local_mu_p_dim(c.prime, p):
                fails.append(f"Hyp 5: backward place {c.prime} above {p} with mu_p in K_v")
        return fails

    def require_hypotheses(self):
        if self.failures:
            raise HypothesisError("; ".join(self.failures))

    @cached_property
    def h1(self) -> FieldSelmerBasis:
        """The basis of H^1(U_1, mu_p)."""
        return field_selmer_basis(self.cl_S1, self.p)

    @cached_property
    def cl_S1(self) -> SClassGroup:
        """The S_1-class map Z^{S_1} -> Cl(K), whose cokernel is
        Cl(O_{K,S_1}). The context owns it and hands it to h1 and
        logpic_torsion, so one descent builds it once."""
        return s_class_group(class_group(self.field), self.S1)

    @cached_property
    def logpic_torsion(self) -> LogPicTorsion:
        """logPic(X, S_1)[p] with explicit generators."""
        return LogPicTorsion(self.cl_S1, self.p)

    def torsion(self) -> LogPicTorsion:
        return self.logpic_torsion

    @cached_property
    def kernel_points(self) -> frozenset[Point]:
        """<P> = ker(phihat), the p multiples of P."""
        return frozenset(k * self.P for k in range(self.p))


# -- coordinates on H^1(U_1, mu_p) ----------------------------------------


class H1Coordinates:
    """F_p coordinates on the span of a field Selmer basis, computed through
    evaluation characters at auxiliary places w with #k_w = 1 mod p."""

    EXTRA = 8
    CAP = 4000

    def __init__(self, basis: FieldSelmerBasis):
        self.field = basis.field
        self.p = basis.p
        self.gens = basis.gens
        self.rows: list[list[int]] = []
        self.places: list[PrimeIdeal] = []
        self.residue_fields: list[ResidueField] = []
        self._build()

    def _build(self):
        p = self.p
        extra = 0
        for w in self._candidates():
            if any(w.val(g) != 0 for g in self.gens):
                continue
            k = ResidueField(w)
            self.places.append(w)
            self.residue_fields.append(k)
            self.rows.append([k.mu_p_log(g, p) for g in self.gens])
            if self.gens and fp_rank(self.rows, p) == len(self.gens):
                extra += 1
                if extra > self.EXTRA:
                    return
            if not self.gens and len(self.rows) > self.EXTRA:
                return
        raise LimitError(f"auxiliary places above primes below the cap {self.CAP} "
                         "(descent.H1Coordinates.CAP) do not separate the H^1 generators")

    def _candidates(self):
        K = self.field
        for ell in primerange(self.p + 1, self.CAP):
            if (ell - 1) % self.p:
                continue
            # N(w) is ell or ell^2, both 1 mod p, so mu_p lies in every k_w
            yield from primes_above(K, ell)

    def coords(self, x: FieldElement) -> list[int]:
        """Solve x = prod gens^e mod p-th powers; error if x not in the span."""
        rows = []
        vals = []
        for w, k, row in zip(self.places, self.residue_fields, self.rows):
            if w.val(x) != 0:
                continue
            rows.append(row)
            vals.append(k.mu_p_log(x, self.p))
        if self.gens and fp_rank(rows, self.p) < len(self.gens):
            raise RuntimeError("too few usable characters for this element")
        sol = fp_solve(rows, vals, self.p)
        if sol is None:
            raise ValueError("element is not in the span of the basis")
        return sol


# -- the Selmer group ------------------------------------------------------


class SelmerGroup:
    __slots__ = ("ctx", "h1", "matrix", "kernel")

    def __init__(self, ctx: DescentContext, h1: FieldSelmerBasis,
                 matrix: list[list[int]], kernel: list[list[int]]):
        self.ctx, self.h1 = ctx, h1
        self.matrix = matrix    # one row per h1 generator
        self.kernel = kernel    # exponent vectors cutting out Sel^phi

    @property
    def dim(self) -> int:
        return len(self.kernel)

    @property
    def h1_dim(self) -> int:
        return self.h1.dim

    def basis_elements(self) -> list[FieldElement]:
        return [self.h1.element(vec) for vec in self.kernel]


def local_unit_coords(lug: LocalUnitGroup, x: FieldElement) -> tuple[int, ...]:
    """Coordinates of the class of x in O_v^*/p for v(x) = 0 mod p."""
    v = lug.pr.val(x)
    if v % lug.p:
        raise RuntimeError("element is ramified at a place where it must not be")
    if v:
        x = x * lug.pr.uniformizer() ** (-v)
    return lug.coords(x)


def selmer_phi(ctx: DescentContext) -> SelmerGroup:
    """Sel^phi = ker(H^1(U_1, mu_p) -> sum over S_2 of O_v^*/p)."""
    ctx.require_hypotheses()
    p = ctx.p
    h1 = ctx.h1
    lugs = [LocalUnitGroup(pr, p) for pr in ctx.S2]
    rows = []
    for g in h1.gens:
        row: list[int] = []
        for lug in lugs:
            row.extend(local_unit_coords(lug, g))
        rows.append(row)
    # kernel of the transposed action: combinations of generators that
    # vanish in every local group
    kernel = fp_kernel([list(c) for c in zip(*rows)], p, ncols=len(rows))
    return SelmerGroup(ctx, h1, rows, kernel)


def selmer_phihat_dim(ctx: DescentContext, sel: SelmerGroup) -> int:
    """Global duality: dim Sel^phi - dim Sel^phihat =
    #S_1 + #{v | infinity} - sum over S_2 of n_v + dim mu_p(K) - 1, where
    n_v = dim O_v^*/p is [K_v : Q_p] above p and dim mu_p(K_v) away from p."""
    p = ctx.p
    nv_sum = 0
    for pr in ctx.S2:
        nv_sum += pr.e * pr.f if pr.ell == p else local_mu_p_dim(pr, p)
    diff = (len(ctx.S1) + ctx.field.infinite_places() - nv_sum
            + ctx.field.mu_p_dim(p) - 1)
    d = sel.dim - diff
    if d < 0:
        raise RuntimeError("duality gives a negative dual Selmer dimension")
    if not ctx.S2 and d != ctx.cl_S1.mod_p_dim(p):
        raise RuntimeError("duality disagrees with Cl(O_{K,S_1})/p (Cor. 3.4)")
    return d


def sel_p_dim_if_applicable(ctx: DescentContext, sel: SelmerGroup) -> int | None:
    """dim Sel^p(E/K) when S_2 is empty, S_1 is not, and the S_1-class
    group has at most one p-dimension."""
    if ctx.S2 or not ctx.S1:
        return None
    hs = ctx.cl_S1.mod_p_dim(ctx.p)
    if hs > 1:
        return None
    return 2 * hs + len(ctx.S1) + ctx.field.infinite_places() - 2


# -- the Kummer map via Miller functions -----------------------------------


def miller(P: Point, p: int, X: Point) -> FieldElement:
    """Value at X of the function with divisor p(P) - p(O), built by the
    additive chain f_{m+1} = f_m * line(V, P) / vertical(V + P). One group
    law step gives V + P and the slope of the line through V and P."""
    f = P.curve.field(1)
    V = P
    for _ in range(p - 1):
        W, lam = add_with_slope(V, P)
        # the vertical through V when V + P = O
        num = X.x - V.x if lam is None else X.y - V.y - lam * (X.x - V.x)
        if not num:
            raise ZeroDivisionError("X hits the support of a line")
        f = f * num
        V = W
        if not V.is_zero():
            den = X.x - V.x
            if not den:
                raise ZeroDivisionError("X hits the support of a vertical")
            f = f / den
    if not V.is_zero():
        raise ValueError("P is not a p-torsion point")
    return f


class KummerMap:
    """kappa: E'(K)/phi(E(K)) -> Sel^phi subset K^*/p, through the function
    f with divisor p(P) - p(O): kappa(Q) = f(Q) / gamma where the constant
    gamma = f(A) f(B) / f(A+B) removes the normalization ambiguity of f."""

    def __init__(self, ctx: DescentContext):
        ctx.require_hypotheses()
        self.ctx = ctx
        self.h1 = ctx.h1
        self.coords_solver = H1Coordinates(self.h1)
        self._gamma_parts: tuple | None = None   # (A-value, B-value, AB-value)

    def _f(self, X: Point) -> FieldElement:
        return miller(self.ctx.P, self.ctx.p, X)

    def _gamma_from(self, Q: Point):
        # gamma = f(A) f(B) / f(A+B) is independent of the admissible pair
        if self._gamma_parts is not None:
            return
        A = Q
        for _ in range(2 * self.ctx.p):
            B = A + Q
            if B in self.ctx.kernel_points or A + B in self.ctx.kernel_points:
                A = B
                continue
            self._gamma_parts = (self._f(A), self._f(B), self._f(A + B))
            return
        raise RuntimeError("no admissible normalization pair found")

    def representative(self, Q: Point) -> FieldElement:
        """A K^* representative of kappa(Q) for Q outside <P>."""
        if Q in self.ctx.kernel_points:
            raise ValueError("direct evaluation needs Q outside the kernel span")
        self._gamma_from(Q)
        fa, fb, fab = self._gamma_parts
        # inverted so that the identification of ker(phi) with mu_p matches
        # the orientation of the pairing: rho(kappa(Q)) = psi(Q)
        return (fa * fb) / (self._f(Q) * fab)

    def coords(self, Q: Point, aux: Point | None = None) -> list[int]:
        """Coordinates of kappa(Q) on the H^1(U_1, mu_p) basis."""
        p = self.ctx.p
        if Q.is_zero():
            return [0] * self.h1.dim
        if Q in self.ctx.kernel_points:
            if aux is None or aux in self.ctx.kernel_points:
                raise ValueError("kappa on a kernel multiple needs an auxiliary point")
            a = self.coords(Q + aux)
            b = self.coords(aux)
            return [(x - y) % p for x, y in zip(a, b)]
        # the representative has a huge norm; membership in H^1(U_1, mu_p) is
        # not re-verified by factoring, the overdetermined character solve
        # rejects elements outside the span instead
        return self.coords_solver.coords(self.representative(Q))

    def element(self, coords) -> FieldElement:
        return self.h1.element(coords)


# -- psi and its factorization ---------------------------------------------


def psi(ctx: DescentContext, Q: Point) -> LogDivisor:
    """The class-invariant homomorphism: psi(Q) = <P, Q>^log."""
    return log_pairing(ctx.Eprime, ctx.P, Q)


def psi_sel(ctx: DescentContext, x: FieldElement) -> LogDivisor:
    """rho: H^1(U_1, mu_p) -> logPic(X, S_1)[p], x -> (1/p) div(x)."""
    D = LogDivisor.of_element(x)
    for pr, e in D.coeffs.items():
        if pr not in ctx.S1 and (e.denominator != 1 or e % ctx.p):
            raise ValueError("divisor is not p-divisible outside S_1")
    return Fraction(1, ctx.p) * D


def psi_vector(ctx: DescentContext, Q: Point) -> list[int]:
    """psi(Q) in the F_p coordinates of logPic(X, S_1)[p]."""
    return ctx.torsion().vector(psi(ctx, Q))


# -- reports ----------------------------------------------------------------


class ShaBound:
    __slots__ = ("lower", "upper")

    def __init__(self, lower: int, upper: int):
        self.lower, self.upper = lower, upper


class DescentReport:
    __slots__ = ("ctx", "sel", "sel_phihat_dim", "sel_p_dim", "logpic_dim", "psi_values",
                 "psi_rank", "kappa_rank", "ker_psi_dim", "ker_psi_sel_dim",
                 "coker_psi_sel_dim", "sha_phi")

    def __init__(self, ctx: DescentContext, sel: SelmerGroup, sel_phihat_dim: int,
                 sel_p_dim: int | None, logpic_dim: int, psi_values: list[LogDivisor],
                 psi_rank: int, kappa_rank: int, ker_psi_dim: int,
                 ker_psi_sel_dim: int, coker_psi_sel_dim: int, sha_phi: ShaBound):
        self.ctx, self.sel = ctx, sel
        self.sel_phihat_dim, self.sel_p_dim, self.logpic_dim = sel_phihat_dim, sel_p_dim, logpic_dim
        self.psi_values, self.psi_rank, self.kappa_rank = psi_values, psi_rank, kappa_rank
        self.ker_psi_dim, self.ker_psi_sel_dim = ker_psi_dim, ker_psi_sel_dim
        self.coker_psi_sel_dim, self.sha_phi = coker_psi_sel_dim, sha_phi


def descent_report(ctx: DescentContext, points: list[Point]) -> DescentReport:
    """Descent data assuming the given points, together with P, generate
    E'(K)/phi(E(K))."""
    ctx.require_hypotheses()
    p = ctx.p
    sel = selmer_phi(ctx)
    T = ctx.torsion()
    pts = [ctx.P] + [Q for Q in points if not Q.is_zero()]
    psi_vals = [psi(ctx, Q) for Q in pts]
    psi_rows = [T.vector(D) for D in psi_vals]
    psi_rank = fp_rank(psi_rows, p)
    km = KummerMap(ctx)
    aux = next((R for R in points if R not in ctx.kernel_points), None)
    # without a point outside <P>, kappa on <P> is not directly evaluable;
    # psi = rho o kappa, so taking the max with psi_rank still counts kappa(P)
    kappa_rows = [km.coords(Q, aux=aux) for Q in pts
                  if aux is not None or Q not in ctx.kernel_points]
    kappa_rank = max(fp_rank(kappa_rows, p), psi_rank)
    sel_rows = [T.vector(psi_sel(ctx, x)) for x in sel.basis_elements()]
    sel_rank = fp_rank(sel_rows, p)
    report = DescentReport(
        ctx=ctx,
        sel=sel,
        sel_phihat_dim=selmer_phihat_dim(ctx, sel),
        sel_p_dim=sel_p_dim_if_applicable(ctx, sel),
        logpic_dim=T.dim,
        psi_values=psi_vals,
        psi_rank=psi_rank,
        kappa_rank=kappa_rank,
        ker_psi_dim=kappa_rank - psi_rank,
        ker_psi_sel_dim=sel.dim - sel_rank,
        coker_psi_sel_dim=T.dim - sel_rank,
        sha_phi=ShaBound(lower=max(0, sel.dim - sel_rank - (kappa_rank - psi_rank)),
                         upper=sel.dim - kappa_rank),
    )
    return report


# -- the quadratic point search ---------------------------------------------


def quadratic_point_search(Eprime, P, p: int, xbound: int):
    """Points of infinite order on E' over quadratic fields with bounded
    x-coordinate and the resulting psi values.

    E' and P are over Q; yields (field, point, psi divisor)."""
    if not Eprime.field.is_rational:
        raise ValueError("the quadratic point search needs a curve over Q")
    seen = set()
    results = []
    ctx_cache: dict[int, tuple] = {}
    for den in range(1, xbound + 1):
        for num in range(-xbound, xbound + 1):
            fr = Fraction(num, den)
            if fr in seen:
                continue
            seen.add(fr)
            x = Eprime.field(fr)
            rhs = 4 * (x ** 3 + Eprime.a2 * x * x + Eprime.a4 * x + Eprime.a6)
            delta = (Eprime.a1 * x + Eprime.a3) ** 2 + rhs
            if not delta:
                continue
            d, s = _squarefree_part(delta.a)
            if d == 1:
                continue  # rational point, not a quadratic one
            if d not in ctx_cache:
                K = make_field(d)
                EK = Eprime.base_change(K)
                PK = EK.point(K(P.x.a), K(P.y.a))
                ctx_cache[d] = (K, DescentContext(EK, PK, p))
            K, ctx = ctx_cache[d]
            # sqrt(delta) = s * sqrt(d), and sqrt(d) generates K
            y = (s * K.sqrt_gen() - K(Eprime.a1.a) * K(fr) - K(Eprime.a3.a)) / 2
            Q = ctx.Eprime.point(K(fr), y)
            # a torsion point over a quadratic field has order at most 18
            # (Kamienny, Kenku-Momose)
            if Q.order(18) is not None:
                continue
            results.append((K, Q, psi(ctx, Q)))
    return results
