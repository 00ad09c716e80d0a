"""Cyclic p-isogenies from a rational kernel point: explicit rational maps,
the dual isogeny, and Neron model scalings at finite places.

The descent uses one isogeny, built from the kernel polynomial (Velu). The
scaling of its dual needs no second isogeny: z_psi * z_psihat = +-p for
psihat o psi = [p], so z_psihat^2 = p^2 / z_psi^2 (curves with j != 0, 1728,
whose only automorphisms are +-1). The dual itself is kept as a checked
oracle for that identity: the p-division polynomial is pushed through the
forward x-map with a resultant, the radical of the result is the dual's
kernel polynomial, and the Velu codomain is matched back to the source curve
by an isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .ellcurve import Curve, Point
from .polyring import Poly, gcd, interpolate, resultant
from .qfield import FieldElement, PrimeIdeal, sqrt_element
from .tate import LocalData, tate_local_data


@dataclass
class Isogeny:
    """A normalized Velu p-isogeny with kernel polynomial kernel_poly; iso is
    an optional post-composed isomorphism (u,r,s,t) from the Velu codomain
    to the stated codomain. The x-map Nx/Dx is built on first use."""

    domain: Curve
    codomain: Curve
    p: int
    kernel_poly: Poly
    velu_codomain: Curve
    iso: tuple | None = None

    @property
    def z_squared(self) -> FieldElement:
        """z^2 for the differential scaling psi* w' = z w: Dx.lc()/Nx.lc(),
        which is 1 since Nx and Dx are monic, times u^2 through iso."""
        if self.iso is None:
            return self.domain.field.one()
        return self.iso[0] ** 2

    @cached_property
    def x_map(self) -> tuple:
        return _velu_x_map(self.domain, self.kernel_poly)

    @property
    def Nx(self) -> Poly:
        return self.x_map[0]

    @property
    def Dx(self) -> Poly:
        return self.x_map[1]

    def __call__(self, P: Point) -> Point:
        E2 = self.velu_codomain
        if P.is_zero() or not self.Dx(P.x):
            return self.codomain.zero()
        x, y = P.x, P.y
        N, D = self.Nx, self.Dx
        X = N(x) / D(x)
        Xp = (N.derivative()(x) * D(x) - N(x) * D.derivative()(x)) / (D(x) * D(x))
        E = self.domain
        Y = (Xp * (2 * y + E.a1 * x + E.a3) - E2.a1 * X - E2.a3) / 2
        Q = E2.point(X, Y)
        if self.iso is not None:
            Q = E2.map_point(Q, *self.iso)
            if Q.curve != self.codomain:
                raise ValueError("iso does not map onto the codomain")
        return Q


def velu(E: Curve, h: Poly, p: int) -> Isogeny:
    """Normalized quotient isogeny with kernel polynomial h (monic, degree
    d = (p-1)/2). The codomain needs only t = sum t(x_i) and
    w = sum u(x_i) + x_i t(x_i) over the roots x_i of h, which are linear in
    the power sums s_1, s_2, s_3 of the roots; these come from the top three
    coefficients of h."""
    K = E.field
    d = (p - 1) // 2
    if h.degree != d or h.lc() != K.one():
        raise ValueError(f"kernel polynomial must be monic of degree {d}")
    # h = x^d - e1 x^(d-1) + e2 x^(d-2) - e3 x^(d-3) + ..., with e_k = 0 for
    # k > d, and Newton's identities
    e1, e2, e3 = -h[d - 1], h[d - 2], -h[d - 3]
    s1 = e1
    s2 = e1 * s1 - 2 * e2
    s3 = e1 * s2 - e2 * s1 + 3 * e3
    # t(x) = 6x^2 + b2 x + b4 and u(x) + x t(x) = 10x^3 + 2b2 x^2 + 3b4 x + b6
    b2, b4, b6 = E.b2, E.b4, E.b6
    t = 6 * s2 + b2 * s1 + d * b4
    w = 10 * s3 + 2 * b2 * s2 + 3 * b4 * s1 + d * b6
    E2 = Curve(K, E.a1, E.a2, E.a3, E.a4 - 5 * t, E.a6 - b2 * t - 7 * w)
    return Isogeny(E, E2, p, h, E2)


def _velu_x_map(E: Curve, h: Poly) -> tuple:
    """(Nx, Dx), both monic, with X(x) = x + A/h - (B/h)' = Nx/Dx, where A and
    B sum t(x_i)/(x - x_i) and u(x_i)/(x - x_i) over the roots x_i of h."""
    K = E.field
    x = Poly.x(K)
    t_poly = Poly(K, [E.b4, E.b2, 6])
    u_poly = Poly(K, [E.b6, 2 * E.b4, E.b2, 4])
    hp = h.derivative()
    # sum f(x_i)/(x - x_i) = (f * h' mod h)/h for f of any degree
    A = (t_poly * hp) % h
    B = (u_poly * hp) % h
    return x * h * h + A * h - B.derivative() * h + B * hp, h * h


def isogeny_from_kernel_point(E: Curve, P: Point, p: int) -> Isogeny:
    h = E.kernel_polynomial(P, p)
    return velu(E, h, p)


def find_isomorphism(E1: Curve, E2: Curve) -> tuple:
    """(u, r, s, t) with E1.transform(u, r, s, t) == E2."""
    K = E1.field
    if not (E1.c4 and E1.c6):
        raise ValueError("j = 0, 1728 not handled")
    u2 = (E1.c6 / E2.c6) / (E1.c4 / E2.c4)
    u0 = sqrt_element(u2)
    if u0 is None:
        raise ValueError("curves are not isomorphic over the base field")
    for u in (u0, -u0):
        s = (u * E2.a1 - E1.a1) / 2
        r = (u * u * E2.a2 - E1.a2 + s * E1.a1 + s * s) / 3
        t = (u ** 3 * E2.a3 - E1.a3 - r * E1.a1) / 2
        if E1.transform(u, r, s, t) == E2:
            return (u, r, s, t)
    raise RuntimeError("isomorphism search failed")


def dual_isogeny(phi: Isogeny) -> Isogeny:
    """The dual of phi, as an isogeny codomain -> domain with
    dual(phi(Q)) = p * Q."""
    E, E2, p = phi.domain, phi.codomain, phi.p
    K = E.field
    psi_p = E.division_poly(p)
    g, rem = divmod(psi_p, phi.kernel_poly)
    if not rem.is_zero():
        raise RuntimeError("kernel polynomial does not divide psi_p")
    # R(x) = Res_t(g(t), Nx(t) - x Dx(t)) = c * h_dual(x)^p
    deg = g.degree
    pts = []
    xv = 0
    while len(pts) < deg + 1:
        val = resultant(g, phi.Nx - K(xv) * phi.Dx)
        pts.append((K(xv), val))
        xv += 1
    R = interpolate(K, pts)
    Rsq = gcd(R, R.derivative())
    hdual = (R // Rsq).monic()
    if hdual.degree != (p - 1) // 2:
        raise RuntimeError(f"dual kernel polynomial of degree {hdual.degree}")
    psi = velu(E2, hdual, p)
    iso = find_isomorphism(psi.codomain, E)
    return Isogeny(E2, E, p, hdual, psi.codomain, iso)


# -- Neron scalings and place classification -------------------------------


def neron_scaling(z2: FieldElement, ld_dom: LocalData, ld_cod: LocalData) -> Fraction:
    """a_v(psi) = v(z) + v(u_cod) - v(u_dom) at the place of the data, for
    psi: dom -> cod with z_psi^2 = z2. A model change x = u^2 x' + r gives
    w' = u w, so on the minimal models psi* w'_cod = z u_cod / u_dom w_dom."""
    vz2 = ld_dom.prime.val(z2)
    if vz2 % 2:
        raise RuntimeError(f"v(z^2) = {vz2} is odd")
    return Fraction(vz2, 2) + ld_cod.vu - ld_dom.vu


@dataclass
class PlaceClassification:
    prime: PrimeIdeal
    ld_E: LocalData
    ld_E2: LocalData
    a_phi: Fraction
    a_dual: Fraction
    direction: str  # "forward" | "backward" | "good"

    @property
    def in_S1(self) -> bool:
        return (self.direction == "forward" and self.ld_E.is_multiplicative
                and bool(self.ld_E.split))

    @property
    def in_S2(self) -> bool:
        return self.direction == "backward"


def classify_place(E: Curve, E2: Curve, z2_phi: FieldElement,
                   pr: PrimeIdeal, p: int) -> PlaceClassification:
    """The place pr for phi: E -> E2 with z_phi^2 = z2_phi; the dual's
    scaling is a_v(phihat) = v(p) - a_v(phi)."""
    ld = tate(E, pr)
    ld2 = tate(E2, pr)
    vp = pr.e if pr.ell == p else 0
    a_phi = neron_scaling(z2_phi, ld, ld2)
    a_dual = vp - a_phi
    if a_phi < 0 or a_dual < 0:
        raise RuntimeError(f"negative Neron scaling ({a_phi}, {a_dual}) at {pr}")
    if ld.is_multiplicative:
        if not (ld2.is_multiplicative and ld.split == ld2.split):
            raise RuntimeError(f"reduction types of E and E' differ at {pr}")
        if ld2.n == p * ld.n:
            direction = "forward"
        elif ld.n == p * ld2.n:
            direction = "backward"
        else:
            raise RuntimeError(f"multiplicative indices {ld.n}, {ld2.n} not p-related")
    elif vp > 0:
        if a_phi > 0 and a_dual > 0:
            direction = "mixed"  # additive-scaling place; hypothesis failure
        elif a_dual == 0:
            direction = "forward"
        else:
            direction = "backward"
    else:
        # good, or additive away from p: phi induces an isomorphism on
        # components; neither forward nor backward
        direction = "good"
    return PlaceClassification(pr, ld, ld2, a_phi, a_dual, direction)


_TATE_CACHE: dict = {}


def tate(E: Curve, pr: PrimeIdeal) -> LocalData:
    key = (E, pr)
    ld = _TATE_CACHE.get(key)
    if ld is None:
        ld = _TATE_CACHE[key] = tate_local_data(E, pr)
    return ld
