"""The logarithmic class group pairing on an elliptic curve.

For points Q, R on E/K the value is the divisor class

    <Q,R> = [e(Q+R) - e(Q) - e(R) + e(O)] - a_{j(R)}(F_Q) . v

summed over the bad places v, where e is the denominator divisor, F_Q is
the fibral correction divisor making [Q]-[O]+[F_Q] cubic, and j(R) is the
component hit by R. The table a_j(F_Q) and the multiplicities #Phi_v of the
pairing group come from the component group Phi_v of each bad place,
LocalData.phi (tate.ComponentGroup). Values live in the group of divisors
with rational coefficients at bad places modulo principal divisors.

The local terms are read off the given model: for x = u^2 x' + r at v,
v(x') = v(x - r) - 2v(u) gives e (tate.e_entry), and a point is mapped onto
the minimal model only at a bad place where v(x') >= 1, the one case in which
it can leave the identity component. The model places and their local data
are found once per curve (place_table); off them the model is good and
integral, so a pole of x is read off v(x) with no local data.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ellcurve import Curve, Point
from .isogeny import tate
from .logpic import LogDivisor, LogPic
from .ntheory import factorint
from .qfield import PrimeIdeal, QuadField, prime_divisors, primes_above
from .tate import LocalData, component_index, e_entry


def model_places(E: Curve) -> set[PrimeIdeal]:
    """The places where the given model may fail to be a good integral one:
    the support of disc and the primes under the a-invariant denominators.
    A model with poles can have bad reduction, or e(O) = v(u) != 0, where
    v(disc) <= 0, so the support of disc alone is not enough."""
    K = E.field
    out = set(prime_divisors(K, E.disc))
    for ell in factorint(math.lcm(*(a.integer_coords()[2] for a in E.ainvs))):
        out.update(primes_above(K, ell))
    return out


def place_table(E: Curve) -> dict[PrimeIdeal, LocalData]:
    """The model places of E in sorted order, each with its local data; built
    on first use and kept in E.place_table."""
    if E.place_table is None:
        E.place_table = {pr: tate(E, pr)
                         for pr in sorted(model_places(E), key=lambda p: p.sort_key())}
    return E.place_table


def bad_places(E: Curve) -> list[PrimeIdeal]:
    """Places where E has bad reduction, for any Weierstrass model of it."""
    return [pr for pr, ld in place_table(E).items() if not ld.is_good]


def _poles(K: QuadField, table: dict, pts: tuple[Point, ...]) -> dict[PrimeIdeal, list[int]]:
    """{pr: [min(v(x), 0) for each point]} at the places off table where the
    x of some point has a pole; O and x = 0 read 0. Only the primes under
    the denominators of the x are tried, so no (often huge) numerator is
    factored."""
    xs = [P.x for P in pts if not P.is_zero() and P.x]
    out = {}
    for ell in set().union(*(factorint(x.D) for x in xs)):
        for pr in primes_above(K, ell):
            if pr not in table:
                ws = [0 if P.is_zero() or not P.x else min(pr.val(P.x), 0) for P in pts]
                if any(ws):
                    out[pr] = ws
    return out


def log_pairing(E: Curve, Q: Point, R: Point) -> LogDivisor:
    """A divisor representing <Q,R>; compare values inside a LogPic group."""
    K = E.field
    if Q.is_zero() or R.is_zero():
        return LogDivisor(K, {})
    # each point's one on-curve check: every curve_min has the equation
    # F_min(x', y') = u^-6 F_E(x, y), so the images below need none
    E.check(Q)
    E.check(R)
    S = Q + R
    E.check(S)
    table = place_table(E)
    same = Q == R
    coeffs = {}
    for pr, ld in table.items():
        # 2e(T) = -min(v(x'), 0), and 2e(O) = 2v(u)
        wQ = e_entry(ld, Q)
        wR = wQ if same else e_entry(ld, R)
        eS2 = 2 * ld.vu if S.is_zero() else -min(e_entry(ld, S), 0)
        val = Fraction(eS2 + min(wQ, 0) + min(wR, 0) + 2 * ld.vu, 2)
        if wQ >= 1 and wR >= 1 and not ld.is_good:
            # each point mapped onto curve_min once, its check done above
            jq = component_index(ld, ld._image(Q))
            jr = jq if same else component_index(ld, ld._image(R))
            val -= ld.phi.fibral(jq, jr)
        if val:
            coeffs[pr] = val
    # off the table the model is integral at pr with v(disc) = 0, so urst = 1
    # and v(x') = v(x): only the poles count there
    for pr, (wQ, wR, wS) in _poles(K, table, (Q, R, S)).items():
        if wQ + wR != wS:
            coeffs[pr] = Fraction(wQ + wR - wS, 2)
    return LogDivisor(K, coeffs)


def monodromy_pairing(ld: LocalData, Q: Point, R: Point, source: Curve) -> Fraction:
    """<Q,R> at one place with values in Q/Z, represented in [0, 1)."""
    if Q.is_zero() or R.is_zero() or ld.is_good:
        return Fraction(0)
    jq = component_index(ld, ld.map_point(Q, source))
    jr = component_index(ld, ld.map_point(R, source))
    c = -ld.phi.fibral(jq, jr)
    return c - (c.numerator // c.denominator)


def pairing_group(E: Curve) -> LogPic:
    """The group where values of the pairing on E live."""
    mults = {pr: ld.phi.order for pr, ld in place_table(E).items() if not ld.is_good}
    return LogPic(E.field, mults)
