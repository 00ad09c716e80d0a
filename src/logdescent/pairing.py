"""The logarithmic class group pairing on an elliptic curve.

For points Q, R on E/K the value is the divisor class

    <Q,R> = [e(Q+R) - e(Q) - e(R) + e(O)] - a_{j(R)}(F_Q) . v

summed over the bad places v, where e is the denominator divisor, F_Q is
the fibral correction divisor making [Q]-[O]+[F_Q] cubic, and j(R) is the
component hit by R. Values live in the group of divisors with rational
coefficients at bad places modulo principal divisors.

The local terms are read off the given model: for x = u^2 x' + r at v,
v(x') = v(x - r) - 2v(u) gives e (tate.e_entry), and a point is mapped onto
the minimal model only at a bad place where v(x') >= 1, the one case in which
it can leave the identity component. The model places and their local data
are found once per curve (place_table).
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


def fibral_coefficient(ld: LocalData, jq: int, jr: int) -> Fraction:
    """Coefficient a_{jr}(F_Q) of the fibral divisor for Q on component jq."""
    if jq == 0 or jr == 0:
        return Fraction(0)
    t = ld.kodaira
    if ld.is_multiplicative:
        n = ld.n
        return Fraction(min(jr * (n - jq), jq * (n - jr)), n)
    if t == "III":
        return Fraction(1, 2)
    if t == "III*":
        return Fraction(3, 2)
    if t == "IV":
        return Fraction(2, 3) if jq == jr else Fraction(1, 3)
    if t == "IV*":
        return Fraction(4, 3) if jq == jr else Fraction(2, 3)
    if t.endswith("*"):
        # I0* is the n = 0 case of In*
        n = ld.n
        rows = {
            1: (Fraction(1), Fraction(1, 2), Fraction(1, 2)),
            2: (Fraction(1, 2), Fraction(n + 4, 4), Fraction(n + 2, 4)),
            3: (Fraction(1, 2), Fraction(n + 2, 4), Fraction(n + 4, 4)),
        }
        return rows[jq][jr - 1]
    if t not in ("II", "II*"):
        raise RuntimeError(f"no fibral coefficients for Kodaira type {t}")
    return Fraction(0)


def _denominator_places(K: QuadField, pts: list[Point]) -> set[PrimeIdeal]:
    xs = [P.x for P in pts if not P.is_zero() and P.x]
    # only places with v(x) < 0 matter; those divide the coordinate
    # denominators, so the (often huge) numerator is never factored
    ells = set().union(*(factorint(x.D) for x in xs))
    return {pr for ell in ells for pr in primes_above(K, ell)
            if any(pr.val(x) < 0 for x in xs)}


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
    # a pole place off the table is looked up per call, and not kept
    poles = [(pr, tate(E, pr)) for pr in _denominator_places(K, [Q, R, S]) if pr not in table]
    places = sorted([*table.items(), *poles], key=lambda it: it[0].sort_key()) \
        if poles else table.items()
    coeffs = {}
    for pr, ld in places:
        # 2e(T) = -min(v(x'), 0), and 2e(O) = 2v(u)
        wQ, wR = e_entry(ld, Q), e_entry(ld, R)
        eS2 = 2 * ld.vu if S.is_zero() else -min(e_entry(ld, S), 0)
        val = Fraction(eS2 + min(wQ, 0) + min(wR, 0) + 2 * ld.vu, 2)
        if wQ >= 1 and wR >= 1 and not ld.is_good:
            # each point mapped onto curve_min once, its check done above
            jq = component_index(ld, ld._image(Q))
            jr = component_index(ld, ld._image(R))
            val -= fibral_coefficient(ld, jq, jr)
        if val:
            coeffs[pr] = val
    return LogDivisor(K, coeffs)


def monodromy_pairing(ld: LocalData, Q: Point, R: Point, source: Curve) -> Fraction:
    """<Q,R> at one place with values in Q/Z, represented in [0, 1)."""
    if Q.is_zero() or R.is_zero() or ld.is_good:
        return Fraction(0)
    jq = component_index(ld, ld.map_point(Q, source))
    jr = component_index(ld, ld.map_point(R, source))
    c = -fibral_coefficient(ld, jq, jr)
    return c - (c.numerator // c.denominator)


def pairing_group(E: Curve) -> LogPic:
    """The group where values of the pairing on E live."""
    mults = {pr: ld.comp_order for pr, ld in place_table(E).items() if not ld.is_good}
    return LogPic(E.field, mults)
