"""The logarithmic class group pairing on an elliptic curve.

For points Q, R on E/K the value is the divisor class

    <Q,R> = [e(Q+R) - e(Q) - e(R) + e(O)] - a_{j(R)}(F_Q) . v

summed over the bad places v, where e is the denominator divisor, F_Q is
the fibral correction divisor making [Q]-[O]+[F_Q] cubic, and j(R) is the
component hit by R. Values live in the group of divisors with rational
coefficients at bad places modulo principal divisors.
"""

from __future__ import annotations

from fractions import Fraction

from .ellcurve import Curve, Point
from .isogeny import tate
from .logpic import LogDivisor, LogPic
from .ntheory import factorint
from .qfield import PrimeIdeal, QuadField, prime_divisors, primes_above
from .tate import LocalData, _component_index, _e_entry, component_index


def bad_places(E: Curve) -> list[PrimeIdeal]:
    """Places where the given (integral) model has singular reduction."""
    K = E.field
    out = [p for p, e in prime_divisors(K, E.disc).items() if e > 0]
    return sorted((p for p in out if not tate(E, p).is_good), key=lambda p: p.sort_key())


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
    out: set[PrimeIdeal] = set()
    for P in pts:
        if P.is_zero() or not P.x:
            continue
        # only places with v(x) < 0 matter; those divide the coordinate
        # denominators, so the (often huge) numerator is never factored
        for ell in factorint(P.x.D):
            for pr in primes_above(K, ell):
                if pr.val(P.x) < 0:
                    out.add(pr)
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
    # every place with e(O) or fibral contributions divides the model disc
    disc_places = {p for p, e in prime_divisors(K, E.disc).items() if e > 0}
    places = disc_places | _denominator_places(K, [Q, R, S])
    coeffs = {}
    for pr in sorted(places, key=lambda p: p.sort_key()):
        ld = tate(E, pr)
        # each point mapped onto curve_min once, its check done above
        Sm, Qm, Rm = (ld._image(P) for P in (S, Q, R))
        eS = Fraction(ld.vu) if S.is_zero() else _e_entry(ld, Sm)
        val = eS - _e_entry(ld, Qm) - _e_entry(ld, Rm) + Fraction(ld.vu)
        if not ld.is_good:
            jq = _component_index(ld, Qm)
            jr = _component_index(ld, Rm)
            val -= fibral_coefficient(ld, jq, jr)
        if val:
            coeffs[pr] = val
    return LogDivisor(K, coeffs)


def monodromy_pairing(ld: LocalData, Q: Point, R: Point, source: Curve) -> Fraction:
    """<Q,R> at one place with values in Q/Z, represented in [0, 1)."""
    if Q.is_zero() or R.is_zero() or ld.is_good:
        return Fraction(0)
    jq = component_index(ld, Q, source)
    jr = component_index(ld, R, source)
    c = -fibral_coefficient(ld, jq, jr)
    return c - (c.numerator // c.denominator)


def pairing_group(E: Curve) -> LogPic:
    """The group where values of the pairing on E live."""
    mults = {pr: tate(E, pr).comp_order for pr in bad_places(E)}
    return LogPic(E.field, mults)
