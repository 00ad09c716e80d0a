"""Oracle tests for the kernels that have one implementation each: the binary
power ntheory.power, the residue square root ResidueField.sqrt, and the
integer-form principality routine LatticeIdeal.is_principal. The routines
they replaced are kept here as references."""

import functools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdescent.ellcurve import Curve
from logdescent.ideals import (LatticeIdeal, _class_lattice, _compose, _form_pow, _reduce,
                               _rho_cycle, _unit_form)
from logdescent.ntheory import power
from logdescent.qfield import ResidueField, make_field, primes_above

_ODD_PRIMES = [q for q in range(3, 64) if all(q % d for d in range(2, q))]
_SMALL_PRIMES = [2] + [q for q in _ODD_PRIMES if q < 60]
_RADICANDS = [m for m in range(-60, 61) if m not in (0, 1) and all(m % (d * d) for d in range(2, 8))]


# -- ntheory.power ---------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(0, 300), st.integers(1, 10 ** 9))
def test_power_matches_builtin_pow(x, n, m):
    assert power(x, n, operator.mul, 1) == x ** n
    assert power(x % m, n, lambda a, b: a * b % m, 1 % m) == pow(x, n, m)


def _repeated(x, n, mul, one):
    return functools.reduce(mul, [x] * n, one)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_RADICANDS + [None]), st.integers(-20, 20), st.integers(-20, 20),
       st.integers(1, 12), st.integers(-4, 9))
def test_field_element_power_matches_repeated_products(D, a, b, den, n):
    K = make_field(D)
    x = K(a, 0 if K.is_rational else b) / den
    for e in (0, 1, n):
        if x or e >= 0:
            base = x.inverse() if e < 0 else x
            assert x ** e == _repeated(base, abs(e), operator.mul, K(1))


def test_point_multiple_matches_repeated_sums():
    # 37a1, whose point (0, 0) has infinite order
    Q = make_field(None)
    E = Curve(Q, Q(0), Q(0), Q(1), Q(-1), Q(0))
    P = E.point(Q(0), Q(0))
    for n in range(0, 14):
        assert P * n == _repeated(P, n, operator.add, E.zero())
        assert P * -n == _repeated(-P, n, operator.add, E.zero())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_RADICANDS), st.data())
def test_lattice_ideal_power_matches_repeated_products(D, data):
    K = make_field(D)
    pr = data.draw(st.sampled_from([pr for ell in _SMALL_PRIMES[:8] for pr in primes_above(K, ell)]))
    I = LatticeIdeal.from_prime(pr)
    for n in (0, 1, data.draw(st.integers(2, 9))):
        J = I ** n
        ref = _repeated(I, n, operator.mul, LatticeIdeal.unit_ideal(K))
        assert J.rows == ref.rows and J.norm() == ref.norm() == pr.norm() ** n


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([m for m in _RADICANDS if m < 0]), st.data())
def test_imaginary_form_power_matches_repeated_compositions(D, data):
    K = make_field(D)
    d = K.disc
    pr = data.draw(st.sampled_from([pr for ell in _SMALL_PRIMES for pr in primes_above(K, ell)
                                    if pr.kind != "inert"]))
    f = LatticeIdeal.from_prime(pr).form
    e = data.draw(st.integers(-9, 9))
    g = f if e >= 0 else (f[0], -f[1], f[2])
    ref = _repeated(g, abs(e), lambda x, y: _reduce(_compose(x, y, d), d), _unit_form(d))
    assert _form_pow(f, e, d) == ref
    assert _form_pow(f, 0, d) == _unit_form(d) and _form_pow(f, 1, d) == _reduce(f, d)


# -- ResidueField.sqrt -----------------------------------------------------


def _check_sqrt(k):
    """sqrt(x)^2 = x for every square x of k, 0 included; a non-square
    raises ValueError. Returns the non-squares of F_ell that were checked as
    squares of F_ell^2 (f = 2, odd ell)."""
    squares = {k.mul(y, y) for y in k.elements()}
    for x in k.elements():
        if x in squares:
            r = k.sqrt(x)
            assert k.mul(r, r) == x, (k.prime, x, r)
        else:
            with pytest.raises(ValueError):
                k.sqrt(x)
    ell = k.ell
    return [x for x in squares if k.f == 2 and x[1] == 0 and ell != 2
            and pow(x[0], (ell - 1) // 2, ell) == ell - 1]


@pytest.mark.parametrize("D, ell, kind, q", [
    (-7, 2, "split", 2), (-1, 2, "ramified", 2), (5, 2, "inert", 4), (None, 2, "rational", 2),
    (-1, 5, "split", 5), (-3, 3, "ramified", 3), (-1, 3, "inert", 9), (-1, 7, "inert", 49),
    (2, 5, "inert", 25), (None, 61, "rational", 61)])
def test_residue_sqrt_every_square(D, ell, kind, q):
    K = make_field(D)
    k = ResidueField(primes_above(K, ell)[0])
    assert (k.prime.kind, k.q) == (kind, q)
    fl_non_squares = _check_sqrt(k)
    if k.f == 2 and ell != 2:
        # the non-squares of F_ell are squares of F_ell^2 with B = 0
        assert len(fl_non_squares) == (ell - 1) // 2


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_RADICANDS + [None]), st.sampled_from([2] + _ODD_PRIMES), st.data())
def test_residue_sqrt_random_fields(D, ell, data):
    K = make_field(D)
    _check_sqrt(ResidueField(data.draw(st.sampled_from(primes_above(K, ell)))))


# -- LatticeIdeal.is_principal ---------------------------------------------


def _basis(L):
    K = L.field
    return K.from_omega(*L.rows[0]), K.from_omega(*L.rows[1])


def _principal_imaginary(L):
    """The former routine: Lagrange reduction of the basis on FieldElements."""
    b1, b2 = _basis(L)

    def N(x):
        return x.norm()

    def B(x, y):
        return (x * y.conj() + y * x.conj()).a / 2

    while True:
        if N(b2) < N(b1):
            b1, b2 = b2, b1
        ti = round(B(b1, b2) / N(b1))
        if ti == 0:
            break
        b2 = b2 - ti * b1
    if N(b1) == L.norm():
        return True, b1
    return False, None


def _principal_real(L):
    """The former routine: the rho-cycle of the Fraction-built form."""
    b1, b2 = _basis(L)
    n = L.norm()
    f = (b1.norm() / n, (b1 * b2.conj() + b2 * b1.conj()).a / n, b2.norm() / n)
    assert all(x.denominator == 1 for x in f)
    A, B, C = map(int, f)
    for (a, _, _), u, v in _rho_cycle((A, B, C), B * B - 4 * A * C):
        if abs(a) == 1:
            return True, u * b1 + v * b2
    return False, None


def _reference(L):
    return _principal_imaginary(L) if L.field.is_imaginary else _principal_real(L)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_RADICANDS), st.data())
def test_is_principal_matches_the_former_routines(D, data):
    K = make_field(D)
    prs = [pr for ell in _SMALL_PRIMES for pr in primes_above(K, ell)]
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(prs), st.integers(-4, 4)),
                               min_size=1, max_size=3))
    L, _ = _class_lattice(K, pairs)
    ok, g = L.is_principal()
    # equal generators, not equal up to sign or unit
    assert (ok, g) == _reference(L)
    if ok:
        assert abs(g.norm()) == L.norm()


@pytest.mark.parametrize("D, ell, wbar, e", [(-1, 29, 12, 2), (-3, 19, 12, -4)])
def test_is_principal_rounds_a_tie_to_even(D, ell, wbar, e):
    # the Lagrange step meets b/2a = k + 1/2 here; rounding it up instead
    # returns a unit multiple of the generator
    K = make_field(D)
    pr = next(pr for pr in primes_above(K, ell) if pr.wbar == wbar)
    L, _ = _class_lattice(K, [(pr, e)])
    assert L.is_principal() == _reference(L)
    assert L.is_principal()[0]
