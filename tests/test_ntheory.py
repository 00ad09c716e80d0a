"""logdescent.ntheory against sympy, the oracle."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory.primetest import mr

from logdescent.ntheory import factorint, isprime, kronecker, primerange, sqrt_mod

MR_BOUND = 3317044064679887385961981  # the least strong pseudoprime to the bases 2..41

# strong pseudoprimes to base 2 at or above MR_BOUND, so only the Lucas half
# of BPSW rejects them; each is (6k+1)(12k+1)(18k+1) with the three factors prime
BASE2_PSEUDOPRIMES_ABOVE_BOUND = [
    3319869384816093297175609,               # k = 13682706
    3320483768238353753197801,               # k = 13683550
    1296002356525428293844563788009,         # k = 1000000606
    944784071898384983830471557968545898281,  # k = 900000022830
]

HARD = [
    561, 41041, 825265,                      # Carmichael numbers
    3825123056546413051,                     # strong pseudoprime to the bases 2..23
    318665857834031151167461,                # strong pseudoprime to the bases 2..37
    *(MR_BOUND + k for k in range(-12, 13)),
    *(q ** e for q in (2, 997, 1009, 1000003, 999999000001) for e in (2, 3)),
    *BASE2_PSEUDOPRIMES_ABOVE_BOUND,
]


@st.composite
def _prime(draw, digits):
    """A prime of at most the given number of digits, log-uniform in size."""
    d = draw(st.integers(1, digits))
    x = draw(st.integers(max(2, 10 ** (d - 1)), 10 ** d - 1))
    return sympy.prevprime(x + 1)


@st.composite
def _factored(draw):
    """(n, {prime: exponent}) with n < 10^40 and every prime factor but the
    largest at most 10^12, so that Pollard-Brent stays fast."""
    exps: dict[int, int] = {}
    for _ in range(draw(st.integers(0, 3))):
        q = draw(_prime(12))
        exps[q] = exps.get(q, 0) + draw(st.integers(1, 3))
    n = 1
    for q, e in exps.items():
        n *= q ** e
    digits = len(str(10 ** 40 // n)) - 1
    if digits >= 1:
        q = draw(_prime(digits))
        exps[q] = exps.get(q, 0) + 1
        n *= q
    return n, dict(sorted(exps.items()))


@settings(max_examples=30, deadline=None)
@given(_factored())
def test_factorint_and_isprime_on_random_products(case):
    n, exps = case
    f = factorint(n)
    assert f == exps == sympy.factorint(n)
    assert list(f) == sorted(f)
    assert isprime(n) == sympy.isprime(n)
    for q in exps:
        assert isprime(q) and sympy.isprime(q)
        assert isprime(q + 2) == sympy.isprime(q + 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(MR_BOUND - 10 ** 6, 10 ** 40))
def test_isprime_near_and_above_the_bound(x):
    # the BPSW branch on primes and on their odd neighbours
    p = sympy.nextprime(x)
    assert isprime(p)
    assert isprime(x) == sympy.isprime(x)
    assert isprime(p + 2) == sympy.isprime(p + 2)


@pytest.mark.parametrize("n", HARD)
def test_isprime_on_hard_cases(n):
    assert isprime(n) == sympy.isprime(n)


@pytest.mark.parametrize("n", [n for n in HARD if n < 10 ** 25])
def test_factorint_on_hard_cases(n):
    assert factorint(n) == sympy.factorint(n)


def test_base2_pseudoprimes_above_the_bound_need_lucas():
    for n in BASE2_PSEUDOPRIMES_ABOVE_BOUND:
        assert n >= MR_BOUND and mr(n, [2])
        assert not sympy.isprime(n)
        assert not isprime(n)


def test_small_and_nonpositive_inputs():
    for n in (-7, 0, 1, 2):
        assert isprime(n) == sympy.isprime(n)
    assert factorint(1) == {} and factorint(2) == {2: 1}
    for n in (-7, 0):
        with pytest.raises(ValueError):
            factorint(n)
    assert [n for n in range(-10, 2000) if isprime(n)] == list(sympy.primerange(2, 2000))


@st.composite
def _prime_1_mod_2k(draw):
    """A prime p = 1 mod 2^k, k >= 3: the deep Tonelli-Shanks loop."""
    k = draw(st.integers(3, 40))
    m = draw(st.integers(1, 10 ** 12))
    while not sympy.isprime(m * 2 ** k + 1):
        m += 1
    return m * 2 ** k + 1


@st.composite
def _prime_3_mod_4(draw):
    p = sympy.nextprime(draw(st.integers(2, 10 ** 30)))
    while p % 4 != 3:
        p = sympy.nextprime(p)
    return p


@settings(max_examples=60, deadline=None)
@given(st.one_of(_prime_1_mod_2k(), _prime_3_mod_4()), st.integers(0, 10 ** 40))
def test_sqrt_mod(p, x):
    a = x * x % p
    r = sqrt_mod(a, p)
    assert r * r % p == a
    assert r == sympy.sqrt_mod(a, p)
    assert sqrt_mod(a + 5 * p, p) == r


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 10 ** 20), st.integers(1, 10 ** 20))
def test_sqrt_mod_rejects_non_residues(x, a):
    p = sympy.nextprime(x)
    if sympy.is_quad_residue(a, p):
        return
    with pytest.raises(ValueError):
        sqrt_mod(a, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(-5, 5000), st.integers(-5, 5000))
def test_primerange(a, b):
    assert primerange(a, b) == list(sympy.primerange(a, b))


@settings(max_examples=100, deadline=None)
@given(st.integers(-10 ** 20, 10 ** 20), st.integers(0, 10 ** 20))
def test_kronecker_is_jacobi_at_odd_n(a, m):
    # even and negative n are checked against splitting in test_qfield
    n = 2 * m + 1
    assert kronecker(a, n) == sympy.jacobi_symbol(a, n)
