"""Rational integer arithmetic: primes, factorization, square roots mod p.

Textbook algorithms (Cohen, GTM 138, 1.5 and 8.2-8.5):

- primerange: a sieve of Eratosthenes;
- isprime: trial division, then Miller-Rabin to the prime bases 2..41,
  which is deterministic below 3317044064679887385961981, and BPSW above
  (a strong base-2 test plus a strong Lucas test with Selfridge's
  parameters; Baillie-Wagstaff 1980), to which no counterexample is known;
- factorint: trial division, then perfect powers and Pollard-Brent on the
  cofactor;
- sqrt_mod: Tonelli-Shanks;
- kronecker: the Kronecker symbol, by quadratic reciprocity;
- power: binary powering in any monoid, the one such loop of the package.

Desk-scale limit: Pollard-Brent takes about sqrt(q) steps, q the
second-largest prime factor, so factoring is fast when every factor but the
largest is below about 10^12 and slows beyond; nothing here fails, it only
takes long.
"""

from __future__ import annotations

import math

_TRIAL = 1000  # trial division by the primes below this
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # the bases above decide every n below this


def primerange(a: int, b: int) -> list[int]:
    """The primes p with a <= p < b, ascending."""
    if b <= 2:
        return []
    sieve = bytearray([1]) * b
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(b - 1) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, b, q)))
    return [q for q in range(max(a, 2), b) if sieve[q]]


_SMALL_PRIMES = primerange(2, _TRIAL)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin to base a, for odd n > a."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def power(x, n: int, mul, one):
    """x^n for n >= 0 by right-to-left binary powering: r = mul(r, x) on each
    set bit of n, starting from one, and x is squared only while bits
    remain (Cohen, GTM 138, 1.2)."""
    r = one
    while True:
        if n & 1:
            r = mul(r, x)
        n >>= 1
        if not n:
            return r
        x = mul(x, x)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n)."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    if n < 0:
        return (-1 if a < 0 else 1) * kronecker(a, -n)
    t = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            t = -t
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 1 not a square."""
    D = 5
    while (j := kronecker(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1

    def half(x: int) -> int:
        return (x + n if x & 1 else x) // 2

    U, V, Qk = 1, P, Q % n  # U_k, V_k, Q^k for k = 1, then left to right over d
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = half((P * U + V) % n), half((D * U + P * V) % n)
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def isprime(n: int) -> bool:
    """Whether the integer n is prime."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
        if q * q > n:
            return True
    if n < _TRIAL * _TRIAL:
        return True
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return (_strong_probable_prime(n, 2) and math.isqrt(n) ** 2 != n
            and _strong_lucas_probable_prime(n))


def _brent(n: int) -> int:
    """A proper divisor of the odd composite n > 1 (Pollard-Brent rho)."""
    for c in range(1, n):
        y, r, q, g, m = 2, 1, 1, 1, 128
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"no divisor of {n} found")


def _iroot(m: int, k: int) -> int:
    """floor(m^(1/k)) for m >= 1, by Newton's method from above."""
    r = 1 << -(-m.bit_length() // k)
    while (s := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
        r = s
    return r


def _prime_factor(m: int) -> int:
    """A prime factor of m > 1, where m has no prime factor below _TRIAL."""
    while not isprime(m):
        for k in _SMALL_PRIMES:  # m = r^k with r >= _TRIAL bounds k
            if _TRIAL ** k > m:
                m = _brent(m)
                break
            if (r := _iroot(m, k)) ** k == m:
                m = r
                break
    return m


def factorint(n: int) -> dict[int, int]:
    """{prime: exponent} for n >= 1, in ascending prime order."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for q in _SMALL_PRIMES:
        if q * q > n:
            break
        while n % q == 0:
            n //= q
            out[q] = out.get(q, 0) + 1
    while n > 1:
        q = _prime_factor(n)
        while n % q == 0:
            n //= q
            out[q] = out.get(q, 0) + 1
    return dict(sorted(out.items()))


def sqrt_mod(a: int, p: int) -> int:
    """The least r >= 0 with r^2 = a mod the odd prime p (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    q, s = p - 1, 0
    while not q & 1:
        q >>= 1
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)
