import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import logdescent
from logdescent.linalg import fp_rank
from logdescent.localfield import LocalUnitGroup, is_local_pth_power
from logdescent.ntheory import power
from logdescent.qfield import make_field, primes_above, reduce_mod


def brute_is_pth_power(x, pr, p):
    """Oracle: search w with w^p = x mod pi^(2 v(p) + 1), over canonical
    residues of O/pi^N."""
    K = pr.field
    N = 2 * pr.val(K(p)) + 1
    ell = pr.ell
    target = reduce_mod(x, pr, N)
    if K.is_rational or pr.kind == "split":
        for a in range(ell ** N):
            if pr.val(K(a)) == 0 and pr.val(K(a) ** p - target) >= N:
                return True
        return False
    mod = ell ** N if pr.kind == "inert" else ell ** ((N + 3) // 2)
    for a in range(mod):
        for b in range(mod):
            w = K(a) + K(b) * K.omega()
            if pr.val(w) != 0:
                continue
            if pr.val(w ** p - target) >= N:
                return True
    return False


def test_tame_units_rational():
    Q = make_field(None)
    p = 5
    pr11 = primes_above(Q, 11)[0]  # 11 = 1 mod 5
    g = LocalUnitGroup(pr11, p)
    assert g.dim == 1
    # fifth powers mod 11: 1 and 10 are; 2 is not
    assert g.is_pth_power(Q(10))
    assert not g.is_pth_power(Q(2))
    # coordinates add under multiplication
    c2 = g.coords(Q(2))
    c4 = g.coords(Q(4))
    assert (c2[0] * 2) % 5 == c4[0]
    pr7 = primes_above(Q, 7)[0]  # 7 - 1 not divisible by 5
    g7 = LocalUnitGroup(pr7, p)
    assert g7.dim == 0 and g7.is_pth_power(Q(3))


def test_tame_units_quadratic():
    K = make_field(-47)
    p = 5
    # inert prime q = ell^2: p | q - 1 iff ell^2 = 1 mod 5
    pr = primes_above(K, 13)[0]
    assert pr.kind == "inert"  # 13^2 = 169 = 4 mod 5... check dim logic vs oracle
    g = LocalUnitGroup(pr, p)
    for x in (K(2), K(3) + K.omega(), K(7) - 2 * K.omega()):
        assert pr.val(x) == 0
        assert g.is_pth_power(x) == brute_is_pth_power(x, pr, p)


def test_wild_unramified():
    Q = make_field(None)
    p = 5
    pr5 = primes_above(Q, 5)[0]
    g = LocalUnitGroup(pr5, p)
    assert g.dim == 1
    for a in (2, 3, 6, 7, 26, 24):
        assert g.is_pth_power(Q(a)) == brute_is_pth_power(Q(a), pr5, p), a
    # multiplicativity
    ca, cb = g.coords(Q(6)), g.coords(Q(7))
    assert g.coords(Q(42))[0] == (ca[0] + cb[0]) % 5


def test_wild_split_and_inert():
    p = 3
    K = make_field(-47)
    prs = primes_above(K, 3)
    for pr in prs:
        g = LocalUnitGroup(pr, p)
        assert g.dim == pr.e * pr.f
        w = K.omega()
        tested = 0
        for x in (K(2), K(4), K(1) + 3 * w, K(2) - 3 * w, K(5) + w):
            if pr.val(x) != 0:
                continue
            tested += 1
            assert g.is_pth_power(x) == brute_is_pth_power(x, pr, p), x
        assert tested >= 3
        # additivity of coordinates
        a, b = K(2), K(1) + 3 * w
        if pr.val(a) == 0 and pr.val(b) == 0:
            ca, cb, cab = g.coords(a), g.coords(b), g.coords(a * b)
            assert all((x + y) % p == z for x, y, z in zip(ca, cb, cab))


@pytest.mark.parametrize("m, p", [(2, 5), (3, 5), (-1, 7), (2, 3)])
def test_log_coords_at_an_inert_prime_above_p(m, p):
    # e = 1 < p - 1 and f = 2: two log digits in k = F_{p^2}. As p is odd and
    # unramified, U_1^p = U_2, so a unit u is a p-th power iff
    # u^(q-1) = 1 mod p^2
    K = make_field(m)
    (pr,) = primes_above(K, p)
    assert pr.kind == "inert"
    g = LocalUnitGroup(pr, p)
    assert g.dim == 2
    rng = random.Random(m * p)
    units = []
    while len(units) < 60:
        x = K.from_omega(rng.randrange(-p ** 3, p ** 3), rng.randrange(-p ** 3, p ** 3))
        if pr.val(x) == 0:
            units.append(x)
    mul = lambda a, b: reduce_mod(a * b, pr, 2)
    for x in units + [u ** p for u in units[:5]]:
        w = power(x, g.q - 1, mul, K(1))
        assert g.is_pth_power(x) == (pr.val(w - K(1)) >= 2), x
    coords = [g.coords(x) for x in units]
    for (x, cx), (y, cy) in zip(zip(units, coords), zip(units[1:], coords[1:])):
        assert g.coords(x * y) == tuple((a + b) % p for a, b in zip(cx, cy))
    # additive and of rank 2, so onto F_p^2
    assert fp_rank([list(c) for c in coords], p) == 2


def test_wild_ramified_p3():
    p = 3
    K = make_field(3)  # disc 12, 3 ramified, e = 2 = p - 1
    pr = primes_above(K, 3)[0]
    assert pr.kind == "ramified"
    g = LocalUnitGroup(pr, p)
    assert g.dim in (2, 3)
    w = K.sqrt_gen()
    for x in (K(2), K(4), K(1) + 3 * w, K(2) + w * 3, K(5)):
        assert pr.val(x) == 0
        assert g.is_pth_power(x) == brute_is_pth_power(x, pr, p), x


def test_valuation_aware_test():
    Q = make_field(None)
    pr = primes_above(Q, 11)[0]
    assert not is_local_pth_power(Q(11), pr, 5)
    assert is_local_pth_power(Q(11 ** 5), pr, 5)
    assert is_local_pth_power(Q(10 * 11 ** 5), pr, 5)
    assert not is_local_pth_power(Q(2) * 11 ** 5, pr, 5)


def test_named_errors_survive_optimize():
    # a non-unit given to LocalUnitGroup.coords, and a class that is not
    # p-torsion given to LogPic.p_torsion_vector, raise ValueError under -O:
    # (1/25)(11) has order 25, and (1/2)(11) order 2
    src = os.path.dirname(os.path.dirname(os.path.abspath(logdescent.__file__)))
    script = ("import sys\n"
              "from fractions import Fraction\n"
              "from logdescent.localfield import LocalUnitGroup\n"
              "from logdescent.logpic import LogDivisor, LogPic\n"
              "from logdescent.qfield import make_field, primes_above\n"
              "assert False, 'asserts are on'\n"
              "Q = make_field(None)\n"
              "v = primes_above(Q, 11)[0]\n"
              "D = LogDivisor(Q, {v: Fraction(1, 25)})\n"
              "E = LogDivisor(Q, {v: Fraction(1, 2)})\n"
              "for bad in (lambda: LocalUnitGroup(v, 5).coords(Q(22)),\n"
              "            lambda: LogPic(Q, {v: 25}).p_torsion_vector(D, 5),\n"
              "            lambda: LogPic(Q, {v: 2}).p_torsion_vector(E, 5)):\n"
              "    try:\n"
              "        bad()\n"
              "    except ValueError:\n"
              "        continue\n"
              "    sys.exit(1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
