from fractions import Fraction

from logdescent.ideals import (
    FracIdeal,
    LatticeIdeal,
    class_group,
    field_selmer_basis,
    fundamental_unit,
    real_greater,
    s_class_group,
    s_unit_lattice,
    theta_image_dim,
)
from logdescent.qfield import make_field, prime_divisors, primes_above

KNOWN_H = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -19: 1, -20: 2, -23: 3,
    -24: 2, -35: 2, -39: 4, -40: 2, -47: 5, -79: 5, -103: 5, -127: 5,
    2: 1, 5: 1, 10: 2, 79: 3,
}


def test_class_numbers():
    for D, h in KNOWN_H.items():
        cg = class_group(make_field(D))
        assert cg.order == h, (D, cg.order, h)


def test_class_group_structures():
    assert class_group(make_field(-47)).divisors == [5]
    assert class_group(make_field(-39)).divisors == [4]
    assert class_group(make_field(-21)).divisors == [2, 2]


def test_dlog_and_principality():
    K = make_field(-47)
    cg = class_group(K)
    p2 = primes_above(K, 2)[0]
    t = cg.dlog_prime(p2)
    assert any(c != 0 for c in t)
    I = LatticeIdeal.from_prime(p2)
    assert not I.is_principal()[0]
    ok, g = (I ** 5).is_principal()
    assert ok and abs(g.norm()) == 32
    # conjugate class is the inverse
    tbar = cg.dlog_prime(p2.conjugate())
    assert cg.coords_add(t, tbar) == cg.identity()


def test_frac_ideal_of_element_is_principal():
    K = make_field(-47)
    w = K.omega()
    x = (K(3) + w) * (K(2) - w) / K(5)
    I = FracIdeal.principal(x)
    ok, g = I.is_principal()
    assert ok
    u = x / g
    assert abs(u.norm()) == 1 and prime_divisors(K, u) == {}


def test_fundamental_units():
    K2 = make_field(2)
    eps = fundamental_unit(K2)
    assert eps == K2(1) + K2.sqrt_gen()
    K5 = make_field(5)
    eps5 = fundamental_unit(K5)
    assert eps5 == K5.omega()  # (1 + sqrt 5)/2
    K229 = make_field(229)
    eps229 = fundamental_unit(K229)
    assert eps229 == K229(7) + K229.omega()  # (15 + sqrt 229)/2
    K10 = make_field(10)
    assert fundamental_unit(K10) == K10(3) + K10.sqrt_gen()
    for eps in (eps, eps5, eps229):
        assert abs(eps.norm()) == 1
        assert real_greater(eps, eps.field(1))


def test_s_class_group_and_theta():
    K = make_field(-47)
    cg = class_group(K)
    p2 = primes_above(K, 2)[0]
    quot = s_class_group(cg, [p2])
    assert quot.order == 1  # [p2] generates C5
    assert theta_image_dim(cg, [p2], 5) == 1
    # inert primes give nothing to kill
    p13 = primes_above(K, 13)
    if p13[0].kind == "inert":
        quot2 = s_class_group(cg, p13)
        assert quot2.order == 5


def test_s_unit_lattice_and_selmer_basis_dims():
    p = 5
    # rational field
    Q = make_field(None)
    S = primes_above(Q, 11)
    b = field_selmer_basis(Q, S, p)
    assert b.dim == 1 and b.gens[0] == Q(11)
    # imaginary, trivial class group
    K7 = make_field(-7)
    S = primes_above(K7, 11)  # 11 in Q(sqrt -7): kronecker(-7,11)?
    b = field_selmer_basis(K7, S, p)
    assert b.dim == len(S)
    for x in b.gens:
        for pr, e in prime_divisors(K7, x).items():
            assert pr in S or e % p == 0
    # imaginary with Cl = C5
    K = make_field(-47)
    b0 = field_selmer_basis(K, [], p)
    assert b0.dim == 1 and len(b0.class_gens) == 1
    g = b0.class_gens[0]
    for pr, e in prime_divisors(K, g).items():
        assert e % 5 == 0
    # with a split prime above 11 (inert or split depending on field)
    S11 = primes_above(K, 11)
    b1 = field_selmer_basis(K, S11, p)
    assert b1.dim == len(S11) + class_group(K).coker.p_torsion_dim(p) - theta_image_dim(class_group(K), S11, p)
    # real field: fundamental unit enters
    K2 = make_field(2)
    b2 = field_selmer_basis(K2, [], 3)
    assert b2.dim == 1 and b2.gens[0] == fundamental_unit(K2)
    # mu_3 in Q(sqrt -3)
    K3 = make_field(-3)
    b3 = field_selmer_basis(K3, [], 3)
    assert b3.dim == 1
    z = b3.gens[0]
    assert z ** 3 == K3(1) and z != K3(1)


def test_s_unit_lattice_shape():
    K = make_field(-47)
    cg = class_group(K)
    S = primes_above(K, 2) + primes_above(K, 3)
    L = s_unit_lattice(cg, S)
    assert len(L) == len(S)
    # every lattice vector gives a principal product
    for vec in L:
        I = FracIdeal(K, {pr: e for pr, e in zip(S, vec)})
        assert I.is_principal()[0]
