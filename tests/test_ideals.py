import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import primerange

from logdescent.ideals import (
    ClassGroup,
    Cokernel,
    LatticeIdeal,
    LimitError,
    _certify,
    _class_lattice,
    _prime_form,
    _principal_test,
    _reduce,
    class_group,
    field_selmer_basis,
    fundamental_unit,
    ideal_generator,
    s_class_group,
    s_unit_lattice,
    theta_image_dim,
)
from logdescent.linalg import fp_rank, hnf, smith_normal_form
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
    assert tuple((x + y) % d for x, y, d in zip(t, tbar, cg.coker.divisors)) == cg.identity()


def test_frac_ideal_of_element_is_principal():
    K = make_field(-47)
    w = K.omega()
    x = (K(3) + w) * (K(2) - w) / K(5)
    g = ideal_generator(K, prime_divisors(K, x))
    assert g is not None
    u = x / g
    assert abs(u.norm()) == 1 and prime_divisors(K, u) == {}


# -- real embedding comparisons, an oracle independent of the rho-cycle ------


def _real_sign(x):
    """Sign of x under the embedding sqrt(m) > 0."""
    if not x:
        return 0
    a, b = x.a, x.b
    m = x.field.radicand
    if b == 0:
        return 1 if a > 0 else -1
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    big_a = a * a > b * b * m
    if big_a:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


def _real_greater(x, y):
    return _real_sign(x - y) > 0


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
        assert _real_greater(eps, eps.field(1))


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
    b = field_selmer_basis(s_class_group(class_group(Q), S), p)
    assert b.dim == 1 and b.gens[0] == Q(11)
    # imaginary, trivial class group
    K7 = make_field(-7)
    S = primes_above(K7, 11)  # 11 in Q(sqrt -7): kronecker(-7,11)?
    b = field_selmer_basis(s_class_group(class_group(K7), S), p)
    assert b.dim == len(S)
    for x in b.gens:
        for pr, e in prime_divisors(K7, x).items():
            assert pr in S or e % p == 0
    # imaginary with Cl = C5
    K = make_field(-47)
    b0 = field_selmer_basis(s_class_group(class_group(K), []), p)
    assert b0.dim == 1 and len(b0.class_gens) == 1
    g = b0.class_gens[0]
    for pr, e in prime_divisors(K, g).items():
        assert e % 5 == 0
    # with a split prime above 11 (inert or split depending on field)
    S11 = primes_above(K, 11)
    b1 = field_selmer_basis(s_class_group(class_group(K), S11), p)
    assert b1.dim == len(S11) + class_group(K).coker.p_torsion_dim(p) - theta_image_dim(class_group(K), S11, p)
    # real field: fundamental unit enters
    K2 = make_field(2)
    b2 = field_selmer_basis(s_class_group(class_group(K2), []), 3)
    assert b2.dim == 1 and b2.gens[0] == fundamental_unit(K2)
    # mu_3 in Q(sqrt -3)
    K3 = make_field(-3)
    b3 = field_selmer_basis(s_class_group(class_group(K3), []), 3)
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
        assert ideal_generator(K, {pr: e for pr, e in zip(S, vec)}) is not None


# -- the S-class map against its former, independent implementations ---------


def _kernel_lattice_oracle(cg, S):
    """HNF of {n in Z^S : sum n_v [v] = 0}, from its own Smith form of
    [W | diag(d)] with the S columns first."""
    n = cg.coker.ngens
    if n == 0:
        return [[int(i == j) for j in range(len(S))] for i in range(len(S))]
    ncols = len(S) + n
    A = [[0] * ncols for _ in range(n)]
    for j, pr in enumerate(S):
        for i, c in enumerate(cg.dlog_prime(pr)):
            A[i][j] = c
    for i, d in enumerate(cg.coker.divisors):
        A[i][len(S) + i] = d
    _, _, D, V = smith_normal_form(A, with_v=True)
    rank = sum(1 for i in range(n) if D[i][i] != 0)
    return hnf([[V[i][j] for i in range(len(S))] for j in range(rank, ncols)])


def _s_combination_oracle(cg, S, target):
    """The first a in product(range(h), repeat=|S|) with sum a_v [v] = target."""
    W = [cg.dlog_prime(pr) for pr in S]
    for combo in itertools.product(range(cg.order), repeat=len(S)):
        if all((sum(c * w[i] for c, w in zip(combo, W)) - t) % d == 0
               for i, (t, d) in enumerate(zip(target, cg.coker.divisors))):
            return list(combo)
    raise AssertionError("target not in the image of Z^S")


S_CLASS_FIELDS = [-7, -5, -14, -21, -23, -26, -47, -65, -71, -89, -105,
                  2, 10, 15, 79, 82, 145, 226, 229]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(S_CLASS_FIELDS), st.data())
def test_s_class_map_matches_oracles(m, data):
    K = make_field(m)
    cg = class_group(K)
    places = [pr for ell in primerange(2, 14) for pr in primes_above(K, ell)]
    S = data.draw(st.lists(st.sampled_from(places), min_size=1, max_size=4, unique=True))
    scl = s_class_group(cg, S)
    assert scl.unit_lattice == _kernel_lattice_oracle(cg, S)
    assert s_unit_lattice(cg, S) == scl.unit_lattice
    # a solvable target: the class of a random S-combination, unreduced
    a = data.draw(st.lists(st.integers(-30, 30), min_size=len(S), max_size=len(S)))
    k = data.draw(st.lists(st.integers(-3, 3), min_size=cg.coker.ngens,
                           max_size=cg.coker.ngens))
    W = [cg.dlog_prime(pr) for pr in S]
    target = [sum(av * w[i] for av, w in zip(a, W)) + ki * d
              for i, (ki, d) in enumerate(zip(k, cg.coker.divisors))]
    assert scl.s_combination(target) == _s_combination_oracle(cg, S, target)
    for p in (3, 5):
        for gvec, lift in scl.torsion_lifts(p):
            Ic = cg.coker.coords(gvec)
            assert lift == _s_combination_oracle(cg, S, [-p * c for c in Ic])


def _all_elements(coker):
    """Coordinate tuples of every element of a finite Cokernel, in the
    lexicographic order of the nontrivial factors."""
    idx = coker.nontrivial_indices()
    for combo in itertools.product(*(range(coker.divisors[i]) for i in idx)):
        full = [0] * coker.ngens
        for i, c in zip(idx, combo):
            full[i] = c
        yield tuple(full)


def _fraction_inverse(U):
    """U^-1 by Gauss-Jordan elimination over Q."""
    n = len(U)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(U)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    out = [row[n:] for row in aug]
    assert all(x.denominator == 1 for row in out for x in row)
    return [[int(x) for x in row] for row in out]


# squarefree m != 0, 1: imaginary and real quadratic fields
RANDOM_FIELDS = st.integers(-250, 250).filter(
    lambda m: m not in (0, 1) and all(m % (q * q) for q in range(2, 16)))


def _small_places(K):
    return [pr for ell in primerange(2, 14) for pr in primes_above(K, ell)]


@settings(max_examples=40, deadline=None)
@given(RANDOM_FIELDS, st.data())
def test_smith_form_inverse_matches_fraction_oracle(m, data):
    K = make_field(m)
    cg = class_group(K)
    S = data.draw(st.lists(st.sampled_from(_small_places(K)), max_size=4, unique=True))
    for coker in (cg.coker, s_class_group(cg, S)):
        assert coker.Uinv == _fraction_inverse(coker.U)
        for c in _all_elements(coker):
            assert coker.coords(coker.element_vector(list(c))) == c


@settings(max_examples=40, deadline=None)
@given(RANDOM_FIELDS, st.data())
def test_ideal_generator_against_class_group_dlog(m, data):
    K = make_field(m)
    cg = class_group(K)
    powers = data.draw(st.dictionaries(st.sampled_from(_small_places(K)),
                                       st.integers(-3, 3), max_size=4))
    acc = [0] * cg.coker.ngens
    for pr, e in powers.items():
        acc = [a + e * t for a, t in zip(acc, cg.dlog_prime(pr))]
    principal = all(a % d == 0 for a, d in zip(acc, cg.coker.divisors))
    g = ideal_generator(K, powers)
    assert (g is not None) == principal
    if g is not None:
        assert prime_divisors(K, g) == {pr: e for pr, e in powers.items() if e}


def _continued_fraction_unit(m):
    """p - q*conj(omega) for the convergent p/q that ends the first period of
    the continued fraction of omega = sqrt(m) or (1 + sqrt(m))/2 (Cohen 5.7)."""
    s = math.isqrt(m)
    P, Q = (1, 2) if m % 4 == 1 else (0, 1)  # omega = (P + sqrt(m))/Q
    p0, q0, p1, q1 = 1, 0, (P + s) // Q, 1
    P = p1 * Q - P
    Q = (m - P * P) // Q
    first = (P, Q)
    while True:
        a = (P + s) // Q
        P = a * Q - P
        Q = (m - P * P) // Q
        if (P, Q) == first:
            break
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
    K = make_field(m)
    return p1 - q1 * K.omega().conj()


def test_fundamental_units_match_continued_fractions():
    squarefree = [m for m in range(2, 300) if all(m % (q * q) for q in range(2, 18))]
    assert len(squarefree) == 182
    for m in squarefree:
        eps = fundamental_unit(make_field(m))
        assert abs(eps.norm()) == 1, m
        assert _real_greater(eps, eps.field(1)), m
        assert eps == _continued_fraction_unit(m), m
    # norm +1 units, the closing step of the principal cycle
    for m, a, b in ((19, 170, 39), (94, 2143295, 221064), (151, 1728148040, 140634693)):
        K = make_field(m)
        assert fundamental_unit(K) == K(a, b)
        assert K(a, b).norm() == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(300, 10 ** 5 - 1).filter(lambda m: all(m % (q * q) for q in range(2, 317))))
def test_fundamental_unit_matches_continued_fraction(m):
    eps = fundamental_unit(make_field(m))
    assert eps == _continued_fraction_unit(m)
    assert abs(eps.norm()) == 1 and _real_greater(eps, eps.field(1))


# squarefree m != 0, 1 with |m| <= 1500
FIELDS_1500 = st.integers(-1500, 1500).filter(
    lambda m: m not in (0, 1) and all(m % (q * q) for q in range(2, 39)))


@settings(max_examples=60, deadline=None)
@given(FIELDS_1500, st.data())
def test_form_principality_matches_lattice(m, data):
    K = make_field(m)
    cg = class_group(K)
    n = len(cg.factor_base)
    vec = data.draw(st.lists(st.sampled_from([-2, -1, 0, 0, 0, 0, 1, 2, 3]),
                             min_size=n, max_size=n))
    # the same class times a principal ideal: vec minus the canonical
    # vector of its own class
    rel = [a - b for a, b in zip(vec, cg.coker.element_vector(list(cg.coker.coords(vec))))]
    principal = _principal_test(K.disc)
    # certification walks every class once, in lexicographic order
    assert [c for c, _ in cg.class_forms()] == list(_all_elements(cg.coker))
    for v in (vec, rel):
        assert principal(cg._vector_form(v)) == cg._ideal_from_fb_vector(v).is_principal()[0]
    assert principal(cg._vector_form(rel))
    assert principal(cg._vector_form([0] * n))


@settings(max_examples=40, deadline=None)
@given(FIELDS_1500, st.sampled_from(list(primerange(2, 400))), st.data())
def test_dlog_prime_table_matches_lattice(m, ell, data):
    K = make_field(m)
    cg = class_group(K)
    pr = data.draw(st.sampled_from(primes_above(K, ell)))
    c = cg.dlog_prime(pr)
    vec = cg.coker.element_vector(list(c))
    test = LatticeIdeal.from_prime(pr) * cg._ideal_from_fb_vector([-v for v in vec])
    assert test.is_principal()[0]
    # the table agrees with the relation-matrix coordinates of the factor base
    for i, p in enumerate(cg.factor_base):
        e = [int(i == j) for j in range(len(cg.factor_base))]
        assert cg._form_table[_reduce(_prime_form(p), K.disc)] == cg.coker.coords(e)


# -- ideal products by composition against the former lattice product -------


def _lattice_of(K, gens):
    """(HNF rows, den) of the Z-span of gens and gens*omega over (1, omega),
    divided through by the content common to the rows and den."""
    w = K.omega()
    coords = [h.integer_coords() for g in gens for h in (g, g * w)]
    den = math.lcm(*(d for _, _, d in coords))
    rows = hnf([[A * (den // d), B * (den // d)] for A, B, d in coords])
    g = math.gcd(*(x for r in rows for x in r), den)
    return [[x // g for x in r] for r in rows], den // g


def _lattice_basis(K, L):
    rows, den = L
    return [K.from_omega(*r, den) for r in rows]


def _lattice_mul(K, L1, L2):
    return _lattice_of(K, [x * y for x in _lattice_basis(K, L1) for y in _lattice_basis(K, L2)])


def _lattice_conj(K, L):
    return _lattice_of(K, [x.conj() for x in _lattice_basis(K, L)])


def _lattice_norm(L):
    (a, b), (c, d) = L[0]
    return Fraction(abs(a * d - b * c), L[1] ** 2)


def _class_lattice_oracle(K, pairs):
    """(rows of I * conj(J), N(J)) for prod p^e = I/J, by lattice products."""
    I = J = _lattice_of(K, [K(1)])
    for pr, e in pairs:
        P = _lattice_of(K, [K(pr.ell), pr.second_gen()])
        for _ in range(abs(e)):
            if e > 0:
                I = _lattice_mul(K, I, P)
            else:
                J = _lattice_mul(K, J, P)
    return _lattice_mul(K, I, _lattice_conj(K, J)), _lattice_norm(J)


@settings(max_examples=60, deadline=None)
@given(FIELDS_1500, st.data())
def test_form_products_match_lattice_products(m, data):
    K = make_field(m)
    places = [pr for ell in primerange(2, 60) for pr in primes_above(K, ell)]
    chosen = data.draw(st.lists(st.sampled_from(places), min_size=1, max_size=3, unique=True))
    pairs = [(pr, data.draw(st.integers(-4, 4))) for pr in chosen]
    L, nJ = _class_lattice(K, pairs)
    (rows, den), nJ_oracle = _class_lattice_oracle(K, pairs)
    assert den == 1
    assert L.rows == rows
    assert L.norm() == _lattice_norm((rows, den))
    assert nJ == nJ_oracle
    for pr in chosen:
        Pbar = LatticeIdeal.from_prime(pr).conjugate()
        oracle = _lattice_conj(K, _lattice_of(K, [K(pr.ell), pr.second_gen()]))
        assert (Pbar.rows, 1) == oracle
        assert Pbar.norm() == pr.norm() == _lattice_norm(oracle)


def _count_reduced_forms(D):
    """h(D) for D < 0: the primitive forms (a, b, c) of discriminant D with
    |b| <= a <= c, and b >= 0 if |b| = a or a = c."""
    h = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if math.gcd(a, b, c) == 1:
                h += 1
        a += 1
    return h


def _theta_image_dim_oracle(cg, S, p):
    """The F_p-rank of the rows dlog_prime(v) mod p, v in S, on the cyclic
    factors of Cl(K) of order divisible by p."""
    rows = [[c % p for c, d in zip(cg.dlog_prime(pr), cg.coker.divisors) if d % p == 0]
            for pr in S]
    rows = [r for r in rows if r]
    return fp_rank(rows, p) if rows else 0


@settings(max_examples=80, deadline=None)
@given(FIELDS_1500, st.sampled_from([3, 5, 7]), st.data())
def test_theta_image_dim_matches_rank_oracle(m, p, data):
    K = make_field(m)
    cg = class_group(K)
    places = [pr for ell in primerange(2, 60) for pr in primes_above(K, ell)]
    S = data.draw(st.lists(st.sampled_from(places), max_size=5, unique=True))
    assert theta_image_dim(cg, S, p) == _theta_image_dim_oracle(cg, S, p)


def test_class_numbers_against_reduced_form_count():
    for m, h in ((-1019, 13), (-10007, 77), (-100003, 39)):
        assert _count_reduced_forms(m) == h
        assert class_group(make_field(m)).order == h


def test_relation_bound_is_named(monkeypatch):
    from logdescent import ideals
    monkeypatch.setattr(ideals, "MAX_RELATION_BOUND", 12)
    monkeypatch.setattr(ideals, "_CLASS_GROUP_CACHE", {})
    with pytest.raises(LimitError, match="disc -47 passed the box bound 12"):
        class_group(make_field(-47))


def test_certification_limit_is_named():
    K = make_field(-47)
    cg = ClassGroup(K, primes_above(K, 2)[:1], Cokernel(1, [[200003]]))
    with pytest.raises(LimitError, match="200003 is past the certification limit 200000"):
        _certify(cg)
