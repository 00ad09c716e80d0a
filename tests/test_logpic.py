from fractions import Fraction

import pytest

from logdescent.ideals import class_group, s_class_group
from logdescent.logpic import LogDivisor, LogPic
from logdescent.qfield import make_field, primes_above

from oracles import project_to_s_class_group


def test_is_zero_principal_and_not():
    K = make_field(-47)
    p2 = primes_above(K, 2)[0]
    G = LogPic(K, {p2: 5})
    # div(2) = p2 + p2bar is principal and integral
    D = LogDivisor.of_element(K(2))
    assert G.is_zero(D)
    assert not G.is_zero(LogDivisor(K, {p2: Fraction(1)}))
    assert G.is_zero(LogDivisor(K, {p2: Fraction(5)}))


def test_adding_principal_divisor_does_not_change_class():
    K = make_field(-47)
    p2 = primes_above(K, 2)[0]
    G = LogPic(K, {p2: 5})
    D = LogDivisor(K, {p2: Fraction(2, 5)})
    x = K(3, 1)  # 3 + omega, some nonzero element
    assert G.equal(D, D + LogDivisor.of_element(x))


def test_fractional_coefficient_needs_multiplicity():
    K = make_field(-47)
    p2, p2b = primes_above(K, 2)
    G = LogPic(K, {p2: 5})
    with pytest.raises(ValueError):
        G.class_coords(LogDivisor(K, {p2b: Fraction(1, 5)}))
    with pytest.raises(ValueError):
        G.class_coords(LogDivisor(K, {p2: Fraction(1, 2)}))


def test_group_order_extension_of_class_group():
    K = make_field(-47)
    assert class_group(K).coker.order == 5
    p2 = primes_above(K, 2)[0]
    G = LogPic(K, {p2: 5})
    # 0 -> Z/5 (fibral part) -> logPic -> Cl = C5 -> 0
    assert G.order() == 25
    assert G.coker.p_torsion_dim(5) in (1, 2)


def test_span_dim():
    K = make_field(-47)
    p2 = primes_above(K, 2)[0]
    G = LogPic(K, {p2: 5})
    D = LogDivisor(K, {p2: Fraction(1)})
    if G.coker.p_torsion_dim(5) == 1:
        # logPic is C25 here; [p2] has order dividing 5
        assert G.span_dim([D], 5) <= 1
    Z = LogDivisor.of_element(K(2))
    assert G.span_dim([Z], 5) == 0
    assert G.span_dim([], 5) == 0


def test_rational_field():
    Q = make_field(None)
    p11 = primes_above(Q, 11)[0]
    G = LogPic(Q, {p11: 5})
    assert G.order() == 5
    assert G.is_zero(LogDivisor(Q, {p11: Fraction(1)}))
    assert not G.is_zero(LogDivisor(Q, {p11: Fraction(2, 5)}))
    assert G.span_dim([LogDivisor(Q, {p11: Fraction(1, 5)})], 5) == 1


def test_nu_fractional_parts():
    K = make_field(-47)
    p2, p2b = primes_above(K, 2)
    G = LogPic(K, {p2: 5, p2b: 5})
    D = LogDivisor(K, {p2: Fraction(4, 5), p2b: Fraction(-1, 5)})
    assert G.nu(D) == {p2: Fraction(4, 5), p2b: Fraction(4, 5)}
    assert G.nu(LogDivisor.of_element(K(6))) == {}
    D2 = LogDivisor(K, {p2: Fraction(2, 5)})
    s = G.nu(D + D2)
    assert s[p2] == (Fraction(4, 5) + Fraction(2, 5)) % 1


def test_project_to_s_class_group():
    K = make_field(-47)
    p2, p2b = primes_above(K, 2)
    p3 = primes_above(K, 3)[0]
    G = LogPic(K, {p2: 5})
    scl = s_class_group(G.cg, G.places)
    proj = lambda D: project_to_s_class_group(G, scl, D)
    # supported inside the bad set: trivial projection
    assert all(c == 0 for c in proj(LogDivisor(K, {p2: Fraction(3, 5)})))
    # a prime off the bad set maps to its class in Cl(O_{K,{p2}})
    D = LogDivisor(K, {p3: Fraction(1)})
    expect = scl.coords(list(G.cg.dlog_prime(p3)))
    assert proj(D) == expect
    # additivity
    D2 = LogDivisor(K, {p2b: Fraction(2)})
    a = proj(D)
    b = proj(D2)
    ab = proj(D + D2)
    comb = scl.coords([x + y for x, y in zip(
        scl.element_vector(list(a)), scl.element_vector(list(b)))])
    assert ab == comb


def test_torsion_presentation_dimensions():
    from logdescent.logpic import LogPicTorsion

    K = make_field(-47)
    T = LogPicTorsion(s_class_group(class_group(K), [primes_above(K, 11)[0]]), 5)
    assert T.dim == 2
    K2 = make_field(2)
    T2 = LogPicTorsion(s_class_group(class_group(K2), [primes_above(K2, 11)[0]]), 5)
    assert T2.dim == 1
    T0 = LogPicTorsion(s_class_group(class_group(make_field(-7)), []), 5)
    assert T0.dim == 0


def test_torsion_presentation_split_class_generator():
    # Cl(Q(sqrt(-47))) = Z/5; the split primes above 2 generate it, so with
    # S = {p2} the torsion is 1-dimensional, generated by a lift with a
    # (1/5) p2 tail
    from logdescent.logpic import LogPicTorsion

    K = make_field(-47)
    p2 = primes_above(K, 2)[0]
    T = LogPicTorsion(s_class_group(class_group(K), [p2]), 5)
    assert T.dim == 1
    assert T.vector(T.gens[0]) != [0] * T.dim


def test_exactness_dimension_many_triples():
    # dim logPic(X,S)[p] = #S + dim Cl(O_K,S)[p] over a battery of triples
    from logdescent.logpic import LogPicTorsion

    count = 0
    for D in (-47, -23, -31, 2, 10, -5, -103):
        K = make_field(D)
        cg = class_group(K)
        for ells in ((), (11,), (2,), (11, 3)):
            S = []
            ok = True
            for ell in ells:
                prs = primes_above(K, ell)
                if prs[0].kind == "ramified":
                    ok = False
                    break
                S.append(prs[0])
            if not ok:
                continue
            for p in (3, 5):
                T = LogPicTorsion(s_class_group(class_group(K), S), p)
                assert T.dim == len(S) + s_class_group(cg, S).mod_p_dim(p)
                count += 1
    assert count >= 20


def test_split_case_when_s_classes_trivial():
    # Cl(<S>)[p] = 0: every generator lift has zero class-group part, so the
    # presentation is visibly a direct sum
    from logdescent.logpic import LogPicTorsion

    K = make_field(-47)
    p11 = primes_above(K, 11)[0]  # inert, principal
    T = LogPicTorsion(s_class_group(class_group(K), [p11]), 5)
    vecs = [T.vector(g) for g in T.gens]
    # S-generator maps to zero in Cl_S part and the class lift has no S tail
    assert T.gens[0].coeffs == {p11: Fraction(1, 5)}
    assert all(pr != p11 or a.denominator == 1 for pr, a in T.gens[1].coeffs.items())
    from logdescent.linalg import fp_rank
    assert fp_rank(vecs, 5) == 2
