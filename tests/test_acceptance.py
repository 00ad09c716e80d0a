"""Acceptance criteria, one test per criterion; all equalities are exact."""

import random
import time
from fractions import Fraction
from pathlib import Path

from logdescent.descent import (DescentContext, KummerMap, descent_report, psi,
                                psi_sel, psi_vector, sel_p_dim_if_applicable,
                                selmer_phi, selmer_phihat_dim)
from logdescent.ellcurve import Curve, curve_from_rational
from logdescent.ideals import class_group, s_class_group, theta_image_dim
from logdescent.isogeny import tate
from logdescent.linalg import fp_rank
from logdescent.localfield import LocalUnitGroup, is_local_pth_power, local_mu_p_dim
from logdescent.logpic import LogDivisor
from logdescent.pairing import bad_places, log_pairing, monodromy_pairing, pairing_group
from logdescent.qfield import ResidueField, make_field, primes_above
from logdescent.tate import ComponentGroup, component_index

from oracles import project_to_s_class_group
from test_pairing import _int_solve, _intersection_matrix, _solve_fibral


def _ctx_11a(d):
    K = make_field(d)
    E = curve_from_rational(K, (0, -1, 1, -10, -20))
    return DescentContext(E, E.point(K(5), K(5)), 5)


def _points_47(ctx):
    K = ctx.field
    y = K(Fraction(-1, 2), Fraction(1, 2))
    return ctx.Eprime.point(K(4), y), ctx.Eprime.point(K(-2), y)


def test_criterion_1_pairing_regression_158c():
    t0 = time.monotonic()
    K = make_field(-79)
    E = Curve(K, 1, 1, 1, -420, 3109)
    P = E.point(K(13), K(-15))
    Q = E.point(K(Fraction(101, 9)), K(Fraction(-55, 9), Fraction(16, 27)))
    p2, p2b = primes_above(K, 2)
    p79 = primes_above(K, 79)[0]
    lds = {pr: tate(E, pr) for pr in (p2, p2b, p79)}
    assert lds[p2].kodaira == "I20" and lds[p2].split
    assert lds[p2b].kodaira == "I20" and lds[p2b].split
    assert lds[p79].kodaira == "I2" and not lds[p79].split
    # the components carrying P and Q have orders 5 and 4 in Phi = Z/20
    jp = component_index(lds[p2], lds[p2].map_point(P, E))
    jq = component_index(lds[p2], lds[p2].map_point(Q, E))
    assert jp % 4 == 0 and jp % 5 != 0
    assert jq % 5 == 0 and jq % 4 != 0
    G = pairing_group(E)
    assert G.equal(log_pairing(E, P, Q), LogDivisor(K, {p2: Fraction(2)}))
    # fibral contribution of <P,Q>: -a_{j(Q)}(F_P) at each bad place
    fib = LogDivisor(K, {pr: -ld.phi.fibral(component_index(ld, ld.map_point(P, E)),
                                            component_index(ld, ld.map_point(Q, E)))
                         for pr, ld in lds.items()})
    assert G.equal(fib, LogDivisor(K, {p2: Fraction(-1), p2b: Fraction(-3)})) \
        or G.equal(fib, LogDivisor(K, {p2: Fraction(-3), p2b: Fraction(-1)}))
    assert G.equal(log_pairing(E, P, P),
                   LogDivisor(K, {p2: Fraction(4, 5), p2b: Fraction(4, 5)}))
    assert G.equal(log_pairing(E, Q, Q),
                   LogDivisor(K, {p2: Fraction(1, 4), p2b: Fraction(1, 4)}))
    assert time.monotonic() - t0 < 10


def test_criterion_2_descent_regression_sqrt_m47():
    t0 = time.monotonic()
    ctx = _ctx_11a(-47)
    K = ctx.field
    assert [pr.label() for pr in ctx.S1] == ["(11)"] and not ctx.S2
    sel = selmer_phi(ctx)
    assert sel.dim == 2
    # exact sequence 0 -> Z/5 kappa(P) -> Sel^phi -> Cl(O_K,{11})[5] -> 0
    Q1, Q2 = _points_47(ctx)
    T = ctx.torsion()
    scl = s_class_group(class_group(K), ctx.S1)
    assert scl.mod_p_dim(5) == 1
    scl_T = s_class_group(T.group.cg, T.group.places)
    proj = lambda x: [c % 5 for c in project_to_s_class_group(T.group, scl_T, psi_sel(ctx, x))]
    rows = [proj(x) for x in sel.basis_elements()]
    assert fp_rank(rows, 5) == 1          # surjects onto Cl_S[5], dim 1
    km = KummerMap(ctx)
    cP = km.coords(ctx.P, aux=Q2)
    assert any(cP)                         # kappa(P) has order 5
    assert not any(proj(km.element(cP)))   # and maps to 0 in Cl_S
    # psi on the Mordell-Weil generators
    assert T.group.is_zero(psi(ctx, Q1))
    p7 = next(pr for pr in primes_above(K, 7) if pr.wbar == 2)
    assert T.group.equal(psi(ctx, Q2), LogDivisor(K, {p7: Fraction(1)}))
    assert not T.group.is_zero(psi(ctx, Q2))
    assert time.monotonic() - t0 < 10


def test_criterion_3_descent_regression_sqrt_2():
    t0 = time.monotonic()
    ctx = _ctx_11a(2)
    K = ctx.field
    Q = ctx.Eprime.point(K(Fraction(9, 2)), K(Fraction(-1, 2), Fraction(7, 4)))
    assert any(psi_vector(ctx, ctx.P))
    assert ctx.torsion().group.is_zero(psi(ctx, Q))
    rep = descent_report(ctx, [Q])
    assert rep.ker_psi_dim == 1            # ker psi generated by the image of Q
    assert any(KummerMap(ctx).coords(Q))   # that image is nonzero
    E35 = curve_from_rational(K, (0, 1, 1, 9, 1))
    ctx35 = DescentContext(E35, E35.point(K(1), K(3)), 3)
    Q35 = E35.point(K(Fraction(9, 2)), K(Fraction(-1, 2), Fraction(35, 4)))
    p7 = next(pr for pr in primes_above(K, 7) if pr.wbar == 3)   # (1+2*sqrt2)
    p7b = next(pr for pr in primes_above(K, 7) if pr.wbar == 4)  # (1-2*sqrt2)
    T35 = ctx35.torsion()
    assert T35.group.equal(psi(ctx35, Q35),
                           LogDivisor(K, {p7: Fraction(2, 3), p7b: Fraction(1, 3)}))
    rows = [psi_vector(ctx35, ctx35.P), psi_vector(ctx35, Q35)]
    assert fp_rank(rows, 3) == 2           # psi injective on E'(K)/phi E(K)
    assert time.monotonic() - t0 < 10


BATTERY = [-7, -8, -11, -15, -19, -20, -23, -24, -35, -40, -47]


def _battery_data(d):
    ctx = _ctx_11a(d)
    cg = class_group(ctx.field)
    h5 = cg.coker.mod_p_dim(5)
    t = theta_image_dim(cg, ctx.S1, 5)
    sel = selmer_phi(ctx)
    return ctx, sel, h5, t


def test_criterion_4_formula_battery():
    t0 = time.monotonic()
    assert len(BATTERY) >= 10
    for d in BATTERY:
        ctx, sel, h5, t = _battery_data(d)
        assert abs(ctx.field.disc) <= 5000 and h5 <= 1
        assert t == 0
        assert sel.dim == h5 + len(ctx.S1) - t
        assert selmer_phihat_dim(ctx, sel) == h5
        selp = sel_p_dim_if_applicable(ctx, sel)
        if selp is not None:
            assert selp == 2 * h5 + len(ctx.S1) - t - 1
    assert time.monotonic() - t0 < 60


def test_criterion_5_duality_identity():
    t0 = time.monotonic()
    contexts = [_battery_data(d)[:2] for d in BATTERY + [-79]]
    # one context with S_2 nonempty away from p: 35a over Q(sqrt 2), where
    # (5) is a backward multiplicative place and p = 3
    K2 = make_field(2)
    E35 = curve_from_rational(K2, (0, 1, 1, 9, 1))
    ctx35 = DescentContext(E35, E35.point(K2(1), K2(3)), 3)
    assert ctx35.S2 and all(pr.val(K2(3)) == 0 for pr in ctx35.S2)
    contexts.append((ctx35, selmer_phi(ctx35)))
    K79 = make_field(-79)
    E158 = curve_from_rational(K79, (1, 1, 1, -420, 3109))
    ctx158 = DescentContext(E158, E158.point(K79(13), K79(-15)), 5)
    assert ctx158.S2
    contexts.append((ctx158, selmer_phi(ctx158)))
    for ctx, sel in contexts:
        p = ctx.p
        nv = sum(pr.e * pr.f if pr.val(ctx.field(p)) > 0 else local_mu_p_dim(pr, p)
                 for pr in ctx.S2)
        rhs = (len(ctx.S1) + ctx.field.infinite_places() - nv
               + ctx.field.mu_p_dim(p) - 1)
        dual = selmer_phihat_dim(ctx, sel)
        assert sel.dim - dual == rhs
        if not ctx.S2:
            # independent left side: Cor 3.4 computes the dual dimension
            # from the S_1-class group alone
            cg = class_group(ctx.field)
            assert dual == s_class_group(cg, ctx.S1).mod_p_dim(p)
    assert selmer_phihat_dim(ctx158, selmer_phi(ctx158)) == 0
    assert time.monotonic() - t0 < 60


def _fibral_columns(edges, nc, jqs):
    """Invert the non-identity block of the intersection matrix once;
    column jq-1 is then the solution vector for Q on component jq."""
    M = _intersection_matrix(edges, nc)
    n = nc - 1
    A = [row[1:] for row in M[1:]]
    inv = _int_solve(A, [[int(i == j) for j in range(n)] for i in range(n)])
    # solution for right-hand side -e_{jq} is minus column jq-1; the omitted
    # identity-component row must give +1 (Q lies on a multiplicity-1
    # component)
    cols = {}
    for jq in jqs:
        a = [Fraction(0)] + [-inv[i][jq - 1] for i in range(n)]
        assert sum(M[0][j] * a[j] for j in range(nc)) == 1
        cols[jq] = a
    return cols


def test_criterion_6_fibral_table_oracle():
    t0 = time.monotonic()
    for n in range(2, 51):
        edges = [(i, (i + 1) % n, 1) for i in range(n)] if n > 2 else [(0, 1, 2)]
        G = ComponentGroup(f"I{n}", n)
        cols = _fibral_columns(edges, n, range(1, n))
        for jq in range(1, n):
            for jr in range(1, n):
                assert G.fibral(jq, jr) == cols[jq][jr]
    for n in range(0, 21):
        last = 4 + n
        edges = [(0, 4, 1), (1, 4, 1), (2, last, 1), (3, last, 1)]
        edges += [(i, i + 1, 1) for i in range(4, last)]
        G = ComponentGroup(f"I{n}*", n)
        cols = _fibral_columns(edges, last + 1, (1, 2, 3))
        for jq in (1, 2, 3):
            for jr in (1, 2, 3):
                assert G.fibral(jq, jr) == cols[jq][jr]
    a = _solve_fibral([(0, 1, 2)], 2, 1)
    assert ComponentGroup("III", 0).fibral(1, 1) == a[1]
    tri = [(0, 1, 1), (1, 2, 1), (0, 2, 1)]
    for jq in (1, 2):
        a = _solve_fibral(tri, 3, jq)
        for jr in (1, 2):
            assert ComponentGroup("IV", 0).fibral(jq, jr) == a[jr]
    edges = [(0, 3, 1), (3, 6, 1), (1, 4, 1), (4, 6, 1), (2, 5, 1), (5, 6, 1)]
    for jq in (1, 2):
        a = _solve_fibral(edges, 7, jq)
        for jr in (1, 2):
            assert ComponentGroup("IV*", 0).fibral(jq, jr) == a[jr]
    edges = [(0, 2, 1), (2, 4, 1), (4, 6, 1), (6, 5, 1), (5, 3, 1), (3, 1, 1), (7, 6, 1)]
    a = _solve_fibral(edges, 8, 1)
    assert ComponentGroup("III*", 0).fibral(1, 1) == a[1]
    assert time.monotonic() - t0 < 10


def test_criterion_7_structural_suites():
    t0 = time.monotonic()
    ctx = _ctx_11a(-47)
    E = ctx.Eprime
    Q1, Q2 = _points_47(ctx)
    rng = random.Random(1)
    pool = [a * Q1 + b * Q2 + c * ctx.P
            for a in (-1, 0, 1) for b in (-1, 0, 1, 2) for c in (0, 1)]
    pool = [R for R in pool if not R.is_zero()]
    G = pairing_group(E)
    cache = {}

    def pair(A, B):
        if (A, B) not in cache:
            cache[(A, B)] = log_pairing(E, A, B)
        return cache[(A, B)]

    bad = bad_places(E)
    for _ in range(100):
        A, B, C = (rng.choice(pool) for _ in range(3))
        assert G.equal(pair(A, B), pair(B, A))                      # symmetry
        if not (A + B).is_zero():
            assert G.equal(log_pairing(E, A + B, C), pair(A, C) + pair(B, C))
        D = pair(A, B)
        for pr in bad:                       # nu o log_pairing = monodromy
            coeff = D.coeffs.get(pr, Fraction(0))
            assert coeff % 1 == monodromy_pairing(tate(E, pr), A, B, E)
        assert G.equal(log_pairing(E, -A, -B), D)  # orientation flip
    # kappa: homomorphism, kills phi(E(K)), and rho o kappa = psi
    km = KummerMap(ctx)
    T = ctx.torsion()
    assert km.coords(5 * Q2) == [0, 0]
    for A, B in [(Q1, Q2), (Q2, Q1 + Q2), (2 * Q2, Q1)]:
        ca, cb = km.coords(A), km.coords(B)
        assert km.coords(A + B) == [(x + y) % 5 for x, y in zip(ca, cb)]
    for Q in [Q1, Q2, Q1 + Q2, 2 * Q2 + Q1, ctx.P]:
        c = km.coords(Q, aux=Q2)
        assert T.vector(psi_sel(ctx, km.element(c))) == psi_vector(ctx, Q)
    # local p-th power test against residue field enumeration
    K = ctx.field
    for ell, p in [(3, 5), (7, 5), (13, 3), (5, 3)]:
        for pr in primes_above(K, ell):
            k = ResidueField(pr)
            powers = {k.pow(u, p) for u in k.elements() if not k.is_zero(u)}
            lug = LocalUnitGroup(pr, p)
            for a in range(1, min(ell, 12)):
                want = k.reduce(K(a)) in powers
                assert is_local_pth_power(K(a), pr, p) == want
                assert (not any(lug.coords(K(a)))) == want
    assert time.monotonic() - t0 < 120


def test_criterion_8_out_of_scope_declared():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    low = readme.lower()
    assert "cubic" in low and "quintic" in low
    assert "out of scope" in low or "not reproduced" in low
