from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdescent.descent import (
    DescentContext,
    HypothesisError,
    KummerMap,
    descent_report,
    local_mu_p_dim,
    miller,
    psi,
    psi_sel,
    psi_vector,
    quadratic_point_search,
    sel_p_dim_if_applicable,
    selmer_phi,
    selmer_phihat_dim,
)
from logdescent.ellcurve import curve_from_rational
from logdescent.linalg import fp_rank
from logdescent.localfield import LocalUnitGroup, is_local_pth_power
from logdescent.logpic import LogDivisor
from logdescent.qfield import ResidueField, make_field, primes_above
from test_model_change import DEGREE


def _ctx_11a(d):
    K = make_field(d)
    E = curve_from_rational(K, (0, -1, 1, -10, -20))
    P = E.point(K(5), K(5))
    return DescentContext(E, P, 5)


def _ctx_35a(d):
    K = make_field(d)
    E = curve_from_rational(K, (0, 1, 1, 9, 1))
    P = E.point(K(1), K(3))
    return DescentContext(E, P, 3)


def _ctx_158c():
    K = make_field(-79)
    E = curve_from_rational(K, (1, 1, 1, -420, 3109))
    P = E.point(K(13), K(-15))
    return DescentContext(E, P, 5)


def _prime(K, ell, wbar=None):
    for pr in primes_above(K, ell):
        if wbar is None or pr.wbar == wbar:
            return pr
    raise AssertionError


def test_context_builds_one_isogeny(monkeypatch):
    # the context reads z_phi^2 off z_phi^2 z_phihat^2 = p^2: it builds the
    # Velu phihat from P and never the dual phi
    import sys

    from logdescent import isogeny, polyring
    calls = {}
    for mod, name in ((isogeny, "dual_isogeny"), (isogeny, "velu"), (polyring, "resultant")):
        f = getattr(mod, name)
        calls[name] = 0

        def counted(*args, _f=f, _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        # every binding, including the copies that 'from .x import y' leaves
        for m in list(sys.modules.values()):
            if getattr(m, "__name__", "").startswith("logdescent") \
                    and getattr(m, name, None) is f:
                monkeypatch.setattr(m, name, counted)
    ctx = _ctx_11a(-47)
    assert calls == {"dual_isogeny": 0, "velu": 1, "resultant": 0}
    assert not hasattr(ctx, "phi")


@pytest.mark.parametrize("d", [-47, -5, 2])
def test_context_builds_one_s_class_group_for_s1(monkeypatch, d):
    # the context owns the S_1-class map and hands it to H^1(U_1, mu_p) and
    # logPic(X,S_1)[p], so one descent builds one Smith form of it, and the
    # map is released with the context
    import weakref

    from logdescent import ideals
    built = []
    init = ideals.SClassGroup.__init__

    def counted(self, cg, S):
        built.append(tuple(S))
        init(self, cg, S)
    monkeypatch.setattr(ideals.SClassGroup, "__init__", counted)
    ctx = _ctx_11a(d)
    sel = selmer_phi(ctx)
    selmer_phihat_dim(ctx, sel)
    sel_p_dim_if_applicable(ctx, sel)
    ctx.torsion()
    S1 = tuple(ctx.S1)
    assert built.count(S1) == 1
    ref = weakref.ref(ctx.cl_S1)
    del ctx, sel
    assert ref() is None


@pytest.mark.parametrize("d", [-47, 5])
def test_context_scans_no_odd_residue_field_and_builds_no_x_map(monkeypatch, d):
    # 11a1 is semistable: Tate's algorithm sees only I0 and In, whose residue
    # roots Cantor-Zassenhaus finds at odd ell without a scan, and the descent
    # reads z^2 of phihat without its x-map. 11 is inert in Q(sqrt(-47)) and
    # splits in Q(sqrt(5))
    from logdescent import isogeny

    scan = ResidueField._eval

    def no_odd_scan(k, cs, x):
        if k.ell != 2:
            raise AssertionError(f"residue field scanned at {k.prime}")
        return scan(k, cs, x)

    def no_x_map(*args):
        raise AssertionError("the Velu x-map was built")

    monkeypatch.setattr(ResidueField, "_eval", no_odd_scan)
    monkeypatch.setattr(isogeny, "_velu_x_map", no_x_map)
    monkeypatch.setattr(isogeny, "_TATE_CACHE", {})
    ctx = _ctx_11a(d)
    kinds = {(c.prime.ell, c.prime.kind, c.ld_E.kodaira) for c in ctx.classifications}
    assert (11, "inert" if d == -47 else "split", "I1") in kinds
    # the pairing's node data splits the tangent-slope quadratic by
    # Cantor-Zassenhaus, with no scan
    for c in ctx.classifications:
        for ld in (c.ld_E, c.ld_E2):
            if ld.is_multiplicative and ld.split:
                assert len(ld.node) == 4


@pytest.mark.parametrize("d", [None, -1])
def test_tate_i0_star_scans_no_odd_residue_field(monkeypatch, d):
    # the cubic P(T) of type I0* is split by Cantor-Zassenhaus at every odd
    # ell: y^2 = x^3 - 9x has P(T) = T^3 - T at 3, with the three roots of
    # F_3; 3 is inert in Q(i), so q = 9 there
    from logdescent.ellcurve import curve_from_rational
    from logdescent.tate import tate_local_data

    scan = ResidueField._eval

    def no_odd_scan(k, cs, x):
        if k.ell != 2:
            raise AssertionError(f"residue field scanned at {k.prime}")
        return scan(k, cs, x)

    monkeypatch.setattr(ResidueField, "_eval", no_odd_scan)
    K = make_field(d)
    ld = tate_local_data(curve_from_rational(K, (0, 0, 0, -9, 0)), primes_above(K, 3)[0])
    assert (ld.kodaira, ld.c) == ("I0*", 4)


def test_classification_11a_sqrt_m47():
    ctx = _ctx_11a(-47)
    assert [pr.label() for pr in ctx.S1] == ["(11)"]
    assert ctx.S2 == []
    assert not ctx.failures
    cls = {c.prime.ell: c for c in ctx.classifications}
    assert cls[11].direction == "forward"
    # 5 is a good place for both curves, so no condition enters there
    assert all(not c.in_S2 for c in ctx.classifications)


def test_classification_158c_sqrt_m79():
    ctx = _ctx_158c()
    assert len(ctx.S1) == 2 and all(pr.ell == 2 for pr in ctx.S1)
    assert len(ctx.S2) == 1 and ctx.S2[0].kind == "ramified" and ctx.S2[0].ell == 79
    by_prime = {c.prime: c for c in ctx.classifications}
    c79 = by_prime[ctx.S2[0]]
    assert c79.direction == "backward"
    # non-split multiplicative with q = 79^2 = -1 mod 5: no local condition
    assert local_mu_p_dim(ctx.S2[0], 5) == 0
    for pr in ctx.S1:
        assert by_prime[pr].ld_E.kodaira == "I4"
        assert by_prime[pr].ld_E2.kodaira == "I20"


def test_classification_35a_sqrt_2():
    ctx = _ctx_35a(2)
    assert len(ctx.S1) == 2 and all(pr.ell == 7 and pr.kind == "split" for pr in ctx.S1)
    assert [pr.label() for pr in ctx.S2] == ["(5)"]
    assert ctx.S2[0].kind == "inert"
    # a backward multiplicative place away from p carrying a genuine
    # local condition: #k = 25 = 1 mod 3
    assert local_mu_p_dim(ctx.S2[0], 3) == 1


def _hensel_mu3(v):
    """Whether x^2 + x + 1 has a root in K_v, v | 3: some x = a + b*omega,
    0 <= a, b < 27, with v(x^2 + x + 1) > 2 v(2x + 1)."""
    K = v.field
    w = K.omega()
    for a in range(27):
        for b in range(27):
            x = a + b * w
            if v.val(x * x + x + 1) > 2 * v.val(2 * x + 1):
                return True
    return False


def test_local_mu3_against_hensel():
    ramified = [m for m in range(-149, 150)
                if m % 3 == 0 and m != 0 and all(m % (q * q) for q in range(2, 13))]
    assert len(ramified) == 46
    for m in ramified:
        (v,) = primes_above(make_field(m), 3)
        assert v.e == 2
        assert local_mu_p_dim(v, 3) == int(_hensel_mu3(v)), m
    # mu_p is never in K_v for an unramified v | 3, nor for v | p >= 5
    for m in (-47, -2, 2, 7, -5, 5, 10, 15):
        K = make_field(m)
        for pr in primes_above(K, 3):
            if pr.e == 1:
                assert local_mu_p_dim(pr, 3) == 0, m
        for p in (5, 7):
            for pr in primes_above(K, p):
                assert local_mu_p_dim(pr, p) == 0, (m, p)


def test_selmer_dims_sqrt_m47():
    ctx = _ctx_11a(-47)
    sel = selmer_phi(ctx)
    assert sel.h1_dim == 2 and sel.dim == 2
    assert selmer_phihat_dim(ctx, sel) == 1
    assert sel_p_dim_if_applicable(ctx, sel) == 2
    assert ctx.torsion().dim == 2


def test_selmer_dims_sqrt_2_both_pairs():
    ctx = _ctx_11a(2)
    sel = selmer_phi(ctx)
    assert sel.dim == 2
    assert selmer_phihat_dim(ctx, sel) == 0
    assert sel_p_dim_if_applicable(ctx, sel) == 1
    ctx35 = _ctx_35a(2)
    sel35 = selmer_phi(ctx35)
    # S_2 = {(5)} imposes one condition with n_v = 1
    assert len(sel35.matrix[0]) == 1
    assert selmer_phihat_dim(ctx35, sel35) == sel35.dim - (2 + 2 - 1 + 0 - 1)


def test_selmer_dims_over_q():
    # Cl(Z) is trivial, so a rational prime has the identity class. 11a1:
    # E'(Q) = Z/5 and E(Q) = 0 with rank 0; 35a: S_2 = {(5)}
    ctx = _ctx_11a(None)
    sel = selmer_phi(ctx)
    assert sel.dim == 1 and [str(x) for x in sel.basis_elements()] == ["11"]
    assert selmer_phihat_dim(ctx, sel) == 0
    assert sel_p_dim_if_applicable(ctx, sel) == 0
    assert ctx.torsion().dim == 1
    ctx35 = _ctx_35a(None)
    sel35 = selmer_phi(ctx35)
    assert sel35.dim == 1 and [str(x) for x in sel35.basis_elements()] == ["7"]
    # (5) is backward and non-split with 5 = -1 mod 3: O_v^*/3 = 0, so n_v = 0
    assert selmer_phihat_dim(ctx35, sel35) == 0
    assert sel_p_dim_if_applicable(ctx35, sel35) is None
    assert ctx35.torsion().dim == 1


def test_duality_identity_with_nonempty_s2():
    ctx = _ctx_158c()
    sel = selmer_phi(ctx)
    assert sel.dim == 2
    # backward non-split multiplicative place: H^1(O_v, mu_p) = 0, so the
    # localization matrix has no columns at all
    assert all(len(row) == 0 for row in sel.matrix)
    assert selmer_phihat_dim(ctx, sel) == 0


def test_psi_values_sqrt_m47():
    ctx = _ctx_11a(-47)
    K = ctx.field
    E = ctx.Eprime
    Q1 = E.point(K(4), K(Fraction(-1, 2), Fraction(1, 2)))
    Q2 = E.point(K(-2), K(Fraction(-1, 2), Fraction(1, 2)))
    T = ctx.torsion()
    assert T.group.is_zero(psi(ctx, Q1))
    # psi(Q2) is the class of the prime (7, (11 + sqrt(-47))/2) = (7, 5 + w)
    p7 = _prime(K, 7, wbar=2)
    assert T.group.equal(psi(ctx, Q2), LogDivisor(K, {p7: Fraction(1)}))
    assert not T.group.is_zero(psi(ctx, Q2))
    assert any(psi_vector(ctx, ctx.P))


def test_psi_values_sqrt_2():
    ctx = _ctx_11a(2)
    K = ctx.field
    Q = ctx.Eprime.point(K(Fraction(9, 2)), K(Fraction(-1, 2), Fraction(7, 4)))
    T = ctx.torsion()
    assert any(psi_vector(ctx, ctx.P))
    assert T.group.is_zero(psi(ctx, Q))
    ctx35 = _ctx_35a(2)
    Q35 = ctx35.Eprime.point(K(Fraction(9, 2)), K(Fraction(-1, 2), Fraction(35, 4)))
    # psi(Q) = 2/3 (1 + 2 sqrt 2) + 1/3 (1 - 2 sqrt 2); w = sqrt 2 = 3 at
    # the first of the two primes above 7
    p7 = _prime(K, 7, wbar=3)
    p7b = _prime(K, 7, wbar=4)
    want = LogDivisor(K, {p7: Fraction(2, 3), p7b: Fraction(1, 3)})
    T35 = ctx35.torsion()
    assert T35.group.equal(psi(ctx35, Q35), want)
    # injective on the generators: P and Q have independent images
    rows = [psi_vector(ctx35, ctx35.P), psi_vector(ctx35, Q35)]
    assert fp_rank(rows, 3) == 2


def test_psi_values_sqrt_m79():
    ctx = _ctx_158c()
    K = ctx.field
    Q = ctx.Eprime.point(K(Fraction(101, 9)), K(Fraction(-55, 9), Fraction(16, 27)))
    rows = [psi_vector(ctx, ctx.P), psi_vector(ctx, Q)]
    assert fp_rank(rows, 5) == 2


def test_kummer_homomorphism_and_kernel():
    ctx = _ctx_11a(-47)
    K = ctx.field
    E = ctx.Eprime
    Q1 = E.point(K(4), K(Fraction(-1, 2), Fraction(1, 2)))
    Q2 = E.point(K(-2), K(Fraction(-1, 2), Fraction(1, 2)))
    km = KummerMap(ctx)
    c1, c2 = km.coords(Q1), km.coords(Q2)
    for A, B in [(Q1, Q2), (Q2, Q2 + Q1), (2 * Q2, Q1)]:
        ca, cb, cab = km.coords(A), km.coords(B), km.coords(A + B)
        assert cab == [(x + y) % 5 for x, y in zip(ca, cb)]
    # kappa kills phi(E(K)): 5 Q2 = phihat(phi(Q2)) lands in phi(E(K))
    assert km.coords(5 * Q2) == [0, 0]
    assert km.coords(E.zero()) == [0, 0]
    # kappa(P) needs an auxiliary point and is nonzero since S_1 is nonempty
    cP = km.coords(ctx.P, aux=Q2)
    assert any(cP)
    assert km.coords(ctx.P + Q1, aux=Q2) == [(x + y) % 5 for x, y in zip(cP, c1)]


def test_rho_kappa_equals_psi():
    ctx = _ctx_11a(-47)
    K = ctx.field
    E = ctx.Eprime
    Q1 = E.point(K(4), K(Fraction(-1, 2), Fraction(1, 2)))
    Q2 = E.point(K(-2), K(Fraction(-1, 2), Fraction(1, 2)))
    km = KummerMap(ctx)
    T = ctx.torsion()
    for Q in [Q1, Q2, Q1 + Q2, 2 * Q2 + Q1, ctx.P]:
        c = km.coords(Q, aux=Q2)
        rho = T.vector(psi_sel(ctx, km.element(c)))
        assert rho == psi_vector(ctx, Q)


def test_miller_rejects_non_torsion_point():
    ctx = _ctx_11a(-47)
    K = ctx.field
    E = ctx.Eprime
    Q = E.point(K(4), K(Fraction(-1, 2), Fraction(1, 2)))  # infinite order
    with pytest.raises(ValueError):
        miller(Q, 5, E.point(K(5), K(5)))


def _miller_three_additions(P, p, X):
    """Miller's chain as it was written before one group-law step gave the
    slope: the line through V and P from its own sum V + P and slope, then
    V + P once more."""
    E = P.curve

    def line(V, W):
        if (V + W).is_zero():
            return X.x - V.x
        if V == W:
            lam = (3 * V.x * V.x + 2 * E.a2 * V.x + E.a4 - E.a1 * V.y) \
                / (2 * V.y + E.a1 * V.x + E.a3)
        else:
            lam = (W.y - V.y) / (W.x - V.x)
        return X.y - V.y - lam * (X.x - V.x)

    f = E.field(1)
    V = P
    for _ in range(p - 1):
        f = f * line(V, P)
        V = V + P
        if not V.is_zero():
            f = f / (X.x - V.x)
    return f


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["11a1", "158", "35a"]), st.integers(-3, 3).filter(bool),
       st.integers(0, 4))
def test_miller_matches_the_three_addition_chain(worked_curves, label, a, b):
    # X = aG + bP with a != 0 lies outside <P>, the support of every line
    E, P, (G, *_) = worked_curves[label]
    p = DEGREE[label]
    X = G * a + P * b
    assert miller(P, p, X) == _miller_three_additions(P, p, X)


def test_psi_sel_on_units_and_integers():
    ctx = _ctx_11a(-47)
    K = ctx.field
    T = ctx.torsion()
    assert T.group.is_zero(psi_sel(ctx, K(-1)))
    # 11 is allowed arbitrary valuation at S_1; (1/5) div(11) has order 5
    D = psi_sel(ctx, K(11))
    assert not T.group.is_zero(D)
    assert T.group.is_zero(5 * D)
    with pytest.raises(ValueError, match="not p-divisible outside S_1"):
        psi_sel(ctx, K(7))


def test_descent_report_sqrt_m47():
    ctx = _ctx_11a(-47)
    K = ctx.field
    E = ctx.Eprime
    Q1 = E.point(K(4), K(Fraction(-1, 2), Fraction(1, 2)))
    Q2 = E.point(K(-2), K(Fraction(-1, 2), Fraction(1, 2)))
    rep = descent_report(ctx, [Q1, Q2])
    assert rep.sel.dim == 2 and rep.sel_phihat_dim == 1
    assert rep.sel_p_dim == 2 and rep.logpic_dim == 2
    assert rep.psi_rank == 2 and rep.kappa_rank == 2
    assert rep.ker_psi_dim == 0
    assert rep.ker_psi_sel_dim == 0 and rep.coker_psi_sel_dim == 0
    assert rep.sha_phi.lower == 0 and rep.sha_phi.upper == 0


def test_descent_report_sqrt_2_kernel_of_psi():
    ctx = _ctx_11a(2)
    K = ctx.field
    Q = ctx.Eprime.point(K(Fraction(9, 2)), K(Fraction(-1, 2), Fraction(7, 4)))
    rep = descent_report(ctx, [Q])
    assert rep.psi_rank == 1 and rep.kappa_rank == 2
    # ker psi on E'(K)/phi E(K) is generated by the image of Q
    assert rep.ker_psi_dim == 1
    assert rep.sha_phi.upper == 0


def test_kernel_points_are_the_multiples_of_P():
    ctx = _ctx_11a(-47)
    P = ctx.P
    assert ctx.kernel_points == {k * P for k in range(5)}
    assert len(ctx.kernel_points) == 5 and ctx.Eprime.zero() in ctx.kernel_points


@pytest.mark.parametrize("multiples, psi_coeffs", [([], [-4]), ([2], [-4, -3])])
def test_descent_report_without_a_point_outside_the_kernel(multiples, psi_coeffs):
    # kappa on <P> is not evaluated without an auxiliary point; psi(P) != 0
    # still counts kappa(P), so kappa_rank == psi_rank
    ctx = _ctx_11a(-47)
    rep = descent_report(ctx, [k * ctx.P for k in multiples])
    assert rep.kappa_rank == rep.psi_rank == 1
    assert rep.sel.dim == 2 and rep.sel_phihat_dim == 1
    assert rep.sel_p_dim == 2 and rep.logpic_dim == 2
    p11 = primes_above(ctx.field, 11)[0]
    assert rep.psi_values == [LogDivisor(ctx.field, {p11: Fraction(a, 5)})
                              for a in psi_coeffs]
    assert rep.ker_psi_dim == 0
    assert rep.ker_psi_sel_dim == 0 and rep.coker_psi_sel_dim == 0
    assert rep.sha_phi.lower == 0 and rep.sha_phi.upper == 1


def test_quadratic_point_search_needs_a_rational_curve():
    ctx = _ctx_11a(-47)
    with pytest.raises(ValueError, match="needs a curve over Q"):
        quadratic_point_search(ctx.Eprime, ctx.P, 5, 2)


def test_quadratic_point_search_finds_sqrt_m47():
    K0 = make_field(None)
    E = curve_from_rational(K0, (0, -1, 1, -10, -20))
    P = E.point(K0(5), K0(5))
    results = quadratic_point_search(E, P, 5, 5)
    hits = [(K, Q, D) for K, Q, D in results if K.radicand == -47]
    assert hits
    xs = {Q.x.a for _, Q, _ in hits}
    assert Fraction(4) in xs and Fraction(-2) in xs
    for K, Q, D in hits:
        T = DescentContext(Q.curve, Q.curve.point(K(5), K(5)), 5).torsion()
        if Q.x.a == 4:
            assert T.group.is_zero(D)
        if Q.x.a == -2:
            assert not T.group.is_zero(D)


def test_hypothesis_failure_type_iv():
    # y^2 - 6xy + 2y = x^3 has a fibre of type IV with c = 3 at 2,
    # and P = (0,0) of order 3
    K = make_field(None)
    E = curve_from_rational(K, (-6, 0, 2, 0, 0))
    P = E.point(K(0), K(0))
    ctx = DescentContext(E, P, 3)
    assert any(f.startswith("Hyp 4") for f in ctx.failures)
    with pytest.raises(HypothesisError):
        ctx.require_hypotheses()
    with pytest.raises(HypothesisError):
        selmer_phi(ctx)


def test_local_pth_power_against_enumeration():
    K = make_field(-47)
    for ell, p in [(3, 5), (7, 5), (13, 3)]:
        for pr in primes_above(K, ell):
            if pr.kind == "ramified":
                continue
            k = ResidueField(pr)
            powers = {k.pow(u, p) for u in k.elements() if not k.is_zero(u)}
            for a in range(1, ell):
                x = K(a)
                want = k.reduce(x) in powers
                assert is_local_pth_power(x, pr, p) == want
                lug = LocalUnitGroup(pr, p)
                assert (not any(lug.coords(x))) == want
