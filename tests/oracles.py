"""Reference maps that only the tests use, kept out of the package."""

from fractions import Fraction


def omega_coords(z) -> tuple[Fraction, Fraction]:
    """Coordinates of the field element z over the integral basis (1, omega)."""
    if z.field.disc % 4 == 1:
        return Fraction(z.A - z.B, z.D), Fraction(2 * z.B, z.D)
    return z.a, z.b


def project_to_s_class_group(G, scl, D) -> tuple[int, ...]:
    """Image of D under logPic(X, S) -> Cl(O_{K,S}), S the places of G and
    scl = s_class_group(G.cg, G.places): drop coefficients at the places of
    S and map the integral rest to its class."""
    ncg = G.cg.coker.ngens
    acc = [0] * ncg
    for pr, a in D.coeffs.items():
        if pr in G.mults:
            continue
        if a.denominator != 1:
            raise ValueError(f"fractional coefficient {a} off the bad set at {pr}")
        if ncg:
            t = G.cg.dlog_prime(pr)
            acc = [u + int(a) * w for u, w in zip(acc, t)]
    return scl.coords(acc)
