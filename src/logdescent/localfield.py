"""Local unit groups modulo p-th powers, with explicit F_p coordinates.

For v not above p the group O_v^*/(O_v^*)^p is trivial or cyclic of order p,
detected in the residue field. For v | p with e < p-1 the coordinates come
from the truncated p-adic logarithm of u^(q-1), which kills the Teichmueller
part. The wildly ramified leftover (p = 3 ramified, e = p-1) is handled by
exhaustive coset enumeration in the finite ring O/pi^(2e+1).
"""

from __future__ import annotations

import itertools

from .qfield import FieldElement, PrimeIdeal, ResidueField, reduce_mod


class LocalUnitGroup:
    """O_v^* / (O_v^*)^p as an F_p vector space with a coordinate map."""

    def __init__(self, pr: PrimeIdeal, p: int):
        self.pr = pr
        self.p = p
        self.k = ResidueField(pr)
        self.q = self.k.q
        self.vp = pr.val(pr.field(p))
        if self.vp == 0:
            self.dim = 1 if (self.q - 1) % p == 0 else 0
        elif pr.e < p - 1:
            self.dim = pr.e * pr.f
        else:
            self._setup_wild()

    def coords(self, x: FieldElement) -> tuple[int, ...]:
        """F_p coordinates of a v-unit x in O_v^*/(O_v^*)^p."""
        assert self.pr.val(x) == 0
        if self.dim == 0:
            return ()
        if self.vp == 0:
            return (self.k.mu_p_log(x, self.p),)
        if self.pr.e < self.p - 1:
            return self._coords_log(x)
        return self._coords_wild(x)

    def is_pth_power(self, x: FieldElement) -> bool:
        return all(c == 0 for c in self.coords(x))

    # -- v | p, e < p-1: truncated logarithm -------------------------------

    def _coords_log(self, x: FieldElement) -> tuple[int, ...]:
        pr, p = self.pr, self.p
        K = pr.field
        e, f = pr.e, pr.f
        N = e + 1
        u = reduce_mod(x, pr, N + e)
        w = pow_mod(u, self.q - 1, pr, N + e)  # in 1 + pi O
        t = w - K(1)
        assert pr.val(t) >= 1
        lg = K.zero()
        tk = K(1)
        for kk in range(1, e + 1):
            tk = reduce_mod(tk * t, pr, N + e)
            term = tk / kk
            lg = lg + (term if kk % 2 == 1 else -term)
        lg = reduce_mod(lg, pr, N)
        # digits of lg in pi, pi^2, ..., pi^e, each an element of k
        out = []
        pi = pr.uniformizer()
        rem = lg
        for i in range(1, e + 1):
            d = self.k.reduce(rem / pi ** i)
            out.extend(self._k_coords(d))
            rem = rem - self.k.lift(d) * pi ** i
        assert len(out) == self.dim
        return tuple(out)

    def _k_coords(self, d) -> list[int]:
        if self.k.f == 1:
            return [d % self.p]
        return [d[0] % self.p, d[1] % self.p]

    # -- p = 3 ramified at 3: finite enumeration ---------------------------

    def _setup_wild(self):
        pr, p = self.pr, self.p
        e = pr.e
        self._N = 2 * e + 1
        units = self._all_units(self._N)
        cubes = {self._canon(u ** p): u ** p for u in units}
        basis = []
        span = dict(cubes)
        for u in units:
            if self._canon(u) in span:
                continue
            basis.append(u)
            new_span = {}
            for s in span.values():
                for i in range(p):
                    x = reduce_mod(s * u ** i, pr, self._N)
                    new_span[self._canon(x)] = x
            span = new_span
        self._basis = basis
        self._cubes = set(cubes)
        self.dim = len(basis)

    def _all_units(self, N: int):
        pr = self.pr
        K = pr.field
        ell = pr.ell
        assert pr.e == 2 and pr.f == 1
        mod = ell ** ((N + 1) // 2 + 1)
        out = []
        for a in range(mod):
            for b in range(mod):
                x = K.from_omega(a, b)
                if pr.val(x) == 0:
                    out.append(reduce_mod(x, pr, N))
        return out

    def _canon(self, x: FieldElement):
        y = reduce_mod(x, self.pr, self._N)
        return (y.a, y.b)

    def _coords_wild(self, x: FieldElement) -> tuple[int, ...]:
        p = self.p
        for combo in itertools.product(range(p), repeat=self.dim):
            y = reduce_mod(x, self.pr, self._N)
            for g, c in zip(self._basis, combo):
                if c:
                    y = reduce_mod(y * g ** (p - c), self.pr, self._N)
            if self._canon(y) in self._cubes:
                return combo
        raise RuntimeError("wild local coordinate search failed")


def pow_mod(x: FieldElement, n: int, pr: PrimeIdeal, N: int) -> FieldElement:
    r = x.field(1)
    base = reduce_mod(x, pr, N)
    while n:
        if n & 1:
            r = reduce_mod(r * base, pr, N)
        base = reduce_mod(base * base, pr, N)
        n >>= 1
    return r


def is_local_pth_power(x: FieldElement, pr: PrimeIdeal, p: int) -> bool:
    """Whether x in K_v^* is a p-th power; x need not be a unit."""
    v = pr.val(x)
    if v % p != 0:
        return False
    u = x / pr.uniformizer() ** v
    return LocalUnitGroup(pr, p).is_pth_power(u)
