"""Local unit groups modulo p-th powers, with explicit F_p coordinates.

For v not above p the group O_v^*/(O_v^*)^p is trivial or cyclic of order p,
detected in the residue field. For v | p with e < p-1 the coordinates come
from the truncated p-adic logarithm of u^(q-1), which kills the Teichmueller
part. The wildly ramified leftover (p = 3 ramified, e = p-1) is handled by
exhaustive coset enumeration in the finite ring O/pi^(2e+1).
"""

from __future__ import annotations

import itertools

from .ntheory import power
from .qfield import FieldElement, PrimeIdeal, ResidueField, reduce_mod


def local_mu_p_dim(pr: PrimeIdeal, p: int) -> int:
    """dim of mu_p(K_v) over F_p: 1 iff [K_v(mu_p):K_v] = 1."""
    if pr.ell != p:
        return 1 if (pr.norm() - 1) % p == 0 else 0
    # v | p: Q_p(mu_p)/Q_p is totally ramified of degree p-1, so only p = 3
    # with e = 2 is possible, and then K_v = Q_3(sqrt(m)) contains mu_3 iff
    # it is Q_3(sqrt(-3)), that is iff -m/3 is a 3-adic unit square
    return 1 if p == 3 and pr.e == 2 and (-pr.field.radicand // 3) % 3 == 1 else 0


class LocalUnitGroup:
    """O_v^* / (O_v^*)^p as an F_p vector space with a coordinate map."""

    def __init__(self, pr: PrimeIdeal, p: int):
        self.pr = pr
        self.p = p
        self.k = ResidueField(pr)
        self.q = self.k.q
        self.vp = pr.e if pr.ell == p else 0
        if self.vp == 0:
            self.dim = local_mu_p_dim(pr, p)
        elif pr.e < p - 1:
            self.dim = pr.e * pr.f
        else:
            self._setup_wild()

    def coords(self, x: FieldElement) -> tuple[int, ...]:
        """F_p coordinates of a v-unit x in O_v^*/(O_v^*)^p."""
        if self.pr.val(x) != 0:
            raise ValueError(f"{x} is not a unit at {self.pr}")
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
        # u^(q-1) mod pi^(N+e), in 1 + pi O
        w = power(u, self.q - 1, lambda a, b: reduce_mod(a * b, pr, N + e), K(1))
        t = w - K(1)
        if pr.val(t) < 1:
            raise RuntimeError(f"u^(q-1) is not a principal unit at {pr}")
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
        if len(out) != self.dim:
            raise RuntimeError(f"{len(out)} log coordinates at {pr}, not {self.dim}")
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
        if not (pr.e == 2 and pr.f == 1):
            raise RuntimeError(f"the wild unit enumeration needs e = 2, f = 1, not {pr}")
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


def is_local_pth_power(x: FieldElement, pr: PrimeIdeal, p: int) -> bool:
    """Whether x in K_v^* is a p-th power; x need not be a unit."""
    v = pr.val(x)
    if v % p != 0:
        return False
    u = x / pr.uniformizer() ** v
    return LocalUnitGroup(pr, p).is_pth_power(u)
