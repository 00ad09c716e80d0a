"""Exact integer and mod-p linear algebra: HNF, SNF with its transforms and
U^-1, F_p kernels."""

from __future__ import annotations


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by the rows.

    Returns a list of nonzero rows, pivots positive, entries above a pivot
    reduced into [0, pivot).
    """
    m = [list(r) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        # clear below by gcd steps
        for i in range(r + 1, len(m)):
            while m[i][c] != 0:
                q = m[r][c] // m[i][c]
                m[r] = [a - q * b for a, b in zip(m[r], m[i])]
                m[r], m[i] = m[i], m[r]
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
    return [row for row in m[:r]]


def smith_normal_form(a: list[list[int]], with_v: bool = False) -> tuple[list[list[int]], ...]:
    """Return (U, U^-1, S, V) with S = U*A*V diagonal, d_i | d_{i+1}, U, V
    unimodular.

    U is built from elementary row operations; each one is mirrored on U^-1
    by the inverse column operation, so U^-1 comes without a matrix inverse.
    V is an m x m matrix for m columns and is kept only with with_v (it is
    None otherwise); the operations on S do not depend on it.
    """
    s = [list(r) for r in a]
    n = len(s)
    m = len(s[0]) if n else 0
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    uinv = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)] if with_v else None

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        for row in uinv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        if with_v:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def addmul_row(i, j, q):
        # row_i += q * row_j; on U^-1, col_j -= q * col_i
        s[i] = [x + q * y for x, y in zip(s[i], s[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        for row in uinv:
            row[j] -= q * row[i]

    def addmul_col(i, j, q):
        for row in s:
            row[i] += q * row[j]
        if with_v:
            for row in v:
                row[i] += q * row[j]

    def neg_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]
        for row in uinv:
            row[i] = -row[i]

    t = 0
    while t < min(n, m):
        # the first entry of minimal absolute value in the remaining block,
        # in row-major order; no later entry beats a unit
        piv = None
        best = None
        for i in range(t, n):
            row = s[i]
            for j in range(t, m):
                x = row[j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        i0, j0 = piv
        swap_rows(t, i0)
        swap_cols(t, j0)
        dirty = False
        for i in range(t + 1, n):
            if s[i][t]:
                q = s[i][t] // s[t][t]
                addmul_row(i, t, -q)
                if s[i][t]:
                    dirty = True
        for j in range(t + 1, m):
            if s[t][j]:
                q = s[t][j] // s[t][t]
                addmul_col(j, t, -q)
                if s[t][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide every remaining entry (a unit always does)
        ok = True
        if best != 1:
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if s[i][j] % s[t][t]:
                        addmul_row(t, i, 1)
                        ok = False
                        break
                if not ok:
                    break
        if not ok:
            continue
        if s[t][t] < 0:
            neg_row(t)
        t += 1
    return u, uinv, s, v


def fp_rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p; returns (rref rows, pivot columns)."""
    m = [[x % p for x in r] for r in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def fp_rank(rows: list[list[int]], p: int) -> int:
    return len(fp_rref(rows, p)[0]) if rows else 0


def fp_kernel(rows: list[list[int]], p: int, ncols: int | None = None) -> list[list[int]]:
    """Basis of the right kernel of the matrix over F_p."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows:
        return [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    rref, pivots = fp_rref(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [0] * ncols
        vec[fcol] = 1
        for i, pcol in enumerate(pivots):
            vec[pcol] = (-rref[i][fcol]) % p
        basis.append(vec)
    return basis


def fp_solve(rows: list[list[int]], rhs: list[int], p: int) -> list[int] | None:
    """One solution x of A x = b over F_p, or None."""
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    rref, pivots = fp_rref(aug, p)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for i, c in enumerate(pivots):
        x[c] = rref[i][ncols] % p
    return x
