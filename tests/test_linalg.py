import random

from logdescent.linalg import (
    fp_kernel,
    fp_rank,
    fp_rref,
    fp_solve,
    hnf,
    smith_normal_form,
)


def random_matrix(rng, n, m, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def det2plus(m):
    # determinant via fraction-free elimination, small sizes only
    from fractions import Fraction

    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(c + 1, n):
            f = a[i][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


def test_snf_reconstruction_and_divisibility():
    rng = random.Random(7)
    for trial in range(30):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        A = random_matrix(rng, n, m)
        U, Uinv, S, V = smith_normal_form(A, with_v=True)
        assert smith_normal_form(A) == (U, Uinv, S, None)
        assert abs(det2plus(U)) == 1
        assert mat_mul(U, Uinv) == [[int(i == j) for j in range(n)] for i in range(n)]
        assert abs(det2plus(V)) == 1
        assert mat_mul(mat_mul(U, A), V) == S
        diag = [S[i][i] for i in range(min(n, m))]
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert S[i][j] == 0
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0


def test_hnf_known():
    rows = hnf([[2, 3], [4, 5]])
    # lattice index |det| = 2
    assert abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) == 2
    assert rows[0][0] > 0 and rows[1][0] == 0


def test_fp_linear_algebra():
    p = 5
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert fp_rank(rows, p) == 2
    ker = fp_kernel(rows, p, 3)
    assert len(ker) == 1
    v = ker[0]
    for r in rows:
        assert sum(a * b for a, b in zip(r, v)) % p == 0
    rr, piv = fp_rref(rows, p)
    assert piv == [0, 1]
    sol = fp_solve([[1, 1], [1, 2]], [3, 4], 7)
    assert sol == [2, 1]
