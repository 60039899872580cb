"""Exact rational vectors, matrices and rank-3 tensors.

Everything is built on `fractions.Fraction`, so every equality test in the
package is an exact zero-test: there is no epsilon anywhere.  Vectors are
lists of Fractions, matrices are row-major nested lists (acting on column
vectors), and rank-3 tensors are triply nested lists.  All functions are
pure; callers must not mutate returned values that they share.
"""

from __future__ import annotations

from fractions import Fraction

Scalar = Fraction
Vector = list  # list[Fraction]
Matrix = list  # list[list[Fraction]]
Tensor3 = list  # list[list[list[Fraction]]]

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def zeros_vec(n):
    return [ZERO] * n


def zeros_mat(rows, cols=None):
    cols = rows if cols is None else cols
    return [[ZERO] * cols for _ in range(rows)]


def zeros_t3(n1, n2=None, n3=None):
    n2 = n1 if n2 is None else n2
    n3 = n1 if n3 is None else n3
    return [[[ZERO] * n3 for _ in range(n2)] for _ in range(n1)]


def eye(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def basis_vec(n, i):
    v = zeros_vec(n)
    v[i] = ONE
    return v


# ---------------------------------------------------------------------------
# vector / matrix arithmetic
# ---------------------------------------------------------------------------

def vec_add(*vs):
    n = len(vs[0])
    return [sum((v[i] for v in vs), ZERO) for i in range(n)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]

def vec_neg(v):
    return [-a for a in v]


def vec_scale(c, v):
    return [c * a for a in v]


def vec_is_zero(v):
    return all(a == 0 for a in v)


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), ZERO)


def mat_add(*ms):
    return [[sum((m[i][j] for m in ms), ZERO) for j in range(len(ms[0][0]))]
            for i in range(len(ms[0]))]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a):
    return [[-x for x in row] for row in a]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    bt = transpose(b)
    return [[dot(a[i], bt[j]) for j in range(cols)] for i in range(rows)]


def mat_vec(m, v):
    return [dot(row, v) for row in m]


def mat_is_zero(m):
    return all(x == 0 for row in m for x in row)


def transpose(m):
    return [list(col) for col in zip(*m)]


def matrix_transpose_dual(phi):
    """Dual of a linear map V -> W, i.e. the map W* -> V* with
    <phi*(w*), v> = <w*, phi(v)>.  Concretely the transpose matrix."""
    return transpose(phi)


def mat_eq(a, b):
    return a == b


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


# ---------------------------------------------------------------------------
# rank-3 tensors
# ---------------------------------------------------------------------------

def t3_add(*ts):
    n1, n2, n3 = len(ts[0]), len(ts[0][0]), len(ts[0][0][0])
    return [[[sum((t[i][j][k] for t in ts), ZERO) for k in range(n3)]
             for j in range(n2)] for i in range(n1)]


def t3_sub(a, b):
    return [[[x - y for x, y in zip(ra, rb)]
             for ra, rb in zip(pa, pb)] for pa, pb in zip(a, b)]


def t3_neg(a):
    return [[[-x for x in row] for row in plane] for plane in a]


def t3_scale(c, a):
    return [[[c * x for x in row] for row in plane] for plane in a]


def t3_is_zero(t):
    return all(x == 0 for plane in t for row in plane for x in row)


def t3_eq(a, b):
    return a == b


def contract_product(c, x, y):
    """Evaluate the bilinear product with structure constants c on vectors
    x, y:  (x . y)_k = sum_ij x_i y_j c[i][j][k]."""
    n1, n2 = len(c), len(c[0])
    n3 = len(c[0][0])
    if len(x) != n1 or len(y) != n2:
        raise ValueError("contract_product: dimension mismatch")
    out = zeros_vec(n3)
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        ci = c[i]
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            coeff = xi * yj
            cij = ci[j]
            for k in range(n3):
                if cij[k] != 0:
                    out[k] += coeff * cij[k]
    return out


# ---------------------------------------------------------------------------
# tensor-square / tensor-cube elements and their permutations
# ---------------------------------------------------------------------------

def permute_tensor2(r):
    """sigma(u (x) v) = v (x) u on an element of A (x) A: matrix transpose."""
    if len(r) != len(r[0]):
        raise ValueError("permute_tensor2: element of A(x)A must be square")
    return transpose(r)


def permute3(t, perm):
    """Index permutation of an element of A(x)A(x)A.

    sigma13 swaps the outer slots, x(x)y(x)z -> z(x)y(x)x (an involution);
    sigma123 is the 3-cycle x(x)y(x)z -> z(x)x(x)y (order three).
    """
    n = len(t)
    rng = range(n)
    if perm == "sigma13":
        return [[[t[k][j][i] for k in rng] for j in rng] for i in rng]
    if perm == "sigma123":
        return [[[t[j][k][i] for k in rng] for j in rng] for i in rng]
    raise ValueError("permute3: unknown permutation %r" % (perm,))


def apply2(p, q, m):
    """Apply the operator p (x) q to an element m of A (x) A."""
    return mat_mul(mat_mul(p, m), transpose(q))


def apply_slot3(t, slot, p):
    """Apply operator p at one tensor slot (1, 2 or 3) of a rank-3 element."""
    n = len(t)
    rng = range(n)
    if slot == 1:
        return [[[sum((p[i][m] * t[m][j][k] for m in rng), ZERO)
                  for k in rng] for j in rng] for i in rng]
    if slot == 2:
        return [[[sum((p[j][m] * t[i][m][k] for m in rng), ZERO)
                  for k in rng] for j in rng] for i in rng]
    if slot == 3:
        return [[[sum((p[k][m] * t[i][j][m] for m in rng), ZERO)
                  for k in rng] for j in rng] for i in rng]
    raise ValueError("apply_slot3: slot must be 1, 2 or 3")


# ---------------------------------------------------------------------------
# exact linear solving
# ---------------------------------------------------------------------------

class SingularMatrixError(ValueError):
    """Raised when an exactly singular matrix is inverted/solved."""


def mat_inverse(m):
    """Exact inverse by Gauss-Jordan elimination; raises SingularMatrixError."""
    n = len(m)
    a = [list(row) + list(idrow) for row, idrow in zip(m, eye(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular at column %d" % col)
        a[col], a[pivot] = a[pivot], a[col]
        inv = ONE / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def solve(m, b):
    """Solve m x = b exactly (m square invertible)."""
    return mat_vec(mat_inverse(m), b)


def mat_rank(m):
    """Exact rank by Gaussian elimination over Fraction pivots, so that int
    input is never divided in float."""
    if not m or not m[0]:
        return 0
    a = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(a), len(a[0])
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(rows):
            if r != rank and a[r][col] != 0:
                f = a[r][col] / a[rank][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank
