"""Exact rational vectors, matrices and rank-3 tensors.

Everything is built on `fractions.Fraction`, so every equality test in the
package is an exact zero-test: there is no epsilon anywhere.  Vectors are
lists of Fractions, matrices are row-major nested lists (acting on column
vectors), and rank-3 tensors are triply nested lists.  All functions are
pure; callers must not mutate returned values that they share.

The sums, differences, negations and contractions touch only exact
nonzeros: a term with a factor that is an exact zero (int 0 or
Fraction(0)) is skipped, and nothing else is.  Every sum starts from ZERO,
so each result is exact, equal to its dense definition (the sum over every
index), and made of Fractions also when the inputs are ints.
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

def zeros_mat(rows, cols=None):
    cols = rows if cols is None else cols
    return [[ZERO] * cols for _ in range(rows)]


def zeros_t3(n1, n2=None, n3=None):
    n2 = n1 if n2 is None else n2
    n3 = n1 if n3 is None else n3
    return [[[ZERO] * n3 for _ in range(n2)] for _ in range(n1)]


def eye(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# vector / matrix arithmetic
# ---------------------------------------------------------------------------

def _nonzeros(v):
    """The pairs (index, entry) of the exact nonzeros of v."""
    return [(i, x) for i, x in enumerate(v) if x]


def _combine(pos, neg=()):
    """sum(pos) - sum(neg) for vectors of one length, adding only their
    nonzeros into ZERO."""
    out = [ZERO] * len(pos[0])
    for v in pos:
        for i, x in enumerate(v):
            if x:
                out[i] += x
    for v in neg:
        for i, x in enumerate(v):
            if x:
                out[i] -= x
    return out


def vec_add(*vs):
    return _combine(vs)


def vec_sub(u, v):
    return _combine((u,), (v,))


def vec_is_zero(v):
    return not any(v)


def dot(u, v):
    acc = ZERO
    for a, b in zip(u, v):
        if a and b:
            acc += a * b
    return acc


def mat_add(*ms):
    return [_combine(rows) for rows in zip(*ms)]


def mat_sub(a, b):
    return [_combine((ra,), (rb,)) for ra, rb in zip(a, b)]


def mat_neg(a):
    return [[ZERO - x if x else ZERO for x in row] for row in a]


def mat_mul(a, b):
    """Row by row: each nonzero a_ik meets only the nonzeros of row k of
    b."""
    b_rows = [_nonzeros(row) for row in b]
    out = []
    for row in a:
        acc = [ZERO] * len(b[0])
        for x, bk in zip(row, b_rows):
            if x:
                for j, y in bk:
                    acc[j] += x * y
        out.append(acc)
    return out


def mat_vec(m, v):
    nz = _nonzeros(v)
    out = []
    for row in m:
        acc = ZERO
        for j, x in nz:
            a = row[j]
            if a:
                acc += a * x
        out.append(acc)
    return out


def transpose(m):
    return [list(col) for col in zip(*m)]


# ---------------------------------------------------------------------------
# rank-3 tensors
# ---------------------------------------------------------------------------

def t3_add(*ts):
    return [[_combine(rows) for rows in zip(*planes)] for planes in zip(*ts)]


def t3_sub(a, b):
    return [[_combine((ra,), (rb,)) for ra, rb in zip(pa, pb)]
            for pa, pb in zip(a, b)]


def contract_product(c, x, y):
    """Evaluate the bilinear product with structure constants c on vectors
    x, y:  (x . y)_k = sum_ij x_i y_j c[i][j][k]."""
    n1, n2 = len(c), len(c[0])
    n3 = len(c[0][0])
    if len(x) != n1 or len(y) != n2:
        raise ValueError("contract_product: dimension mismatch")
    out = [ZERO] * n3
    y_nz = _nonzeros(y)
    for xi, ci in zip(x, c):
        if not xi:
            continue
        for j, yj in y_nz:
            cij = _nonzeros(ci[j])
            if cij:
                coeff = xi * yj
                for k, ck in cij:
                    out[k] += coeff * ck
    return out


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
