"""Small exact evaluators, written apart from the antiflex package, that the
benchmark uses to work out the expected answer of every job.

Nothing here imports antiflex.  Structures are read straight from the JSON
files the jobs consume, and every identity is evaluated from its printed
definition with exact integers and Fractions:

* a product tensor c gives e_i * e_j = sum_k c[i][j][k] e_k;
* a matrix M of a linear map has the image of e_j in column j;
* an element of A (x) A is a matrix M standing for sum M[a][b] e_a (x) e_b,
  and an operator pair acts as (P (x) Q)(e_a (x) e_b) = P(e_a) (x) Q(e_b);
* a comultiplication tensor d has D(e_i) = the matrix d[i].

Each evaluator returns residuals; a structure passes an identity when every
residual is zero.  "First" failures are taken in lexicographic order of the
basis tuple, which is the order the program reports witnesses in.
"""

from __future__ import annotations

import json
from fractions import Fraction


# ---------------------------------------------------------------------------
# reading files
# ---------------------------------------------------------------------------

def num(s):
    """An exact scalar from a "p/q" string: an int when it is integral."""
    q = Fraction(s)
    return q.numerator if q.denominator == 1 else q


def exact(data):
    """Nested lists of "p/q" strings as exact scalars."""
    if isinstance(data, list):
        return [exact(x) for x in data]
    return num(data)


_PAYLOADS = ("product", "prec", "succ", "delta_prec", "delta_succ", "r",
             "r_prec", "r_succ", "matrix", "l")


def _exact_doc(doc):
    for key in _PAYLOADS:
        if isinstance(doc.get(key), list):
            doc[key] = exact(doc[key])
    if isinstance(doc.get("base"), dict):
        _exact_doc(doc["base"])
    return doc


def read_doc(data):
    """A parsed structure file with every scalar payload made exact."""
    return _exact_doc(json.loads(data))


def read_file(path):
    with open(path, "rb") as fh:
        return read_doc(fh.read())


# ---------------------------------------------------------------------------
# basic algebra
# ---------------------------------------------------------------------------

def zeros(*shape):
    if len(shape) == 1:
        return [0] * shape[0]
    return [zeros(*shape[1:]) for _ in range(shape[0])]


def add_t3(a, b):
    return [[[x + y for x, y in zip(ra, rb)] for ra, rb in zip(pa, pb)]
            for pa, pb in zip(a, b)]


def is_zero(x):
    if isinstance(x, list):
        return all(is_zero(y) for y in x)
    return x == 0


def mul(c, x, y):
    """The product of two coordinate vectors under the tensor c."""
    out = [0] * len(c[0][0])
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            for k, v in enumerate(c[i][j]):
                if v:
                    out[k] += xi * yj * v
    return out


def unit(n, i):
    return [1 if k == i else 0 for k in range(n)]


def column(m, j):
    return [row[j] for row in m]


def apply(m, v):
    """The image of a coordinate vector under the matrix m."""
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)]


def pair_op(m, left, right):
    """(P (x) Q) applied to the element m of A (x) A, with P and Q given
    as functions from a basis index to a coordinate vector (None is the
    identity)."""
    n = len(m)
    out = zeros(n, n)
    for a in range(n):
        for b in range(n):
            x = m[a][b]
            if not x:
                continue
            pa = unit(n, a) if left is None else left(a)
            qb = unit(n, b) if right is None else right(b)
            for p, u in enumerate(pa):
                if u:
                    for q, w in enumerate(qb):
                        if w:
                            out[p][q] += x * u * w
    return out


def mat_sum(*ms):
    return [[sum(vals) for vals in zip(*rows)] for rows in zip(*ms)]


def mat_scale(s, m):
    return [[s * x for x in row] for row in m]


def comult_at(d, z):
    """D(z) for a coordinate vector z."""
    n = len(d)
    out = zeros(n, n)
    for t, zt in enumerate(z):
        if zt:
            for p in range(n):
                for q in range(n):
                    out[p][q] += zt * d[t][p][q]
    return out


# ---------------------------------------------------------------------------
# structures derived from the corpus
# ---------------------------------------------------------------------------

def permuted(c, perm):
    """The same algebra in the basis f_i = e_perm[i]."""
    n = len(c)
    out = zeros(n, n, n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j][k] = c[perm[i]][perm[j]][perm[k]]
    return out


def succ_left(c):
    """The splitting whose succ product is the associative product and
    whose prec product is zero: (prec, succ)."""
    n = len(c)
    return zeros(n, n, n), [[list(row) for row in plane] for plane in c]


def regular_bimodule(c):
    """Left and right multiplications of an algebra on itself, as
    per-basis-element matrices (l, r)."""
    n = len(c)
    l = [[[c[a][b][k] for b in range(n)] for k in range(n)]
         for a in range(n)]
    r = [[[c[b][a][k] for b in range(n)] for k in range(n)]
         for a in range(n)]
    return l, r


def canonical_r(dim):
    """sum_i e_i (x) e_i* + e_i* (x) e_i on a double of the given
    dimension, the A-basis first."""
    n = dim // 2
    r = zeros(dim, dim)
    for i in range(n):
        r[i][n + i] = 1
        r[n + i][i] = 1
    return r


# ---------------------------------------------------------------------------
# identities of pre-anti-flexible algebras
# ---------------------------------------------------------------------------

def pre_af_first_failure(prec, succ):
    """The first basis triple on which either pre-anti-flexible identity
    fails, as (label, (i, j, k)), or None."""
    n = len(prec)
    dot = add_t3(prec, succ)
    e = [unit(n, i) for i in range(n)]

    def m(x, y, z):
        return [a - b for a, b in zip(mul(prec, mul(succ, x, y), z),
                                      mul(succ, x, mul(prec, y, z)))]

    def l(x, y, z):
        return [a - b for a, b in zip(mul(succ, mul(dot, x, y), z),
                                      mul(succ, x, mul(succ, y, z)))]

    def r(x, y, z):
        return [a - b for a, b in zip(mul(prec, mul(prec, x, y), z),
                                      mul(prec, x, mul(dot, y, z)))]

    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = e[i], e[j], e[k]
                if m(x, y, z) != m(z, y, x):
                    return ("pre-anti-flexible-m", (i, j, k))
                if l(x, y, z) != r(z, y, x):
                    return ("pre-anti-flexible-lr", (i, j, k))
    return None


def dual_products(dprec, dsucc):
    """Half-products on the dual space: <f_i ? f_j, e_k> = D_?(e_k)[i][j]."""
    n = len(dprec)
    prec = [[[dprec[k][i][j] for k in range(n)] for j in range(n)]
            for i in range(n)]
    succ = [[[dsucc[k][i][j] for k in range(n)] for j in range(n)]
            for i in range(n)]
    return prec, succ


# ---------------------------------------------------------------------------
# Rota-Baxter maps and O-operators
# ---------------------------------------------------------------------------

def rota_baxter_residual(c, alpha, i, j):
    """B(x)B(y) - B(x B(y) + B(x) y) on x = e_i, y = e_j."""
    n = len(c)
    bx, by = column(alpha, i), column(alpha, j)
    inner = [a + b for a, b in zip(mul(c, unit(n, i), by),
                                   mul(c, bx, unit(n, j)))]
    return [a - b for a, b in zip(mul(c, bx, by), apply(alpha, inner))]


def o_operator_residual(c, l, r, t, i, j):
    """T(u)T(v) - T(l(T(u))v + r(T(v))u) on u = v_i, v = v_j, with T the
    (dim A) x (dim V) matrix t and l, r per-basis-element actions."""
    tu, tv = column(t, i), column(t, j)
    m = len(t[0])

    def act(maps, coeffs, k):
        return [sum(coeffs[a] * maps[a][p][k] for a in range(len(coeffs)))
                for p in range(m)]

    inner = [a + b for a, b in zip(act(l, tu, j), act(r, tv, i))]
    return [a - b for a, b in zip(mul(c, tu, tv), apply(t, inner))]


def first_pair_failure(residual, rows, cols):
    """The first basis pair with a nonzero residual, as ((i, j), residual),
    or None."""
    for i in range(rows):
        for j in range(cols):
            res = residual(i, j)
            if not is_zero(res):
                return (i, j), res
    return None


# ---------------------------------------------------------------------------
# the pre-anti-flexible Yang-Baxter equation
# ---------------------------------------------------------------------------

def pafybe_residual(prec, succ, r):
    """r_23 . r_12 - r_12 prec r_13 - r_13 succ r_23 as a rank-3 tensor:
    two placed copies of r sharing one slot multiply their components at
    that slot, the first copy's component on the left."""
    n = len(r)
    dot = add_t3(prec, succ)
    nz = [(a, b, v) for a, row in enumerate(r) for b, v in enumerate(row)
          if v]
    out = zeros(n, n, n)
    for a, b, x in nz:
        for c, d, y in nz:
            f = x * y
            # r_23 . r_12: e_c (x) (e_a . e_d) (x) e_b
            for k, v in enumerate(dot[a][d]):
                if v:
                    out[c][k][b] += f * v
            # r_12 prec r_13: (e_a < e_c) (x) e_b (x) e_d
            for k, v in enumerate(prec[a][c]):
                if v:
                    out[k][b][d] -= f * v
            # r_13 succ r_23: e_a (x) e_c (x) (e_b > e_d)
            for k, v in enumerate(succ[b][d]):
                if v:
                    out[a][c][k] -= f * v
    return out


# ---------------------------------------------------------------------------
# bialgebras and coboundaries
# ---------------------------------------------------------------------------

def _basis_ops(prec, succ):
    n = len(prec)
    dot = add_t3(prec, succ)
    e = [unit(n, i) for i in range(n)]

    def left(c, x):
        return lambda b: mul(c, e[x], e[b])

    def right(c, x):
        return lambda a: mul(c, e[a], e[x])

    return dot, e, left, right


def bialgebra_1_residual(prec, succ, dprec, dsucc, i, j):
    """The first compatibility condition on x = e_i, y = e_j:

      Ds(x.y) - (Rp(y) (x) id)Ds(x) - (id (x) Ld(x))Ds(y)
        - [s(id (x) Ls(y))Dp(x) + s(Rd(x) (x) id)Dp(y) - sDp(y.x)]

    with s the flip of the two tensor factors."""
    dot, e, left, right = _basis_ops(prec, succ)
    lhs = mat_sum(comult_at(dsucc, mul(dot, e[i], e[j])),
                  mat_scale(-1, pair_op(dsucc[i], right(prec, j), None)),
                  mat_scale(-1, pair_op(dsucc[j], None, left(dot, i))))
    rhs = mat_sum(transpose(pair_op(dprec[i], None, left(succ, j))),
                  transpose(pair_op(dprec[j], right(dot, i), None)),
                  mat_scale(-1, transpose(comult_at(dprec,
                                                    mul(dot, e[j], e[i])))))
    return mat_sum(lhs, mat_scale(-1, rhs))


def coboundary_1_residual(prec, succ, r_prec, r_succ, i, j):
    """The first quadratic coboundary condition on x = e_i, y = e_j:
    (Rp(y) (x) Ld(x)) S + (Ls(y) (x) Rd(x)) S with S = r_succ + s r_prec."""
    dot, e, left, right = _basis_ops(prec, succ)
    s = mat_sum(r_succ, transpose(r_prec))
    return mat_sum(pair_op(s, right(prec, j), left(dot, i)),
                   pair_op(s, left(succ, j), right(dot, i)))


def special_case_pair(r, case):
    """Case one: (r, -s r); case two: (-r, r), as (r_prec, r_succ)."""
    if case == "one":
        return r, mat_scale(-1, transpose(r))
    return mat_scale(-1, r), r


def coboundary_comult(prec, succ, r_prec, r_succ):
    """The comultiplications an r-pair induces, as (delta_prec, delta_succ):

      D_succ(x) = (id (x) L_dot(x)) r_succ + (R_prec(x) (x) id) s r_prec
      D_prec(x) = (id (x) L_succ(x)) r_prec + (R_dot(x) (x) id) s r_succ
    """
    dot, e, left, right = _basis_ops(prec, succ)
    n = len(prec)
    sp, ss = transpose(r_prec), transpose(r_succ)
    dsucc = [mat_sum(pair_op(r_succ, None, left(dot, i)),
                     pair_op(sp, right(prec, i), None)) for i in range(n)]
    dprec = [mat_sum(pair_op(r_prec, None, left(succ, i)),
                     pair_op(ss, right(dot, i), None)) for i in range(n)]
    return dprec, dsucc


# ---------------------------------------------------------------------------
# exhaustive grids
# ---------------------------------------------------------------------------

def grid(rows, cols, coeffs, symmetric=False):
    """Every matrix with entries from coeffs, in lexicographic order of the
    free entries (row-major; the upper triangle when symmetric), the last
    free entry varying fastest."""
    free = [(i, j) for i in range(rows) for j in range(cols)
            if not symmetric or j >= i]

    def fill(k, m):
        if k == len(free):
            yield [list(row) for row in m]
            return
        i, j = free[k]
        for v in coeffs:
            m[i][j] = v
            if symmetric:
                m[j][i] = v
            yield from fill(k + 1, m)

    yield from fill(0, zeros(rows, cols))
