"""Rota-Baxter and O-operators, r-elements as maps, cocycle forms, and
symmetric solutions of the Yang-Baxter-type equation.

An r-element of A (x) A doubles as a linear map A* -> A by pairing against
its second slot: r(u*) = sum_j <r, u* (x) e_j*> e_j.  Dual operators act on
dual coordinates as matrix transposes throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import Algebra, PreAlgebra, CheckReport, PreconditionError, \
    check_identities, require_square, scan
from .bimodule import AfBimodule, PreBimodule, act, check_af_bimodule, \
    multiplication_operators, regular_pre_bimodule, derive_bimodule, \
    semidirect_pre
from .coboundary import check_pafybe, r_is_symmetric
from .linalg import (
    ONE, transpose, zeros_mat, zeros_t3, basis_vec,
    vec_add, vec_sub, vec_neg, mat_vec,
    mat_inverse, mat_rank,
)


# ---------------------------------------------------------------------------
# Rota-Baxter operators and the induced half-products
# ---------------------------------------------------------------------------

def require_anti_flexible(alg: Algebra, caller):
    """Raise PreconditionError, naming the caller, unless the base algebra
    passes the anti-flexible check."""
    rep = check_identities(alg, "anti-flexible")
    if not rep.passed:
        raise PreconditionError("%s: base fails the anti-flexible check; "
                                "witness %r" % (caller, rep.witness))


def check_rota_baxter(alg: Algebra, alpha, all_failures=False) -> CheckReport:
    """B(x)*B(y) = B(x*B(y) + B(x)*y) over all basis pairs."""
    require_square("check_rota_baxter", "alpha", alpha, alg.dimension)
    require_anti_flexible(alg, "check_rota_baxter")
    return rota_baxter_core(alg, alpha, all_failures)


def rota_baxter_core(alg: Algebra, alpha, all_failures=False) -> CheckReport:
    """check_rota_baxter without its precondition, for callers that have
    validated the base once (grid_search)."""
    n = alg.dimension
    basis = [basis_vec(n, i) for i in range(n)]
    cols = [[alpha[k][i] for k in range(n)] for i in range(n)]
    return scan("rota-baxter", (
        ("rota-baxter", (i, j), vec_sub(
            alg.mul(cols[i], cols[j]),
            mat_vec(alpha, vec_add(alg.mul(basis[i], cols[j]),
                                   alg.mul(cols[i], basis[j])))))
        for i, j in product(range(n), repeat=2)), all_failures)


def _rb_defect(alg, alpha, x, y):
    """a(x)*a(y) - a(x*a(y) + a(x)*y)."""
    ax, ay = mat_vec(alpha, x), mat_vec(alpha, y)
    return vec_sub(alg.mul(ax, ay),
                   mat_vec(alpha, vec_add(alg.mul(x, ay), alg.mul(ax, y))))


def check_generalized_rb(alg: Algebra, alpha, all_failures=False) -> CheckReport:
    """The trilinear condition equivalent to the induced half-products
    being pre-anti-flexible:

      (a(x)*a(y) - a(x*a(y)+a(x)*y)) * z
        + z * (a(y)*a(x) - a(y*a(x)+a(y)*x)) = 0.
    """
    require_anti_flexible(alg, "check_generalized_rb")
    n = alg.dimension
    basis = [basis_vec(n, i) for i in range(n)]

    def residuals():
        for i, j in product(range(n), repeat=2):
            dij = _rb_defect(alg, alpha, basis[i], basis[j])
            dji = _rb_defect(alg, alpha, basis[j], basis[i])
            for k in range(n):
                yield "generalized-rota-baxter", (i, j, k), vec_add(
                    alg.mul(dij, basis[k]), alg.mul(basis[k], dji))
    return scan("generalized-rota-baxter", residuals(), all_failures)


def induced_pre_from_map(alg: Algebra, alpha) -> PreAlgebra:
    """The half-products x > y = a(x)*y and x < y = x*a(y)."""
    n = alg.dimension
    require_square("induced_pre_from_map", "alpha", alpha, n)
    c = alg.product
    succ = [[[sum(alpha[m][i] * c[m][j][k] for m in range(n))
              for k in range(n)] for j in range(n)] for i in range(n)]
    prec = [[[sum(alpha[m][j] * c[i][m][k] for m in range(n))
              for k in range(n)] for j in range(n)] for i in range(n)]
    return PreAlgebra(n, prec, succ, alg.basis_names)


# ---------------------------------------------------------------------------
# O-operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OOperator:
    """A linear map T: V -> A against a bimodule of an anti-flexible
    algebra; T is a (dim A) x (dim V) matrix."""
    bimodule: AfBimodule
    T: tuple

    def __post_init__(self):
        n = self.bimodule.base.dimension
        m = self.bimodule.space_dim
        t = self.T
        if len(t) != n or any(len(row) != m for row in t):
            raise PreconditionError("OOperator: T must be (dim A) x (dim V)")
        object.__setattr__(self, "T", tuple(tuple(row) for row in t))


def require_af_bimodule(bm: AfBimodule, caller):
    """Raise PreconditionError, naming the caller, unless the bimodule
    passes its check."""
    rep = check_af_bimodule(bm)
    if not rep.passed:
        raise PreconditionError("%s: the bimodule fails its check; witness %r"
                                % (caller, rep.witness))


def check_o_operator(oo: OOperator, all_failures=False) -> CheckReport:
    """T(u)*T(v) = T(l(T(u))v + r(T(v))u) over all basis pairs of V."""
    require_af_bimodule(oo.bimodule, "check_o_operator")
    return o_operator_core(oo.bimodule, oo.T, all_failures)


def o_operator_core(bm: AfBimodule, T, all_failures=False) -> CheckReport:
    """check_o_operator without its precondition, for callers that have
    validated the bimodule once (grid_search); T is a (dim A) x (dim V)
    matrix."""
    alg = bm.base
    n = alg.dimension
    m = bm.space_dim
    cols = [[T[k][i] for k in range(n)] for i in range(m)]
    lT = [act(bm.l, col) for col in cols]
    rT = [act(bm.r, col) for col in cols]
    # l(T(u_i)) u_j + r(T(u_j)) u_i
    return scan("o-operator", (
        ("o-operator", (i, j), vec_sub(
            alg.mul(cols[i], cols[j]),
            mat_vec(T, [lT[i][k][j] + rT[j][k][i] for k in range(m)])))
        for i, j in product(range(m), repeat=2)), all_failures)


# ---------------------------------------------------------------------------
# r-elements as maps
# ---------------------------------------------------------------------------

def r_map_matrix(r):
    """The matrix of r: A* -> A in coordinates (columns indexed by the dual
    basis): r(e_i*) = sum_j r[i][j] e_j."""
    return transpose(r)


def _dual_op(maps, coeffs):
    """The dual action of an operator family evaluated at an element,
    acting on dual coordinates."""
    return transpose(act(maps, coeffs))


@dataclass(frozen=True)
class RDoubleTable:
    """The products a symmetric r-element induces on the double A + A*:
    a pre-structure on A* and six mixed product tables, each table indexed
    by (A-basis, dual-basis) with values in double coordinates (A part
    first)."""
    dual: PreAlgebra
    mixed: dict


def double_products_from_r(palg: PreAlgebra, r) -> RDoubleTable:
    """Products on A* and the six mixed products of the double, written
    through r as a map:

      a < b = -R*_succ(r(a))b + L*_dot(r(b))a
      a > b =  R*_dot(r(a))b  - L*_prec(r(b))a
      x < a = x < r(a) + r(R*_succ(x)a) - R*_succ(x)a
      x > a = x > r(a) - r(R*_dot(x)a)  + R*_dot(x)a
      x . a = x . r(a) - r(R*_prec(x)a) + R*_prec(x)a
      a < x = r(a) < x - r(L*_dot(x)a)  + L*_dot(x)a
      a > x = r(a) > x + r(L*_prec(x)a) - L*_prec(x)a
      a . x = r(a) . x - r(L*_succ(x)a) + L*_succ(x)a

    The x . a line is the sum of the x < a and x > a lines (the only
    reading consistent with the half-product decomposition).
    """
    n = palg.dimension
    require_square("double_products_from_r", "r", r, n)
    if not r_is_symmetric(r):
        raise PreconditionError("double_products_from_r: r must be symmetric")
    ops = multiplication_operators(palg)
    rmat = r_map_matrix(r)
    rimg = [[r[i][j] for j in range(n)] for i in range(n)]  # r(f_i) rows
    prec = zeros_t3(n)
    succ = zeros_t3(n)
    for i in range(n):
        for j in range(n):
            ra, rb = rimg[i], rimg[j]
            p = vec_add(vec_neg(mat_vec(_dual_op(ops["R_succ"], ra),
                                        basis_vec(n, j))),
                        mat_vec(_dual_op(ops["L_dot"], rb), basis_vec(n, i)))
            s = vec_sub(mat_vec(_dual_op(ops["R_dot"], ra), basis_vec(n, j)),
                        mat_vec(_dual_op(ops["L_prec"], rb), basis_vec(n, i)))
            prec[i][j], succ[i][j] = p, s
    dual = PreAlgebra(n, prec, succ,
                      tuple("f%d" % (i + 1) for i in range(n)))

    def pack(avec, dvec):
        return tuple(avec) + tuple(dvec)

    mixed = {name: [[None] * n for _ in range(n)] for name in
             ("x_prec_a", "x_succ_a", "x_dot_a",
              "a_prec_x", "a_succ_x", "a_dot_x")}
    for i in range(n):
        x = basis_vec(n, i)
        for s in range(n):
            a = basis_vec(n, s)
            ra = rimg[s]
            rsx = mat_vec(_dual_op(ops["R_succ"], x), a)
            rdx = mat_vec(_dual_op(ops["R_dot"], x), a)
            lpx = mat_vec(_dual_op(ops["L_prec"], x), a)
            ldx = mat_vec(_dual_op(ops["L_dot"], x), a)
            lsx = mat_vec(_dual_op(ops["L_succ"], x), a)
            xp = pack(vec_add(palg.mul_prec(x, ra), mat_vec(rmat, rsx)),
                      vec_neg(rsx))
            xs = pack(vec_sub(palg.mul_succ(x, ra), mat_vec(rmat, rdx)), rdx)
            ap = pack(vec_sub(palg.mul_prec(ra, x), mat_vec(rmat, ldx)), ldx)
            as_ = pack(vec_add(palg.mul_succ(ra, x), mat_vec(rmat, lpx)),
                       vec_neg(lpx))
            ad = pack(vec_sub(palg.mul_dot(ra, x), mat_vec(rmat, lsx)), lsx)
            mixed["x_prec_a"][i][s] = xp
            mixed["x_succ_a"][i][s] = xs
            mixed["x_dot_a"][i][s] = tuple(u + v for u, v in zip(xp, xs))
            mixed["a_prec_x"][i][s] = ap
            mixed["a_succ_x"][i][s] = as_
            mixed["a_dot_x"][i][s] = ad
    return RDoubleTable(dual, mixed)


def assembled_double(palg: PreAlgebra, r) -> PreAlgebra:
    """The pre-structure on A + A* whose pure blocks are the given products
    and the r-induced dual products, and whose mixed blocks come from the
    r-induced mixed tables."""
    tab = double_products_from_r(palg, r)
    n = palg.dimension
    prec = zeros_t3(2 * n)
    succ = zeros_t3(2 * n)
    mixed = tab.mixed
    for i, j in product(range(n), repeat=2):
        prec[i][j][:n], succ[i][j][:n] = palg.prec[i][j], palg.succ[i][j]
        prec[n + i][n + j][n:] = tab.dual.prec[i][j]
        succ[n + i][n + j][n:] = tab.dual.succ[i][j]
        prec[i][n + j] = list(mixed["x_prec_a"][i][j])
        succ[i][n + j] = list(mixed["x_succ_a"][i][j])
        prec[n + j][i] = list(mixed["a_prec_x"][i][j])
        succ[n + j][i] = list(mixed["a_succ_x"][i][j])
    names = tuple(palg.basis_names) + \
        tuple("f%d" % (i + 1) for i in range(n))
    return PreAlgebra(2 * n, prec, succ, names)


def check_r_double_consistency(palg: PreAlgebra, r,
                               all_failures=False) -> CheckReport:
    """Whether the assembled double is itself pre-anti-flexible; for
    symmetric r this holds exactly when r solves the Yang-Baxter-type
    equation."""
    rep = check_identities(assembled_double(palg, r), "pre-anti-flexible",
                           all_failures)
    return scan("r-double", (("r-double", idx, res)
                             for _label, idx, res in rep.failures),
                all_failures)


# ---------------------------------------------------------------------------
# the bilinear form of a nondegenerate symmetric solution
# ---------------------------------------------------------------------------

def form_from_r(palg: PreAlgebra, r):
    """B(x, y) = <r^{-1}(x), y> as a coefficient matrix; r must be symmetric
    and nondegenerate (a singular r raises)."""
    if not r_is_symmetric(r):
        raise PreconditionError("form_from_r: r must be symmetric")
    return mat_inverse(list(map(list, r)))


def check_two_cocycle(palg: PreAlgebra, form, all_failures=False) -> CheckReport:
    """B(x.y, z) = B(y, z < x) + B(x, y > z) over all basis triples."""
    n = palg.dimension
    require_square("check_two_cocycle", "form", form, n)

    def residuals():
        for i, j, k in product(range(n), repeat=3):
            xy = palg.mul_dot(basis_vec(n, i), basis_vec(n, j))
            zx = palg.mul_prec(basis_vec(n, k), basis_vec(n, i))
            yz = palg.mul_succ(basis_vec(n, j), basis_vec(n, k))
            lhs = sum(xy[p] * form[p][k] for p in range(n))
            rhs = sum(form[j][p] * zx[p] for p in range(n)) + \
                sum(form[i][p] * yz[p] for p in range(n))
            yield "two-cocycle", (i, j, k), [lhs - rhs]
    return scan("two-cocycle", residuals(), all_failures)


def operator_form_check(palg: PreAlgebra, r, all_failures=False) -> CheckReport:
    """r(a).r(b) = r(R*_prec(r(a))b + L*_succ(r(b))a) over dual basis
    pairs; for symmetric r this is equivalent to the Yang-Baxter residual
    vanishing."""
    if not r_is_symmetric(r):
        raise PreconditionError("operator_form_check: r must be symmetric")
    n = palg.dimension
    ops = multiplication_operators(palg)
    rmat = r_map_matrix(r)

    def residuals():
        for i, j in product(range(n), repeat=2):
            ra, rb = list(r[i]), list(r[j])
            inner = vec_add(
                mat_vec(_dual_op(ops["R_prec"], ra), basis_vec(n, j)),
                mat_vec(_dual_op(ops["L_succ"], rb), basis_vec(n, i)))
            yield "operator-form", (i, j), vec_sub(palg.mul_dot(ra, rb),
                                                   mat_vec(rmat, inner))
    return scan("operator-form", residuals(), all_failures)


def compatible_structure_on_A(palg: PreAlgebra, r) -> PreAlgebra:
    """The companion pre-structure of a nondegenerate symmetric solution:
    x <' y = r(L*_succ(y) r^{-1}(x)), x >' y = r(R*_prec(x) r^{-1}(y))."""
    rep = check_pafybe(palg, r)
    if not rep.passed:
        raise PreconditionError("compatible_structure_on_A: r fails the "
                                "Yang-Baxter check; witness %r"
                                % (rep.witness,))
    n = palg.dimension
    ops = multiplication_operators(palg)
    rmat = r_map_matrix(r)
    rinv = mat_inverse(rmat)
    prec = zeros_t3(n)
    succ = zeros_t3(n)
    for i in range(n):
        for j in range(n):
            p = mat_vec(rmat, mat_vec(transpose(ops["L_succ"][j]),
                                      mat_vec(rinv, basis_vec(n, i))))
            s = mat_vec(rmat, mat_vec(transpose(ops["R_prec"][i]),
                                      mat_vec(rinv, basis_vec(n, j))))
            prec[i][j], succ[i][j] = p, s
    return PreAlgebra(n, prec, succ, palg.basis_names)


# ---------------------------------------------------------------------------
# solutions from O-operators
# ---------------------------------------------------------------------------

def solution_from_o_operator(oo: OOperator):
    """The symmetric solution carried by an injective O-operator: products
    on T(V) via preimages, the semidirect double with the dualized actions,
    and r = T + sigma T placed on the antidiagonal blocks.  Returns
    (double PreAlgebra, r matrix)."""
    rep = check_o_operator(oo)
    if not rep.passed:
        raise PreconditionError("solution_from_o_operator: T fails the "
                                "O-operator check; witness %r"
                                % (rep.witness,))
    bm = oo.bimodule
    n = bm.base.dimension
    m = bm.space_dim
    if mat_rank(list(map(list, oo.T))) != m:
        raise PreconditionError("solution_from_o_operator: T must be "
                                "injective")
    cols = [[oo.T[k][i] for k in range(n)] for i in range(m)]
    # products on T(V) in V-coordinates: v_i < v_j = r(T(v_j))v_i,
    # v_i > v_j = l(T(v_i))v_j
    prec = zeros_t3(m)
    succ = zeros_t3(m)
    for i in range(m):
        for j in range(m):
            p = mat_vec(act(bm.r, cols[j]), basis_vec(m, i))
            s = mat_vec(act(bm.l, cols[i]), basis_vec(m, j))
            prec[i][j], succ[i][j] = p, s
    image = PreAlgebra(m, prec, succ)
    zero = tuple(zeros_mat(m) for _ in range(m))
    actions = PreBimodule(image, m,
                          tuple(transpose(act(bm.r, cols[i])) for i in range(m)),
                          zero, zero,
                          tuple(transpose(act(bm.l, cols[i])) for i in range(m)))
    double = semidirect_pre(actions)
    r = zeros_mat(2 * m)
    for i in range(m):
        r[i][m + i] = ONE
        r[m + i][i] = ONE
    return double, r


def canonical_solution(palg: PreAlgebra):
    """The flagship symmetric solution: the semidirect double of the
    dual-reduced regular actions, with r = sum_i (e_i (x) e_i* +
    e_i* (x) e_i)."""
    rep = check_identities(palg, "pre-anti-flexible")
    if not rep.passed:
        raise PreconditionError("canonical_solution: base fails the "
                                "pre-anti-flexible check; witness %r"
                                % (rep.witness,))
    n = palg.dimension
    double = semidirect_pre(derive_bimodule(regular_pre_bimodule(palg),
                                            "dual-reduced"))
    r = zeros_mat(2 * n)
    for i in range(n):
        r[i][n + i] = ONE
        r[n + i][i] = ONE
    return double, r
