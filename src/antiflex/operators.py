"""Rota-Baxter and O-operators, r-elements as maps, cocycle forms, and
symmetric solutions of the Yang-Baxter-type equation.

An r-element of A (x) A doubles as a linear map A* -> A by pairing against
its second slot: r(u*) = sum_j <r, u* (x) e_j*> e_j.  Dual operators act on
dual coordinates as matrix transposes throughout.

A symmetric r is read through structures built elsewhere: its double is
the pre double of the case-two coboundary (route 4 of verify_bialgebra),
and its operator form the O-operator check of r: A* -> A against the
bimodule (R*_prec, L*_succ, A*) of the underlying algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .algebra import Algebra, PreAlgebra, CheckReport, PreconditionError, \
    StructureTensors, _form_report, _lcd, _require_kind, _trusted, \
    basis_residuals, check_identities, flat_residuals, require_matrix, \
    require_pass, require_square, scan, structure_tensors, table_residuals
from .bialgebra import _dual_products
from .bimodule import AfBimodule, PreBimodule, act, check_af_bimodule, \
    semidirect_pre
from .coboundary import check_pafybe, coboundary_delta, r_is_symmetric, \
    special_case_rpair
from .matched import AfMatchedPair, PreMatchedPair, _dual_pair, \
    build_pre_double
from .linalg import ONE, transpose, zeros_mat, mat_mul, mat_vec, \
    mat_inverse, mat_rank


# ---------------------------------------------------------------------------
# Rota-Baxter operators and the induced half-products
# ---------------------------------------------------------------------------

def require_anti_flexible(alg: Algebra, caller):
    """Raise PreconditionError, naming the caller, unless the base algebra
    passes the anti-flexible check."""
    require_pass(check_identities(alg, "anti-flexible"),
                 "%s: base fails the anti-flexible check" % caller)


def check_rota_baxter(alg: Algebra, alpha, all_failures=False) -> CheckReport:
    """B(x)*B(y) = B(x*B(y) + B(x)*y) over all basis pairs: the O-operator
    identity of B on the regular bimodule, l(x)v = x*v and r(x)u = u*x."""
    require_square("check_rota_baxter", "alpha", alpha, alg.dimension)
    require_anti_flexible(alg, "check_rota_baxter")
    return _o_operator_report(regular_tensors(alg), alpha, all_failures,
                              "rota-baxter")


def regular_tensors(alg: Algebra) -> StructureTensors:
    """The structure tensors of the regular bimodule of alg (see
    structure_tensors): both actions are the product."""
    c = structure_tensors(alg)
    rows = c.rows["c"]
    return StructureTensors({"c": rows, "l": rows, "r": rows}, c.scale)


def check_generalized_rb(alg: Algebra, alpha, all_failures=False) -> CheckReport:
    """The trilinear condition equivalent to the induced half-products
    being pre-anti-flexible:

      (a(x)*a(y) - a(x*a(y)+a(x)*y)) * z
        + z * (a(y)*a(x) - a(y*a(x)+a(y)*x)) = 0.

    On an anti-flexible base its residual at (x, y, z) is minus the
    pre-anti-flexible-lr identity of induced_pre_from_map at (x, y, z), so
    it is that identity's row, negated, read off the induced pre-algebra.
    """
    n = alg.dimension
    require_square("check_generalized_rb", "alpha", alpha, n)
    require_anti_flexible(alg, "check_generalized_rb")
    at = dict.fromkeys("ijkq", range(n))
    return scan("generalized-rota-baxter", table_residuals(
        basis_residuals(induced_pre_from_map(alg, alpha)),
        (("generalized-rota-baxter", "pre-anti-flexible-lr", "ijkq", -1),),
        at, at, "ijk", "q"), all_failures)


def induced_pre_from_map(alg: Algebra, alpha) -> PreAlgebra:
    """The half-products x > y = a(x)*y and x < y = x*a(y): the plane of
    e_i > - is the planes of c summed over column i of a, and the plane of
    e_i < - is a^T c[i]."""
    n = alg.dimension
    require_square("induced_pre_from_map", "alpha", alpha, n)
    c, alpha_t = alg.product, transpose(alpha)
    return _trusted(PreAlgebra, n, [mat_mul(alpha_t, plane) for plane in c],
                    [act(c, col) for col in alpha_t], alg.basis_names)


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
        require_matrix("OOperator", "T", self.T, self.bimodule.base.dimension,
                       self.bimodule.space_dim)
        object.__setattr__(self, "T", tuple(tuple(row) for row in self.T))


def require_af_bimodule(bm: AfBimodule, caller):
    """Raise PreconditionError, naming the caller, unless the bimodule
    passes its check."""
    require_pass(check_af_bimodule(bm),
                 "%s: the bimodule fails its check" % caller)


def check_o_operator(oo: OOperator, all_failures=False) -> CheckReport:
    """T(u)*T(v) = T(l(T(u))v + r(T(v))u) over all basis pairs of V."""
    _require_kind("check_o_operator", oo, OOperator)
    require_af_bimodule(oo.bimodule, "check_o_operator")
    return _o_operator_report(structure_tensors(oo.bimodule), oo.T,
                              all_failures, "o-operator")


def _o_operator_report(c, T, all_failures, name):
    """The O-operator check `name` of the matrix T on the structure tensors
    c of a bimodule.  T is scaled to ints by its lcd D_m, and the residual
    at each basis pair where it is nonzero is divided back by D * D_m**2."""
    d = _lcd(x for row in T for x in row)
    flat = o_operator_numerators(c)(
        [[x.numerator * (d // x.denominator) for x in row] for row in T])
    return scan(name, flat_residuals(
        {name: lambda: flat}, (len(T[0]),) * 2, (len(T),), c.scale * d * d),
        all_failures)


def o_operator_numerators(c):
    """The function that takes an int matrix t, (dim A) x (dim V), to the
    residuals of its O-operator identity on the structure tensors c of a
    bimodule (rows c, l and r, scale D; see structure_tensors):

      t(u_i)*t(u_j) - t(l(t(u_i))u_j + r(t(u_j))u_i)

    at the basis pairs (u_i, u_j) of V, times D, as one flat int tensor
    with coordinate q at (u_i, u_j) in entry (i * dim V + j) * dim A + q:
    at t = D_m * T each entry is D * D_m**2 times that of T.  Only the
    nonzero rows of c and entries of t are visited."""
    c_rows, l_rows, r_rows = (
        [[(b, row) for b, row in enumerate(plane) if row]
         for plane in c.rows[op]] for op in "clr")

    def numerators(t):
        n, m = len(t), len(t[0])
        # t(u_k) has the coordinate x at e_a for each (a, x) of image[k],
        # and each (k, x) of at_row[a]
        at_row = [[(k, x) for k, x in enumerate(row) if x] for row in t]
        image = [[(a, x) for a, x in enumerate(col) if x] for col in zip(*t)]
        flat = []
        for i in range(m):
            out = [0] * (m * n)
            for a, x in image[i]:
                for b, row in c_rows[a]:            # e_a * e_b
                    for j, y in at_row[b]:
                        at, xy = j * n, x * y
                        for q, z in row:
                            out[at + q] += xy * z
                for j, row in l_rows[a]:            # l(e_a)u_j
                    at = j * n
                    for k, z in row:
                        xz = x * z
                        for q, y in image[k]:
                            out[at + q] -= xz * y
            for b, row in r_rows[i]:                # r(e_b)u_i
                for j, x in at_row[b]:
                    at = j * n
                    for k, z in row:
                        xz = x * z
                        for q, y in image[k]:
                            out[at + q] -= xz * y
            flat += out
        return flat

    return numerators


# ---------------------------------------------------------------------------
# r-elements as maps
# ---------------------------------------------------------------------------

def r_map_matrix(r):
    """The matrix of r: A* -> A in coordinates (columns indexed by the dual
    basis): r(e_i*) = sum_j r[i][j] e_j."""
    return transpose(r)


def assembled_double(palg: PreAlgebra, r) -> PreAlgebra:
    """The double A + A* of a symmetric r: the pre double of the eight-map
    dual pair (see matched.dual_pre_matched) of A and the products that the
    case-two coboundary of r (r_prec = -r, r_succ = r) induces on A*, with
    the dual basis named f1, f2, ...  Written through r as a map:

      a < b = -R*_succ(r(a))b + L*_dot(r(b))a
      a > b =  R*_dot(r(a))b  - L*_prec(r(b))a
      x < a = x < r(a) + r(R*_succ(x)a) - R*_succ(x)a
      x > a = x > r(a) - r(R*_dot(x)a)  + R*_dot(x)a
      a < x = r(a) < x - r(L*_dot(x)a)  + L*_dot(x)a
      a > x = r(a) > x + r(L*_prec(x)a) - L*_prec(x)a
    """
    n = palg.dimension
    require_square("assembled_double", "r", r, n)
    if not r_is_symmetric(r):
        raise PreconditionError("assembled_double: r must be symmetric")
    dual = _dual_products(*coboundary_delta(
        palg, special_case_rpair(r, "two")))
    double = build_pre_double(_dual_pair(PreMatchedPair, palg, dual))
    return _trusted(PreAlgebra, double.dimension,
                    *(partial(getattr, double, op) for op in ("prec", "succ")),
                    tuple(palg.basis_names) + dual.basis_names,
                    tensors=structure_tensors(double))


def check_r_double_consistency(palg: PreAlgebra, r,
                               all_failures=False) -> CheckReport:
    """Whether the assembled double is itself pre-anti-flexible; for
    symmetric r this holds exactly when r solves the Yang-Baxter-type
    equation."""
    d = assembled_double(palg, r)
    at = dict.fromkeys("ijkq", range(d.dimension))
    return scan("r-double", table_residuals(basis_residuals(d), (
        ("r-double", "pre-anti-flexible-m", "ijkq", 1),
        ("r-double", "pre-anti-flexible-lr", "ijkq", 1)), at, at, "ijk", "q"),
        all_failures)


# ---------------------------------------------------------------------------
# the bilinear form of a nondegenerate symmetric solution
# ---------------------------------------------------------------------------

def form_from_r(palg: PreAlgebra, r):
    """B(x, y) = <r^{-1}(x), y> as a coefficient matrix; r must be symmetric
    and nondegenerate (a singular r raises)."""
    require_square("form_from_r", "r", r, palg.dimension)
    if not r_is_symmetric(r):
        raise PreconditionError("form_from_r: r must be symmetric")
    return mat_inverse(list(map(list, r)))


def check_two_cocycle(palg: PreAlgebra, form, all_failures=False) -> CheckReport:
    """B(x.y, z) = B(y, z < x) + B(x, y > z) over all basis triples: at
    (i, j, k) the terms B(e_a.e_b, e_c) at (a, b, c), -B(e_c, e_a < e_b)
    at (b, c, a) and -B(e_c, e_a > e_b) at (c, a, b)."""
    _require_kind("check_two_cocycle", palg, PreAlgebra)
    require_square("check_two_cocycle", "form", form, palg.dimension)
    form_t = transpose(form)
    return _form_report("two-cocycle", palg, (
        (1, "dot", form, ((2, 1, 0),)), (-1, "prec", form_t, ((0, 2, 1),)),
        (-1, "succ", form_t, ((1, 0, 2),))), all_failures)


def operator_form_check(palg: PreAlgebra, r, all_failures=False) -> CheckReport:
    """r(a).r(b) = r(R*_prec(r(a))b + L*_succ(r(b))a) over dual basis
    pairs: the O-operator identity of T = r: A* -> A against the bimodule
    (R*_prec, L*_succ, A*) of the underlying algebra.  For symmetric r it
    is equivalent to the Yang-Baxter residual vanishing.  The bimodule is
    palg's dot rows and lA, rA of the standard dual pair of (palg, palg)."""
    _require_kind("operator_form_check", palg, PreAlgebra)
    require_square("operator_form_check", "r", r, palg.dimension)
    if not r_is_symmetric(r):
        raise PreconditionError("operator_form_check: r must be symmetric")
    c = structure_tensors(palg)
    f = structure_tensors(_dual_pair(AfMatchedPair, palg, palg)).rows
    bm = StructureTensors({"c": c.rows["dot"], "l": f["lA"], "r": f["rA"]},
                          c.scale)
    return _o_operator_report(bm, r_map_matrix(r), all_failures,
                              "operator-form")


def compatible_structure_on_A(palg: PreAlgebra, r) -> PreAlgebra:
    """The companion pre-structure of a nondegenerate symmetric solution:
    x <' y = r(L*_succ(y) r^{-1}(x)), x >' y = r(R*_prec(x) r^{-1}(y))."""
    require_pass(check_pafybe(palg, r), "compatible_structure_on_A: r fails "
                 "the Yang-Baxter check")
    n = palg.dimension
    rmat = r_map_matrix(r)
    # row i of the transpose of r^{-1} is r^{-1}(e_i); L*_succ(e_j) is the
    # plane succ[j] and R*_prec(e_i) is transpose(prec)[i]
    rinv, prec_t = transpose(mat_inverse(rmat)), transpose(palg.prec)
    prec = [[mat_vec(rmat, mat_vec(palg.succ[j], rinv[i])) for j in range(n)]
            for i in range(n)]
    succ = [[mat_vec(rmat, mat_vec(prec_t[i], rinv[j])) for j in range(n)]
            for i in range(n)]
    return _trusted(PreAlgebra, n, prec, succ, palg.basis_names)


# ---------------------------------------------------------------------------
# solutions from O-operators
# ---------------------------------------------------------------------------

def solution_from_o_operator(oo: OOperator):
    """The symmetric solution carried by an injective O-operator: products
    on T(V) via preimages, the semidirect double with the dualized actions,
    and r = T + sigma T placed on the antidiagonal blocks.  Returns
    (double PreAlgebra, r matrix)."""
    require_pass(check_o_operator(oo), "solution_from_o_operator: T fails "
                 "the O-operator check")
    bm = oo.bimodule
    m = bm.space_dim
    if mat_rank(list(map(list, oo.T))) != m:
        raise PreconditionError("solution_from_o_operator: T must be "
                                "injective")
    # products on T(V) in V-coordinates: v_i < v_j = r(T(v_j))v_i,
    # v_i > v_j = l(T(v_i))v_j, read off the rows of the transposes
    r_t, l_t = ([transpose(act(maps, col)) for col in transpose(oo.T)]
                for maps in (bm.r, bm.l))
    return _solution(_trusted(PreAlgebra, m, transpose(r_t), l_t, tuple(
        "e%d" % (i + 1) for i in range(m))), tuple(r_t), tuple(l_t))


def canonical_solution(palg: PreAlgebra):
    """The flagship symmetric solution: the semidirect double of the
    dual-reduced regular actions (R*_prec, 0, 0, L*_succ), with
    r = sum_i (e_i (x) e_i* + e_i* (x) e_i)."""
    require_pass(check_identities(palg, "pre-anti-flexible"),
                 "canonical_solution: base fails the pre-anti-flexible check")
    return _solution(palg, tuple(transpose(palg.prec)), tuple(palg.succ))


def _solution(base, l_succ, r_prec):
    """(the semidirect double of the bimodule (l_succ, 0, 0, r_prec) of a
    checked base on a space V of its dimension, sum_i e_i (x) v_i +
    v_i (x) e_i)."""
    m = base.dimension
    zero = (zeros_mat(m),) * m
    r = zeros_mat(2 * m)
    for i in range(m):
        r[i][m + i] = r[m + i][i] = ONE
    return semidirect_pre(_trusted(PreBimodule, base, m, l_succ, zero, zero,
                                   r_prec)), r
