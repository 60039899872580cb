"""References for antiflex.operators.

The Fraction path: the Rota-Baxter and O-operator checks as they were
before both ran as one int kernel, the O-operator identity on the
structure tensors of a bimodule, with every residual a Fraction sum per
basis pair, and the grid search over them, which enumerated Fraction
candidates and built a report for each.

The r-double and the operator form written out by hand from r as a map
A* -> A: the reference that antiflex.operators, which reads both through
the coboundary pre double and the O-operator check, is tested against.

The generalized Rota-Baxter check as it was before it was read as a row
of the induced pre-algebra, triple by triple in Fractions; and the int
O-operator kernel as it was before it returned one flat tensor, yielding
one block per basis element u_i with its report slicing the blocks per
basis pair.

The two-cocycle check as it was before it was terms on the int kernel of
the cyclic-form check, one Fraction sum per basis triple."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from antiflex.algebra import Algebra, PreAlgebra, CheckReport, \
    PreconditionError, _lcd, _require_kind, check_identities, \
    require_square, scan
from antiflex.bimodule import AfBimodule, act
from antiflex.coboundary import r_is_symmetric
from antiflex.harness import FORMAT_VERSION
from antiflex.linalg import ZERO, dot, mat_vec, transpose, vec_add, \
    vec_sub, zeros_t3
from antiflex.operators import OOperator, r_map_matrix, \
    require_af_bimodule, require_anti_flexible

import coboundary_reference
from helpers import basis_vec, multiplication_operators, t3_add, vec_neg


# ---------------------------------------------------------------------------
# the Fraction path
# ---------------------------------------------------------------------------

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


def grid_search(spec, subject):
    """The found matrices and the report of a grid search, each candidate
    a matrix of the coefficients, in the order of itertools.product over
    its free entries, checked by the cores above (PAFYBE by
    coboundary_reference) after the precondition on the subject."""
    coeffs = spec.coefficient_set
    if spec.target == "pafybe-symmetric":
        n = subject.dimension
        nfree = n * (n + 1) // 2
        found = coboundary_reference.pafybe_grid_search(subject, coeffs)
    else:
        if spec.target == "rota-baxter":
            n = m = subject.dimension
            require_anti_flexible(subject, "check_rota_baxter")
            accept = lambda t: rota_baxter_core(subject, t).passed
        else:
            n, m = subject.base.dimension, subject.space_dim
            require_af_bimodule(subject, "check_o_operator")
            accept = lambda t: o_operator_core(subject, t).passed
        nfree = n * m
        found = []
        for vals in product(coeffs, repeat=nfree):
            t = [list(vals[i * m:(i + 1) * m]) for i in range(n)]
            if accept(t):
                found.append(t)
    return found, {"format_version": FORMAT_VERSION, "target": spec.target,
                   "candidates": len(coeffs) ** nfree, "found": len(found),
                   "coefficient_set": [str(Fraction(c)) for c in coeffs]}


# ---------------------------------------------------------------------------
# the r-double and the operator form by hand
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# the per-triple generalized Rota-Baxter check and the per-i int kernel
# ---------------------------------------------------------------------------

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
    n = alg.dimension
    require_square("check_generalized_rb", "alpha", alpha, n)
    require_anti_flexible(alg, "check_generalized_rb")
    basis = [basis_vec(n, i) for i in range(n)]

    def residuals():
        for i, j in product(range(n), repeat=2):
            dij = _rb_defect(alg, alpha, basis[i], basis[j])
            dji = _rb_defect(alg, alpha, basis[j], basis[i])
            for k in range(n):
                yield "generalized-rota-baxter", (i, j, k), vec_add(
                    alg.mul(dij, basis[k]), alg.mul(basis[k], dji))
    return scan("generalized-rota-baxter", residuals(), all_failures)


def o_operator_report(c, T, all_failures):
    """The O-operator check of the matrix T on the structure tensors c of a
    bimodule.  T is scaled to ints by its lcd D_m, and only the basis pairs
    whose int residual is nonzero are divided back, as Fraction(v, D *
    D_m**2), with the shared ZERO at zero coordinates."""
    d = _lcd(x for row in T for x in row)
    n, scale = len(T), c.scale * d * d
    blocks = o_operator_numerators(c)(
        [[x.numerator * (d // x.denominator) for x in row] for row in T])
    return scan("o-operator", (
        ("o-operator", (i, j),
         [Fraction(v, scale) if v else ZERO for v in block[at:at + n]])
        for i, block in blocks
        for j, at in enumerate(range(0, len(block), n))
        if any(block[at:at + n])), all_failures)


def o_operator_numerators(c):
    """The function that takes an int matrix t, (dim A) x (dim V), to the
    residuals of its O-operator identity on the structure tensors c of a
    bimodule (rows c, l and r, scale D; see structure_tensors):

      t(u_i)*t(u_j) - t(l(t(u_i))u_j + r(t(u_j))u_i)

    at the basis pairs (u_i, u_j) of V, times D.  They are yielded lazily,
    one i at a time and only where nonzero, as (i, block) with coordinate
    q at u_j in block[j * dim A + q].  Every term has two factors of t and
    one structure constant, so at t = D_m * T each entry is D * D_m**2
    times that of T.  The nonzero rows of c are listed once, here, by
    their first index, and only they and the nonzero entries of t are
    visited."""
    c_rows, l_rows, r_rows = (
        [[(b, row) for b, row in enumerate(plane) if row]
         for plane in c.rows[op]] for op in "clr")

    def numerators(t):
        n, m = len(t), len(t[0])
        # t(u_k) has the coordinate x at e_a for each (a, x) of image[k],
        # and each (k, x) of at_row[a]
        at_row = [[(k, x) for k, x in enumerate(row) if x] for row in t]
        image = [[(a, x) for a, x in enumerate(col) if x] for col in zip(*t)]
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
            if any(out):
                yield i, out

    return numerators


# ---------------------------------------------------------------------------
# the two-cocycle check, triple by triple in Fractions
# ---------------------------------------------------------------------------

def check_two_cocycle(palg: PreAlgebra, form, all_failures=False) -> CheckReport:
    """B(x.y, z) = B(y, z < x) + B(x, y > z) over all basis triples, on
    the product rows e_i.e_j, e_k < e_i and e_j > e_k."""
    _require_kind("check_two_cocycle", palg, PreAlgebra)
    n = palg.dimension
    require_square("check_two_cocycle", "form", form, n)
    prec, succ = palg.prec, palg.succ
    dots, form_t = t3_add(prec, succ), transpose(form)
    return scan("two-cocycle", (
        ("two-cocycle", (i, j, k), [dot(dots[i][j], form_t[k])
                                    - (dot(form[j], prec[k][i])
                                       + dot(form[i], succ[j][k]))])
        for i, j, k in product(range(n), repeat=3)), all_failures)
