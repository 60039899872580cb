"""The dense operator layer: every regular and dual operator family built
as matrices (multiplication_operators, dual_maps and dual_full_actions), and
every product on basis vectors evaluated by multiplying basis_vecs, as the
package built them before it read them as index views of the structure
tensors.  The reference that those builders and checkers of antiflex are
tested against, function for function under the same names."""

from itertools import product

from antiflex.algebra import Algebra, PreAlgebra, CheckReport, \
    FROM_ASSOCIATIVE_VARIANTS, PreconditionError, check_identities, \
    require_matrix, require_pass, require_square, scan, underlying_algebra
from antiflex.bialgebra import Bialgebra, comult_from_products
from antiflex.bimodule import AfBimodule, PreBimodule, act, dual_maps, \
    semidirect_pre
from antiflex.coboundary import check_pafybe, r_is_symmetric
from antiflex.linalg import ONE, mat_add, mat_inverse, mat_mul, \
    mat_neg, mat_rank, mat_sub, mat_vec, t3_sub, transpose, zeros_mat, \
    zeros_t3
from antiflex.matched import AfMatchedPair, PreMatchedPair
from antiflex.operators import OOperator, check_o_operator, r_map_matrix

from helpers import basis_vec, multiplication_operators
from operators_reference import o_operator_core


# ---------------------------------------------------------------------------
# antiflex.algebra
# ---------------------------------------------------------------------------

def derived_products(palg: PreAlgebra, kind) -> Algebra:
    """kind='lie-admissible': x o y = x>y - y<x;
    kind='commutator-of-underlying': [x,y] = x.y - y.x."""
    n = palg.dimension
    if kind == "lie-admissible":
        flipped = [[palg.prec[j][i] for j in range(n)] for i in range(n)]
        return Algebra(n, t3_sub(palg.succ, flipped), palg.basis_names)
    if kind == "commutator-of-underlying":
        dot = underlying_algebra(palg).product
        flipped = [[dot[j][i] for j in range(n)] for i in range(n)]
        return Algebra(n, t3_sub(dot, flipped), palg.basis_names)
    raise ValueError("derived_products: unknown kind %r" % (kind,))


def from_associative(assoc: Algebra, variant) -> PreAlgebra:
    """One-sided splittings of an associative product: one of the two
    half-products carries the full product (possibly with flipped argument
    order) and the other is zero."""
    if variant not in FROM_ASSOCIATIVE_VARIANTS:
        raise ValueError("from_associative: unknown variant %r" % (variant,))
    require_pass(check_identities(assoc, "associative"),
                 "from_associative: input is not associative")
    n = assoc.dimension
    c = assoc.product
    flipped = [[c[j][i] for j in range(n)] for i in range(n)]
    zero = zeros_t3(n)
    if variant == "succ-left":
        return PreAlgebra(n, zero, c, assoc.basis_names)
    if variant == "succ-right":
        return PreAlgebra(n, zero, flipped, assoc.basis_names)
    if variant == "prec-left":
        return PreAlgebra(n, c, zero, assoc.basis_names)
    return PreAlgebra(n, flipped, zero, assoc.basis_names)


# ---------------------------------------------------------------------------
# antiflex.bimodule
# ---------------------------------------------------------------------------

def dual_full_actions(l_succ, r_succ, l_prec, r_prec):
    """The actions (r_dot*, -l_prec*, -r_succ*, l_dot*) on V* of the dual-full
    bimodule of the actions (l_succ, r_succ, l_prec, r_prec) on V, in the
    same order."""
    def neg(maps):
        return tuple(mat_neg(m) for m in dual_maps(maps))
    return (dual_maps(map(mat_add, r_prec, r_succ)), neg(l_prec), neg(r_succ),
            dual_maps(map(mat_add, l_prec, l_succ)))


def regular_af_bimodule(alg: Algebra) -> AfBimodule:
    """(L, R, A): left/right multiplications acting on the algebra itself."""
    n = alg.dimension
    c = alg.product
    left = [[[c[i][j][k] for j in range(n)] for k in range(n)] for i in range(n)]
    right = [[[c[i][j][k] for i in range(n)] for k in range(n)] for j in range(n)]
    return AfBimodule(alg, n, left, right)


def regular_pre_bimodule(palg: PreAlgebra) -> PreBimodule:
    """(L_succ, R_succ, L_prec, R_prec, A): the pre-algebra acting on itself."""
    ops = multiplication_operators(palg)
    return PreBimodule(palg, palg.dimension,
                       ops["L_succ"], ops["R_succ"], ops["L_prec"], ops["R_prec"])


# ---------------------------------------------------------------------------
# antiflex.matched
# ---------------------------------------------------------------------------

def _dual_operators(caller, palgA, palgAstar, check_inputs):
    """The regular operator families of a pre-algebra and of a companion
    structure on its dual, after the checks the dual pairs share."""
    if palgA.dimension != palgAstar.dimension:
        raise PreconditionError("%s: dimension mismatch" % caller)
    if check_inputs:
        for name, p in (("first", palgA), ("second", palgAstar)):
            require_pass(check_identities(p, "pre-anti-flexible"),
                         "%s: %s factor fails the pre-anti-flexible check"
                         % (caller, name))
    return multiplication_operators(palgA), multiplication_operators(palgAstar)


def standard_dual_matched(palgA: PreAlgebra, palgAstar: PreAlgebra,
                          check_inputs=True) -> AfMatchedPair:
    """The dual-action candidate matched pair (R*_prec, L*_succ) of the two
    underlying algebras of a pre-algebra and a companion structure on its
    dual space.  Validity is not asserted here: whether the compatibility
    conditions hold is exactly what check_af_matched and the skew-form
    criterion decide."""
    opsA, opsS = _dual_operators("standard_dual_matched", palgA, palgAstar,
                                 check_inputs)
    return AfMatchedPair(
        underlying_algebra(palgA), underlying_algebra(palgAstar),
        dual_maps(opsA["R_prec"]), dual_maps(opsA["L_succ"]),
        dual_maps(opsS["R_prec"]), dual_maps(opsS["L_succ"]))


def dual_pre_matched(palgA: PreAlgebra, palgAstar: PreAlgebra,
                     check_inputs=True) -> PreMatchedPair:
    """The eight-map dual-action candidate pair on a pre-algebra and a
    companion structure on its dual: on each side the succ actions are
    (R*_dot, -L*_prec) and the prec actions are (-R*_succ, L*_dot) — the
    four families of the dualized full bimodule, arranged so that the
    underlying algebra of this pair's pre double is the standard dual
    pair's double."""
    opsA, opsS = _dual_operators("dual_pre_matched", palgA, palgAstar,
                                 check_inputs)
    return PreMatchedPair(palgA, palgAstar, *(
        action for ops in (opsA, opsS) for action in dual_full_actions(
            ops["L_succ"], ops["R_succ"], ops["L_prec"], ops["R_prec"])))


# ---------------------------------------------------------------------------
# antiflex.operators
# ---------------------------------------------------------------------------

def _relabelled(rep: CheckReport, name) -> CheckReport:
    """A report under the check name `name`, each failure relabelled."""
    failures = tuple((name,) + failure[1:] for failure in rep.failures)
    return CheckReport(rep.passed, name, failures[0] if failures else None,
                       failures)


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
    pairs: the O-operator identity of T = r: A* -> A against the bimodule
    (R*_prec, L*_succ, A*) of the underlying algebra.  For symmetric r it
    is equivalent to the Yang-Baxter residual vanishing."""
    n = palg.dimension
    require_square("operator_form_check", "r", r, n)
    if not r_is_symmetric(r):
        raise PreconditionError("operator_form_check: r must be symmetric")
    ops = multiplication_operators(palg)
    bm = AfBimodule(underlying_algebra(palg), n, dual_maps(ops["R_prec"]),
                    dual_maps(ops["L_succ"]))
    return _relabelled(o_operator_core(bm, r_map_matrix(r), all_failures),
                       "operator-form")


def compatible_structure_on_A(palg: PreAlgebra, r) -> PreAlgebra:
    """The companion pre-structure of a nondegenerate symmetric solution:
    x <' y = r(L*_succ(y) r^{-1}(x)), x >' y = r(R*_prec(x) r^{-1}(y))."""
    require_pass(check_pafybe(palg, r), "compatible_structure_on_A: r fails "
                 "the Yang-Baxter check")
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


def solution_from_o_operator(oo: OOperator):
    """The symmetric solution carried by an injective O-operator: products
    on T(V) via preimages, the semidirect double with the dualized actions,
    and r = T + sigma T placed on the antidiagonal blocks.  Returns
    (double PreAlgebra, r matrix)."""
    require_pass(check_o_operator(oo), "solution_from_o_operator: T fails "
                 "the O-operator check")
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


# ---------------------------------------------------------------------------
# antiflex.bialgebra
# ---------------------------------------------------------------------------

def check_bialgebra_hom(psi, src: Bialgebra, dst: Bialgebra,
                        all_failures=False) -> CheckReport:
    """psi: A -> B a pre-algebra homomorphism whose dual is also one.

    Checked on basis elements: psi(x ? y) = psi(x) ? psi(y) for both
    half-products; (psi (x) psi) D_?A = D_?B o psi; and the dual-side
    conditions (psi* (x) psi*) beta_?B = beta_?A o psi*, where beta are the
    comultiplications dual to the products (index transpositions).
    """
    require_matrix("check_bialgebra_hom", "psi", psi, dst.dimension,
                   src.dimension)
    return scan("bialgebra-hom", _hom_residuals(psi, src, dst), all_failures)


def _hom_residuals(psi, src, dst):
    nA, nB = src.dimension, dst.dimension
    psit = transpose(psi)
    for i, j in product(range(nA), repeat=2):
        x, y = basis_vec(nA, i), basis_vec(nA, j)
        px, py = mat_vec(psi, x), mat_vec(psi, y)
        for label, mine, theirs in (
                ("hom-prec", src.palg.mul_prec(x, y),
                 dst.palg.mul_prec(px, py)),
                ("hom-succ", src.palg.mul_succ(x, y),
                 dst.palg.mul_succ(px, py))):
            yield label, (i, j), [a - b for a, b in
                                  zip(mat_vec(psi, mine), theirs)]
    for i in range(nA):
        px = mat_vec(psi, basis_vec(nA, i))
        for label, dA, dB in (("hom-comult-prec", src.delta_prec,
                               dst.delta_prec),
                              ("hom-comult-succ", src.delta_succ,
                               dst.delta_succ)):
            yield label, (i,), mat_sub(mat_mul(mat_mul(psi, dA[i]), psit),
                                       act(dB, px))
    # dual side: beta maps are the comultiplications dual to the products;
    # psi*: B* -> A* has matrix psi^T.
    betaA = comult_from_products(src.palg)
    betaB = comult_from_products(dst.palg)
    for s in range(nB):
        pa = mat_vec(psit, basis_vec(nB, s))
        for label, bB, bA in (("hom-beta-prec", betaB[0], betaA[0]),
                              ("hom-beta-succ", betaB[1], betaA[1])):
            yield label, (s,), mat_sub(mat_mul(mat_mul(psit, bB[s]), psi),
                                       act(bA, pa))
