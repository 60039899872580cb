"""The public-constructor path of every structure the package derives
from inputs it has already checked, as it was before those structures were
made through algebra._trusted from rows: each is built dense and validated
entry by entry by its constructor, and its structure tensors are scanned
from the dense fields.  The differential tests compare the trusted
constructions with these (tests/test_trusted.py).
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from itertools import product

from antiflex.algebra import FROM_ASSOCIATIVE_VARIANTS, Algebra, \
    PreAlgebra, PreconditionError, _divided, check_cyclic_form, \
    check_identities, require_pass, require_square, require_tensor
from antiflex.bialgebra import Bialgebra, comult_from_products, \
    verify_bialgebra
from antiflex.bimodule import BIMODULE_TRANSFORMS, AfBimodule, \
    PreBimodule, _regular_maps, act, check_pre_bimodule, dual_maps
from antiflex.coboundary import RPair, _DELTAS, _family, _operator_table, \
    _require_base, _rsums, check_pafybe, coboundary_delta, r_is_symmetric, \
    special_case_rpair
from antiflex.linalg import ONE, SingularMatrixError, dot, mat_inverse, \
    mat_mul, mat_neg, mat_rank, mat_vec, transpose, zeros_mat, zeros_t3
from antiflex.matched import AfMatchedPair, PreMatchedPair
from antiflex.operators import OOperator, check_o_operator, r_map_matrix

from helpers import t3_add


def _require_dual_pair(caller, palgA, palgAstar, check_inputs):
    """The checks the dual pairs share: equal dimensions, and with
    check_inputs both factors pre-anti-flexible."""
    if palgA.dimension != palgAstar.dimension:
        raise PreconditionError("%s: dimension mismatch" % caller)
    if check_inputs:
        for name, p in (("first", palgA), ("second", palgAstar)):
            require_pass(check_identities(p, "pre-anti-flexible"),
                         "%s: %s factor fails the pre-anti-flexible check"
                         % (caller, name))


def underlying_algebra(palg: PreAlgebra) -> Algebra:
    """The single-product algebra with x.y = x<y + x>y."""
    return Algebra(palg.dimension, t3_add(palg.prec, palg.succ),
                   palg.basis_names)


def direct_sum_tensor(cA, cB, lA, rA, lB, rB):
    """The structure tensor on A + B, A-basis first, of the product
    (x+a)(y+b) = (x*y + lB(a)y + rB(b)x) + (a*b + lA(x)b + rA(y)a)
    for x, y in A and a, b in B."""
    nA, nB = len(cA), len(cB)
    c = zeros_t3(nA + nB)
    for i, j in product(range(nA), repeat=2):
        c[i][j][:nA] = cA[i][j]
    for s, t in product(range(nB), repeat=2):
        c[nA + s][nA + t][nA:] = cB[s][t]
    for s, j in product(range(nB), range(nA)):     # a * y
        row = c[nA + s][j]
        row[:nA] = [lB[s][k][j] for k in range(nA)]
        row[nA:] = [rA[j][k][s] for k in range(nB)]
    for i, t in product(range(nA), range(nB)):     # x * b
        row = c[i][nA + t]
        row[:nA] = [rB[t][k][i] for k in range(nA)]
        row[nA:] = [lA[i][k][t] for k in range(nB)]
    return c


def _semidirect_tensor(c, l, r, m):
    """The tensor on A + V of (x+u)(y+v) = x*y + l(x)v + r(y)u."""
    zero = [zeros_mat(len(c))] * m
    return direct_sum_tensor(c, zeros_t3(m), l, r, zero, zero)


def _module_names(base, m):
    return tuple(base.basis_names) + tuple("v%d" % (i + 1) for i in range(m))


def semidirect_af(bm: AfBimodule) -> Algebra:
    """The algebra on A + V with (x+u)(y+v) = x*y + l(x)v + r(y)u; it is
    not validated (see semidirect_pre)."""
    m = bm.space_dim
    return Algebra(bm.base.dimension + m,
                   _semidirect_tensor(bm.base.product, bm.l, bm.r, m),
                   _module_names(bm.base, m))


def semidirect_pre(bm: PreBimodule) -> PreAlgebra:
    """The pre-algebra on A + V with
    (x+u) < (y+v) = x<y + l_prec(x)v + r_prec(y)u  (and the > analog).

    The input is deliberately not validated: the result passes the
    pre-anti-flexible check exactly when the base passes and the bimodule
    identities hold, and the test suite exercises both directions.
    """
    base, m = bm.base, bm.space_dim
    return PreAlgebra(base.dimension + m,
                      _semidirect_tensor(base.prec, bm.l_prec, bm.r_prec, m),
                      _semidirect_tensor(base.succ, bm.l_succ, bm.r_succ, m),
                      _module_names(base, m))


def build_af_double(mp: AfMatchedPair) -> Algebra:
    """(x+a)(y+b) = (x*y + lB(a)y + rB(b)x) + (a o b + lA(x)b + rA(y)a)."""
    names = tuple(mp.algA.basis_names) + tuple(
        n + "'" for n in mp.algB.basis_names)
    return Algebra(mp.algA.dimension + mp.algB.dimension, direct_sum_tensor(
        mp.algA.product, mp.algB.product, mp.lA, mp.rA, mp.lB, mp.rB), names)


def build_pre_double(mp: PreMatchedPair) -> PreAlgebra:
    """(x+a) < (y+b) = {x<y + lpB(a)y + rpB(b)x} + {a<b + lpA(x)b + rpA(y)a},
    and the > analog, blockwise on A + B."""
    A, B = mp.palgA, mp.palgB
    names = tuple(A.basis_names) + tuple(n + "'" for n in B.basis_names)
    return PreAlgebra(
        A.dimension + B.dimension,
        direct_sum_tensor(A.prec, B.prec, mp.lp_A, mp.rp_A, mp.lp_B, mp.rp_B),
        direct_sum_tensor(A.succ, B.succ, mp.ls_A, mp.rs_A, mp.ls_B, mp.rs_B),
        names)


def standard_dual_matched(palgA: PreAlgebra, palgAstar: PreAlgebra,
                          check_inputs=True) -> AfMatchedPair:
    """The dual-action candidate matched pair (R*_prec, L*_succ) of the two
    underlying algebras of a pre-algebra and a companion structure on its
    dual space.  Validity is not asserted here: whether the compatibility
    conditions hold is exactly what check_af_matched and the skew-form
    criterion decide."""
    _require_dual_pair("standard_dual_matched", palgA, palgAstar,
                       check_inputs)
    return AfMatchedPair(
        underlying_algebra(palgA), underlying_algebra(palgAstar),
        transpose(palgA.prec), palgA.succ,
        transpose(palgAstar.prec), palgAstar.succ)


def dual_pre_matched(palgA: PreAlgebra, palgAstar: PreAlgebra,
                     check_inputs=True) -> PreMatchedPair:
    """The eight-map dual-action candidate pair on a pre-algebra and a
    companion structure on its dual: on each side the succ actions are
    (R*_dot, -L*_prec) and the prec actions are (-R*_succ, L*_dot) — the
    four families of the dualized full bimodule, arranged so that the
    underlying algebra of this pair's pre double is the standard dual
    pair's double."""
    _require_dual_pair("dual_pre_matched", palgA, palgAstar, check_inputs)
    actions = []
    for p in (palgA, palgAstar):
        dot = t3_add(p.prec, p.succ)
        actions += [transpose(dot), [mat_neg(m) for m in p.prec],
                    [mat_neg(m) for m in transpose(p.succ)], dot]
    return PreMatchedPair(palgA, palgAstar, *actions)


def dual_products_from_comult(delta_prec, delta_succ) -> PreAlgebra:
    """The half-products on the dual space: <f_i ? f_j, e_k> = <f_i (x) f_j,
    D_?(e_k)>, i.e. plain index transposition of the comultiplication
    tensors."""
    n = len(delta_prec)
    for name, t in (("delta_prec", delta_prec), ("delta_succ", delta_succ)):
        require_tensor("dual_products_from_comult", name, t, (n,) * 3)
    prec = [[[delta_prec[k][i][j] for k in range(n)] for j in range(n)]
            for i in range(n)]
    succ = [[[delta_succ[k][i][j] for k in range(n)] for j in range(n)]
            for i in range(n)]
    return PreAlgebra(n, prec, succ,
                      tuple("f%d" % (i + 1) for i in range(n)))


def _delta(c, rp):
    """coboundary_delta on the structure tensors c of the pre-algebra,
    built by the caller."""
    n = len(c.rows["prec"])
    if rp.dimension != n:
        raise PreconditionError("coboundary_delta: dimension mismatch")
    sums, d = _rsums(rp)
    table = partial(_operator_table, c, n, {"i": n * n}, {})
    return tuple(_divided(_family(terms, table, sums, n, 3) or
                          [0] * n ** 3, c.scale * d, (n, n, n))
                 for terms in _DELTAS)


def coboundary_bialgebra(palg: PreAlgebra, rp: RPair) -> Bialgebra:
    """The candidate bialgebra whose comultiplications are the coboundaries
    of the r-pair."""
    dprec, dsucc = coboundary_delta(palg, rp)
    return Bialgebra(palg, dprec, dsucc)


def special_case_bialgebra(palg: PreAlgebra, r, case) -> Bialgebra:
    """The candidate bialgebra of a one-parameter r-element under the given
    specialization."""
    c = _require_base("special_case_bialgebra", palg)
    return Bialgebra(palg, *_delta(c, special_case_rpair(r, case)))


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
    flipped = transpose(c)
    zero = zeros_t3(n)
    if variant == "succ-left":
        return PreAlgebra(n, zero, c, assoc.basis_names)
    if variant == "succ-right":
        return PreAlgebra(n, zero, flipped, assoc.basis_names)
    if variant == "prec-left":
        return PreAlgebra(n, c, zero, assoc.basis_names)
    return PreAlgebra(n, flipped, zero, assoc.basis_names)


def regular_af_bimodule(alg: Algebra) -> AfBimodule:
    """(L, R, A): left/right multiplications acting on the algebra itself."""
    return AfBimodule(alg, alg.dimension, *_regular_maps(alg.product))


def regular_pre_bimodule(palg: PreAlgebra) -> PreBimodule:
    """(L_succ, R_succ, L_prec, R_prec, A): the pre-algebra acting on itself."""
    return PreBimodule(palg, palg.dimension, *_regular_maps(palg.succ),
                       *_regular_maps(palg.prec))


def derive_bimodule(bm: PreBimodule, transform):
    """The seven derived bimodules of a valid pre-bimodule.

    Pre-bimodule outputs (quintuple order l_succ, r_succ, l_prec, r_prec):
      reduced      -> (l_succ, 0, 0, r_prec, V)
      dual-full    -> (r_dot*, -l_prec*, -r_succ*, l_dot*, V*)
      dual-reduced -> (r_prec*, 0, 0, l_succ*, V*)

    The dual-full arrangement is the one that is actually closed under the
    five bimodule identities (verified exhaustively on small examples, and
    an involution under double dualization); a plain slot-wise dualization
    without the sum maps and signs is not a bimodule in general.
    Underlying-algebra bimodule outputs (pair order l, r):
      af-sum        -> (l_dot, r_dot, V)
      af-outer      -> (l_succ, r_prec, V)
      af-dual-sum   -> (r_dot*, l_dot*, V*)
      af-dual-outer -> (r_prec*, l_succ*, V*)
    Dual maps are matrix transposes.
    """
    if transform not in BIMODULE_TRANSFORMS:
        raise PreconditionError("derive_bimodule: unknown transform %r; "
                                "the transforms are %s"
                                % (transform, ", ".join(BIMODULE_TRANSFORMS)))
    require_pass(check_pre_bimodule(bm),
                 "derive_bimodule: input fails the pre-bimodule check")
    m = bm.space_dim
    zero = tuple(zeros_mat(m) for _ in range(bm.base.dimension))
    if transform == "reduced":
        return PreBimodule(bm.base, m, bm.l_succ, zero, zero, bm.r_prec)
    if transform == "dual-full":
        neg_l_prec, neg_r_succ = (tuple(mat_neg(d) for d in dual_maps(maps))
                                  for maps in (bm.l_prec, bm.r_succ))
        return PreBimodule(bm.base, m, dual_maps(bm.r_dot), neg_l_prec,
                           neg_r_succ, dual_maps(bm.l_dot))
    if transform == "dual-reduced":
        return PreBimodule(bm.base, m, dual_maps(bm.r_prec), zero, zero,
                           dual_maps(bm.l_succ))
    af_base = underlying_algebra(bm.base)
    if transform == "af-sum":
        return AfBimodule(af_base, m, bm.l_dot, bm.r_dot)
    if transform == "af-outer":
        return AfBimodule(af_base, m, bm.l_succ, bm.r_prec)
    if transform == "af-dual-sum":
        return AfBimodule(af_base, m, dual_maps(bm.r_dot),
                          dual_maps(bm.l_dot))
    return AfBimodule(af_base, m, dual_maps(bm.r_prec), dual_maps(bm.l_succ))


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
    dual = dual_products_from_comult(*coboundary_delta(
        palg, special_case_rpair(r, "two")))
    double = build_pre_double(dual_pre_matched(palg, dual,
                                               check_inputs=False))
    return replace(double, basis_names=tuple(palg.basis_names)
                   + dual.basis_names)


# ---------------------------------------------------------------------------
# constructions on checked inputs that the package made through their
# public constructors before algebra._trusted
# ---------------------------------------------------------------------------

def induced_pre_from_map(alg: Algebra, alpha) -> PreAlgebra:
    """The half-products x > y = a(x)*y and x < y = x*a(y): the plane of
    e_i > - is the planes of c summed over column i of a, and the plane of
    e_i < - is a^T c[i]."""
    n = alg.dimension
    require_square("induced_pre_from_map", "alpha", alpha, n)
    c, alpha_t = alg.product, transpose(alpha)
    return PreAlgebra(n, [mat_mul(alpha_t, plane) for plane in c],
                      [act(c, col) for col in alpha_t], alg.basis_names)


def induce_pre_from_form(alg: Algebra, omega) -> PreAlgebra:
    """Split an anti-flexible product through an invertible bilinear form.

    omega is the Gram matrix of a nondegenerate form satisfying the cyclic
    condition w(x*y,z)+w(y*z,x)+w(z*x,y)=0.  The two half-products are the
    unique solutions of w(x<y, z) = w(x, y*z) and w(x>y, z) = w(y, z*x).
    """
    require_pass(check_identities(alg, "anti-flexible"),
                 "induce_pre_from_form: base algebra fails the anti-flexible "
                 "check")
    require_pass(check_cyclic_form(alg, omega),
                 "induce_pre_from_form: form violates the cyclic condition")
    n = alg.dimension
    try:
        # w(v, -) as a row functional is v^T omega; solving omega^T u = rhs
        # recovers u from the functional w(u, -).
        omega_t_inv = mat_inverse(transpose(omega))
    except SingularMatrixError as exc:
        raise SingularMatrixError("induce_pre_from_form: degenerate form") from exc
    # with x = e_i and y = e_j, w(x, y*e_k) = omega[i] . c[j][k] and
    # w(y, e_k*x) = omega[j] . c[k][i]
    c = alg.product
    prec = zeros_t3(n)
    succ = zeros_t3(n)
    for i in range(n):
        for j in range(n):
            rhs_prec = [dot(omega[i], c[j][k]) for k in range(n)]
            rhs_succ = [dot(omega[j], c[k][i]) for k in range(n)]
            prec[i][j] = mat_vec(omega_t_inv, rhs_prec)
            succ[i][j] = mat_vec(omega_t_inv, rhs_succ)
    return PreAlgebra(n, prec, succ, alg.basis_names)


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
    return PreAlgebra(n, prec, succ, palg.basis_names)


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
    image = PreAlgebra(m, transpose(r_t), l_t)
    zero = tuple(zeros_mat(m) for _ in range(m))
    actions = PreBimodule(image, m, r_t, zero, zero, l_t)
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
    require_pass(check_identities(palg, "pre-anti-flexible"),
                 "canonical_solution: base fails the pre-anti-flexible check")
    n = palg.dimension
    double = semidirect_pre(derive_bimodule(regular_pre_bimodule(palg),
                                            "dual-reduced"))
    r = zeros_mat(2 * n)
    for i in range(n):
        r[i][n + i] = ONE
        r[n + i][i] = ONE
    return double, r


def dual_bialgebra(b: Bialgebra) -> Bialgebra:
    """Exchange the roles of the algebra and the comultiplications: the dual
    structure's products are the ones induced by b's comultiplications, and
    its comultiplications are the duals of b's products.  An involution."""
    require_pass(verify_bialgebra(b),
                 "dual_bialgebra: input fails verification")
    dp, ds = comult_from_products(b.palg)
    return Bialgebra(b.dual, tuple(dp), tuple(ds))
