from fractions import Fraction

import pytest

from antiflex.algebra import Algebra, PreAlgebra, PreconditionError, \
    check_identities, from_associative, underlying_algebra
from antiflex.bialgebra import dual_products_from_comult
from antiflex.bimodule import AfBimodule, multiplication_operators
from antiflex.coboundary import check_pafybe, r_is_symmetric, \
    special_case_bialgebra
from antiflex.matched import build_pre_double, dual_pre_matched
from antiflex.harness import SearchSpec, grid_search
from antiflex.operators import (
    OOperator, assembled_double, canonical_solution, check_generalized_rb,
    check_o_operator, check_r_double_consistency, check_rota_baxter,
    check_two_cocycle, compatible_structure_on_A, form_from_r, induced_pre_from_map, operator_form_check, r_map_matrix,
    solution_from_o_operator,
)
from antiflex.linalg import SingularMatrixError, basis_vec, eye, mat_rank, \
    mat_vec, transpose, zeros_mat, zeros_t3

from helpers import CORPUS, DIM2_PRE, all_corpus_pre, rand_mat, \
    rand_sym_mat, rand_t3, seeded
import operators_reference as reference


def _af_regular_pre(palg):
    """(L_succ, R_prec, A) as a bimodule of the underlying algebra."""
    ops = multiplication_operators(palg)
    return AfBimodule(underlying_algebra(palg), palg.dimension,
                      ops["L_succ"], ops["R_prec"])


def test_rota_baxter_examples():
    alg = CORPUS["t3"]  # span{t, t^2}
    assert check_rota_baxter(alg, zeros_mat(2)).passed
    # t -> t^2, t^2 -> 0
    alpha = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert check_rota_baxter(alg, alpha).passed
    # the identity map fails on a nontrivial product
    assert not check_rota_baxter(CORPUS["qt2"], eye(2)).passed


def test_rb_implies_generalized_and_induced():
    alg = CORPUS["t3"]
    alpha = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert check_generalized_rb(alg, alpha).passed
    palg = induced_pre_from_map(alg, alpha)
    assert check_identities(palg, "pre-anti-flexible").passed
    # underlying product of the induced structure is x*a(y) + a(x)*y
    n = 2
    under = underlying_algebra(palg)
    for i in range(n):
        for j in range(n):
            x, y = basis_vec(n, i), basis_vec(n, j)
            ax, ay = mat_vec(alpha, x), mat_vec(alpha, y)
            expect = [p + q for p, q in zip(alg.mul(x, ay), alg.mul(ax, y))]
            assert under.mul(x, y) == expect


def test_generalized_rb_equivalence_random():
    rng = seeded(201)
    seen = {True: 0, False: 0}
    for trial in range(80):
        alg = (CORPUS["qt2"], CORPUS["t3"])[trial % 2]
        alpha = rand_mat(rng, 2)
        grb = check_generalized_rb(alg, alpha).passed
        ind = check_identities(induced_pre_from_map(alg, alpha),
                               "pre-anti-flexible").passed
        assert grb == ind
        seen[grb] += 1
    assert seen[True] and seen[False]


def test_o_operator_identity_and_zero():
    for palg in DIM2_PRE:
        bm = _af_regular_pre(palg)
        n = palg.dimension
        assert check_o_operator(OOperator(bm, zeros_mat(n))).passed
        assert check_o_operator(OOperator(bm, eye(n))).passed


def test_o_operator_generic_failure():
    rng = seeded(203)
    palg = DIM2_PRE[0]
    bm = _af_regular_pre(palg)
    failing = sum(not check_o_operator(OOperator(bm, rand_mat(rng, 2))).passed
                  for _ in range(20))
    assert failing > 0


def test_r_map_matrix_convention():
    r = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    # r(f_i) = sum_j r[i][j] e_j acting on dual coordinates by first index
    m = r_map_matrix(r)
    assert mat_vec(m, basis_vec(2, 0)) == [Fraction(1), Fraction(2)]
    assert m == transpose(r)


def test_double_products_zero_r():
    palg = DIM2_PRE[0]
    n = palg.dimension
    d = assembled_double(palg, zeros_mat(n))
    for i in range(n):
        for j in range(n):
            # the products on A* vanish
            assert d.prec[n + i][n + j] == [0] * (2 * n)
            assert d.succ[n + i][n + j] == [0] * (2 * n)
            # the mixed products reduce to the pure dual-action terms
            for c in (d.prec, d.succ):
                assert c[i][n + j][:n] == [0] * n
                assert c[n + j][i][:n] == [0] * n


def _r_double_cases():
    """(pre-algebra, symmetric r) on seeded random pre-algebras of
    dimensions 1 to 4, most of them not pre-anti-flexible, each with a
    random r, and on every corpus splitting, each with a random and with
    the zero r."""
    rng = seeded(223)
    for n, count in ((1, 4), (2, 4), (3, 4), (4, 2)):
        for _ in range(count):
            yield PreAlgebra(n, rand_t3(rng, n), rand_t3(rng, n)), \
                rand_sym_mat(rng, n)
    for palg in all_corpus_pre():
        yield palg, rand_sym_mat(rng, palg.dimension)
        yield palg, zeros_mat(palg.dimension)


def test_assembled_double_matches_reference():
    for palg, r in _r_double_cases():
        assert assembled_double(palg, r) == \
            reference.assembled_double(palg, r)


def test_r_double_and_operator_form_match_reference():
    # every failure is compared where the first one is
    seen = {True: 0, False: 0}
    for palg, r in _r_double_cases():
        for check, ref in ((check_r_double_consistency,
                            reference.check_r_double_consistency),
                           (operator_form_check,
                            reference.operator_form_check)):
            rep = check(palg, r)
            assert rep == ref(palg, r)
            if not rep.passed:
                assert check(palg, r, True) == ref(palg, r, True)
            seen[rep.passed] += 1
    assert seen[True] and seen[False]


def test_assembled_double_is_the_route_four_double():
    # on a pre-anti-flexible base, the r-double is the pre double that
    # route 4 of verify_bialgebra scans for the case-two bialgebra
    rng = seeded(227)
    for palg in all_corpus_pre():
        r = rand_sym_mat(rng, palg.dimension)
        b = special_case_bialgebra(palg, r, "two")
        route4 = build_pre_double(dual_pre_matched(
            palg, dual_products_from_comult(b.delta_prec, b.delta_succ),
            check_inputs=False))
        d = assembled_double(palg, r)
        assert (d.prec, d.succ) == (route4.prec, route4.succ)


def test_r_double_and_operator_form_reject_bad_r():
    palg = DIM2_PRE[0]
    for r in ([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(0)]],
              zeros_mat(3)):
        for check in (assembled_double, check_r_double_consistency,
                      operator_form_check):
            with pytest.raises(PreconditionError):
                check(palg, r)


def test_generalized_rb_and_form_from_r_reject_inexact_or_misshapen():
    # a float entry or a wrong shape fails at the boundary, naming the
    # entry, not with a float residual or deep inside linalg
    alg, palg = CORPUS["qt2"], DIM2_PRE[0]
    with pytest.raises(PreconditionError, match=r"check_generalized_rb: "
                       r"alpha\[0\]\[0\] is 0.5, not an int or Fraction"):
        check_generalized_rb(alg, [[0.5, 0], [0, 0.25]])
    with pytest.raises(PreconditionError,
                       match="check_generalized_rb: alpha must be 2 x 2"):
        check_generalized_rb(alg, [[1]])
    with pytest.raises(PreconditionError, match=r"form_from_r: r\[0\]\[0\] "
                       r"is 0.5, not an int or Fraction"):
        form_from_r(palg, [[0.5, 0], [0, 2]])
    with pytest.raises(PreconditionError,
                       match="form_from_r: r must be 2 x 2"):
        form_from_r(palg, [[1]])


def test_assembled_double_consistency_iff_pafybe():
    rng = seeded(207)
    seen = {True: 0, False: 0}
    for trial in range(40):
        palg = DIM2_PRE[trial % len(DIM2_PRE)]
        r = rand_sym_mat(rng, 2)
        ok = check_pafybe(palg, r).passed
        assert check_r_double_consistency(palg, r).passed == ok
        seen[ok] += 1
    assert seen[True] and seen[False]
    d = assembled_double(DIM2_PRE[0], zeros_mat(2))
    assert d.dimension == 4


def test_canonical_solution_properties():
    for name in ("q1", "qt2", "t3"):
        palg = from_associative(CORPUS[name], "succ-left")
        n = palg.dimension
        double, r = canonical_solution(palg)
        assert double.dimension == 2 * n
        assert r_is_symmetric(r)
        assert mat_rank([list(row) for row in r]) == 2 * n
        assert check_pafybe(double, r).passed
        # the form is the evaluation pairing B(x+a, y+b) = <x,b> + <y,a>
        form = form_from_r(double, r)
        expect = zeros_mat(2 * n)
        for i in range(n):
            expect[i][n + i] = Fraction(1)
            expect[n + i][i] = Fraction(1)
        assert form == expect
        assert check_two_cocycle(double, form).passed
        assert operator_form_check(double, r).passed


def test_three_way_agreement_random():
    rng = seeded(211)
    seen = {True: 0, False: 0}
    for trial in range(60):
        palg = DIM2_PRE[trial % len(DIM2_PRE)]
        r = rand_sym_mat(rng, 2)
        ybe = check_pafybe(palg, r).passed
        op = operator_form_check(palg, r).passed
        assert ybe == op
        try:
            form = form_from_r(palg, r)
        except SingularMatrixError:
            form = None
        if form is not None:
            assert check_two_cocycle(palg, form).passed == ybe
        seen[ybe] += 1
    assert seen[True] and seen[False]


def test_three_way_agreement_grid_found():
    for palg in DIM2_PRE[:2]:
        found, _ = grid_search(SearchSpec("pafybe-symmetric", bound=2), palg)
        for r in found:
            assert operator_form_check(palg, r).passed
            if mat_rank([list(row) for row in r]) == 2:
                assert check_two_cocycle(palg, form_from_r(palg, r)).passed


def test_compatible_structure():
    palg = from_associative(CORPUS["t3"], "succ-left")
    double, r = canonical_solution(palg)
    primed = compatible_structure_on_A(double, r)
    assert check_identities(primed, "pre-anti-flexible").passed
    # the half-product characterization through the form:
    # B(x <' y, z) = B(x, y > z) and B(x >' y, z) = B(y, z < x)
    form = form_from_r(double, r)
    n = double.dimension

    def b(u, v):
        return sum(u[p] * sum(form[p][q] * v[q] for q in range(n))
                   for p in range(n))

    basis = [basis_vec(n, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = basis[i], basis[j], basis[k]
                assert b(primed.mul_prec(x, y), z) == \
                    b(x, double.mul_succ(y, z))
                assert b(primed.mul_succ(x, y), z) == \
                    b(y, double.mul_prec(z, x))


def test_solution_from_o_operator_identity_reproduces_canonical():
    for palg in DIM2_PRE + [from_associative(CORPUS["q1"], "succ-left")]:
        bm = _af_regular_pre(palg)
        double, r = solution_from_o_operator(OOperator(bm,
                                                       eye(palg.dimension)))
        cd, cr = canonical_solution(palg)
        assert double.prec == cd.prec and double.succ == cd.succ
        assert r == cr


def test_solution_from_o_operator_rejects_non_injective():
    palg = DIM2_PRE[0]
    bm = _af_regular_pre(palg)
    t = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    with pytest.raises(PreconditionError):
        solution_from_o_operator(OOperator(bm, t))


def test_grid_found_o_operators_yield_solutions():
    for palg in DIM2_PRE[:2]:
        bm = _af_regular_pre(palg)
        found, _ = grid_search(SearchSpec("o-operator", bound=2), bm)
        injective = [t for t in found if mat_rank([list(r) for r in t]) == 2]
        assert injective
        for t in injective:
            double, r = solution_from_o_operator(OOperator(bm, t))
            assert r_is_symmetric(r)
            assert check_pafybe(double, r).passed
