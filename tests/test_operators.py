from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from antiflex.algebra import Algebra, PreAlgebra, PreconditionError, \
    check_identities, from_associative, structure_tensors, \
    underlying_algebra
from antiflex.bialgebra import dual_products_from_comult
from antiflex.bimodule import AfBimodule, act, derive_bimodule, \
    regular_af_bimodule, regular_pre_bimodule
from antiflex.coboundary import check_pafybe, r_is_symmetric, \
    special_case_bialgebra
from antiflex.matched import PreMatchedPair, _dual_pair, build_pre_double
from antiflex import harness
from antiflex.harness import SEARCH_TARGETS, SearchSpec, grid_search, \
    search_results
from antiflex.operators import (
    OOperator, assembled_double, canonical_solution, check_generalized_rb,
    check_o_operator, check_r_double_consistency, check_rota_baxter,
    check_two_cocycle, compatible_structure_on_A, form_from_r,
    _o_operator_report, induced_pre_from_map,
    o_operator_numerators, operator_form_check, r_map_matrix,
    regular_tensors, solution_from_o_operator,
)
from antiflex.linalg import SingularMatrixError, eye, mat_rank, \
    mat_vec, transpose, zeros_mat

from helpers import CORPUS, DIM2_PRE, NOT_DENDRIFORM, all_corpus_pre, \
    basis_vec, induced_not_dendriform, multiplication_operators, \
    non_associative_af, over, rand_mat, rand_sym_mat, rand_t3, rand_vec, \
    seeded, without_visited
import harness_reference
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
        route4 = build_pre_double(_dual_pair(
            PreMatchedPair, palg,
            dual_products_from_comult(b.delta_prec, b.delta_succ)))
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


# ---------------------------------------------------------------------------
# the int kernel against the Fraction path, on non-integral inputs
# ---------------------------------------------------------------------------

denominators = st.integers(2, 7)
fractions = st.builds(Fraction, st.integers(-7, 7), denominators)
entries = st.one_of(st.just(Fraction(0)), fractions)


def _matrices(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


# anti-flexible algebras of dimensions 1-4 with a nonzero product: the
# corpus algebras and the underlying algebras of three canonical doubles
_AF_ALGEBRAS = [alg for alg in CORPUS.values()
                if any(x for plane in alg.product for row in plane
                       for x in row)] + [
    underlying_algebra(canonical_solution(from_associative(
        CORPUS[name], "succ-left"))[0]) for name in ("q1", "qt2", "t3")]


# the corpus splittings with a nonzero product
_SPLITTINGS = [p for p in all_corpus_pre() if any(
    x for t in (p.prec, p.succ) for plane in t for row in plane for x in row)]


@st.composite
def splittings(draw, max_dim=4):
    """A pre-anti-flexible algebra of dimension at most max_dim whose
    structure constants have lcd 2-7: one of _SPLITTINGS times a
    rational."""
    palg = draw(st.sampled_from([p for p in _SPLITTINGS
                                 if p.dimension <= max_dim]))
    return PreAlgebra(palg.dimension,
                      *over((palg.prec, palg.succ), draw(denominators)))


@st.composite
def af_algebras(draw, max_dim=4):
    """An anti-flexible algebra of dimension at most max_dim whose
    structure constants have lcd 2-7: one of _AF_ALGEBRAS times a
    rational."""
    alg = draw(st.sampled_from([a for a in _AF_ALGEBRAS
                                if a.dimension <= max_dim]))
    return Algebra(alg.dimension, *over((alg.product,), draw(denominators)))


def _block_sum(maps, k):
    """Each n x n matrix of a family as the top left block of an
    (n + k) x (n + k) matrix, zero elsewhere."""
    return [[list(row) + [Fraction(0)] * k for row in m]
            + [[Fraction(0)] * (len(m) + k) for _ in range(k)] for m in maps]


@st.composite
def af_bimodules(draw, max_dim=4):
    """A bimodule that passes its check, over an algebra of af_algebras:
    the regular bimodule, its sum with a zero bimodule of dimension 1-3,
    a zero bimodule of dimension 1-4, or one of the anti-flexible
    bimodules derived from the regular bimodule of a splitting."""
    alg = draw(af_algebras(max_dim))
    n = alg.dimension
    kind = draw(st.sampled_from(("regular", "sum", "zero", "derived")))
    if kind == "regular":
        return regular_af_bimodule(alg)
    if kind == "sum":
        k = draw(st.integers(1, max(1, max_dim - n)))
        reg = regular_af_bimodule(alg)
        return AfBimodule(alg, n + k, _block_sum(reg.l, k),
                          _block_sum(reg.r, k))
    if kind == "zero":
        k = draw(st.integers(1, max_dim))
        zero = [zeros_mat(k) for _ in range(n)]
        return AfBimodule(alg, k, zero, zero)
    return derive_bimodule(regular_pre_bimodule(draw(splittings(max_dim))),
                           draw(st.sampled_from(("af-sum", "af-outer",
                                                 "af-dual-sum",
                                                 "af-dual-outer"))))


@st.composite
def random_bimodules(draw):
    """A base of dimension 1-4 and a space of dimension 1-4 with random
    structure constants and actions (not a bimodule in general) whose
    entries have denominators 2-7."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def family(rows, cols):
        return draw(st.lists(_matrices(rows, cols), min_size=n, max_size=n))
    return AfBimodule(Algebra(n, family(n, n)), m, family(m, m),
                      family(m, m))


@settings(max_examples=40, deadline=None)
@given(st.data(), af_algebras())
def test_check_rota_baxter_matches_fraction_path(data, alg):
    n = alg.dimension
    alpha = data.draw(st.one_of(_matrices(n, n), st.just(zeros_mat(n))))
    for every in (False, True):
        assert check_rota_baxter(alg, alpha, every) == \
            reference.check_rota_baxter(alg, alpha, every)


@settings(max_examples=40, deadline=None)
@given(st.data(), af_bimodules())
def test_check_o_operator_matches_fraction_path(data, bm):
    oo = OOperator(bm, data.draw(_matrices(bm.base.dimension, bm.space_dim)))
    for every in (False, True):
        assert check_o_operator(oo, every) == \
            reference.check_o_operator(oo, every)


@settings(max_examples=40, deadline=None)
@given(st.data(), random_bimodules())
def test_o_operator_report_matches_fraction_path_off_bimodules(data, bm):
    # the kernel decides any structure constants, bimodule or not
    t = data.draw(_matrices(bm.base.dimension, bm.space_dim))
    for every in (False, True):
        assert _o_operator_report(structure_tensors(bm), t, every,
                                  "o-operator") == \
            reference.o_operator_core(bm, t, every)


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(1, 4))
def test_operator_form_matches_fraction_path(data, n):
    cube = st.lists(_matrices(n, n), min_size=n, max_size=n)
    palg = PreAlgebra(n, data.draw(cube), data.draw(cube))
    upper = data.draw(st.lists(entries, min_size=n * (n + 1) // 2,
                               max_size=n * (n + 1) // 2))
    r = zeros_mat(n)
    for (i, j), x in zip([(i, j) for i in range(n) for j in range(i, n)],
                         upper):
        r[i][j] = r[j][i] = x
    for every in (False, True):
        assert operator_form_check(palg, r, every) == \
            reference.operator_form_check(palg, r, every)


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(1, 4))
def test_two_cocycle_matches_the_per_triple_check(data, n):
    cube = st.lists(_matrices(n, n), min_size=n, max_size=n)
    palg = PreAlgebra(n, data.draw(cube), data.draw(cube))
    form = data.draw(_matrices(n, n))
    for every in (False, True):
        assert check_two_cocycle(palg, form, every) == \
            reference.check_two_cocycle(palg, form, every)


def test_two_cocycle_matches_the_per_triple_check_on_solutions():
    # the corpus splittings and the non-associative pre-algebras at a
    # random form, and their canonical doubles at the form of the canonical
    # solution, which passes, and at a random one
    rng = seeded(262)
    bases = all_corpus_pre() + NOT_DENDRIFORM + list(
        induced_not_dendriform()[:5])
    seen = {True: 0, False: 0}
    for palg in bases:
        double, r = canonical_solution(palg)
        for subject, form in ((palg, rand_mat(rng, palg.dimension)),
                              (double, form_from_r(double, r)),
                              (double, rand_mat(rng, double.dimension))):
            for every in (False, True):
                report = check_two_cocycle(subject, form, every)
                assert report == reference.check_two_cocycle(subject, form,
                                                             every)
            seen[report.passed] += 1
    assert seen[True] >= len(bases) and seen[False]


@st.composite
def grid_cases(draw):
    """A search spec of every target with a subject small enough that the
    Fraction path enumerates its grid quickly, with the coefficient sets
    (-1, 1/2) and (0, 1/3) or one to three random ones."""
    coeffs = draw(st.one_of(
        st.sampled_from(((Fraction(-1), Fraction(1, 2)),
                         (Fraction(0), Fraction(1, 3)))),
        st.lists(fractions, min_size=1, max_size=3, unique=True).map(tuple)))
    target = draw(st.sampled_from(SEARCH_TARGETS))
    if target == "rota-baxter":
        subject = draw(af_algebras(2))
        nfree = subject.dimension ** 2
    elif target == "o-operator":
        subject = draw(af_bimodules(2))
        nfree = subject.base.dimension * subject.space_dim
    else:
        subject = draw(splittings(2))
        nfree = subject.dimension * (subject.dimension + 1) // 2
    assume(len(coeffs) ** nfree <= 256)
    return SearchSpec(target, coeffs, 4), subject


@settings(max_examples=25, deadline=None)
@given(grid_cases())
def test_grid_search_matches_fraction_path(case):
    spec, subject = case
    found, report = grid_search(spec, subject)
    expected, expected_report = reference.grid_search(spec, subject)
    assert found == expected and without_visited(report) == expected_report
    assert search_results(spec.target, found) == \
        search_results(spec.target, expected)


# ---------------------------------------------------------------------------
# the compiled quadratic form of each search target against its kernel
# ---------------------------------------------------------------------------

def _cube(n):
    return st.lists(_matrices(n, n), min_size=n, max_size=n)


def _row_major(n, m):
    """The n x m matrix whose entries are the free values, row by row."""
    return lambda vals: [vals[i * m:(i + 1) * m] for i in range(n)]


def _symmetric(n):
    """(free, the n x n symmetric matrix whose upper triangle holds the
    free values, row by row)."""
    upper = [(i, j) for i in range(n) for j in range(i, n)]

    def symmetric(vals):
        r = zeros_mat(n)
        for (i, j), x in zip(upper, vals):
            r[i][j] = r[j][i] = x
        return r
    return len(upper), symmetric


@st.composite
def compiled_cases(draw):
    """A search target and a subject with random structure constants whose
    denominators are 2-7 (not one its precondition passes, in general),
    or a NOT_DENDRIFORM pre-algebra for pafybe-symmetric, with the number
    of free entries of its candidates and the matrix of a point of them."""
    target = draw(st.sampled_from(SEARCH_TARGETS))
    n = draw(st.integers(1, 2))
    if target == "o-operator":
        m = draw(st.integers(1, 2))
        subject = AfBimodule(Algebra(n, draw(_cube(n))), m, *(
            draw(st.lists(_matrices(m, m), min_size=n, max_size=n))
            for _ in "lr"))
        return target, subject, n * m, _row_major(n, m)
    if target == "rota-baxter":
        return target, Algebra(n, draw(_cube(n))), n * n, _row_major(n, n)
    subject = draw(st.one_of(st.sampled_from(NOT_DENDRIFORM), st.builds(
        PreAlgebra, st.just(n), _cube(n), _cube(n))))
    return (target, subject) + _symmetric(subject.dimension)


@settings(max_examples=60, deadline=None)
@given(compiled_cases(), st.lists(st.integers(-3, 3), min_size=1,
                                  max_size=3, unique=True))
def test_compiled_form_is_the_kernel(case, values):
    # at every point of a grid the depth-first walk that prunes nothing
    # (harness_reference) gives, from the compiled form, the whole int
    # residual that the target's kernel gives on the candidate matrix,
    # passing or failing
    target, subject, free, matrix = case
    assume(len(values) ** free <= 729)
    residual = harness._SEARCHES[target][2](subject)
    kernel = lambda vals: residual(matrix(vals))
    squares, cross, _closing = harness._quadratic_form(kernel, free)
    assert (squares, cross) == harness_reference._quadratic_form(kernel, free)
    points = [(list(point), at) for point, at in
              harness_reference._grid_residuals((squares, cross), values)]
    assert [point for point, _ in points] == \
        list(map(list, product(values, repeat=free)))
    for point, at in points:
        assert at == kernel(point), point


@st.composite
def pruned_cases(draw):
    """A case of compiled_cases, or one on whose grids more than the zero
    matrix passes: a non_associative_af() algebra for rota-baxter, its
    regular bimodule for o-operator, or an induced_not_dendriform()
    pre-algebra for pafybe-symmetric."""
    if draw(st.booleans()):
        return draw(compiled_cases())
    target = draw(st.sampled_from(SEARCH_TARGETS))
    if target == "pafybe-symmetric":
        subject = draw(st.sampled_from(induced_not_dendriform()))
        return (target, subject) + _symmetric(3)
    alg = draw(st.sampled_from(non_associative_af()))
    subject = alg if target == "rota-baxter" else regular_af_bimodule(alg)
    return target, subject, 9, _row_major(3, 3)


def _check_pruned_search(target, subject, free, matrix, values):
    """Assert that closing[k] of the compiled form holds the entries that no
    Q_j or B_uj with j > k touches; that the pruning walk gives, in grid
    order, exactly the points none of whose prefixes has a nonzero entry
    of closing at its depth, each with its whole kernel residual, and that
    every point it skips has a nonzero entry in its kernel residual; and
    that grid_search finds what the per-candidate search of
    harness_reference finds, or raises the same precondition error, with
    the walk's count of points as its "visited"."""
    residual = harness._SEARCHES[target][2](subject)
    kernel = lambda vals: residual(matrix(vals))
    form = harness._quadratic_form(kernel, free)
    squares, cross = harness_reference._quadratic_form(kernel, free)
    touched = set()
    for k in reversed(range(free)):
        assert form[2][k] == [at for at in range(len(squares[0]))
                              if at not in touched], k
        touched.update(at for at, q in enumerate(squares[k]) if q)
        touched.update(at for _u, nonzeros in cross[k] for at, _x in nonzeros)
    # the prefix of a point of depth k, padded with zeros, is the point at
    # which the kernel gives the prefix's residual
    cut = {(): False}
    points = list(product(values, repeat=free))
    for point in points:
        for k in range(free - 1):
            prefix = point[:k + 1]
            if prefix not in cut:
                at = kernel(list(prefix) + [0] * (free - k - 1))
                cut[prefix] = cut[point[:k]] or any(at[i] for i in form[2][k])
    reached = {tuple(point): at
               for point, at in harness._grid_residuals(form, values)}
    assert list(reached) == [p for p in points if not cut[p[:free - 1]]]
    for point in points:
        if point in reached:
            assert reached[point] == kernel(list(point)), point
        else:
            assert any(kernel(list(point))), point
    spec = SearchSpec(target, tuple(values), 3)

    def outcome(search):
        try:
            return search(spec, subject)
        except PreconditionError as exc:
            return str(exc)
    got, expected = outcome(grid_search), \
        outcome(harness_reference.grid_search)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got[0] == expected[0]
        assert got[1]["visited"] == len(reached)
        assert without_visited(got[1]) == expected[1]


@settings(max_examples=40, deadline=None)
@given(pruned_cases(), st.data())
def test_pruned_search_skips_only_rejected_candidates(case, data):
    target, subject, free, matrix = case
    values = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3
                                if 3 ** free <= 729 else 2, unique=True))
    _check_pruned_search(target, subject, free, matrix, values)


def test_pruning_one_depth_early_is_caught(monkeypatch):
    # a walk that reads each entry one depth before it closes fails the
    # check of the pruned search
    walk = harness._grid_residuals

    def early(form, values):
        squares, cross, closing = form
        return walk((squares, cross, closing[1:] + closing[-1:]), values)
    case = ("rota-baxter", CORPUS["ut2"], 9, _row_major(3, 3), (0, 1))
    _check_pruned_search(*case)
    monkeypatch.setattr(harness, "_grid_residuals", early)
    with pytest.raises(AssertionError):
        _check_pruned_search(*case)


def test_pruned_search_on_the_m2_rota_baxter_grid():
    # the 3**16 candidates over {-1, 0, 1}: each of the 89 maps found is a
    # Rota-Baxter map, and 357 candidates are reached
    m2 = CORPUS["m2"]
    found, report = grid_search(SearchSpec("rota-baxter", (-1, 0, 1), 4), m2)
    assert (report["candidates"], report["visited"], report["found"]) == \
        (3 ** 16, 357, 89)
    assert len(found) == 89
    assert all(check_rota_baxter(m2, m).passed for m in found)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_grid_search_matches_per_candidate_path(data):
    # the found matrices and report, or the precondition's message, of the
    # compiled search and of the search that ran the kernel per candidate,
    # on subjects that pass their precondition, random ones that need not,
    # and NOT_DENDRIFORM
    spec, subject = data.draw(grid_cases())
    if data.draw(st.booleans()):
        if spec.target == "pafybe-symmetric":
            subject = data.draw(st.sampled_from(NOT_DENDRIFORM))
        elif spec.target == "rota-baxter":
            n = subject.dimension
            subject = Algebra(n, data.draw(_cube(n)))
        else:
            n, m = subject.base.dimension, subject.space_dim
            subject = AfBimodule(Algebra(n, data.draw(_cube(n))), m, *(
                data.draw(st.lists(_matrices(m, m), min_size=n, max_size=n))
                for _ in "lr"))

    def outcome(search):
        try:
            return search(spec, subject)
        except PreconditionError as exc:
            return str(exc)
    got, expected = outcome(grid_search), \
        outcome(harness_reference.grid_search)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert (got[0], without_visited(got[1])) == expected


def test_grid_search_compiles_each_target_once(monkeypatch):
    # each search runs its kernel free * (free + 1) / 2 times, whatever
    # the number of candidates
    calls = []
    numerators, o_operator = harness._numerators, \
        harness.o_operator_numerators

    def counted(kernel):
        def call(*args):
            calls.append(args)
            return kernel(*args)
        return call
    monkeypatch.setattr(harness, "_numerators", counted(numerators))
    monkeypatch.setattr(harness, "o_operator_numerators",
                        lambda c: counted(o_operator(c)))
    ut2 = CORPUS["ut2"]
    for target, subject, free in (
            ("rota-baxter", ut2, 9),
            ("o-operator", regular_af_bimodule(ut2), 9),
            ("pafybe-symmetric", from_associative(ut2, "succ-left"), 6),
            ("pafybe-symmetric", DIM2_PRE[0], 3)):
        for coeffs in ((0,), (0, 1), (-1, 0, 1)):
            calls.clear()
            _, report = grid_search(SearchSpec(target, coeffs, 3), subject)
            assert len(calls) == free * (free + 1) // 2, (target, coeffs)
            assert report["candidates"] == len(coeffs) ** free


def test_regular_tensors_are_the_regular_bimodule():
    for alg in _AF_ALGEBRAS:
        assert regular_tensors(alg) == \
            structure_tensors(regular_af_bimodule(alg))


def test_pinned_corpus_searches():
    # candidates, found, and the first and last found matrices of the grids
    # on the unpermuted corpus
    ut2, m2 = CORPUS["ut2"], CORPUS["m2"]

    def mat(rows):
        return [[Fraction(x) for x in row.split()] for row in rows]
    zero3 = mat(["0 0 0"] * 3)
    cases = (
        ("rota-baxter", (0, 1), ut2, 512, 6, zero3,
         mat(["0 1 0", "0 0 0", "0 0 0"])),
        ("o-operator", (0, 1), regular_af_bimodule(ut2), 512, 6, zero3,
         mat(["0 1 0", "0 0 0", "0 0 0"])),
        ("pafybe-symmetric", (-1, 0, 1), from_associative(ut2, "succ-left"),
         729, 31, mat(["-1 -1 0", "-1 -1 0", "0 0 0"]),
         mat(["1 1 0", "1 1 0", "0 0 0"])),
        ("pafybe-symmetric", (0, 1), from_associative(m2, "succ-left"),
         1024, 19, mat(["0 0 0 0"] * 4), mat(["1 1 1 1"] * 4)))
    for target, coeffs, subject, size, count, first, last in cases:
        found, report = grid_search(SearchSpec(target, coeffs, 4), subject)
        assert (report["candidates"], report["found"]) == (size, count)
        assert len(found) == count
        assert (found[0], found[-1]) == (first, last)


def _oracle_defect(bm, t, u, v):
    """T(u)*T(v) - T(l(T(u))v + r(T(v))u) at elements u, v of V, through
    Algebra.mul, act and mat_vec: a path apart from the int kernel."""
    tu, tv = mat_vec(t, u), mat_vec(t, v)
    inner = [a + b for a, b in zip(mat_vec(act(bm.l, tu), v),
                                   mat_vec(act(bm.r, tv), u))]
    return [a - b for a, b in zip(bm.base.mul(tu, tv), mat_vec(t, inner))]


def test_grid_found_maps_agree_with_random_elements():
    # every Rota-Baxter and O-operator map the {0, 1} grids find on ut2 and
    # m2, and 20 they reject, evaluated on random rational elements; the
    # Rota-Baxter identity is the O-operator identity on the regular
    # bimodule
    rng = seeded(233)
    coeffs = (Fraction(0), Fraction(1))
    for name in ("ut2", "m2"):
        alg = CORPUS[name]
        n = alg.dimension
        bm = regular_af_bimodule(alg)
        rb, _ = grid_search(SearchSpec("rota-baxter", coeffs, 4), alg)
        oo, _ = grid_search(SearchSpec("o-operator", coeffs, 4), bm)
        assert rb == oo
        rejected = []
        while len(rejected) < 20:
            t = [[Fraction(rng.randint(0, 1)) for _ in range(n)]
                 for _ in range(n)]
            if t not in rb:
                rejected.append(t)
        for t in rb + rejected:
            verdict = check_rota_baxter(alg, t)
            assert verdict.passed == (t in rb)
            assert check_o_operator(OOperator(bm, t)).passed == verdict.passed
            random_verdict = all(
                not any(_oracle_defect(bm, t, rand_vec(rng, n),
                                       rand_vec(rng, n)))
                for _ in range(8))
            assert random_verdict == verdict.passed


# ---------------------------------------------------------------------------
# the induced-identity row and the flat kernel against the code they
# replaced, on rationals and on non-associative anti-flexible bases
# ---------------------------------------------------------------------------

@st.composite
def af_bases(draw):
    """An algebra of af_algebras() or one of non_associative_af()."""
    return draw(st.one_of(af_algebras(),
                          st.sampled_from(non_associative_af())))


@settings(max_examples=60, deadline=None)
@given(st.data(), af_bases())
def test_generalized_rb_matches_the_per_triple_check(data, alg):
    n = alg.dimension
    alpha = data.draw(st.one_of(
        _matrices(n, n), st.just(zeros_mat(n)),
        st.lists(st.lists(st.sampled_from((-1, 0, 1)), min_size=n,
                          max_size=n), min_size=n, max_size=n)))
    for every in (False, True):
        assert check_generalized_rb(alg, alpha, every) == \
            reference.check_generalized_rb(alg, alpha, every)
        c = regular_tensors(alg)
        assert _o_operator_report(c, alpha, every, "o-operator") == \
            reference.o_operator_report(c, alpha, every)


def test_generalized_rb_matches_the_per_triple_check_on_rb_maps():
    # Rota-Baxter maps pass and sweep every triple; with one entry moved
    # they fail, some of them
    failing = 0
    for alg in non_associative_af()[:12]:
        found, _ = grid_search(SearchSpec("rota-baxter", (0, 1)), alg)
        for alpha in found[:4]:
            moved = [list(row) for row in alpha]
            moved[0][1] += Fraction(1, 2)
            for every in (False, True):
                for a in (alpha, moved):
                    report = check_generalized_rb(alg, a, every)
                    assert report == \
                        reference.check_generalized_rb(alg, a, every)
                    failing += not report.passed
            assert check_generalized_rb(alg, alpha).passed
    assert failing


@settings(max_examples=40, deadline=None)
@given(st.data(), st.one_of(af_bimodules(), random_bimodules()))
def test_o_operator_report_matches_the_per_block_report(data, bm):
    n, m = bm.base.dimension, bm.space_dim
    c = structure_tensors(bm)
    t = data.draw(_matrices(n, m))
    for every in (False, True):
        assert _o_operator_report(c, t, every, "o-operator") == \
            reference.o_operator_report(c, t, every)
    ints = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=m,
                                       max_size=m), min_size=n, max_size=n))
    assert o_operator_numerators(c)(ints) == \
        harness_reference._o_operator_residual(c)(ints)


def test_grid_search_matches_reference_on_non_associative_bases():
    for k, alg in enumerate(non_associative_af()[:6]):
        for target, subject in (("rota-baxter", alg),
                                ("o-operator", regular_af_bimodule(alg))):
            for coeffs in ((0, 1),) + (((-1, 0, 1),) if k < 2 else ()):
                spec = SearchSpec(target, coeffs, 3)
                found, report = grid_search(spec, subject)
                assert (found, without_visited(report)) == \
                    harness_reference.grid_search(spec, subject)
